"""Linewidth extraction and model fitting for measured or synthesized traces.

The narrow LC feature rides on the broad cavity lineshape, so width
extraction subtracts a linear baseline across the analysis window before
locating half-maximum crossings. Fitting is a damped least-squares descent
on the coupled-mode model; complex traces are fit in (re, im), power traces
with the model's scale profiled out (variable projection).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coupled_modes import (
    FREQUENCY_FIELDS,
    PARAM_FIELDS,
    ComplexTrace,
    SystemParams,
    TraceKind,
    _PARAM_RULE,
    _bare_detuning,
    _scattering,
    _theta,
    normalized_power_trace,
)
from .errors import (
    DegenerateParameterError,
    InvalidInputError,
    PeakAmbiguityError,
    ValidityWarning,
    WindowTooNarrowError,
    _require,
)
from .units import TWO_PI, angular_to_hz

_MIN_WINDOW_SAMPLES = 5
#: Grid steps an extracted width must span before it is trusted.
_MIN_WIDTH_STEPS = 3
#: Points per free parameter required of a trace before fitting.
_MIN_POINTS_PER_PARAM = 5


def extract_fwhm(trace: ComplexTrace, window) -> tuple:
    """Peak center and full width at half maximum inside a window.

    A linear baseline through the window's edge samples is removed from the
    power samples, the single remaining peak is located, and the half-maximum
    crossings are found by linear interpolation between grid points. The
    center is refined by parabolic interpolation through the three samples
    around the maximum.

    Parameters
    ----------
    trace : ComplexTrace
        Any kind; power samples are analyzed.
    window : (float, float)
        Analysis window (lo_hz, hi_hz), inside the trace's span.

    Returns
    -------
    (center_hz, fwhm_hz)

    Raises
    ------
    PeakAmbiguityError
        No peak rises above the baseline, or more than one region exceeds
        half maximum (two distinct peaks).
    WindowTooNarrowError
        A half-maximum crossing lands in the window's outermost grid
        interval, or the extracted width exceeds half the window span;
        either way the window clips the feature. Use a window a few
        linewidths wide.

    Warns
    -----
    ValidityWarning
        The width spans fewer than 3 local grid steps: linear interpolation
        between so few samples biases it (typically wide).
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InvalidInputError("window must satisfy lo < hi")
    if lo < trace.freqs[0] or hi > trace.freqs[-1]:
        raise InvalidInputError("window must lie inside the trace's frequency span")
    mask = (trace.freqs >= lo) & (trace.freqs <= hi)
    if np.count_nonzero(mask) < _MIN_WINDOW_SAMPLES:
        raise WindowTooNarrowError(
            f"window holds fewer than {_MIN_WINDOW_SAMPLES} samples"
        )
    f = trace.freqs[mask]
    p = trace.power()[mask]

    # Linear baseline pinned to the window's edge samples.
    baseline = p[0] + (f - f[0]) * ((p[-1] - p[0]) / (f[-1] - f[0]))
    q = p - baseline

    qmax = float(np.max(q))
    scale = float(np.max(np.abs(p)))
    if qmax <= 1e-12 * max(scale, 1e-300):
        raise PeakAmbiguityError("no peak rises above the window baseline")
    imax = int(np.argmax(q))
    half = 0.5 * qmax

    # Contiguous runs above half maximum; a second run is a second peak.
    above = q > half
    edges = np.flatnonzero(np.diff(above.astype(int)))
    runs = (len(edges) + (1 if above[0] else 0) + (1 if above[-1] else 0)) // 2
    if runs != 1:
        raise PeakAmbiguityError(f"{runs} regions exceed half maximum; expected one peak")

    i0 = int(np.argmax(above))                      # first index above half
    i1 = int(len(above) - 1 - np.argmax(above[::-1]))  # last index above half
    if i0 == 0 or i1 == len(q) - 1 or i0 == 1 or i1 == len(q) - 2:
        raise WindowTooNarrowError(
            "half-maximum crossing sits in the window's outermost grid interval"
        )
    f_left = f[i0 - 1] + (half - q[i0 - 1]) * (f[i0] - f[i0 - 1]) / (q[i0] - q[i0 - 1])
    f_right = f[i1] + (half - q[i1]) * (f[i1 + 1] - f[i1]) / (q[i1 + 1] - q[i1])
    fwhm = float(f_right - f_left)
    if fwhm > 0.5 * (hi - lo):
        raise WindowTooNarrowError(
            "extracted width exceeds half the window span; the window clips the feature"
        )
    # Mean grid step over the samples that bracket both crossings.
    steps = fwhm * (i1 - i0 + 2) / (f[i1 + 1] - f[i0 - 1])
    if steps < _MIN_WIDTH_STEPS:
        warnings.warn(
            f"extracted width spans {steps:.2f} grid steps (fewer than "
            f"{_MIN_WIDTH_STEPS}); the grid under-resolves the feature and the "
            "width is unreliable",
            ValidityWarning,
            stacklevel=2,
        )

    # Parabolic vertex through the three samples around the maximum,
    # in coordinates centered on the peak sample for conditioning.
    xs = f[imax - 1 : imax + 2] - f[imax]
    ys = q[imax - 1 : imax + 2]
    a, b, _ = np.polyfit(xs, ys, 2)
    center = float(f[imax] - b / (2.0 * a)) if a < 0.0 else float(f[imax])

    return center, fwhm


@dataclass(frozen=True)
class FitConfig:
    """Configuration of a damped least-squares fit.

    Attributes
    ----------
    free_params : tuple of str
        SystemParams field names to vary; stored in canonical field order.
    initial_guess : SystemParams
        Starting point; also supplies the fixed parameters.
    bounds : dict
        Optional (lo, hi) in rad/s per free parameter; ``lo`` must obey the
        parameter's domain rule. After construction it holds the whole box,
        one pair per free parameter: rates default to [0, inf), frequencies
        to [5e-324, inf).
    max_iterations : int
    tolerance : float
        Relative stopping threshold on cost reduction and step size.

    Every sample of a trace weighs the same in the fit.
    """

    free_params: tuple
    initial_guess: SystemParams
    bounds: dict = field(default_factory=dict)
    max_iterations: int = 200
    tolerance: float = 1e-10

    def __post_init__(self):
        free = tuple(self.free_params)
        if not free:
            raise InvalidInputError("free_params must not be empty")
        for name in free:
            if name not in PARAM_FIELDS:
                raise InvalidInputError(f"unknown parameter {name!r}")
        if len(set(free)) != len(free):
            raise InvalidInputError("free_params must not repeat")
        ordered = tuple(n for n in PARAM_FIELDS if n in free)
        object.__setattr__(self, "free_params", ordered)
        floor = {"positive": 5e-324, "non-negative": 0.0}  # each rule's least value
        bounds = {name: (floor[_PARAM_RULE[name]], np.inf) for name in ordered}
        for name, pair in dict(self.bounds).items():
            if name not in PARAM_FIELDS:
                raise InvalidInputError(f"bounds given for unknown parameter {name!r}")
            if name not in ordered:
                raise InvalidInputError(f"bounds given for fixed parameter {name!r}")
            lo, hi = float(pair[0]), float(pair[1])
            if not lo < hi:
                raise InvalidInputError(f"bounds for {name!r} must satisfy lo < hi")
            _require(f"lower bound for {name!r}", lo, _PARAM_RULE[name], "rad/s")
            bounds[name] = (lo, hi)
            value = getattr(self.initial_guess, name)
            if not lo <= value <= hi:
                raise InvalidInputError(
                    f"initial guess for {name!r} ({value!r}) is outside bounds {pair!r}"
                )
        object.__setattr__(self, "bounds", bounds)
        iterations = self.max_iterations
        if not isinstance(iterations, numbers.Integral):
            raise InvalidInputError(f"max_iterations must be an integer, got {iterations!r}")
        _require("max_iterations", iterations, "positive")
        _require("tolerance", self.tolerance, "in (0, 1)")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit.

    ``params`` is the full parameter set (rad/s); ``uncertainties`` maps each
    free parameter to its 1-sigma from the residual covariance, quoted in Hz.
    ``residual_norm`` is the RMS of the residual vector.
    ``cost_trajectory`` holds the cost at the start and after each accepted
    iteration (monotone non-increasing by construction).
    ``model_evaluations`` counts calls of the model kernel, each of which
    also gives the Jacobian. ``termination`` says why the fit stopped:
    ``cost_floor``, ``relative_drop``, ``relative_step``,
    ``damping_saturated`` or ``max_iterations``, and ``converged`` is false
    only for the last. The pooled summary of :func:`multi_trace_fit` sums
    its members' evaluations and leaves ``termination`` empty.
    """

    params: SystemParams
    residual_norm: float
    uncertainties: dict
    converged: bool
    iterations: int
    cost_trajectory: tuple = ()
    model_evaluations: int = 0
    termination: str = ""


def _residuals(om, theta, kind, data, free):
    """Residual vector of one trace and its Jacobian dr/dtheta[free].

    ``om``, ``theta`` and ``free`` are as for the model kernel; ``data`` is
    the trace's values. Returns ``(r, jac)``, both real-valued, with the
    closed-form Jacobian. Complex kinds give float views, not copies: row 2i
    holds the real part of sample i and row 2i + 1 its imaginary part.
    Power traces profile out the scale of p = |S21|^2 (variable projection):
    r = s p - data with s = (p . data) / (p . p), so dr = s dp + p ds with
    ds = (data . dp - 2 s p . dp) / (p . p).
    """
    power = kind is TraceKind.POWER
    model, jac = _scattering(om, theta, TraceKind.S21 if power else kind, free)
    if not power:
        return (model - data).view(float), jac.T.view(float).T
    p = np.abs(model) ** 2
    norm = p @ p or 1.0  # an all-zero model: p = dp = 0, so s = 0
    s = (p @ data) / norm
    dp = 2.0 * (model.real[:, None] * jac.real + model.imag[:, None] * jac.imag)
    ds = (data @ dp - 2.0 * s * (p @ dp)) / norm
    return s * p - data, s * dp + np.outer(p, ds)


def _scaled(jac):
    """Column norms of ``jac`` from the diagonal of J^T J, the same with 0
    read as 1 (``safe``), and the ascending eigenpairs ``w``, ``v`` of the
    unit columns' Gram matrix J^T J / outer(safe, safe)."""
    gram = jac.T @ jac
    norms = np.sqrt(gram.diagonal())
    safe = np.where(norms == 0.0, 1.0, norms)
    return norms, safe, *np.linalg.eigh(gram / np.outer(safe, safe))


def _check_degenerate(norms, w, v, names):
    """Raise if a Jacobian column is null, or if the unit-column Gram matrix
    of :func:`_scaled` has an eigenvalue below 1e-6 (for two columns, |cos| >
    1 - 1e-6); the error names the parameters whose component in its
    eigenvector is at least 0.1 in magnitude."""
    scale = float(np.max(norms))
    for j, n in enumerate(norms):
        if n <= 1e-14 * max(scale, 1e-300):
            raise DegenerateParameterError(
                (names[j],), f"parameter {names[j]!r} has no effect on this trace"
            )
    if w[0] < 1e-6:
        mixed = tuple(n for n, c in zip(names, v[:, 0]) if abs(c) >= 0.1)
        raise DegenerateParameterError(
            mixed,
            f"parameters {', '.join(map(repr, mixed))} are indistinguishable for "
            "this trace (a combination of them has no effect)",
        )


def _step(w, v, gradient, lam):
    """(G + lam I)^-1 (-gradient) from the eigenpairs ``w``, ``v`` of G."""
    return -v @ ((v.T @ gradient) / (w + lam))


def _least_squares(evaluate, x, lo, hi, names, max_iterations, tolerance):
    """Damped least squares (Levenberg-Marquardt, after Moré 1978) from ``x``
    in the box [``lo``, ``hi``]; ``evaluate(x)`` gives the real residual and
    its Jacobian, whose columns ``names`` label.

    The engine owns the algorithm: it counts evaluations, refuses a start
    whose residual is not finite or whose J is degenerate
    (:func:`_check_degenerate`), damps, bounds and ends the steps and gives
    sigma. Steps solve (J^T J + lam diag(J^T J)) d = -J^T r, the damping
    grows when a step fails to reduce the cost and shrinks when it succeeds,
    and steps are clipped to the box. A parameter on its bound whose descent
    points out of the box is held there, and the others solve their own
    damped system (an active set, Lawson & Hanson 1974); when all are held,
    the fit ends. Each trial costs one evaluation; an accepted trial's J is
    the next step's. The fit also stops when the relative cost reduction or
    step drops below ``tolerance``.
    Returns the end point, each parameter's 1-sigma in the units of ``x``
    and the run's ``FitResult`` fields.
    """
    r_cur, jac = evaluate(x)
    if not np.all(np.isfinite(r_cur)):
        raise InvalidInputError("initial guess is outside the model's domain")
    cost, evaluations, m = float(r_cur @ r_cur), 1, r_cur.size
    trajectory = [cost]
    norms, safe, w, v = _scaled(jac)
    _check_degenerate(norms, w, v, names)

    lam = 1e-3
    termination = "max_iterations"
    floor = 1e-30 * m
    edges = set(lo.tolist() + hi.tolist())  # a quicker test for x on a bound than x == lo
    for iterations in range(1, max_iterations + 1):
        if cost <= floor:
            termination = "cost_floor"
            break
        gradient = (jac.T @ r_cur) / safe  # of the unit columns
        wk, vk = w, v
        if not edges.isdisjoint(x.tolist()):  # hold each on a bound whose descent leaves it
            held = x == np.where(gradient > 0.0, lo, hi)
            if held.all():  # nothing can move, so no trial could lower the cost
                termination = "damping_saturated"
                break
            if held.any():  # the eigenpairs of the others' block, 0 in a held row
                wk, vk = np.linalg.eigh(((v * w) @ v.T)[np.ix_(~held, ~held)])
                vk = np.eye(len(x))[:, ~held] @ vk
        while lam < 1e14:
            step = _step(wk, vk, gradient, lam)  # lam diag(J^T J) is lam I on unit columns
            x_new = np.minimum(np.maximum(x + step / safe, lo), hi)
            # Clipping keeps a trial inside the box, which lies in the model's
            # domain; a non-finite trial or residual costs inf or nan: never taken.
            cost_new = np.inf
            if np.all(np.isfinite(x_new)):
                r_new, jac_new = evaluate(x_new)
                cost_new, evaluations = float(r_new @ r_new), evaluations + 1
            if cost_new < cost:
                break
            lam *= 10.0
        else:
            # Damping saturated: no step in any descent direction improves
            # the cost, i.e. a (possibly bound-constrained) minimum.
            termination = "damping_saturated"
            break
        rel_drop = (cost - cost_new) / max(cost, 1e-300)
        rel_step = float(np.max(np.abs(x_new - x) / np.maximum(np.abs(x), 1.0)))
        # The accepted trial's Jacobian is the next step's, scaled once; the
        # last one also gives the covariance.
        x, cost, r_cur, jac = x_new, cost_new, r_new, jac_new
        _, safe, w, v = _scaled(jac)
        trajectory.append(cost)
        lam = max(lam / 3.0, 1e-12)
        if rel_drop <= tolerance:
            termination = "relative_drop"
            break
        if rel_step <= tolerance:
            termination = "relative_step"
            break

    # diag(pinv(J^T J)) from the same eigenpairs; like pinv, drop the
    # eigenvalues at or below 1e-15 of the largest. A null column gets 0.
    kept = w > 1e-15 * w[-1]
    variance = cost / max(m - len(names), 1) * (v[:, kept] ** 2 @ (1.0 / w[kept]))
    return x, np.sqrt(variance) / safe, dict(
        residual_norm=float(np.sqrt(cost / m)),
        converged=termination != "max_iterations",
        iterations=iterations,
        cost_trajectory=tuple(trajectory),
        model_evaluations=evaluations,
        termination=termination,
    )


def fit_trace(trace: ComplexTrace, config: FitConfig) -> FitResult:
    """Fit the coupled-mode model to one trace.

    This is the model side: it checks the trace's size, scales a power trace
    to unit maximum (:func:`normalized_power_trace`), maps the free
    parameters onto the model kernel's theta and builds the ``FitResult``
    (1-sigma in Hz); :func:`_least_squares` owns the algorithm. J is the
    closed-form Jacobian of the model kernel (for power traces, of the model
    times its least-squares scale to the data). Hitting ``max_iterations``
    yields ``converged=False`` rather than an exception.

    Raises
    ------
    DegenerateParameterError
        When the initial Jacobian shows a parameter or a combination of
        parameters with no effect (e.g. kappa_cav_2 and kappa_cav_loss on a
        normalized transmission-power trace, where only their sum enters).
    """
    names = config.free_params
    if len(trace) < _MIN_POINTS_PER_PARAM * len(names):
        raise InvalidInputError(
            f"trace has {len(trace)} points; need at least "
            f"{_MIN_POINTS_PER_PARAM} per free parameter ({len(names)} free)"
        )

    base = config.initial_guess
    lo, hi = np.array([config.bounds[n] for n in names]).T
    x = np.array([getattr(base, n) for n in names], dtype=float)

    free = tuple(PARAM_FIELDS.index(n) for n in names)
    theta = list(_theta(base))
    om = TWO_PI * trace.freqs
    data = trace.values
    if trace.kind is TraceKind.POWER:
        data = normalized_power_trace(trace).values

    def evaluate(xv):
        for index, value in zip(free, xv):
            theta[index] = float(value)
        return _residuals(om, theta, trace.kind, data, free)

    x, sigma, run = _least_squares(evaluate, x, lo, hi, names, config.max_iterations,
                                   config.tolerance)
    uncertainties = {n: angular_to_hz(float(s)) for n, s in zip(names, sigma)}
    return FitResult(params=base.replace(**dict(zip(names, x))),
                     uncertainties=uncertainties, **run)


def auto_initial_guess(trace: ComplexTrace, template: SystemParams) -> SystemParams:
    """Guess omega_cav and omega_lc from the trace's two dominant features.

    Heuristic: local power maxima above 3x the median power are collected
    (suppressing secondary maxima inside an already-claimed feature); the
    widest feature is taken as the dressed cavity mode, the narrowest as
    the dressed LC mode, and both are undressed with the template's g and
    rates (:func:`_undressed`). Rates are left at the template's values.
    An S11 trace is read through |1 - S11|^2, which peaks where |S21|^2
    does: S11 = 1 - kappa_cav_1/D and S21 = sqrt(kappa_cav_1 kappa_cav_2)/D.
    """
    f = trace.freqs
    p = np.abs(1.0 - trace.values) ** 2 if trace.kind is TraceKind.S11 else trace.power()
    med = float(np.median(p))
    threshold = 3.0 * med
    inner = p[1:-1]
    idx = np.flatnonzero((inner >= p[:-2]) & (inner > p[2:]) & (inner > threshold)) + 1
    if not idx.size:
        raise InvalidInputError("no feature rises above 3x the median power")

    # The span walks run over Python floats: indexing numpy scalars one at
    # a time costs several times more. Non-maximum suppression marks each
    # claimed half-max span by index, as good as by frequency: f rises.
    fl, pl = f.tolist(), p.tolist()
    last = len(pl) - 1
    claimed = bytearray(len(pl))
    peaks = []  # (freq, width)
    for i in idx[np.argsort(-p[idx], kind="stable")].tolist():
        if claimed[i]:
            continue
        level = med + 0.5 * (pl[i] - med)
        l = i
        while l > 0 and pl[l] > level:
            l -= 1
        r = i
        while r < last and pl[r] > level:
            r += 1
        claimed[l : r + 1] = b"\x01" * (r + 1 - l)
        # Power-weighted centroid over the half-max span; the raw argmax
        # wanders by a good fraction of the linewidth on a noisy flat top.
        weight = np.clip(p[l : r + 1] - med, 0.0, None)
        center = float(np.sum(f[l : r + 1] * weight) / np.sum(weight))
        peaks.append((center, fl[r] - fl[l]))
    if len(peaks) < 2:
        raise InvalidInputError(
            "fewer than two resolvable features above 3x the median power"
        )
    by_width = sorted(peaks, key=lambda t: t[1])
    return _undressed(template, TWO_PI * by_width[-1][0], TWO_PI * by_width[0][0])


def _undressed(template, dressed_cav, dressed_lc):
    """``template`` with the bare frequencies whose dressed modes sit at
    ``dressed_cav`` and ``dressed_lc`` (rad/s): the trace of the mode matrix
    fixes their sum, the exact inverse of the splitting their difference. A
    splitting below the template's minimum keeps the dressed frequencies."""
    bare = _bare_detuning(dressed_cav - dressed_lc, template)
    if math.isfinite(bare):
        mid = 0.5 * (dressed_cav + dressed_lc)
        dressed_cav, dressed_lc = mid + 0.5 * bare, mid - 0.5 * bare
    return template.replace(omega_cav=dressed_cav, omega_lc=dressed_lc)


@dataclass(frozen=True)
class MultiTraceFit:
    """Joint summary of independent per-trace fits.

    ``combined.params`` carries the mean of each shared parameter (other
    fields are taken from the first trace's fit); ``combined.uncertainties``
    holds the standard error of each shared parameter's mean, in Hz.
    ``consistent`` flags, per shared parameter, whether the scatter between
    traces is compatible with the per-fit 1-sigma uncertainties.
    """

    combined: FitResult
    per_trace: tuple
    shared_means: dict
    consistent: dict


def multi_trace_fit(traces, shared, config: FitConfig) -> MultiTraceFit:
    """Fit several traces independently and pool the shared parameters.

    Before each fit, :func:`auto_initial_guess` refreshes the trace's
    starting point for any free resonance frequency whose guess lies inside
    ``config.bounds``; a guess outside them keeps the configured start.

    Parameters
    ----------
    traces : sequence of ComplexTrace
        At least two.
    shared : iterable of str
        Free parameters expected to be common to all traces (e.g. the
        coupling rate). Averaged with mean +/- standard error. Parameters
        not listed (typically omega_cav, omega_lc) stay individual.
    config : FitConfig
        Applied to every trace, with the refreshed starting point.

    Notes
    -----
    A non-converged member fit does not raise; it is flagged in its own
    result and ``combined.converged`` is the AND over members.
    """
    traces = tuple(traces)
    if len(traces) < 2:
        raise InvalidInputError("multi_trace_fit needs at least two traces")
    shared = tuple(shared)
    for name in shared:
        if name not in config.free_params:
            raise InvalidInputError(f"shared parameter {name!r} is not free in the fit")

    results = []
    for trace in traces:
        guessed = auto_initial_guess(trace, config.initial_guess)
        inside = {n: getattr(guessed, n) for n, (lo, hi) in config.bounds.items()
                  if n in FREQUENCY_FIELDS and lo <= getattr(guessed, n) <= hi}
        start = config.initial_guess.replace(**inside)
        results.append(fit_trace(trace, dataclasses.replace(config, initial_guess=start)))

    n = len(results)
    means, consistent, unc_hz = {}, {}, {}
    for name in shared:
        values = np.array([getattr(r.params, name) for r in results])
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / np.sqrt(n))
        pooled = float(
            np.sqrt(np.mean([(TWO_PI * r.uncertainties[name]) ** 2 for r in results]) / n)
        )
        means[name] = mean
        consistent[name] = se <= 2.0 * pooled + 1e-12 * abs(mean)
        unc_hz[name] = angular_to_hz(se)

    combined = FitResult(
        params=results[0].params.replace(**means),
        residual_norm=float(np.sqrt(np.mean([r.residual_norm**2 for r in results]))),
        uncertainties=unc_hz,
        converged=all(r.converged for r in results),
        iterations=sum(r.iterations for r in results),
        cost_trajectory=(),
        model_evaluations=sum(r.model_evaluations for r in results),
    )
    return MultiTraceFit(
        combined=combined,
        per_trace=tuple(results),
        shared_means=means,
        consistent=consistent,
    )


def add_noise(trace: ComplexTrace, amplitude: float, seed: int) -> ComplexTrace:
    """Additive complex Gaussian noise, std ``amplitude`` per quadrature.

    Applies to complex trace kinds only; synthesize noisy power data by
    adding noise to the complex trace first and converting afterwards.
    The seed is explicit so batches are reproducible point for point.
    """
    if trace.kind is TraceKind.POWER:
        raise InvalidInputError("noise is added to complex traces, not power traces")
    _require("noise amplitude", amplitude, "non-negative")
    _require("seed", seed, "non-negative")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, amplitude, (2, len(trace)))
    return ComplexTrace(trace.freqs, trace.values + noise[0] + 1j * noise[1], trace.kind)
