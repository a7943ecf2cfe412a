"""Linewidth extraction and model fitting for measured or synthesized traces.

The narrow LC feature rides on the broad cavity lineshape, so width
extraction subtracts a linear baseline across the analysis window before
locating half-maximum crossings. Fitting is a damped least-squares descent
on the coupled-mode model; complex traces are fit in (re, im), power traces
are fit after scaling model and data to unit maximum inside the window.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coupled_modes import (
    FREQUENCY_FIELDS,
    PARAM_FIELDS,
    ComplexTrace,
    SystemParams,
    TraceKind,
    _scattering,
    _theta,
)
from .errors import (
    DegenerateParameterError,
    InvalidInputError,
    PeakAmbiguityError,
    ValidityWarning,
    WindowTooNarrowError,
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
        Optional per-parameter (lo, hi) in rad/s. Rates default to
        [0, inf), frequencies to (0, inf).
    max_iterations : int
    tolerance : float
        Relative stopping threshold on cost reduction and step size.
    weights : ndarray or None
        Optional per-sample weights (uniform when None).
    """

    free_params: tuple
    initial_guess: SystemParams
    bounds: dict = field(default_factory=dict)
    max_iterations: int = 200
    tolerance: float = 1e-10
    weights: object = None

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
        bounds = dict(self.bounds)
        for name, pair in bounds.items():
            if name not in PARAM_FIELDS:
                raise InvalidInputError(f"bounds given for unknown parameter {name!r}")
            lo, hi = float(pair[0]), float(pair[1])
            if not lo < hi:
                raise InvalidInputError(f"bounds for {name!r} must satisfy lo < hi")
            bounds[name] = (lo, hi)
            value = getattr(self.initial_guess, name)
            if not lo <= value <= hi:
                raise InvalidInputError(
                    f"initial guess for {name!r} ({value!r}) is outside bounds {pair!r}"
                )
        object.__setattr__(self, "bounds", bounds)
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if not 0.0 < self.tolerance < 1.0:
            raise InvalidInputError("tolerance must lie in (0, 1)")

    def effective_bounds(self, name: str) -> tuple:
        if name in self.bounds:
            return self.bounds[name]
        if name in ("omega_cav", "omega_lc"):
            return (5e-324, np.inf)  # frequencies must stay positive
        return (0.0, np.inf)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit.

    ``params`` is the full parameter set (rad/s); ``uncertainties`` maps each
    free parameter to its 1-sigma from the residual covariance, quoted in Hz.
    ``residual_norm`` is the RMS of the weighted residual vector.
    ``cost_trajectory`` holds the cost at the start and after each accepted
    iteration (monotone non-increasing by construction).
    ``model_evaluations`` counts calls of the model kernel, with or without
    the Jacobian. ``termination`` says why the fit stopped: ``cost_floor``,
    ``relative_drop``, ``relative_step``, ``damping_saturated`` or
    ``max_iterations``. The pooled summary of :func:`multi_trace_fit` sums
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


def _residuals(om, theta, kind, data, root_w, free=()):
    """Weighted residual vector of one trace; real-valued.

    ``om``, ``theta`` and ``free`` are as for the model kernel; ``data`` is
    the trace's values, scaled to unit maximum for power traces. Complex
    kinds stack the real and imaginary parts. With ``free`` non-empty,
    returns ``(r, jac)`` with the closed-form Jacobian dr/dtheta[free]. The
    power model |S21|^2 / max |S21|^2 is differentiated with the maximum
    held at its argmax sample.
    """
    power = kind is TraceKind.POWER
    out = _scattering(om, theta, TraceKind.S21 if power else kind, free)
    model, jac = out if free else (out, None)
    if not power:
        diff = model - data
        r = np.concatenate([root_w * diff.real, root_w * diff.imag])
        if jac is None:
            return r
        return r, np.concatenate([root_w[:, None] * jac.real, root_w[:, None] * jac.imag])
    p = np.abs(model) ** 2
    k = int(np.argmax(p))
    peak = p[k] if p[k] > 0.0 else 1.0  # an all-zero model stays unscaled
    scaled = p / peak
    r = root_w * (scaled - data)
    if jac is None:
        return r
    dp = 2.0 * (model.real[:, None] * jac.real + model.imag[:, None] * jac.imag)
    return r, root_w[:, None] * (dp - scaled[:, None] * dp[k]) / peak


def _check_degenerate(jac, names):
    """Raise if any Jacobian column is null or two columns are collinear."""
    norms = np.linalg.norm(jac, axis=0)
    scale = float(np.max(norms)) if norms.size else 0.0
    for j, n in enumerate(norms):
        if n <= 1e-14 * max(scale, 1e-300):
            raise DegenerateParameterError(
                (names[j],), f"parameter {names[j]!r} has no effect on this trace"
            )
    unit = jac / norms
    gram = unit.T @ unit
    k = len(names)
    for i in range(k):
        for j in range(i + 1, k):
            if abs(gram[i, j]) > 1.0 - 1e-6:
                raise DegenerateParameterError(
                    (names[i], names[j]),
                    f"parameters {names[i]!r} and {names[j]!r} are indistinguishable "
                    "for this trace (collinear sensitivities)",
                )


def fit_trace(trace: ComplexTrace, config: FitConfig) -> FitResult:
    """Fit the coupled-mode model to one trace.

    Damped least squares: steps solve (J^T J + lam diag(J^T J)) d = -J^T r,
    the damping grows when a step fails to reduce the cost and shrinks when
    it succeeds, and steps are clipped to the parameter bounds. J is the
    closed-form Jacobian of the model kernel (for power traces, of the
    unit-max normalization taken at the argmax sample). The fit stops
    when the relative cost reduction or the relative step drops below
    ``config.tolerance``; hitting ``max_iterations`` first yields
    ``converged=False`` rather than an exception.

    Raises
    ------
    DegenerateParameterError
        When the initial Jacobian shows a parameter without effect or a
        collinear pair (e.g. kappa_cav_2 and kappa_cav_loss both free on a
        normalized transmission-power trace, where only their sum enters).
    """
    names = config.free_params
    if len(trace) < _MIN_POINTS_PER_PARAM * len(names):
        raise InvalidInputError(
            f"trace has {len(trace)} points; need at least "
            f"{_MIN_POINTS_PER_PARAM} per free parameter ({len(names)} free)"
        )
    if config.weights is None:
        root_w = np.ones(len(trace))
    else:
        w = np.asarray(config.weights, dtype=float)
        if w.shape != trace.freqs.shape or np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be finite, non-negative, one per sample")
        root_w = np.sqrt(w)

    base = config.initial_guess
    lo = np.array([config.effective_bounds(n)[0] for n in names])
    hi = np.array([config.effective_bounds(n)[1] for n in names])
    x = np.array([getattr(base, n) for n in names], dtype=float)
    for j, name in enumerate(names):
        if not lo[j] <= x[j] <= hi[j]:
            raise InvalidInputError(f"initial guess for {name!r} is outside its bounds")

    # The model's domain: frequencies positive, rates non-negative, all finite.
    domain_lo = np.array([5e-324 if n in FREQUENCY_FIELDS else 0.0 for n in names])
    free = tuple(PARAM_FIELDS.index(n) for n in names)
    theta = list(_theta(base))
    om = TWO_PI * trace.freqs
    data = trace.values
    if trace.kind is TraceKind.POWER:
        data = data / data.max()
    evaluations = 0

    def evaluate(xv, with_jac):
        nonlocal evaluations
        evaluations += 1
        for index, value in zip(free, xv):
            theta[index] = float(value)
        return _residuals(om, theta, trace.kind, data, root_w, free if with_jac else ())

    def cost_of(xv):
        # A trial outside the model's domain or with a non-finite model
        # counts as infinitely costly.
        if not np.all((xv >= domain_lo) & (xv < np.inf)):
            return np.inf
        r = evaluate(xv, False)
        if not np.all(np.isfinite(r)):
            return np.inf
        return float(r @ r)

    r_cur, jac = evaluate(x, True)
    if not np.all(np.isfinite(r_cur)):
        raise InvalidInputError("initial guess is outside the model's domain")
    cost = float(r_cur @ r_cur)
    m = r_cur.size
    trajectory = [cost]
    _check_degenerate(jac, names)

    lam = 1e-3
    converged = False
    termination = "max_iterations"
    iterations = 0
    floor = 1e-30 * m
    for _ in range(config.max_iterations):
        iterations += 1
        if cost <= floor:
            converged, termination = True, "cost_floor"
            break
        norms = np.linalg.norm(jac, axis=0)
        norms[norms == 0.0] = 1.0
        unit = jac / norms
        a = unit.T @ unit
        gradient = unit.T @ r_cur
        accepted = False
        while lam < 1e14:
            try:
                step = np.linalg.solve(a + lam * np.eye(len(names)), -gradient)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.clip(x + step / norms, lo, hi)
            cost_new = cost_of(x_new)
            if cost_new < cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                rel_step = float(
                    np.max(np.abs(x_new - x) / np.maximum(np.abs(x), 1.0))
                )
                x, cost = x_new, cost_new
                trajectory.append(cost)
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                # The Jacobian at every accepted point; the last one also
                # gives the covariance.
                r_cur, jac = evaluate(x, True)
                if rel_drop <= config.tolerance:
                    converged, termination = True, "relative_drop"
                elif rel_step <= config.tolerance:
                    converged, termination = True, "relative_step"
                break
            lam *= 10.0
        if not accepted:
            # Damping saturated: no step in any descent direction improves
            # the cost, i.e. a (possibly bound-constrained) minimum.
            converged, termination = True, "damping_saturated"
            break
        if converged:
            break

    dof = max(m - len(names), 1)
    s2 = cost / dof
    cov = s2 * np.linalg.pinv(jac.T @ jac)
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    uncertainties = {n: angular_to_hz(float(s)) for n, s in zip(names, sigmas)}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        fitted = base.replace(**dict(zip(names, x)))
    return FitResult(
        params=fitted,
        residual_norm=float(np.sqrt(cost / m)),
        uncertainties=uncertainties,
        converged=converged,
        iterations=iterations,
        cost_trajectory=tuple(trajectory),
        model_evaluations=evaluations,
        termination=termination,
    )


def auto_initial_guess(trace: ComplexTrace, template: SystemParams) -> SystemParams:
    """Guess omega_cav and omega_lc from the trace's two dominant features.

    Heuristic: local power maxima above 3x the median power are collected
    (suppressing secondary maxima inside an already-claimed feature); the
    widest feature is taken as the cavity, the narrowest as the LC mode.
    Rates are left at the template's values.
    """
    f = trace.freqs
    p = trace.power()
    med = float(np.median(p))
    threshold = 3.0 * med
    inner = p[1:-1]
    idx = np.flatnonzero((inner >= p[:-2]) & (inner > p[2:]) & (inner > threshold)) + 1
    if not idx.size:
        raise InvalidInputError("no feature rises above 3x the median power")

    # The span walks run over Python floats: indexing numpy scalars one at
    # a time costs several times more.
    fl, pl = f.tolist(), p.tolist()
    last = len(pl) - 1
    peaks = []  # (freq, width, spans) with non-maximum suppression
    for i in idx[np.argsort(-p[idx], kind="stable")].tolist():
        if any(plo <= fl[i] <= phi for _, _, (plo, phi) in peaks):
            continue
        level = med + 0.5 * (pl[i] - med)
        l = i
        while l > 0 and pl[l] > level:
            l -= 1
        r = i
        while r < last and pl[r] > level:
            r += 1
        # Power-weighted centroid over the half-max span; the raw argmax
        # wanders by a good fraction of the linewidth on a noisy flat top.
        weight = np.clip(p[l : r + 1] - med, 0.0, None)
        center = float(np.sum(f[l : r + 1] * weight) / np.sum(weight))
        peaks.append((center, fl[r] - fl[l], (fl[l], fl[r])))
    if len(peaks) < 2:
        raise InvalidInputError(
            "fewer than two resolvable features above 3x the median power"
        )
    by_width = sorted(peaks, key=lambda t: t[1])
    lc_freq = by_width[0][0]
    cav_freq = by_width[-1][0]
    return template.replace(
        omega_cav=TWO_PI * cav_freq, omega_lc=TWO_PI * lc_freq
    )


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
    shared_std_errors: dict
    consistent: dict


def multi_trace_fit(traces, shared, config: FitConfig, *, auto_guess=True) -> MultiTraceFit:
    """Fit several traces independently and pool the shared parameters.

    Parameters
    ----------
    traces : sequence of ComplexTrace
        At least two.
    shared : iterable of str
        Free parameters expected to be common to all traces (e.g. the
        coupling rate). Averaged with mean +/- standard error. Parameters
        not listed (typically omega_cav, omega_lc) stay individual.
    config : FitConfig
        Applied to every trace.
    auto_guess : bool
        Refresh each trace's initial guess for free resonance frequencies
        with :func:`auto_initial_guess` before fitting.

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
        cfg = config
        if auto_guess:
            guessed = auto_initial_guess(trace, config.initial_guess)
            updates = {
                n: getattr(guessed, n)
                for n in ("omega_cav", "omega_lc")
                if n in config.free_params
            }
            if updates:
                cfg = dataclasses.replace(
                    config, initial_guess=config.initial_guess.replace(**updates)
                )
        results.append(fit_trace(trace, cfg))

    n = len(results)
    means, std_errors, consistent, unc_hz = {}, {}, {}, {}
    for name in shared:
        values = np.array([getattr(r.params, name) for r in results])
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / np.sqrt(n))
        pooled = float(
            np.sqrt(np.mean([(TWO_PI * r.uncertainties[name]) ** 2 for r in results]) / n)
        )
        means[name] = mean
        std_errors[name] = se
        consistent[name] = se <= 2.0 * pooled + 1e-12 * abs(mean)
        unc_hz[name] = angular_to_hz(se)

    first = results[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        combined_params = first.params.replace(**means)
    combined = FitResult(
        params=combined_params,
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
        shared_std_errors=std_errors,
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
    if amplitude < 0.0 or not np.isfinite(amplitude):
        raise InvalidInputError(f"noise amplitude must be non-negative, got {amplitude!r}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, amplitude, (2, len(trace)))
    return ComplexTrace(trace.freqs, trace.values + noise[0] + 1j * noise[1], trace.kind)
