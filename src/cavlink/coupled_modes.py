"""Two-mode response model of a microwave cavity wirelessly coupled to an LC resonator.

A transmission line drives a machined cavity (ports 1 and 2 plus internal
loss) which couples inductively, with rate ``g``, to an on-chip LC resonator
that has no wiring of its own. The LC mode is therefore visible only through
the cavity, and every rate it acquires from the outside world is mediated by
the cavity response.

Conventions
-----------
* All rates and frequencies inside the library are angular (rad/s) and all
  decay rates are energy decay rates (kappa = omega/Q).
* Frequency axes of traces are in Hz, as read off an instrument.
* ``kappa_cav_tot = kappa_cav_1 + kappa_cav_2 + kappa_cav_loss``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum
from operator import attrgetter

import numpy as np

from .errors import (
    BranchAssignmentError,
    InvalidInputError,
    SingularResponseError,
    ValidityWarning,
    _RULES,
    _require,
)
from .units import TWO_PI, angular_to_hz, hz_to_angular

FREQUENCY_FIELDS = ("omega_cav", "omega_lc")
RATE_FIELDS = ("kappa_cav_1", "kappa_cav_2", "kappa_cav_loss", "kappa_lc_bare", "g")
PARAM_FIELDS = FREQUENCY_FIELDS + RATE_FIELDS
#: The parameter domain, one rule of ``errors._RULES`` per field:
#: frequencies are positive, rates non-negative.
_PARAM_RULE = {name: "positive" if name in FREQUENCY_FIELDS else "non-negative"
               for name in PARAM_FIELDS}

#: Default threshold on kappa_lc_tot / (4 omega_m) below which the device
#: counts as resolved-sideband.
DEFAULT_SIDEBAND_THRESHOLD = 0.5


@dataclass(frozen=True)
class SystemParams:
    """Bare parameters of the cavity/LC chain, all in rad/s.

    Attributes
    ----------
    omega_cav, omega_lc : float
        Bare resonance frequencies of the cavity and the LC mode.
    kappa_cav_1, kappa_cav_2, kappa_cav_loss : float
        Cavity energy decay rates into port 1, port 2, and internal loss.
    kappa_lc_bare : float
        Internal loss rate of the LC mode before any cavity-mediated rates.
    g : float
        Cavity-LC coupling rate.

    Besides each field's own rule, the port rates must have a finite product
    kappa_cav_1 kappa_cav_2, and the three cavity rates a finite sum
    ``kappa_cav_tot``; either overflow raises InvalidInputError naming the rates.
    Instances are immutable; derive variants with :meth:`replace`.
    """

    omega_cav: float
    omega_lc: float
    kappa_cav_1: float
    kappa_cav_2: float
    kappa_cav_loss: float
    kappa_lc_bare: float
    g: float

    def __post_init__(self):
        for name, rule in _PARAM_RULE.items():
            value = float(getattr(self, name))
            if not _RULES[rule](value):  # the test alone on the hot path
                _require(name, value, rule, "rad/s")
            object.__setattr__(self, name, value)
        if self.kappa_cav_1 * self.kappa_cav_2 == math.inf:  # S21 scales with its root
            raise InvalidInputError(
                "kappa_cav_1 and kappa_cav_2 must have a finite product in (rad/s)^2, "
                f"got {self.kappa_cav_1!r} and {self.kappa_cav_2!r}"
            )
        if self.kappa_cav_tot == math.inf:  # the cavity linewidth every rate divides by
            raise InvalidInputError(
                "kappa_cav_1, kappa_cav_2 and kappa_cav_loss must have a finite sum in rad/s, "
                f"got {self.kappa_cav_1!r}, {self.kappa_cav_2!r} and {self.kappa_cav_loss!r}"
            )
        if _ultrastrong(self.omega_cav, self.omega_lc, self.g):
            _warn_ultrastrong()

    @property
    def kappa_cav_tot(self) -> float:
        """Total cavity linewidth (sum of both port rates and internal loss)."""
        return self.kappa_cav_1 + self.kappa_cav_2 + self.kappa_cav_loss

    def replace(self, **changes) -> "SystemParams":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    @classmethod
    def from_hz(
        cls,
        *,
        omega_cav,
        omega_lc,
        kappa_cav_1=0.0,
        kappa_cav_2=0.0,
        kappa_cav_loss=0.0,
        kappa_lc_bare=0.0,
        g=0.0,
    ) -> "SystemParams":
        """Build from values quoted in Hz (f = omega/2pi), e.g. straight from a datasheet."""
        return cls(
            omega_cav=hz_to_angular(omega_cav),
            omega_lc=hz_to_angular(omega_lc),
            kappa_cav_1=hz_to_angular(kappa_cav_1),
            kappa_cav_2=hz_to_angular(kappa_cav_2),
            kappa_cav_loss=hz_to_angular(kappa_cav_loss),
            kappa_lc_bare=hz_to_angular(kappa_lc_bare),
            g=hz_to_angular(g),
        )

    def to_hz(self) -> dict:
        """Field values in Hz, keyed ``<field>_hz`` (report/file form)."""
        return {f"{name}_hz": angular_to_hz(getattr(self, name)) for name in PARAM_FIELDS}


def _ultrastrong(omega_cav, omega_lc, g):
    """g >= 0.1 min(omega_cav, omega_lc), elementwise on arrays."""
    return (g >= 0.1 * omega_cav) | (g >= 0.1 * omega_lc)


def _warn_ultrastrong():
    """The ValidityWarning :func:`_ultrastrong` flags, reported at the caller
    of the function that issues it."""
    warnings.warn(
        "g exceeds min(omega_cav, omega_lc)/10; the rotating-wave "
        "two-mode model is not trustworthy this far into ultrastrong "
        "coupling",
        ValidityWarning,
        stacklevel=3,
    )


class TraceKind(str, Enum):
    S21 = "s21"
    S11 = "s11"
    POWER = "power_normalized"


@dataclass(frozen=True)
class ComplexTrace:
    """A frequency grid in Hz with response samples.

    ``s21`` and ``s11`` traces hold complex amplitudes; ``power_normalized``
    traces hold real non-negative power samples (unit maximum after
    :func:`normalized_power_trace`). The arrays are copies and are frozen.
    """

    freqs: np.ndarray
    values: np.ndarray
    kind: TraceKind = TraceKind.S21

    def __post_init__(self):
        kind = TraceKind(self.kind)
        freqs = np.array(self.freqs, dtype=float)
        if freqs.ndim != 1 or freqs.size < 2:
            raise InvalidInputError("freqs must be one-dimensional with at least 2 samples")
        if not np.all(np.isfinite(freqs)):
            raise InvalidInputError("freqs must be finite")
        if np.any(np.diff(freqs) <= 0.0):
            raise InvalidInputError("freqs must be strictly increasing")
        if kind is TraceKind.POWER:
            raw = np.asarray(self.values)
            if np.iscomplexobj(raw):
                if np.any(raw.imag != 0.0):
                    raise InvalidInputError("power_normalized values must be real")
                raw = raw.real
            values = np.array(raw, dtype=float)
            if values.shape != freqs.shape or not np.all(np.isfinite(values)):
                raise InvalidInputError("values must be finite and match freqs in length")
            if np.any(values < 0.0):
                raise InvalidInputError("power_normalized values must be non-negative")
        else:
            values = np.array(self.values, dtype=complex)
            if values.shape != freqs.shape or not np.all(np.isfinite(values)):
                raise InvalidInputError("values must be finite and match freqs in length")
        freqs.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return int(self.freqs.size)

    def power(self) -> np.ndarray:
        """|value|^2 for complex kinds; the stored samples for power traces."""
        if self.kind is TraceKind.POWER:
            return self.values
        return np.abs(self.values) ** 2


def normalized_power_trace(trace: ComplexTrace) -> ComplexTrace:
    """Power trace scaled to unit maximum (kind ``power_normalized``)."""
    p = trace.power()
    peak = float(np.max(p))
    if peak <= 0.0:
        raise InvalidInputError("trace power is identically zero; cannot normalize")
    return ComplexTrace(trace.freqs, p / peak, TraceKind.POWER)


#: The seven fields of a SystemParams as plain floats, in PARAM_FIELDS order.
_theta = attrgetter(*PARAM_FIELDS)


def _scattering(om, theta, kind, free=(), poles=()):
    """The model kernel: S21 or S11 on raw arrays, optionally with dS/dtheta.

    ``om`` holds angular probe frequencies and ``theta`` the seven parameters
    as plain floats in PARAM_FIELDS order; callers validate both. With

        D(omega) = C(omega) + g^2 / L(omega),   C(omega) = i(omega_cav - omega) + kappa_cav_tot/2,
        L(omega) = i(omega_lc - omega) + kappa_lc_bare/2 + sum(w / (i(c - omega) + h)),

    S21 = sqrt(kappa_cav_1 kappa_cav_2) q and S11 = 1 - kappa_cav_1 q with
    q = 1/D = L / (L C + g^2) (1/C when g = 0): one reciprocal per call, which
    the derivatives share. The sum runs in order over ``poles``: rad/s triples
    (c, h, w) = (center, half_width, weight), fixed in theta, that are the
    self-energies of pumped mechanical modes. Where L vanishes (lossless LC driven
    exactly on resonance) q = 0 exactly, so S21 = 0 and S11 = 1. The domain
    is finite: once g, or both |omega - omega_cav| and |omega - omega_lc|,
    exceed about 1.3e154 rad/s, L C + g^2 overflows and q reads 0, its true
    size being below 1e-154 s; once a distance times a half-rate overflows
    too (from 3.5e299 rad/s for the hats), the values are NaN: refused by _in_domain.

    ``free`` lists indices into PARAM_FIELDS. When it is non-empty the kernel
    returns ``(values, jac)`` with ``jac[:, k] = dS/dtheta[free[k]]`` (the
    transpose of a C-contiguous array), from q and u = g q / L = g / (L C + g^2):

        dq/domega_cav = -i q^2,   dq/dkappa_cav_{1,2,loss} = -q^2 / 2,
        dq/domega_lc  = +i u^2,   dq/dkappa_lc_bare = u^2 / 2,   dq/dg = -2 q u,

    which stay finite where L vanishes (q = 0, u = 1/g). Otherwise it returns
    the values.

    Raises
    ------
    SingularResponseError
        If D vanishes at a probe point (lossless system on a normal mode), or
        a pole's denominator does (an undamped mechanical sideband).
    """
    omega_cav, omega_lc, k1, k2, k_loss, k_lc, g = theta
    lc_inverse = 1j * (omega_lc - om) + 0.5 * k_lc
    for center, half_width, weight in poles:
        pole = 1j * (center - om) + half_width
        if (pole == 0.0).any():
            raise SingularResponseError("probe grid hits an undamped mechanical sideband exactly")
        lc_inverse = lc_inverse + weight / pole
    cavity = 1j * (omega_cav - om) + 0.5 * (k1 + k2 + k_loss)
    bare = g == 0.0  # then D = C: q = 1/C and u = 0
    den = cavity if bare else lc_inverse * cavity + g * g
    if (den == 0.0).any():
        raise SingularResponseError(
            "lossless coupled system driven exactly on a normal mode"
        )
    inv = 1.0 / den  # 1/g^2 where L vanishes: q = 0
    del cavity, den  # each array freed once spent: a long grid holds fewer at once
    q, u = (inv, 0.0) if bare else (lc_inverse * inv, g * inv)
    del lc_inverse, inv
    if kind is TraceKind.S21:
        prefactor = np.sqrt(k1 * k2)
        values = prefactor * q
    else:
        prefactor = -k1
        values = 1.0 - k1 * q
    if not free:
        return values

    # S = prefactor * q (+ 1 for S11), so dS/dtheta = prefactor * dq/dtheta
    # plus the prefactor's own derivative times q.
    own = ({2: -1.0} if kind is TraceKind.S11
           else {2: _root_slope(k1, k2), 3: _root_slope(k2, k1)})
    # dq/dtheta = c a b in PARAM_FIELDS order; only the free rows are built
    slopes = ((-1j, q, q), (1j, u, u), (-0.5, q, q), (-0.5, q, q), (-0.5, q, q),
              (0.5, u, u), (-2.0, q, u))
    jac = np.empty((len(free), om.size), dtype=complex)
    for row, index in enumerate(free):
        c, a, b = slopes[index]
        np.multiply(c * prefactor * a, b, out=jac[row])
        if index in own:
            jac[row] += own[index] * q
    return values, jac.T


def _root_slope(k: float, other: float) -> float:
    """d sqrt(k * other) / dk for rates k, other >= 0.

    The slope is infinite at k = 0 < other. There the secant over
    [0, 1e-6] rad/s stands in, so that a fit starting on that bound gets a
    finite Jacobian column.
    """
    if other == 0.0:
        return 0.0
    if k == 0.0:
        return float(np.sqrt(other / 1e-6))
    return 0.5 * float(np.sqrt(other / k))


def s21(params: SystemParams, freqs) -> ComplexTrace:
    """Port-1 -> port-2 transmission across a Hz frequency grid.

    S21(omega) = sqrt(kappa_cav_1 * kappa_cav_2) / D(omega) with

        D(omega) = i(omega_cav - omega) + kappa_cav_tot/2 + g^2 chi_LC(omega),
        chi_LC(omega) = 1 / (i(omega_lc - omega) + kappa_lc_bare/2).

    The LC mode appears as a narrow feature riding on the broad cavity peak;
    with a lossless LC the transmission has an exact null at omega_lc.
    """
    return _response(params, freqs, TraceKind.S21)


def s11(params: SystemParams, freqs) -> ComplexTrace:
    """Port-1 reflection across a Hz frequency grid.

    S11(omega) = 1 - kappa_cav_1 / D(omega), with D as in :func:`s21`.
    A single-port critically coupled bare cavity (kappa_cav_1 = kappa_cav_tot)
    reflects -1 on resonance; far off resonance S11 -> 1.
    """
    return _response(params, freqs, TraceKind.S11)


def _response(params, freqs, kind, poles=()) -> ComplexTrace:
    """The kernel's ``kind`` trace of ``params`` on a Hz grid, with rad/s ``poles``
    added to L, through :func:`_in_domain`."""
    # an array even for a scalar, which ComplexTrace then refuses
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    if f.size:
        _check_axis(float(f.min()), float(f.max()))
    theta = _theta(params)
    vals = _in_domain(f, theta, "parameters are outside the model's domain",
                      _scattering, hz_to_angular(f), theta, kind, (), poles)
    return ComplexTrace(freqs, vals, kind)


def _in_domain(f, theta, blame, evaluate, *args):
    """``evaluate(*args)`` with numpy's overflow and invalid warnings off.

    Its values (the first item, if it returns a pair) must be finite on the
    Hz grid ``f``. Where they are not, and ``f`` holds no NaN, the model
    overflows, and this is refused quietly: naming the axis when it reaches
    past every parameter in ``theta`` (rad/s), else with ``blame``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = evaluate(*args)
    values = out[0] if type(out) is tuple else out
    if not np.isfinite(values).all() and not np.isnan(f).any():
        largest = float(np.abs(f).max())
        if TWO_PI * largest <= max(theta):
            raise InvalidInputError(blame)
        raise InvalidInputError(f"frequency axis reaches {largest!r} Hz in magnitude, where "
                                "the model overflows with these parameters")
    return out


def _check_axis(lowest, highest):
    """Refuse a Hz axis from ``lowest`` to ``highest`` (Python floats) whose
    rad/s values overflow: above about 2.86e307 Hz in magnitude."""
    largest = max(-lowest, highest)
    if TWO_PI * largest == math.inf:
        raise InvalidInputError(f"frequency axis reaches {largest!r} Hz in magnitude; "
                                "above 2.86e307 Hz it overflows in rad/s")


def mode_matrix(params: SystemParams) -> np.ndarray:
    """2x2 non-Hermitian matrix whose eigenvalues are the dressed modes.

    Diagonal entries omega - i kappa/2 for the bare cavity and LC modes,
    off-diagonal coupling g. Real parts of the eigenvalues are dressed
    frequencies; -2x the imaginary parts are dressed linewidths.
    """
    return np.array(
        [
            [params.omega_cav - 0.5j * params.kappa_cav_tot, params.g],
            [params.g, params.omega_lc - 0.5j * params.kappa_lc_bare],
        ],
        dtype=complex,
    )


def _dressed(omega_cav, omega_lc, k1, k2, k_loss, k_lc, g):
    """Closed-form eigen-solve of :func:`mode_matrix` on the seven fields in
    PARAM_FIELDS order, any of them arrays and none subnormal. With the
    diagonals a = omega_cav - i kappa_cav_tot/2, d = omega_lc - i kappa_lc_bare/2
    and the real coupling g >= 0, the eigenvalues are

        lam = (a + d)/2 +/- sqrt(((a - d)/2)^2 + g^2)

    with eigenvectors (lam - d, g). With h = (a - d)/2 and the root s taken
    aligned with h, r = h + s has no cancellation, and the two eigenvalues
    are d + r = a + g^2/r and d - g^2/r: each a bare value plus an accurately
    computed pull. The aligned branch has the larger cavity weight
    |lam - d|^2 / (|lam - d|^2 + g^2), since |r| >= g; the weights sum to 1.

    Returns ``(lam_cav, lam_lc, cavity_weight, fifty_fifty)``: the weight is
    0.5 at a symmetric crossing and 1 when g = 0, and ``fifty_fifty`` is true
    where the branches are too evenly hybridized to name.
    """
    a, d = omega_cav - 0.5j * (k1 + k2 + k_loss), omega_lc - 0.5j * k_lc
    h = 0.5 * (a - d)
    # Work in units of m = max(|h|, g) so that no square under- or overflows.
    # Then |r / m| >= 1 whenever g > 0, and r / m is 0 only when g = h = 0.
    # Guards add booleans (1 where true) rather than branching, so that the
    # same code serves scalars and arrays without wrapping scalars in arrays.
    m = np.maximum(abs(h), g)
    m = m + (m == 0.0)
    hm, gm = h / m, g / m
    sm = np.sqrt(hm * hm + gm * gm)
    sm = sm * (1 - 2 * (hm.real * sm.real + hm.imag * sm.imag < 0.0))
    ratio = gm / (hm + sm + (g == 0.0))  # g / r, at most 1 in magnitude
    pull = -g * ratio
    weight = 1.0 / (1.0 + abs(ratio) ** 2)
    # the LC-like branch carries the complementary weight 1 - weight
    return a - pull, d + pull, weight, weight - (1.0 - weight) < 1e-9


def _bare_detuning(splitting, params):
    """The bare detuning Delta = omega_cav - omega_lc at which the dressed
    modes lie ``splitting`` = T apart (rad/s, same sign), for the rates and g
    of ``params``. T is twice the real part of sqrt(((a - d)/2)^2 + g^2) for
    :func:`mode_matrix`, so exactly Delta^2 = (T^2/4 + dk^2/16 - g^2) /
    (1/4 + dk^2 / (16 T^2)), with dk = kappa_cav_tot - kappa_lc_bare. The modes
    repel: |T| <= 2 sqrt((g - |dk|/4)(g + |dk|/4)) gives NaN, an overflowing
    numerator inf."""
    dk, g = params.kappa_cav_tot - params.kappa_lc_bare, params.g
    # g^2 - dk^2/16 as a product: near the exceptional point (g ~ |dk|/4) the
    # expanded form cancels to rounding noise of g^2 and misjudges the edge
    quarter = abs(dk) / 4.0
    square = splitting * splitting  # a product, as in _rate_budget: ** can raise
    numerator = 0.25 * square - (g - quarter) * (g + quarter)
    if not numerator < math.inf:
        return math.copysign(math.inf, splitting)
    if not numerator > 0.0:
        return math.nan
    # a splitting whose square underflows leaves the bare detuning at 0
    spread = dk * dk / (16.0 * square) if square > 0.0 else math.inf
    return math.copysign(math.sqrt(numerator / (0.25 + spread)), splitting)


@dataclass(frozen=True)
class DressedModes:
    """Dressed frequencies and linewidths (rad/s), labeled by eigenvector overlap."""

    omega_cav: float
    kappa_cav: float
    omega_lc: float
    kappa_lc: float
    #: |cavity component|^2 of the cavity-like eigenvector (> 0.5 by construction).
    cavity_weight: float

    @property
    def delta_eff(self) -> float:
        """Signed effective detuning: dressed cavity minus dressed LC frequency."""
        return self.omega_cav - self.omega_lc


def dressed_modes(params: SystemParams) -> DressedModes:
    """Dressed modes of the coupled system with branch assignment.

    Eigenvalues and eigenvectors of :func:`mode_matrix` are evaluated in
    closed form; the branch whose eigenvector has the larger |cavity
    component|^2 is labeled cavity-like, the other LC-like. In the dispersive
    regime the LC branch is pulled by approximately -g^2/delta (and the cavity
    branch by +g^2/delta), so ``delta_eff`` differs from the bare detuning by
    about 2 g^2 / delta_bare.

    Raises
    ------
    BranchAssignmentError
        If both eigenvectors hybridize exactly 50/50 (symmetric crossing);
        ``np.linalg.eigvals(mode_matrix(params))`` still gives the eigenvalues.
    """
    lam_cav, lam_lc, weight, fifty_fifty = _dressed(*_theta(params))
    if fifty_fifty:
        raise BranchAssignmentError(
            "eigenvectors hybridize 50/50; cavity/LC branches cannot be assigned"
        )
    # 0.0 - x rather than -x: a zero linewidth comes back +0.0, not -0.0
    return DressedModes(
        omega_cav=float(lam_cav.real),
        kappa_cav=float(0.0 - 2.0 * lam_cav.imag),
        omega_lc=float(lam_lc.real),
        kappa_lc=float(0.0 - 2.0 * lam_lc.imag),
        cavity_weight=float(weight),
    )


#: The report keys of :meth:`DerivedRates.to_hz`, in order: the rates in Hz,
#: then the dissipation fraction and the validity flag as they are.
DERIVED_RATE_KEYS = (
    "delta_eff_hz", "kappa_cav_tot_hz", "kappa_eff_1_hz", "kappa_eff_2_hz",
    "kappa_eff_loss_hz", "kappa_lc_loss_hz", "kappa_lc_tot_hz",
    "dissipation_fraction", "within_validity",
)


@dataclass(frozen=True)
class DerivedRates:
    """Cavity-mediated rate budget of the LC mode, all rates in rad/s.

    ``kappa_lc_tot`` must equal ``kappa_eff_1 + kappa_eff_2 + kappa_lc_loss``
    exactly (left-to-right float sum); construction enforces the identity.
    ``within_validity`` is False when |delta_eff| < max(kappa_cav_tot, g),
    where the dispersive rate formula is extrapolated beyond its domain.
    """

    delta_eff: float
    kappa_cav_tot: float
    kappa_eff_1: float
    kappa_eff_2: float
    kappa_eff_loss: float
    kappa_lc_loss: float
    kappa_lc_tot: float
    dissipation_fraction: float
    within_validity: bool

    def __post_init__(self):
        expected = self.kappa_eff_1 + self.kappa_eff_2 + self.kappa_lc_loss
        if self.kappa_lc_tot != expected:
            raise InvalidInputError(
                "kappa_lc_tot must equal kappa_eff_1 + kappa_eff_2 + kappa_lc_loss "
                f"exactly ({self.kappa_lc_tot!r} != {expected!r})"
            )
        _require("dissipation_fraction", self.dissipation_fraction, "in [0, 1]")

    def to_hz(self) -> dict:
        """Report form, keyed by DERIVED_RATE_KEYS."""
        return {key: angular_to_hz(getattr(self, key[:-3])) if key.endswith("_hz")
                else getattr(self, key) for key in DERIVED_RATE_KEYS}


def _checked(cls):
    """A constructor of the frozen dataclass ``cls`` that takes its fields
    in order, for fields an array pass has already checked: it runs neither
    the generated ``__init__`` nor ``__post_init__``. The instance is the
    one the public constructor gives: frozen, equal, with the same hash,
    and it pickles."""
    names = [f.name for f in fields(cls)]
    # Built from source as dataclasses builds __init__: one store per field
    # into the instance's dict costs about half of an update from a zip.
    source = (f"def build({', '.join(names)}):\n"
              "    _instance = _new(_cls)\n"
              "    _state = _instance.__dict__\n"
              + "".join(f"    _state[{name!r}] = {name}\n" for name in names)
              + "    return _instance\n")
    scope = {"_new": object.__new__, "_cls": cls}
    exec(source, scope)
    return scope["build"]


#: :class:`DerivedRates` from fields that ``run_sweep``'s masks have checked.
_checked_rates = _checked(DerivedRates)


def effective_rates(params: SystemParams, *, delta_eff=None) -> DerivedRates:
    """Effective external/loss rates the LC mode inherits through the cavity.

    Each cavity rate maps onto the LC mode filtered by the cavity response
    at the effective detuning:

        kappa_eff_i = kappa_cav_i * g^2 / (delta_eff^2 + (kappa_cav_tot/2)^2)

    for i in {port 1, port 2, loss}. The budget is then

        kappa_lc_loss = kappa_lc_bare + kappa_eff_loss
        kappa_lc_tot  = kappa_eff_1 + kappa_eff_2 + kappa_lc_loss

    and ``dissipation_fraction = kappa_lc_loss / kappa_lc_tot`` (defined as 0
    when every rate vanishes).

    Parameters
    ----------
    params : SystemParams
    delta_eff : float, optional
        Effective detuning in rad/s. Defaults to the dressed detuning from
        :func:`dressed_modes`; design sweeps pass it explicitly.

    Notes
    -----
    The formula is dispersive and trusted for |delta_eff| at or above
    max(kappa_cav_tot, g); below that the result is still computed but
    carries ``within_validity=False``.
    """
    if delta_eff is None:
        delta_eff = dressed_modes(params).delta_eff
    delta_eff = float(delta_eff)
    _require("delta_eff", delta_eff, "finite")
    rates = [getattr(params, name) for name in RATE_FIELDS]
    *budget, within_validity, diverges = _rate_budget(*rates, delta_eff)
    if diverges:
        raise InvalidInputError(
            "effective rates diverge: zero detuning with a lossless cavity"
        )
    return DerivedRates(delta_eff, *budget, within_validity=bool(within_validity))


def _rate_budget(k1, k2, k_loss, k_lc, g, delta_eff):
    """The rate budget of :func:`effective_rates`, broadcasting over arrays.

    Takes the RATE_FIELDS in that order (the three cavity rates, the bare
    LC loss and g) and a finite detuning, all in rad/s; any may be an
    array. Returns the :class:`DerivedRates` fields that follow
    ``delta_eff``, in order, and then a flag that is true where the rates
    diverge (g > 0 with a lossless cavity at zero detuning); the rates
    there are placeholders. As in :func:`_dressed`, guards add booleans
    instead of branching, so scalars stay Python floats. Squares are
    products: Python's ``x**2`` is libm ``pow``, which rounds differently
    from numpy's square and raises OverflowError where a product gives inf.
    """
    ktot = k1 + k2 + k_loss
    half = 0.5 * ktot
    lorentz = delta_eff * delta_eff + half * half
    diverges = (g != 0.0) & (lorentz == 0.0)
    factor = g * g / (lorentz + (lorentz == 0.0))  # exactly 0 when g = 0
    kappa_eff_1 = k1 * factor
    kappa_eff_2 = k2 * factor
    kappa_eff_loss = k_loss * factor
    kappa_lc_loss = k_lc + kappa_eff_loss
    kappa_lc_tot = kappa_eff_1 + kappa_eff_2 + kappa_lc_loss
    # every rate vanishes with kappa_lc_tot, and the fraction is then 0
    fraction = kappa_lc_loss / (kappa_lc_tot + (kappa_lc_tot == 0.0))
    within_validity = (abs(delta_eff) >= ktot) & (abs(delta_eff) >= g)
    return (
        ktot,
        kappa_eff_1,
        kappa_eff_2,
        kappa_eff_loss,
        kappa_lc_loss,
        kappa_lc_tot,
        fraction,
        within_validity,
        diverges,
    )


def resolved_sideband_ratio(kappa_lc_tot: float, omega_m: float) -> float:
    """kappa_lc_tot / (4 omega_m): small means resolved-sideband operation.

    Electromechanical protocols want the LC linewidth well below four times
    the mechanical frequency. Callers judge "well below" against a threshold,
    conventionally :data:`DEFAULT_SIDEBAND_THRESHOLD`. ``kappa_lc_tot`` may
    be an array; every entry must then be in the domain.
    """
    _require("kappa_lc_tot", kappa_lc_tot, "non-negative")
    _require("omega_m", omega_m, "positive")
    return kappa_lc_tot / (4.0 * omega_m)
