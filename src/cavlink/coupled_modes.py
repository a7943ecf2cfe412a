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

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    BranchAssignmentError,
    InvalidInputError,
    SingularResponseError,
    ValidityWarning,
)
from .units import TWO_PI, angular_to_hz, hz_to_angular

FREQUENCY_FIELDS = ("omega_cav", "omega_lc")
RATE_FIELDS = ("kappa_cav_1", "kappa_cav_2", "kappa_cav_loss", "kappa_lc_bare", "g")
PARAM_FIELDS = FREQUENCY_FIELDS + RATE_FIELDS

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
        for name in FREQUENCY_FIELDS:
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise InvalidInputError(
                    f"{name} must be positive and finite (rad/s), got {value!r}"
                )
            object.__setattr__(self, name, value)
        for name in RATE_FIELDS:
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise InvalidInputError(
                    f"{name} must be non-negative and finite (rad/s), got {value!r}"
                )
            object.__setattr__(self, name, value)
        if self.g >= 0.1 * min(self.omega_cav, self.omega_lc):
            warnings.warn(
                "g exceeds min(omega_cav, omega_lc)/10; the rotating-wave "
                "two-mode model is not trustworthy this far into ultrastrong "
                "coupling",
                ValidityWarning,
                stacklevel=2,
            )

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

    def restrict(self, lo_hz: float, hi_hz: float) -> "ComplexTrace":
        """Sub-trace with lo_hz <= f <= hi_hz (must keep at least 2 samples)."""
        if not lo_hz < hi_hz:
            raise InvalidInputError("restrict needs lo_hz < hi_hz")
        mask = (self.freqs >= lo_hz) & (self.freqs <= hi_hz)
        if np.count_nonzero(mask) < 2:
            raise InvalidInputError("fewer than 2 samples inside the requested range")
        return ComplexTrace(self.freqs[mask], self.values[mask], self.kind)


def normalized_power_trace(trace: ComplexTrace) -> ComplexTrace:
    """Power trace scaled to unit maximum (kind ``power_normalized``)."""
    p = trace.power()
    peak = float(np.max(p))
    if peak <= 0.0:
        raise InvalidInputError("trace power is identically zero; cannot normalize")
    return ComplexTrace(trace.freqs, p / peak, TraceKind.POWER)


def susceptibility(omega, omega_0, kappa_tot):
    """Single-mode susceptibility chi(omega) = 1 / (i(omega_0 - omega) + kappa_tot/2).

    All arguments in rad/s. |chi| peaks on resonance with value 2/kappa_tot,
    and falls to 1/sqrt(2) of the peak at |omega_0 - omega| = kappa_tot/2.

    Parameters
    ----------
    omega : float or ndarray
        Probe frequency or frequencies.
    omega_0 : float
        Mode frequency.
    kappa_tot : float
        Total energy decay rate (>= 0).

    Raises
    ------
    SingularResponseError
        If kappa_tot = 0 and any probe point sits exactly on omega_0.
    """
    if not np.isfinite(kappa_tot) or kappa_tot < 0.0:
        raise InvalidInputError(f"kappa_tot must be non-negative and finite, got {kappa_tot!r}")
    om = np.asarray(omega, dtype=float)
    den = 1j * (omega_0 - om) + 0.5 * kappa_tot
    if np.any(den == 0.0):
        raise SingularResponseError(
            "lossless mode driven exactly on resonance (kappa_tot = 0 and omega = omega_0)"
        )
    chi = 1.0 / den
    if np.ndim(omega) == 0:
        return complex(chi)
    return chi


def _probe_angular(freqs) -> np.ndarray:
    """Validate a Hz frequency grid and convert to rad/s."""
    f = np.asarray(freqs, dtype=float)
    if f.size == 0:
        raise InvalidInputError("freqs must not be empty")
    return TWO_PI * f


def _lc_inverse_bare(params: SystemParams, om: np.ndarray) -> np.ndarray:
    # 1/chi of the bare LC mode; zeros mark the lossless-on-resonance points.
    return 1j * (params.omega_lc - om) + 0.5 * params.kappa_lc_bare


def _denominator(params: SystemParams, om: np.ndarray, lc_inverse: np.ndarray):
    """Cavity response denominator D(omega) and the LC-shorted point mask.

    D(omega) = i(omega_cav - omega) + kappa_cav_tot/2 + g^2 / lc_inverse.
    Where ``lc_inverse`` vanishes (lossless LC driven exactly on resonance)
    the LC term diverges: D -> inf, so S21 -> 0 and S11 -> 1. Those points
    are excluded from D and returned in the mask instead.
    """
    if params.g == 0.0:
        shorted = np.zeros(om.shape, dtype=bool)
        lc_term = 0.0
    else:
        shorted = lc_inverse == 0.0
        lc_term = np.where(shorted, 0.0, params.g**2 / np.where(shorted, 1.0, lc_inverse))
    d = 1j * (params.omega_cav - om) + 0.5 * params.kappa_cav_tot + lc_term
    if np.any(d[~shorted] == 0.0):
        raise SingularResponseError(
            "lossless coupled system driven exactly on a normal mode"
        )
    return d, shorted


def _transmission_values(params, om, lc_inverse) -> np.ndarray:
    d, shorted = _denominator(params, om, lc_inverse)
    amp = np.sqrt(params.kappa_cav_1 * params.kappa_cav_2)
    return np.where(shorted, 0.0, amp / np.where(shorted, 1.0, d))


def _reflection_values(params, om, lc_inverse) -> np.ndarray:
    d, shorted = _denominator(params, om, lc_inverse)
    vals = 1.0 - params.kappa_cav_1 / np.where(shorted, 1.0, d)
    return np.where(shorted, 1.0, vals)


def s21(params: SystemParams, freqs) -> ComplexTrace:
    """Port-1 -> port-2 transmission across a Hz frequency grid.

    S21(omega) = sqrt(kappa_cav_1 * kappa_cav_2) / D(omega) with

        D(omega) = i(omega_cav - omega) + kappa_cav_tot/2 + g^2 chi_LC(omega),
        chi_LC(omega) = 1 / (i(omega_lc - omega) + kappa_lc_bare/2).

    The LC mode appears as a narrow feature riding on the broad cavity peak;
    with a lossless LC the transmission has an exact null at omega_lc.
    """
    om = _probe_angular(freqs)
    vals = _transmission_values(params, om, _lc_inverse_bare(params, om))
    return ComplexTrace(freqs, vals, TraceKind.S21)


def s11(params: SystemParams, freqs) -> ComplexTrace:
    """Port-1 reflection across a Hz frequency grid.

    S11(omega) = 1 - kappa_cav_1 / D(omega), with D as in :func:`s21`.
    A single-port critically coupled bare cavity (kappa_cav_1 = kappa_cav_tot)
    reflects -1 on resonance; far off resonance S11 -> 1.
    """
    om = _probe_angular(freqs)
    vals = _reflection_values(params, om, _lc_inverse_bare(params, om))
    return ComplexTrace(freqs, vals, TraceKind.S11)


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


def _mode_solve(a, d, g):
    """Closed-form eigen-solve of [[a, g], [g, d]], broadcasting over arrays.

    ``a`` and ``d`` are the complex cavity and LC diagonals and ``g >= 0``
    the real coupling; none may be subnormal. The eigenvalues are

        lam = (a + d)/2 +/- sqrt(((a - d)/2)^2 + g^2)

    with eigenvectors (lam - d, g). With h = (a - d)/2 and the root s taken
    aligned with h, r = h + s has no cancellation, and the two eigenvalues
    are d + r = a + g^2/r and d - g^2/r: each a bare value plus an accurately
    computed pull. The aligned branch has the larger cavity weight
    |lam - d|^2 / (|lam - d|^2 + g^2), since |r| >= g; the weights sum to 1.

    Returns ``(lam_cav, lam_lc, cavity_weight)``; the weight is 0.5 at a
    symmetric crossing and 1 when g = 0.
    """
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
    return a - pull, d + pull, 1.0 / (1.0 + abs(ratio) ** 2)


def _mode_diagonal(params: SystemParams):
    """Diagonal of :func:`mode_matrix`: the bare complex cavity and LC modes."""
    return (
        complex(params.omega_cav, -0.5 * params.kappa_cav_tot),
        complex(params.omega_lc, -0.5 * params.kappa_lc_bare),
    )


def hybridized_eigenvalues(params: SystemParams):
    """Both complex eigenvalues of :func:`mode_matrix`, higher real part first.

    Available even when branch labeling is ambiguous (exact 50/50
    hybridization), where :func:`dressed_modes` refuses to assign names.
    """
    lam_cav, lam_lc, _ = _mode_solve(*_mode_diagonal(params), params.g)
    upper, lower = complex(lam_cav), complex(lam_lc)
    if lower.real > upper.real:
        upper, lower = lower, upper
    return upper, lower


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
        use :func:`hybridized_eigenvalues` if only the eigenvalues matter.
    """
    if params.g == 0.0:
        return DressedModes(
            omega_cav=params.omega_cav,
            kappa_cav=params.kappa_cav_tot,
            omega_lc=params.omega_lc,
            kappa_lc=params.kappa_lc_bare,
            cavity_weight=1.0,
        )
    lam_cav, lam_lc, weight = _mode_solve(*_mode_diagonal(params), params.g)
    weight = float(weight)
    # the LC-like branch carries the complementary weight 1 - weight
    if weight - (1.0 - weight) < 1e-9:
        raise BranchAssignmentError(
            "eigenvectors hybridize 50/50; cavity/LC branches cannot be assigned"
        )
    return DressedModes(
        omega_cav=float(lam_cav.real),
        kappa_cav=float(-2.0 * lam_cav.imag),
        omega_lc=float(lam_lc.real),
        kappa_lc=float(-2.0 * lam_lc.imag),
        cavity_weight=weight,
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
    within_validity: bool = True

    def __post_init__(self):
        expected = self.kappa_eff_1 + self.kappa_eff_2 + self.kappa_lc_loss
        if self.kappa_lc_tot != expected:
            raise InvalidInputError(
                "kappa_lc_tot must equal kappa_eff_1 + kappa_eff_2 + kappa_lc_loss "
                f"exactly ({self.kappa_lc_tot!r} != {expected!r})"
            )
        if not 0.0 <= self.dissipation_fraction <= 1.0:
            raise InvalidInputError(
                f"dissipation_fraction must lie in [0, 1], got {self.dissipation_fraction!r}"
            )

    def to_hz(self) -> dict:
        """Report form: rates in Hz, fraction and flag passed through."""
        out = {}
        for name in (
            "delta_eff",
            "kappa_cav_tot",
            "kappa_eff_1",
            "kappa_eff_2",
            "kappa_eff_loss",
            "kappa_lc_loss",
            "kappa_lc_tot",
        ):
            out[f"{name}_hz"] = angular_to_hz(getattr(self, name))
        out["dissipation_fraction"] = self.dissipation_fraction
        out["within_validity"] = self.within_validity
        return out


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
    if not np.isfinite(delta_eff):
        raise InvalidInputError(f"delta_eff must be finite, got {delta_eff!r}")
    ktot = params.kappa_cav_tot
    lorentz = delta_eff**2 + (0.5 * ktot) ** 2
    if params.g == 0.0:
        factor = 0.0
    elif lorentz == 0.0:
        raise InvalidInputError(
            "effective rates diverge: zero detuning with a lossless cavity"
        )
    else:
        factor = params.g**2 / lorentz
    kappa_eff_1 = params.kappa_cav_1 * factor
    kappa_eff_2 = params.kappa_cav_2 * factor
    kappa_eff_loss = params.kappa_cav_loss * factor
    kappa_lc_loss = params.kappa_lc_bare + kappa_eff_loss
    kappa_lc_tot = kappa_eff_1 + kappa_eff_2 + kappa_lc_loss
    fraction = kappa_lc_loss / kappa_lc_tot if kappa_lc_tot > 0.0 else 0.0
    return DerivedRates(
        delta_eff=delta_eff,
        kappa_cav_tot=ktot,
        kappa_eff_1=kappa_eff_1,
        kappa_eff_2=kappa_eff_2,
        kappa_eff_loss=kappa_eff_loss,
        kappa_lc_loss=kappa_lc_loss,
        kappa_lc_tot=kappa_lc_tot,
        dissipation_fraction=fraction,
        within_validity=bool(abs(delta_eff) >= max(ktot, params.g)),
    )


def resolved_sideband_ratio(kappa_lc_tot: float, omega_m: float) -> float:
    """kappa_lc_tot / (4 omega_m): small means resolved-sideband operation.

    Electromechanical protocols want the LC linewidth well below four times
    the mechanical frequency. Callers judge "well below" against a threshold,
    conventionally :data:`DEFAULT_SIDEBAND_THRESHOLD`.
    """
    if not np.isfinite(kappa_lc_tot) or kappa_lc_tot < 0.0:
        raise InvalidInputError(
            f"kappa_lc_tot must be non-negative and finite, got {kappa_lc_tot!r}"
        )
    if not np.isfinite(omega_m) or omega_m <= 0.0:
        raise InvalidInputError(f"omega_m must be positive and finite, got {omega_m!r}")
    return kappa_lc_tot / (4.0 * omega_m)
