"""Pump-dressed LC response and electromechanically induced transparency.

A strong red-detuned pump parametrically couples a mechanical mode to the LC
resonator. Probing the cavity in reflection then shows the usual LC dip with
a narrow transparency window at omega_pump + omega_m, whose full width is
the mechanical linewidth broadened by the electromechanical damping:

    gamma_e = 4 G^2 / kappa_lc_tot,      FWHM = gamma_m + gamma_e.

The pump also shifts and deepens the LC resonance; that is modeled with the
phenomenological ``lc_shift`` and ``lc_extra_loss`` knobs of
:class:`PumpConfig` rather than derived from pump power.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coupled_modes import (
    ComplexTrace,
    SystemParams,
    TraceKind,
    _lc_inverse_bare,
    _probe_angular,
    _scattering,
    _theta,
    dressed_modes,
    effective_rates,
    resolved_sideband_ratio,
)
from .errors import InvalidInputError, SingularResponseError, ValidityWarning


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical mode: frequency omega_m > 0 and intrinsic linewidth gamma_m >= 0 (rad/s)."""

    omega_m: float
    gamma_m: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.omega_m) or self.omega_m <= 0.0:
            raise InvalidInputError(
                f"omega_m must be positive and finite (rad/s), got {self.omega_m!r}"
            )
        if not np.isfinite(self.gamma_m) or self.gamma_m < 0.0:
            raise InvalidInputError(
                f"gamma_m must be non-negative and finite (rad/s), got {self.gamma_m!r}"
            )


@dataclass(frozen=True)
class PumpConfig:
    """Pump tone settings (rad/s).

    Attributes
    ----------
    omega_pump : float
        Pump frequency; must stay below the (shifted) LC resonance.
    coupling : float
        Pump-enhanced electromechanical coupling rate G >= 0.
    lc_shift : float
        Signed pump-induced shift of the LC resonance.
    lc_extra_loss : float
        Pump-induced extra LC loss >= 0 (the "deepening" of the dip).
    """

    omega_pump: float
    coupling: float = 0.0
    lc_shift: float = 0.0
    lc_extra_loss: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.omega_pump) or self.omega_pump <= 0.0:
            raise InvalidInputError(
                f"omega_pump must be positive and finite (rad/s), got {self.omega_pump!r}"
            )
        if not np.isfinite(self.coupling) or self.coupling < 0.0:
            raise InvalidInputError(
                f"coupling must be non-negative and finite (rad/s), got {self.coupling!r}"
            )
        if not np.isfinite(self.lc_shift):
            raise InvalidInputError(f"lc_shift must be finite, got {self.lc_shift!r}")
        if not np.isfinite(self.lc_extra_loss) or self.lc_extra_loss < 0.0:
            raise InvalidInputError(
                f"lc_extra_loss must be non-negative and finite, got {self.lc_extra_loss!r}"
            )


def electromechanical_damping(coupling, kappa_lc_tot, *, omega_m=None):
    """gamma_e = 4 G^2 / kappa_lc_tot, the pump-induced mechanical damping.

    Valid in the resolved-sideband regime; pass ``omega_m`` to have the
    sideband ratio checked (a ratio >= 1 draws a ValidityWarning).
    """
    if not np.isfinite(coupling) or coupling < 0.0:
        raise InvalidInputError(f"coupling must be non-negative, got {coupling!r}")
    if not np.isfinite(kappa_lc_tot) or kappa_lc_tot <= 0.0:
        raise InvalidInputError(
            f"kappa_lc_tot must be positive and finite, got {kappa_lc_tot!r}"
        )
    if omega_m is not None and resolved_sideband_ratio(kappa_lc_tot, omega_m) >= 1.0:
        warnings.warn(
            "kappa_lc_tot/(4 omega_m) >= 1: far outside the resolved-sideband "
            "regime, gamma_e = 4G^2/kappa_lc_tot is unreliable",
            ValidityWarning,
            stacklevel=2,
        )
    return 4.0 * coupling**2 / kappa_lc_tot


def coupling_for_damping(gamma_e, kappa_lc_tot):
    """Inverse of :func:`electromechanical_damping`: G = sqrt(gamma_e * kappa_lc_tot) / 2."""
    if not np.isfinite(gamma_e) or gamma_e < 0.0:
        raise InvalidInputError(f"gamma_e must be non-negative, got {gamma_e!r}")
    if not np.isfinite(kappa_lc_tot) or kappa_lc_tot <= 0.0:
        raise InvalidInputError(
            f"kappa_lc_tot must be positive and finite, got {kappa_lc_tot!r}"
        )
    return 0.5 * np.sqrt(gamma_e * kappa_lc_tot)


def pumped_lc_params(params: SystemParams, pump: PumpConfig) -> SystemParams:
    """Parameters with the pump's LC shift and extra loss folded in."""
    return params.replace(
        omega_lc=params.omega_lc + pump.lc_shift,
        kappa_lc_bare=params.kappa_lc_bare + pump.lc_extra_loss,
    )


def shifted_lc_frequency(params: SystemParams, *, lc_shift=0.0, lc_extra_loss=0.0) -> float:
    """Dressed LC frequency (rad/s) once a pump shift/extra loss is applied."""
    shifted = params.replace(
        omega_lc=params.omega_lc + lc_shift,
        kappa_lc_bare=params.kappa_lc_bare + lc_extra_loss,
    )
    return dressed_modes(shifted).omega_lc


def lower_sideband_pump(
    params: SystemParams,
    mode: MechanicalMode,
    *,
    coupling=0.0,
    lc_shift=0.0,
    lc_extra_loss=0.0,
) -> PumpConfig:
    """PumpConfig sitting exactly on the lower mechanical sideband."""
    omega_lc_eff = shifted_lc_frequency(
        params, lc_shift=lc_shift, lc_extra_loss=lc_extra_loss
    )
    return PumpConfig(
        omega_pump=omega_lc_eff - mode.omega_m,
        coupling=coupling,
        lc_shift=lc_shift,
        lc_extra_loss=lc_extra_loss,
    )


def multi_mode_omit(params, modes, couplings, pump, freqs) -> ComplexTrace:
    """Port-1 reflection with several mechanical modes dressed by one pump.

    Each mode contributes an additive self-energy to the inverse LC
    susceptibility:

        1/chi_eff(omega) = i(omega_lc' - omega) + kappa_lc_bare'/2
                           + sum_j G_j^2 / (i(omega_pump + omega_m_j - omega) + gamma_m_j/2)

    where the primes include the pump's shift and extra loss. The reflection
    is then propagated through the same two-mode denominator as :func:`s11`.

    Parameters
    ----------
    params : SystemParams
    modes : sequence of MechanicalMode
    couplings : sequence of float
        Per-mode pump-enhanced coupling G_j >= 0 (rad/s), parallel to modes.
    pump : PumpConfig
        Supplies pump frequency, LC shift, and extra loss; its ``coupling``
        field is ignored here in favor of ``couplings``.
    freqs : array
        Probe grid in Hz.

    Warnings
    --------
    ValidityWarning when the pump misses a mode's lower sideband by more
    than kappa_lc_tot, and when two modes overlap within their linewidths.

    Raises
    ------
    InvalidInputError
        For a blue-detuned or on-resonance pump (no gain regime here).
    SingularResponseError
        If an undamped mode's sideband coincides exactly with a probe point.
    """
    modes = tuple(modes)
    couplings = tuple(float(c) for c in couplings)
    if not modes:
        raise InvalidInputError("modes must not be empty")
    if len(couplings) != len(modes):
        raise InvalidInputError("need exactly one coupling per mechanical mode")
    for c in couplings:
        if not np.isfinite(c) or c < 0.0:
            raise InvalidInputError(f"couplings must be non-negative, got {c!r}")
    for i in range(len(modes)):
        for j in range(i + 1, len(modes)):
            if abs(modes[i].omega_m - modes[j].omega_m) < max(
                modes[i].gamma_m, modes[j].gamma_m
            ):
                warnings.warn(
                    f"mechanical modes {i} and {j} overlap within their "
                    "linewidths; their transparency windows will merge",
                    ValidityWarning,
                    stacklevel=2,
                )

    omega_lc_eff = shifted_lc_frequency(
        params, lc_shift=pump.lc_shift, lc_extra_loss=pump.lc_extra_loss
    )
    if pump.omega_pump >= omega_lc_eff:
        raise InvalidInputError(
            "pump must be red-detuned: omega_pump is at or above the "
            "pump-shifted LC resonance"
        )
    shifted = pumped_lc_params(params, pump)
    kappa_lc_tot = effective_rates(shifted).kappa_lc_tot
    for i, mode in enumerate(modes):
        if abs(pump.omega_pump - (omega_lc_eff - mode.omega_m)) >= kappa_lc_tot:
            warnings.warn(
                f"pump misses mechanical mode {i}'s lower sideband by more "
                "than kappa_lc_tot; the transparency window will be weak "
                "and displaced",
                ValidityWarning,
                stacklevel=2,
            )

    om = _probe_angular(freqs)
    lc_inverse = _lc_inverse_bare(shifted.omega_lc, shifted.kappa_lc_bare, om)
    for mode, coupling in zip(modes, couplings):
        if coupling == 0.0:
            continue
        den = 1j * (pump.omega_pump + mode.omega_m - om) + 0.5 * mode.gamma_m
        if np.any(den == 0.0):
            raise SingularResponseError(
                "probe grid hits an undamped mechanical sideband exactly"
            )
        lc_inverse = lc_inverse + coupling**2 / den
    vals = _scattering(om, _theta(shifted), TraceKind.S11, lc_inverse=lc_inverse)
    return ComplexTrace(freqs, vals, TraceKind.S11)


def omit_reflection(params, mode, pump, freqs) -> ComplexTrace:
    """Single-mode transparency spectrum; see :func:`multi_mode_omit`.

    Uses ``pump.coupling`` as the electromechanical coupling G. With G = 0
    this is exactly :func:`cavlink.coupled_modes.s11` evaluated with the
    pump-shifted LC parameters.
    """
    return multi_mode_omit(params, (mode,), (pump.coupling,), pump, freqs)


def transparency_signal(params, modes, couplings, pump, freqs) -> ComplexTrace:
    """Pump-induced response change |S11(on) - S11(off)|^2 as a power trace.

    Subtracting the pump-off reflection in the complex plane isolates the
    mechanical contribution: the result is a clean peak of width close to
    gamma_m + gamma_e per mode, sitting on a flat background instead of the
    curved wall of the LC dip. Width extraction from this trace stays
    accurate even when the window is shallow or sits in a deep dip, which
    is why the window report uses it rather than the raw reflection.
    """
    on = multi_mode_omit(params, modes, couplings, pump, freqs)
    shifted = pumped_lc_params(params, pump)
    om = _probe_angular(freqs)
    off = _scattering(om, _theta(shifted), TraceKind.S11)
    return ComplexTrace(freqs, np.abs(on.values - off) ** 2, TraceKind.POWER)
