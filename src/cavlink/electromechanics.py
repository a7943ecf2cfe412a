"""Pump-dressed LC response and electromechanically induced transparency.

A strong red-detuned pump parametrically couples a mechanical mode to the LC
resonator. Probing the cavity in reflection then shows the usual LC dip with
a narrow transparency window at omega_pump + omega_m, whose full width is
the mechanical linewidth broadened by the electromechanical damping:

    gamma_e = 4 G^2 / kappa_lc_tot,      FWHM = gamma_m + gamma_e.

The pump also shifts and deepens the LC resonance; that is modeled with the
phenomenological ``lc_shift`` and ``lc_extra_loss`` knobs of
:func:`pumped_lc_params` rather than derived from pump power. The OMIT
functions take the parameters it returns and the pump frequency in rad/s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coupled_modes import (
    ComplexTrace,
    SystemParams,
    TraceKind,
    _response,
    dressed_modes,
    effective_rates,
)
from .errors import InvalidInputError, SingularResponseError, ValidityWarning, _require
from .units import hz_to_angular


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical mode: frequency omega_m > 0 and intrinsic linewidth gamma_m >= 0 (rad/s)."""

    omega_m: float
    gamma_m: float = 0.0

    def __post_init__(self):
        _require("omega_m", self.omega_m, "positive", "rad/s")
        _require("gamma_m", self.gamma_m, "non-negative", "rad/s")


def electromechanical_damping(coupling, kappa_lc_tot):
    """gamma_e = 4 G^2 / kappa_lc_tot, the pump-induced mechanical damping,
    valid in the resolved-sideband regime."""
    _require("coupling", coupling, "non-negative")
    _require("kappa_lc_tot", kappa_lc_tot, "positive")
    # a product, not coupling**2, which raises OverflowError on a Python float
    return 4.0 * coupling * coupling / kappa_lc_tot


def coupling_for_damping(gamma_e, kappa_lc_tot):
    """Inverse of :func:`electromechanical_damping`: G = sqrt(gamma_e * kappa_lc_tot) / 2."""
    _require("gamma_e", gamma_e, "non-negative")
    _require("kappa_lc_tot", kappa_lc_tot, "positive")
    return 0.5 * np.sqrt(gamma_e * kappa_lc_tot)


def pumped_lc_params(
    params: SystemParams, *, lc_shift=0.0, lc_extra_loss=0.0
) -> SystemParams:
    """Parameters with a pump's LC shift and extra loss folded in.

    ``lc_shift`` is the signed pump-induced shift of the LC resonance and
    ``lc_extra_loss`` >= 0 the pump-induced extra LC loss (the "deepening"
    of the dip), both in rad/s.
    """
    _require("lc_shift", lc_shift, "finite")
    _require("lc_extra_loss", lc_extra_loss, "non-negative")
    return params.replace(
        omega_lc=params.omega_lc + lc_shift,
        kappa_lc_bare=params.kappa_lc_bare + lc_extra_loss,
    )


def lower_sideband_pump(pumped: SystemParams, mode: MechanicalMode) -> float:
    """Pump frequency (rad/s) exactly on ``mode``'s lower sideband of the
    dressed LC line of the pumped parameters."""
    return dressed_modes(pumped).omega_lc - mode.omega_m


def multi_mode_omit(pumped, modes, couplings, omega_pump, freqs) -> ComplexTrace:
    """Port-1 reflection with several mechanical modes dressed by one pump.

    Each mode contributes an additive self-energy to the inverse LC
    susceptibility:

        1/chi_eff(omega) = i(omega_lc' - omega) + kappa_lc_bare'/2
                           + sum_j G_j^2 / (i(omega_pump + omega_m_j - omega) + gamma_m_j/2)

    where the primes include the pump's shift and extra loss. The reflection
    is then propagated through the same two-mode denominator as :func:`s11`.

    Parameters
    ----------
    pumped : SystemParams
        The system with the pump's LC shift and extra loss folded in, as
        :func:`pumped_lc_params` returns it.
    modes : sequence of MechanicalMode
    couplings : sequence of float
        Per-mode pump-enhanced coupling G_j >= 0 (rad/s), parallel to modes.
    omega_pump : float
        Pump frequency (rad/s).
    freqs : array
        Probe grid in Hz.

    Warnings
    --------
    ValidityWarning when the pump misses a mode's lower sideband by more
    than kappa_lc_tot, and when two modes overlap within their linewidths.

    Raises
    ------
    InvalidInputError
        Unless 0 < omega_pump < the pumped dressed LC frequency: a
        blue-detuned or on-resonance pump is a gain regime not modeled here.
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
        _require("couplings", c, "non-negative")
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

    dressed = dressed_modes(pumped)
    if not 0.0 < omega_pump < dressed.omega_lc:
        raise InvalidInputError(
            "pump must be red-detuned: omega_pump must be positive and below "
            "the pump-shifted LC resonance"
        )
    kappa_lc_tot = effective_rates(pumped, delta_eff=dressed.delta_eff).kappa_lc_tot
    for i, mode in enumerate(modes):
        if abs(omega_pump - (dressed.omega_lc - mode.omega_m)) >= kappa_lc_tot:
            warnings.warn(
                f"pump misses mechanical mode {i}'s lower sideband by more "
                "than kappa_lc_tot; the transparency window will be weak "
                "and displaced",
                ValidityWarning,
                stacklevel=2,
            )

    om = hz_to_angular(np.asarray(freqs, dtype=float))
    self_energy = []
    for mode, coupling in zip(modes, couplings):
        if coupling == 0.0:
            continue
        den = 1j * (omega_pump + mode.omega_m - om) + 0.5 * mode.gamma_m
        if np.any(den == 0.0):
            raise SingularResponseError(
                "probe grid hits an undamped mechanical sideband exactly"
            )
        self_energy.append(coupling * coupling / den)
    return _response(pumped, freqs, TraceKind.S11, self_energy)


def transparency_signal(pumped, on: ComplexTrace) -> ComplexTrace:
    """Pump-induced response change |S11(on) - S11(off)|^2 as a power trace.

    ``on`` is the S11 trace :func:`multi_mode_omit` returned for the same
    ``pumped`` parameters (InvalidInputError for any other kind).
    Subtracting the pump-off reflection in the complex plane isolates the
    mechanical contribution: the result is a clean peak of width close to
    gamma_m + gamma_e per mode, sitting on a flat background instead of the
    curved wall of the LC dip. Width extraction from this trace stays
    accurate even when the window is shallow or sits in a deep dip, which
    is why the window report uses it rather than the raw reflection.
    """
    if on.kind is not TraceKind.S11:
        raise InvalidInputError(
            f"transparency_signal needs the pumped s11 trace, got {on.kind.value}"
        )
    off = _response(pumped, on.freqs, TraceKind.S11)
    return ComplexTrace(on.freqs, np.abs(on.values - off.values) ** 2, TraceKind.POWER)
