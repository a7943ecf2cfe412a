"""Design-space exploration: detuning sweeps, target inversion, presets.

This is the planning layer: given a candidate cavity geometry (expressed as
coupled-mode parameters), sweep one knob and check each point against the
design targets (effective coupling band, resolved-sideband margin, dissipation
budget). Sweep values and targets are plain Hz, matching config files and
reports; the underlying physics stays in rad/s via :mod:`cavlink.coupled_modes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupled_modes import (
    PARAM_FIELDS,
    RATE_FIELDS,
    DerivedRates,
    SystemParams,
    effective_rates,
    resolved_sideband_ratio,
    DEFAULT_SIDEBAND_THRESHOLD,
    _PARAM_RULE,
    _bare_detuning,
    _checked,
    _checked_rates,
    _dressed,
    _rate_budget,
    _theta,
    _ultrastrong,
    _warn_ultrastrong,
)
from .errors import BranchAssignmentError, InvalidInputError, NoSolutionError, _RULES, _require
from .units import angular_to_hz, hz_to_angular

# Knobs that run_sweep can scan. All but delta_eff are SystemParams fields;
# delta_eff bypasses the dressed-mode solve and fixes the detuning directly.
SWEEPABLE_FIELDS = ("omega_cav", "kappa_cav_1", "kappa_cav_2", "g", "delta_eff")


@dataclass(frozen=True)
class SweepTargets:
    """Pass/fail thresholds applied to every sweep row (all in Hz)."""

    coupling_band_hz: tuple = (1.5e6, 2.0e6)
    omega_m_hz: float = 1.5e6
    sideband_threshold: float = DEFAULT_SIDEBAND_THRESHOLD
    max_dissipation_fraction: float = 0.30

    def __post_init__(self):
        lo, hi = self.coupling_band_hz
        if not (lo < hi):
            raise InvalidInputError("coupling_band_hz must satisfy lo < hi")
        for bound in (lo, hi):
            _require("coupling_band_hz", bound, "non-negative")
        _require("omega_m_hz", hz_to_angular(self.omega_m_hz), "positive", "rad/s")
        _require("sideband_threshold", self.sideband_threshold, "positive")
        _require("max_dissipation_fraction", self.max_dissipation_fraction, "in [0, 1]")


@dataclass(frozen=True)
class SweepSpec:
    """One-knob sweep: which field to scan, over which Hz values.

    ``values_hz`` is stored as a tuple of floats. Specs that name no
    ``targets`` share one default ``SweepTargets()``, built and checked once.
    """

    base_params: SystemParams
    swept_field: str
    values_hz: tuple
    targets: SweepTargets = SweepTargets()

    def __post_init__(self):
        if self.swept_field not in SWEEPABLE_FIELDS:
            raise InvalidInputError(
                f"swept_field must be one of {SWEEPABLE_FIELDS}, "
                f"got {self.swept_field!r}"
            )
        values = tuple(map(float, self.values_hz))
        if not values:
            raise InvalidInputError("values_hz must be non-empty")
        object.__setattr__(self, "values_hz", values)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: derived rates plus target verdicts.

    Invalid parameter combinations are retained with valid=False and an empty
    rates slot, so the output row count always matches the input values.
    """

    value_hz: float
    valid: bool
    rates: DerivedRates | None
    in_coupling_band: bool
    sideband_resolved: bool
    dissipation_ok: bool
    message: str = ""


#: :class:`SweepRow` from columns that ``run_sweep``'s masks have checked.
_checked_row = _checked(SweepRow)


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple

    def __len__(self):
        return len(self.rows)


def _refusal(base, swept_field, value_hz):
    """The library's own error text for a value the array pass refused: the
    scalar path raises it for that one value."""
    value = hz_to_angular(value_hz)
    try:
        if swept_field == "delta_eff":
            effective_rates(base, delta_eff=value)
        else:
            effective_rates(base.replace(**{swept_field: value}))
    except (InvalidInputError, BranchAssignmentError) as exc:
        return str(exc)
    raise AssertionError(
        f"{swept_field} = {value_hz!r} Hz was refused by the array pass "
        "but passes the scalar checks"
    )


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the derived rates and target verdicts at every sweep value.

    The whole sweep is one array pass: one closed-form mode solve (unless
    delta_eff is swept) and one rate budget over all values. Every rule that
    ``SystemParams``, ``effective_rates`` and ``DerivedRates`` check runs
    once, as a mask over the sweep, and each row is then built from the
    checked columns without being checked again. Values that violate
    parameter invariants (for example a negative rate) keep their place as
    invalid rows instead of aborting the sweep; each carries the message the
    library's own check raises for that value.
    """
    base, name, targets = spec.base_params, spec.swept_field, spec.targets
    p = dict(zip(PARAM_FIELDS, _theta(base)))
    # The arrays overflow where effective_rates' floats do, and only on values
    # that the masks below refuse or handle: like the floats, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        x = hz_to_angular(np.array(spec.values_hz))
        # the checks SystemParams (or effective_rates, for delta_eff) makes
        valid = _RULES["finite" if name == "delta_eff" else _PARAM_RULE[name]](x)
        if name in ("kappa_cav_1", "kappa_cav_2"):
            k = {**p, name: x}
            valid &= ((k["kappa_cav_1"] * k["kappa_cav_2"] < math.inf)
                      & (k["kappa_cav_1"] + k["kappa_cav_2"] + k["kappa_cav_loss"] < math.inf))
        x = np.where(valid, x, 0.0)  # refused values stay out of the arithmetic
        n = x.size
        if name == "delta_eff":
            delta = x
            noisy = [False] * n
        else:
            p[name] = x
            # dressed_modes and SystemParams' warning test on every value at once
            lam_cav, lam_lc, _, fifty_fifty = _dressed(*p.values())
            delta = lam_cav.real - lam_lc.real
            valid &= ~fifty_fifty & _RULES["finite"](delta)
            noisy = _ultrastrong(p["omega_cav"], p["omega_lc"], p["g"])
            noisy = noisy.tolist() if type(noisy) is np.ndarray else [noisy] * n
        budget = _rate_budget(*(p[field] for field in RATE_FIELDS), delta)
        ktot, keff1, keff2, _, lc_loss, lc_tot, fraction, _, diverges = budget
        # effective_rates refuses diverging rates; DerivedRates, a fraction outside
        # [0, 1] and a kappa_lc_tot that is not the exact sum
        valid &= (~diverges & _RULES["in [0, 1]"](fraction)
                  & (lc_tot == keff1 + keff2 + lc_loss))

        lo, hi = targets.coupling_band_hz
        keff1_hz = angular_to_hz(keff1)
        ratio = resolved_sideband_ratio(
            np.where(valid, lc_tot, 0.0), hz_to_angular(targets.omega_m_hz)
        )
    # delta has one entry per value, and so has every budget column that
    # follows it; only kappa_cav_tot can be one scalar for the whole sweep
    ktot = ktot.tolist() if type(ktot) is np.ndarray else [ktot] * n
    columns = zip(delta.tolist(), ktot, *(c.tolist() for c in budget[1:-1]))
    rows = []
    for value_hz, ok, warn, fields, band, sideband, dissipation in zip(
        spec.values_hz,
        valid.tolist(),
        noisy,
        columns,
        ((lo <= keff1_hz) & (keff1_hz <= hi)).tolist(),
        (ratio < targets.sideband_threshold).tolist(),
        (fraction <= targets.max_dissipation_fraction).tolist(),
    ):
        if ok:
            if warn:
                _warn_ultrastrong()
            rates = _checked_rates(*fields)
            rows.append(_checked_row(value_hz, True, rates, band, sideband, dissipation, ""))
        else:
            message = _refusal(base, name, value_hz)
            rows.append(SweepRow(value_hz, False, None, False, False, False, message))
    return SweepResult(spec=spec, rows=tuple(rows))


def find_target_detuning(base: SystemParams, target_keff1_hz: float) -> float:
    """Invert the effective-coupling formula for the detuning (both in Hz).

    Solves kappa_eff_1(delta) = target for the positive detuning root:

        delta = sqrt(kappa_cav_1 g^2 / kappa_eff_1 - (kappa_cav_tot / 2)^2)

    Raises NoSolutionError when the target exceeds the zero-detuning maximum
    and InvalidInputError where a term under the root overflows.
    """
    _require("target_keff1_hz", target_keff1_hz, "positive")
    target = hz_to_angular(target_keff1_hz)
    k1, g, half = base.kappa_cav_1, base.g, 0.5 * base.kappa_cav_tot
    if k1 == 0.0 or g == 0.0:
        raise NoSolutionError(
            "kappa_cav_1 and g must be nonzero for any effective coupling"
        )
    # squares as products, as in _rate_budget: Python's ** raises OverflowError
    reach, floor = k1 * (g * g), half * half
    peak = reach / floor if floor > 0.0 else math.inf
    if target > peak:
        raise NoSolutionError(
            f"target kappa_eff_1 of {target_keff1_hz} Hz exceeds the "
            f"zero-detuning maximum of {angular_to_hz(peak)} Hz"
        )
    # target == peak gives arg == 0 up to rounding; clamp the negative dust
    delta = max(reach / target - floor, 0.0) ** 0.5
    if not math.isfinite(delta):
        raise InvalidInputError(f"target kappa_eff_1 of {target_keff1_hz} Hz overflows in rad/s")
    return angular_to_hz(delta)


def with_dressed_detuning(base: SystemParams, delta_eff_hz: float) -> SystemParams:
    """Return a copy of ``base`` with omega_cav set so the dressed detuning
    (cavity minus LC dressed frequency) equals ``delta_eff_hz``, by the
    exact inverse of the splitting (``coupled_modes._bare_detuning``).
    The modes repel, so targets at or below the minimum splitting raise
    NoSolutionError; InvalidInputError marks squares that overflow.
    """
    _require("delta_eff_hz", delta_eff_hz, "positive")
    delta_bare = _bare_detuning(hz_to_angular(delta_eff_hz), base)
    if math.isnan(delta_bare):
        raise NoSolutionError(
            f"dressed detuning of {delta_eff_hz} Hz is below the minimum "
            "mode splitting for these parameters"
        )
    if delta_bare == math.inf:
        raise InvalidInputError(f"dressed detuning of {delta_eff_hz} Hz overflows in rad/s")
    return base.replace(omega_cav=base.omega_lc + delta_bare)


def bare_loss_for_dissipation_fraction(rates: DerivedRates, fraction: float) -> float:
    """Bare LC loss rate (rad/s) that makes dissipation_fraction equal
    ``fraction`` while keeping the cavity-mediated rates of ``rates`` fixed.

    Raises NoSolutionError when the external rates already dissipate a larger
    fraction than requested (the bare loss cannot be negative).
    """
    _require("fraction", fraction, "in [0, 1)")
    external = rates.kappa_eff_1 + rates.kappa_eff_2 + rates.kappa_eff_loss
    bare = (fraction * external - rates.kappa_eff_loss) / (1.0 - fraction)
    if bare < 0.0:
        raise NoSolutionError(
            "cavity-mediated loss alone exceeds the requested dissipation "
            "fraction; no non-negative bare loss achieves it"
        )
    return bare


def _hat(offset_hz):
    return SystemParams.from_hz(
        omega_cav=7.0e9 + offset_hz,
        omega_lc=7.0e9,
        kappa_cav_1=150e6,
        kappa_cav_2=5e6,
        kappa_cav_loss=10e6,
        kappa_lc_bare=0.48e6,
        g=57e6,
    )


# Four interchangeable cavity lids ("hats"): same couplers, different cavity
# frequency, hence different effective detuning from the fixed LC. The
# detunings are representative values spanning the order-of-magnitude
# coupling range; they are inputs, not derived quantities.
HAT_PRESETS = {
    "hat238": _hat(250e6),
    "hat270": _hat(520e6),
    "hat300": _hat(900e6),
    "hat316": _hat(1250e6),
}

# Idealized single-port design-study point: round numbers, no parasitic
# cavity ports, slightly smaller bare LC loss.
DESIGN_PRESET = SystemParams.from_hz(
    omega_cav=7.6e9,
    omega_lc=7.0e9,
    kappa_cav_1=150e6,
    kappa_cav_2=0.0,
    kappa_cav_loss=0.0,
    kappa_lc_bare=0.37e6,
    g=60e6,
)

ALL_PRESETS = dict(HAT_PRESETS, design=DESIGN_PRESET)
