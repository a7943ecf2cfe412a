"""Sweeps, target inversion, and presets."""

import math

import numpy as np
import pytest

from cavlink import (
    ALL_PRESETS,
    DESIGN_PRESET,
    HAT_PRESETS,
    InvalidInputError,
    NoSolutionError,
    SweepSpec,
    SweepTargets,
    SystemParams,
    bare_loss_for_dissipation_fraction,
    dressed_modes,
    effective_rates,
    find_target_detuning,
    run_sweep,
    with_dressed_detuning,
)
from cavlink.units import TWO_PI, angular_to_hz, hz_to_angular


class TestSweepInputs:
    def test_targets_validation(self):
        with pytest.raises(InvalidInputError, match="lo < hi"):
            SweepTargets(coupling_band_hz=(2e6, 1.5e6))
        with pytest.raises(InvalidInputError, match="non-negative"):
            SweepTargets(coupling_band_hz=(-1.0, 1.5e6))
        with pytest.raises(InvalidInputError, match="omega_m_hz"):
            SweepTargets(omega_m_hz=0.0)
        with pytest.raises(InvalidInputError, match="sideband_threshold"):
            SweepTargets(sideband_threshold=0.0)
        with pytest.raises(InvalidInputError, match="dissipation"):
            SweepTargets(max_dissipation_fraction=1.5)

    @pytest.mark.parametrize("targets, field", [
        ({"sideband_threshold": math.nan}, "sideband_threshold"),
        ({"sideband_threshold": math.inf}, "sideband_threshold"),
        ({"omega_m_hz": math.nan}, "omega_m_hz"),
        ({"omega_m_hz": math.inf}, "omega_m_hz"),
        ({"omega_m_hz": 1e308}, "omega_m_hz"),  # finite in Hz, inf in rad/s
        ({"coupling_band_hz": (1.5e6, math.inf)}, "coupling_band_hz"),
        ({"coupling_band_hz": (math.nan, 2e6)}, "coupling_band_hz"),
        ({"max_dissipation_fraction": math.nan}, "max_dissipation_fraction"),
    ], ids=["threshold_nan", "threshold_inf", "omega_m_nan", "omega_m_inf",
            "omega_m_overflow", "band_hi_inf", "band_lo_nan", "fraction_nan"])
    def test_targets_refuse_non_finite(self, targets, field):
        with pytest.raises(InvalidInputError, match=field):
            SweepTargets(**targets)

    def test_targets_defaults(self):
        t = SweepTargets()
        assert t.coupling_band_hz == (1.5e6, 2.0e6)
        assert t.omega_m_hz == 1.5e6
        assert t.max_dissipation_fraction == 0.30

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError, match="swept_field"):
            SweepSpec(DESIGN_PRESET, "omega_lc", (7e9,))
        with pytest.raises(InvalidInputError, match="non-empty"):
            SweepSpec(DESIGN_PRESET, "delta_eff", ())

    def test_spec_coerces_values(self):
        spec = SweepSpec(DESIGN_PRESET, "delta_eff", [200e6, 400e6])
        assert spec.values_hz == (200e6, 400e6)
        assert all(isinstance(v, float) for v in spec.values_hz)


class TestRunSweep:
    def test_row_per_value_in_order(self):
        values = tuple(np.linspace(200e6, 1400e6, 13))
        result = run_sweep(SweepSpec(DESIGN_PRESET, "delta_eff", values))
        assert len(result) == 13
        assert tuple(row.value_hz for row in result.rows) == values

    def test_effective_coupling_falls_with_detuning(self):
        values = tuple(np.linspace(200e6, 1400e6, 13))
        result = run_sweep(SweepSpec(DESIGN_PRESET, "delta_eff", values))
        keff = [row.rates.kappa_eff_1 for row in result.rows]
        assert all(a > b for a, b in zip(keff, keff[1:]))
        assert keff[0] / keff[-1] > 10.0

    def test_invalid_value_is_retained_and_flagged(self):
        result = run_sweep(
            SweepSpec(DESIGN_PRESET, "kappa_cav_1", (100e6, -5e6, 150e6))
        )
        assert len(result) == 3
        ok1, bad, ok2 = result.rows
        assert ok1.valid and ok2.valid
        assert not bad.valid
        assert bad.rates is None
        assert bad.message != ""
        assert not (bad.in_coupling_band or bad.sideband_resolved or bad.dissipation_ok)

    def test_rows_are_pure_per_value(self):
        values = (300e6, 600e6, 900e6)
        forward = run_sweep(SweepSpec(DESIGN_PRESET, "delta_eff", values))
        backward = run_sweep(SweepSpec(DESIGN_PRESET, "delta_eff", values[::-1]))
        assert forward.rows == backward.rows[::-1]

    def test_target_verdicts_at_band_point(self):
        value = find_target_detuning(DESIGN_PRESET, 1.5e6)
        row = run_sweep(SweepSpec(DESIGN_PRESET, "delta_eff", (value,))).rows[0]
        assert row.valid
        assert row.in_coupling_band
        assert row.sideband_resolved
        assert row.dissipation_ok

    def test_out_of_band_point(self):
        row = run_sweep(SweepSpec(DESIGN_PRESET, "delta_eff", (1.4e9,))).rows[0]
        assert row.valid
        assert not row.in_coupling_band  # coupling too weak out here


class TestFindTargetDetuning:
    def test_design_point(self):
        found = find_target_detuning(DESIGN_PRESET, 1.5e6)
        assert found == pytest.approx(595294044.9895328, rel=1e-9)
        assert found == pytest.approx(600e6, rel=0.10)

    def test_round_trip(self):
        found = find_target_detuning(DESIGN_PRESET, 1.5e6)
        rates = effective_rates(DESIGN_PRESET, delta_eff=hz_to_angular(found))
        assert angular_to_hz(rates.kappa_eff_1) == pytest.approx(1.5e6, rel=1e-12)

    def test_boundary_target_gives_zero_detuning(self):
        d = DESIGN_PRESET
        peak_hz = angular_to_hz(d.kappa_cav_1 * d.g**2 / (0.5 * d.kappa_cav_tot) ** 2)
        assert find_target_detuning(d, peak_hz) == 0.0

    def test_unachievable_target(self):
        d = DESIGN_PRESET
        peak_hz = angular_to_hz(d.kappa_cav_1 * d.g**2 / (0.5 * d.kappa_cav_tot) ** 2)
        with pytest.raises(NoSolutionError, match="exceeds"):
            find_target_detuning(d, 2.0 * peak_hz)

    def test_no_route_without_coupling(self):
        with pytest.raises(NoSolutionError, match="nonzero"):
            find_target_detuning(DESIGN_PRESET.replace(g=0.0), 1.5e6)
        with pytest.raises(NoSolutionError, match="nonzero"):
            find_target_detuning(DESIGN_PRESET.replace(kappa_cav_1=0.0), 1.5e6)

    def test_target_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="positive"):
            find_target_detuning(DESIGN_PRESET, 0.0)

    def test_squares_that_overflow_are_refused(self):
        # kappa_cav_1 g^2 / target is inf in (rad/s)^2: never inf Hz
        with pytest.warns(ValidityWarning):
            strong = HAT_PRESETS["hat270"].replace(g=hz_to_angular(1e160))
        with pytest.raises(InvalidInputError, match="overflow"):
            find_target_detuning(strong, 1.5e6)
        with pytest.raises(InvalidInputError, match="overflow"):
            find_target_detuning(HAT_PRESETS["hat270"], 1e-300)

    def test_linewidth_whose_square_underflows(self):
        # (kappa_cav_tot/2)^2 is 0: the zero-detuning maximum is unbounded
        p = SystemParams(
            omega_cav=1e10, omega_lc=1e10, kappa_cav_1=1e-170, kappa_cav_2=0.0,
            kappa_cav_loss=0.0, kappa_lc_bare=0.0, g=1e6,
        )
        delta = find_target_detuning(p, 1e-100)
        rates = effective_rates(p, delta_eff=hz_to_angular(delta))
        assert angular_to_hz(rates.kappa_eff_1) == pytest.approx(1e-100, rel=1e-12)


class TestWithDressedDetuning:
    def test_round_trip(self):
        p = with_dressed_detuning(DESIGN_PRESET, 600e6)
        assert angular_to_hz(dressed_modes(p).delta_eff) == pytest.approx(
            600e6, rel=1e-12
        )

    def test_detuning_in_linewidth_units(self):
        target = 3.0 * angular_to_hz(DESIGN_PRESET.kappa_cav_tot)
        p = with_dressed_detuning(DESIGN_PRESET, target)
        ratio = dressed_modes(p).delta_eff / DESIGN_PRESET.kappa_cav_tot
        assert ratio == pytest.approx(3.0, rel=1e-12)

    def test_bare_detuning_is_smaller(self):
        p = with_dressed_detuning(DESIGN_PRESET, 600e6)
        bare = angular_to_hz(p.omega_cav - p.omega_lc)
        assert bare < 600e6  # mode repulsion widens the dressed gap

    def test_below_minimum_splitting(self):
        # the dressed gap can never shrink below the avoided crossing
        with pytest.raises(NoSolutionError, match="minimum"):
            with_dressed_detuning(DESIGN_PRESET, 50e6)

    def test_target_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="positive"):
            with_dressed_detuning(DESIGN_PRESET, -1.0)

    def test_squares_that_overflow(self):
        hat = HAT_PRESETS["hat270"]
        with pytest.raises(InvalidInputError, match="overflow"):
            with_dressed_detuning(hat, 1e160)
        with pytest.warns(ValidityWarning):
            strong = hat.replace(g=1e200)
        # g^2 alone overflows: any finite target is below the splitting 2g
        with pytest.raises(NoSolutionError, match="minimum"):
            with_dressed_detuning(strong, 1e9)
        with pytest.raises(InvalidInputError, match="overflow"):
            with_dressed_detuning(strong, 1e200)

    def test_target_whose_square_underflows(self):
        # below the exceptional point every target is reachable; this one
        # is too small to move omega_cav off omega_lc
        base = HAT_PRESETS["hat270"].replace(g=0.0)
        p = with_dressed_detuning(base, 1e-170)
        assert p.omega_cav == base.omega_lc


class TestBareLossForDissipation:
    def test_self_consistent_fraction(self):
        delta = hz_to_angular(600e6)
        rates = effective_rates(DESIGN_PRESET, delta_eff=delta)
        bare = bare_loss_for_dissipation_fraction(rates, 0.17)
        tuned = DESIGN_PRESET.replace(kappa_lc_bare=bare)
        again = effective_rates(tuned, delta_eff=delta)
        assert again.dissipation_fraction == pytest.approx(0.17, rel=1e-12)

    def test_impossible_fraction(self):
        rates = effective_rates(HAT_PRESETS["hat270"])
        # cavity-internal loss already dissipates more than 0%
        with pytest.raises(NoSolutionError, match="non-negative"):
            bare_loss_for_dissipation_fraction(rates, 0.0)

    def test_fraction_range(self):
        rates = effective_rates(DESIGN_PRESET, delta_eff=hz_to_angular(600e6))
        with pytest.raises(InvalidInputError, match="fraction"):
            bare_loss_for_dissipation_fraction(rates, 1.0)


class TestPresets:
    def test_catalog(self):
        assert set(HAT_PRESETS) == {"hat238", "hat270", "hat300", "hat316"}
        assert set(ALL_PRESETS) == set(HAT_PRESETS) | {"design"}
        assert all(isinstance(p, SystemParams) for p in ALL_PRESETS.values())

    def test_hats_differ_only_in_cavity_frequency(self):
        hats = [HAT_PRESETS[k] for k in ("hat238", "hat270", "hat300", "hat316")]
        cavs = [h.omega_cav for h in hats]
        assert all(a < b for a, b in zip(cavs, cavs[1:]))
        for h in hats[1:]:
            assert h.replace(omega_cav=hats[0].omega_cav) == hats[0]

    def test_hat_ladder_spans_order_of_magnitude(self):
        keff = [
            effective_rates(HAT_PRESETS[k]).kappa_eff_1
            for k in ("hat238", "hat270", "hat300", "hat316")
        ]
        assert all(a > b for a, b in zip(keff, keff[1:]))
        assert keff[0] / keff[-1] >= 10.0

    def test_design_preset_is_single_port(self):
        assert DESIGN_PRESET.kappa_cav_2 == 0.0
        assert DESIGN_PRESET.kappa_cav_loss == 0.0
        assert DESIGN_PRESET.g == TWO_PI * 60e6


# -- closed-form inverse of the dressed detuning ------------------------------

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402


@st.composite
def design_points(draw):
    """Parameters in Hz-scale ranges plus a target dressed detuning (Hz)."""
    base = SystemParams.from_hz(
        omega_cav=7.5e9,
        omega_lc=draw(st.floats(4e9, 10e9)),
        kappa_cav_1=draw(st.floats(1e6, 400e6)),
        kappa_cav_2=draw(st.floats(0.0, 50e6)),
        kappa_cav_loss=draw(st.floats(0.0, 50e6)),
        kappa_lc_bare=draw(st.just(0.0) | st.floats(0.0, 5e6)),
        g=draw(st.floats(1e6, 150e6)),
    )
    return base, draw(st.floats(1e6, 3e9))


def minimum_splitting_hz(p):
    """2 sqrt(g^2 - dk^2/16), or 0 when the modes never cross (dk/4 >= g)."""
    quarter = abs(p.kappa_cav_tot - p.kappa_lc_bare) / 4.0
    gap2 = (p.g - quarter) * (p.g + quarter)  # factored: exact near dk/4 ~ g
    return angular_to_hz(2.0 * np.sqrt(max(gap2, 0.0)))


def detuning_sensitivity(p):
    """dT/dDelta of the dressed detuning T against the bare one, at p.

    From implicit differentiation of the inverse relation
    T^2/4 + dk^2/16 - g^2 = Delta^2 (1/4 + dk^2 / (16 T^2)).
    """
    dk2 = (p.kappa_cav_tot - p.kappa_lc_bare) ** 2
    delta = p.omega_cav - p.omega_lc
    t = dressed_modes(p).delta_eff
    return 2.0 * delta * (0.25 + dk2 / (16.0 * t**2)) / (
        0.5 * t + delta**2 * dk2 / (8.0 * t**3)
    )


class TestDressedDetuningInverse:
    @settings(max_examples=300, deadline=None)
    @given(design_points())
    def test_round_trip_through_dressed_modes(self, point):
        base, target = point
        if target <= minimum_splitting_hz(base) * (1.0 + 1e-9):
            return  # unreachable or on the edge; see the next test
        p = with_dressed_detuning(base, target)
        # omega_cav is stored to within half an ulp; where T is so sensitive
        # to the bare detuning that this alone exceeds 1e-13 relative (tiny
        # targets next to the exceptional point), no inverse can do better
        error = detuning_sensitivity(p) * np.spacing(p.omega_cav)
        assume(error < 1e-13 * hz_to_angular(target))
        assert p.omega_cav > p.omega_lc
        assert angular_to_hz(dressed_modes(p).delta_eff) == pytest.approx(target, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(design_points(), st.floats(-1e-6, 1e-6))
    @example(  # g within rounding of |dk|/4: a 0.16 Hz edge, 1e15 (rad/s)^2 terms
        (
            SystemParams(
                omega_cav=47123889803.84689,
                omega_lc=25132741228.718346,
                kappa_cav_1=6283185.307179586,
                kappa_cav_2=6.283185307179586,
                kappa_cav_loss=135344699.83481726,
                kappa_lc_bare=15964185.281590441,
                g=31415926.535897933,
            ),
            1e6,
        ),
        6.685787928584376e-07,
    )
    def test_no_solution_exactly_below_minimum_splitting(self, point, offset):
        base, _ = point
        edge = minimum_splitting_hz(base)
        target = edge * (1.0 + offset)
        if not target > 0.0 or abs(offset) < 1e-12:
            return  # rounding decides targets on the edge itself
        if target < edge:
            with pytest.raises(NoSolutionError, match="minimum"):
                with_dressed_detuning(base, target)
        else:
            with_dressed_detuning(base, target)

    def test_non_finite_target_rejected(self):
        for bad in (float("inf"), float("nan"), 0.0):
            with pytest.raises(InvalidInputError, match="positive"):
                with_dressed_detuning(DESIGN_PRESET, bad)

    def test_targets_either_side_of_the_hat_minimum_splitting(self):
        # hat presets sit above the exceptional point: the crossing gap is
        # 2 sqrt(g^2 - dk^2/16), about 78.9 MHz for g = 57 MHz
        p = HAT_PRESETS["hat270"]
        edge = minimum_splitting_hz(p)
        assert edge == pytest.approx(78.93e6, rel=1e-3)
        with pytest.raises(NoSolutionError):
            with_dressed_detuning(p, edge * (1 - 1e-9))
        # just above the edge the bare detuning is tiny (~24 kHz) but exists
        near = with_dressed_detuning(p, edge * (1 + 1e-7))
        assert 0.0 < angular_to_hz(near.omega_cav - near.omega_lc) < 1e5
        assert angular_to_hz(dressed_modes(near).delta_eff) == pytest.approx(
            edge * (1 + 1e-7), rel=1e-12
        )


# -- the array sweep against the scalar library path --------------------------

import warnings  # noqa: E402

from cavlink import (  # noqa: E402
    SWEEPABLE_FIELDS,
    BranchAssignmentError,
    ValidityWarning,
    resolved_sideband_ratio,
)

_RATE_NAMES = (
    "delta_eff",
    "kappa_cav_tot",
    "kappa_eff_1",
    "kappa_eff_2",
    "kappa_eff_loss",
    "kappa_lc_loss",
    "kappa_lc_tot",
    "dissipation_fraction",
)
_BAD = st.sampled_from((math.inf, -math.inf, math.nan))
# Valid draws per field (Hz), then refused ones: negative rates, 0 or a
# negative cavity frequency, non-finite values. 7 GHz puts the cavity on
# the LC of every preset, and g crosses the ultrastrong 0.1 * omega_lc.
_SWEEP_VALUES = {
    "omega_cav": st.floats(5e9, 10e9) | st.just(7e9) | st.floats(-1e10, 0.0) | _BAD,
    "kappa_cav_1": st.floats(0.0, 500e6) | st.floats(-1e9, -1e-3) | _BAD,
    "kappa_cav_2": st.floats(0.0, 500e6) | st.floats(-1e9, -1e-3) | _BAD,
    "g": st.floats(0.0, 1e9) | st.floats(-1e9, -1e-3) | _BAD,
    "delta_eff": st.floats(-3e9, 3e9) | st.just(0.0) | _BAD,
}


def _scalar_rates(base, field, value_hz):
    """The scalar path for one value: (DerivedRates, "") or (None, message)."""
    value = hz_to_angular(value_hz)
    try:
        if field == "delta_eff":
            return effective_rates(base, delta_eff=value), ""
        return effective_rates(base.replace(**{field: value})), ""
    except (InvalidInputError, BranchAssignmentError) as exc:
        return None, str(exc)


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [(w.category, str(w.message)) for w in caught]


def _near(value, threshold):
    return abs(value - threshold) <= 1e-12 * abs(threshold)


def assert_sweep_matches_scalar(base, field, values_hz, targets=SweepTargets()):
    """Each row of run_sweep against the scalar path for its value: order,
    flag and message exact, rates to 1e-12, the budget identity exact,
    verdicts equal away from their thresholds, the same warnings."""
    result, swept = _recorded(lambda: run_sweep(SweepSpec(base, field, values_hz, targets)))
    reference, scalar = _recorded(
        lambda: [_scalar_rates(base, field, v) for v in result.spec.values_hz]
    )
    assert swept == scalar
    assert len(result) == len(values_hz)
    lo, hi = targets.coupling_band_hz
    for row, value_hz, (rates, message) in zip(result.rows, values_hz, reference):
        assert row.value_hz == value_hz or (math.isnan(value_hz) and math.isnan(row.value_hz))
        assert (row.valid, row.message) == (rates is not None, message)
        if rates is None:
            assert row.rates is None
            assert not (row.in_coupling_band or row.sideband_resolved or row.dissipation_ok)
            continue
        got = row.rates
        for name in _RATE_NAMES:
            want = getattr(rates, name)
            assert abs(getattr(got, name) - want) <= 1e-12 * abs(want), name
        assert got.kappa_lc_tot == got.kappa_eff_1 + got.kappa_eff_2 + got.kappa_lc_loss
        assert got.kappa_lc_loss == base.kappa_lc_bare + got.kappa_eff_loss
        edge = max(rates.kappa_cav_tot, base.g if field != "g" else hz_to_angular(value_hz))
        if not _near(abs(rates.delta_eff), edge):
            assert got.within_validity == rates.within_validity
        keff1_hz = angular_to_hz(rates.kappa_eff_1)
        if not (_near(keff1_hz, lo) or _near(keff1_hz, hi)):
            assert row.in_coupling_band == (lo <= keff1_hz <= hi)
        ratio = resolved_sideband_ratio(rates.kappa_lc_tot, hz_to_angular(targets.omega_m_hz))
        if not _near(ratio, targets.sideband_threshold):
            assert row.sideband_resolved == (ratio < targets.sideband_threshold)
        fraction = rates.dissipation_fraction
        if not _near(fraction, targets.max_dissipation_fraction):
            assert row.dissipation_ok == (fraction <= targets.max_dissipation_fraction)
    return result, swept


@st.composite
def sweeps(draw):
    """A preset, a sweepable field and a mix of valid and refused values."""
    base = ALL_PRESETS[draw(st.sampled_from(sorted(ALL_PRESETS)))]
    field = draw(st.sampled_from(SWEEPABLE_FIELDS))
    values = draw(st.lists(_SWEEP_VALUES[field], min_size=1, max_size=12))
    return base, field, values


class TestArraySweepMatchesScalarPath:
    @settings(max_examples=300, deadline=None)
    @given(sweeps())
    def test_rows_match_scalar_path(self, sweep):
        assert_sweep_matches_scalar(*sweep)

    @pytest.mark.parametrize("field", SWEEPABLE_FIELDS)
    def test_uncoupled_base(self, field):
        base = HAT_PRESETS["hat270"].replace(g=0.0)
        values = {
            "omega_cav": (6.9e9, 7e9, 7.5e9, -1.0),
            "kappa_cav_1": (0.0, 150e6, -5e6),
            "kappa_cav_2": (0.0, 5e6, math.nan),
            "g": (0.0, 57e6, math.inf),
            "delta_eff": (0.0, 520e6, -math.inf),
        }[field]
        result, _ = assert_sweep_matches_scalar(base, field, values)
        assert any(row.valid for row in result.rows)

    def test_lossless_cavity_at_zero_detuning(self):
        base = DESIGN_PRESET.replace(kappa_cav_1=0.0)
        result, _ = assert_sweep_matches_scalar(base, "delta_eff", (100e6, 0.0, -100e6))
        assert [row.valid for row in result.rows] == [True, False, True]
        assert "effective rates diverge" in result.rows[1].message

    def test_symmetric_crossing(self):
        # the golden omega_cav sweep's 50/50 point: the cavity on the LC.
        # 0.05 Hz off it the weights differ by ~6e-10, under the 1e-9
        # the branch labels need; 10 Hz off, by ~1.3e-7.
        values = (7.52e9, 7e9, 7e9 + 0.05, 7e9 + 10.0, 6.9e9)
        result, _ = assert_sweep_matches_scalar(HAT_PRESETS["hat270"], "omega_cav", values)
        assert [row.valid for row in result.rows] == [True, False, False, True, True]
        assert "50/50" in result.rows[1].message

    def test_ultrastrong_warning_once_per_row(self):
        # 0.1 omega_lc is 700 MHz, exactly 2 pi 700e6 rad/s, so the next float
        # below stays quiet and 700 MHz warns; -1 Hz is refused before any warning
        values = (57e6, 690e6, math.nextafter(700e6, 0), 700e6, 710e6, -1.0, 800e6, 2e9)
        _, swept = assert_sweep_matches_scalar(HAT_PRESETS["hat270"], "g", values)
        assert [category for category, _ in swept] == [ValidityWarning] * 4
