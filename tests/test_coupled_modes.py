"""Core response model: parameters, traces, S-parameters, dressed modes, rates."""

import dataclasses
import warnings

import numpy as np
import pytest

from cavlink import (
    BranchAssignmentError,
    ComplexTrace,
    FitConfig,
    InvalidInputError,
    MechanicalMode,
    SWEEPABLE_FIELDS,
    SingularResponseError,
    SweepSpec,
    SystemParams,
    TWO_PI,
    TraceKind,
    ValidityWarning,
    angular_to_hz,
    dressed_modes,
    effective_rates,
    extract_fwhm,
    hz_to_angular,
    lower_sideband_pump,
    mode_matrix,
    multi_mode_omit,
    normalized_power_trace,
    resolved_sideband_ratio,
    run_sweep,
    s11,
    s21,
)
from cavlink.cli import _TABLES
from cavlink.coupled_modes import FREQUENCY_FIELDS, PARAM_FIELDS, _dressed, _theta

from conftest import merged_grid, reference_params, random_params


def eigenvalues(p):
    """Both eigenvalues of mode_matrix(p) from the closed-form solve, the
    higher real part first (the cavity-like one on a tie)."""
    return sorted((complex(z) for z in _dressed(*_theta(p))[:2]), key=lambda z: -z.real)


class TestSystemParams:
    def test_from_hz_to_hz_round_trip(self):
        p = reference_params()
        back = p.to_hz()
        assert back["g_hz"] == pytest.approx(57e6, rel=1e-15)
        assert back["omega_cav_hz"] == pytest.approx(7.52e9, rel=1e-15)

    def test_negative_rate_names_field(self):
        with pytest.raises(InvalidInputError, match="kappa_cav_2"):
            reference_params(kappa_cav_2=-1.0)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(InvalidInputError, match="omega_lc"):
            reference_params(omega_lc=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError, match="g"):
            reference_params(g=float("nan"))

    @pytest.mark.parametrize("name", PARAM_FIELDS)
    @pytest.mark.parametrize("edge", ["floor", "below_floor", "minus_zero", "nan", "inf", "-inf"])
    def test_domain_edges_agree(self, name, edge):
        """SystemParams, the fit's default bounds, run_sweep's refusal mask
        and the CLI's [params] rows draw one line: finite, frequencies
        positive, rates non-negative."""
        floor = 5e-324 if name in FREQUENCY_FIELDS else 0.0
        value, inside = {
            "floor": (floor, True),
            "below_floor": (np.nextafter(floor, -1.0), False),
            "minus_zero": (-0.0, floor == 0.0),
            "nan": (np.nan, False),
            "inf": (np.inf, False),
            "-inf": (-np.inf, False),
        }[edge]
        base = reference_params()
        rule = "positive" if name in FREQUENCY_FIELDS else "non-negative"
        for table in _TABLES.values():
            assert table["params"][f"{name}_hz"][1] == rule
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            if inside:
                assert getattr(base.replace(**{name: value}), name) == value
            else:
                with pytest.raises(InvalidInputError, match=rf"^{name} must be {rule} and finite"):
                    base.replace(**{name: value})
            lo, hi = FitConfig((name,), base).bounds[name]
            assert (lo, hi) == (floor, np.inf)
            assert (lo <= value < hi) == inside
            if name in SWEEPABLE_FIELDS:
                # as a Hz value: times 2 pi keeps each edge on its side
                (row,) = run_sweep(SweepSpec(base, name, (value,))).rows
                assert row.valid == inside

    def test_kappa_cav_tot_is_port_sum(self):
        p = reference_params()
        expected = p.kappa_cav_1 + p.kappa_cav_2 + p.kappa_cav_loss
        assert p.kappa_cav_tot == expected

    def test_replace_keeps_other_fields(self):
        p = reference_params()
        q = p.replace(g=hz_to_angular(60e6))
        assert q.g == hz_to_angular(60e6)
        assert q.omega_cav == p.omega_cav

    def test_strong_coupling_warns(self):
        with pytest.warns(ValidityWarning):
            SystemParams.from_hz(omega_cav=1e9, omega_lc=1e9, g=2e8)


class TestComplexTrace:
    def test_requires_increasing_freqs(self):
        with pytest.raises(InvalidInputError):
            ComplexTrace(np.array([1.0, 1.0]), np.array([1j, 2j]), TraceKind.S21)

    def test_requires_two_samples(self):
        with pytest.raises(InvalidInputError):
            ComplexTrace(np.array([1.0]), np.array([1j]), TraceKind.S21)

    def test_power_kind_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            ComplexTrace(
                np.array([1.0, 2.0]), np.array([1.0, -0.5]), TraceKind.POWER
            )

    @pytest.mark.parametrize("freqs, values, kind, message", [
        ([1.0, np.inf], [1j, 2j], TraceKind.S21, "freqs must be finite"),
        ([1.0, 2.0], [1.0, 0.5 + 1e-3j], TraceKind.POWER, "power_normalized values must be real"),
        ([1.0, 2.0], [1.0, np.nan], TraceKind.POWER, "values must be finite"),
        ([1.0, 2.0], [1.0], TraceKind.POWER, "match freqs in length"),
    ], ids=["freqs_not_finite", "power_complex", "power_not_finite", "power_wrong_length"])
    def test_refused_samples(self, freqs, values, kind, message):
        with pytest.raises(InvalidInputError, match=message):
            ComplexTrace(np.array(freqs), np.array(values), kind)

    def test_power_with_zero_imaginary_parts_is_real(self):
        t = ComplexTrace(np.array([1.0, 2.0]), np.array([1.0 + 0j, 0.5 + 0j]), TraceKind.POWER)
        assert t.values.dtype == float and t.values.tolist() == [1.0, 0.5]

    def test_values_are_read_only(self):
        t = ComplexTrace(np.array([1.0, 2.0]), np.array([1j, 2j]), TraceKind.S21)
        with pytest.raises(ValueError):
            t.values[0] = 0.0

    def test_power_of_complex_kind(self):
        t = ComplexTrace(
            np.array([1.0, 2.0]), np.array([3.0 + 4.0j, 1.0]), TraceKind.S21
        )
        assert t.power() == pytest.approx([25.0, 1.0])

    def test_normalized_power_trace(self):
        t = ComplexTrace(
            np.array([1.0, 2.0]), np.array([1.0 + 0j, 2.0 + 0j]), TraceKind.S21
        )
        n = normalized_power_trace(t)
        assert n.kind is TraceKind.POWER
        assert n.values.max() == 1.0
        zero = ComplexTrace(np.array([1.0, 2.0]), np.array([0j, 0j]), TraceKind.S21)
        with pytest.raises(InvalidInputError):
            normalized_power_trace(zero)


class TestS21:
    def test_uncoupled_lorentzian_peak_value(self):
        p = reference_params(g=0.0)
        f_cav = angular_to_hz(p.omega_cav)
        trace = s21(p, np.array([f_cav - 1e6, f_cav, f_cav + 1e6]))
        peak = abs(trace.values[1]) ** 2
        k = p.kappa_cav_tot
        expected = 4.0 * p.kappa_cav_1 * p.kappa_cav_2 / k**2
        assert peak == pytest.approx(expected, rel=1e-12)

    def test_empty_grid_rejected(self):
        # ComplexTrace refuses every grid that is not 1-D with 2 or more points
        p = reference_params()
        mode = MechanicalMode(TWO_PI * 0.66e6, TWO_PI * 10.0)
        pump = lower_sideband_pump(p, mode)
        models = (
            lambda f: s21(p, f),
            lambda f: s11(p, f),
            lambda f: multi_mode_omit(p, (mode,), (TWO_PI * 1e3,), pump, f),
        )
        for grid in ([], [6.9e9], [[6.9e9, 6.95e9], [7.05e9, 7.1e9]]):
            for model in models:
                with pytest.raises(InvalidInputError, match="at least 2 samples"):
                    model(np.array(grid))

    def test_coupling_whose_square_overflows(self):
        # g^2 is inf in (rad/s)^2: q = L / (L C + g^2) reads 0, the limit of
        # an LC that shorts the cavity, and numpy warns of nothing on the way
        with pytest.warns(ValidityWarning):
            p = reference_params(g=1e160)
        grid = np.linspace(6.8e9, 7.6e9, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(s21(p, grid).values == 0.0)
            assert np.all(s11(p, grid).values == 1.0)

    def test_lossless_normal_mode_is_singular(self):
        # no loss and no coupling: the response diverges at the cavity frequency
        p = SystemParams.from_hz(omega_cav=7.0e9, omega_lc=6.5e9)
        for model in (s21, s11):
            with pytest.raises(SingularResponseError, match="normal mode"):
                model(p, np.array([6.9e9, 7.0e9, 7.1e9]))

    def test_symmetric_interference_null_is_exact(self):
        # lossless LC exactly on the cavity: perfect destructive interference
        p = SystemParams.from_hz(
            omega_cav=7.0e9,
            omega_lc=7.0e9,
            kappa_cav_1=100e6,
            kappa_lc_bare=0.0,
            g=50e6,
        )
        trace = s21(p, np.array([6.9e9, 7.0e9, 7.1e9]))
        assert trace.values[1] == 0.0 + 0.0j

    def test_reference_scenario_two_peaks_and_narrow_width(self):
        p = reference_params(delta_bare_hz=600e6)
        rates = effective_rates(p)
        grid = merged_grid(p)
        power = np.abs(s21(p, grid).values) ** 2
        # two local maxima separated by at least the cavity linewidth
        interior = (power[1:-1] > power[:-2]) & (power[1:-1] >= power[2:])
        peak_freqs = grid[1:-1][interior]
        spread = peak_freqs.max() - peak_freqs.min()
        assert len(peak_freqs) >= 2
        assert spread > angular_to_hz(p.kappa_cav_tot)
        f_lc = angular_to_hz(dressed_modes(p).omega_lc)
        w = 5.0 * angular_to_hz(rates.kappa_lc_tot)
        _, fwhm = extract_fwhm(s21(p, grid), (f_lc - w, f_lc + w))
        assert fwhm == pytest.approx(angular_to_hz(rates.kappa_lc_tot), rel=0.10)


class TestS11:
    def test_critically_coupled_single_port_full_reflection(self):
        p = SystemParams.from_hz(
            omega_cav=7.0e9, omega_lc=6.5e9, kappa_cav_1=100e6, g=0.0
        )
        trace = s11(p, np.array([6.9e9, 7.0e9, 7.1e9]))
        assert trace.values[1] == -1.0 + 0.0j

    def test_far_detuned_reflection_is_unity(self):
        p = reference_params()
        k = angular_to_hz(p.kappa_cav_tot)
        f = angular_to_hz(p.omega_cav) + 150.0 * k
        trace = s11(p, np.array([f, f + 1e6]))
        assert abs(trace.values[0] - 1.0) < 0.01

    def test_lc_feature_is_dip_at_dressed_frequency(self):
        p = reference_params(delta_bare_hz=600e6)
        f_lc = angular_to_hz(dressed_modes(p).omega_lc)
        k_lc = angular_to_hz(effective_rates(p).kappa_lc_tot)
        grid = np.linspace(f_lc - 3 * k_lc, f_lc + 3 * k_lc, 3001)
        power = np.abs(s11(p, grid).values) ** 2
        f_min = grid[power.argmin()]
        assert power.min() < 0.9 * power.max()
        assert abs(f_min - f_lc) < 0.2 * k_lc


class TestDressedModes:
    def test_uncoupled_returns_bare_values(self):
        p = reference_params(g=0.0)
        m = dressed_modes(p)
        assert m.omega_cav == p.omega_cav
        assert m.omega_lc == p.omega_lc
        assert m.kappa_cav == p.kappa_cav_tot
        assert m.kappa_lc == p.kappa_lc_bare

    @pytest.mark.parametrize("detuning_hz", [520e6, 0.0, -300e6])
    def test_uncoupled_lossless_is_exactly_bare(self, detuning_hz):
        # the closed-form solve itself handles g = 0, crossing included:
        # bare frequencies, weight 1 and linewidths of +0.0, not -0.0
        p = SystemParams.from_hz(omega_cav=7.0e9 + detuning_hz, omega_lc=7.0e9)
        m = dressed_modes(p)
        assert (m.omega_cav, m.omega_lc, m.cavity_weight) == (p.omega_cav, p.omega_lc, 1.0)
        assert np.copysign(1.0, m.kappa_cav) == np.copysign(1.0, m.kappa_lc) == 1.0

    def test_symmetric_lossless_splitting_is_2g(self):
        p = SystemParams.from_hz(omega_cav=7.0e9, omega_lc=7.0e9, g=57e6)
        upper, lower = eigenvalues(p)
        assert upper.real - lower.real == pytest.approx(2.0 * p.g, rel=1e-12)
        with pytest.raises(BranchAssignmentError):
            dressed_modes(p)

    def test_reference_scenario_lc_pull(self):
        p = reference_params(delta_bare_hz=600e6)
        m = dressed_modes(p)
        pull = m.omega_lc - p.omega_lc
        # leading-order repulsion -g^2/Delta: 3% against the bare detuning
        # (finite kappa_cav and g/Delta corrections), <1% against the dressed one
        assert pull == pytest.approx(-p.g**2 / (p.omega_cav - p.omega_lc), rel=0.03)
        assert pull == pytest.approx(-p.g**2 / m.delta_eff, rel=0.01)
        assert m.cavity_weight > 0.9

    def test_eigenvalue_sum_equals_trace(self, rng):
        for _ in range(50):
            p = random_params(rng)
            matrix = mode_matrix(p)
            eigensum = sum(eigenvalues(p))
            assert eigensum == pytest.approx(np.trace(matrix), rel=1e-12)

    def test_delta_eff_definition(self):
        m = dressed_modes(reference_params())
        assert m.delta_eff == m.omega_cav - m.omega_lc


class TestEffectiveRates:
    def test_uncoupled_limit(self):
        r = effective_rates(reference_params(g=0.0))
        assert r.kappa_eff_1 == 0.0
        assert r.kappa_eff_2 == 0.0
        assert r.kappa_eff_loss == 0.0
        assert r.kappa_lc_tot == reference_params().kappa_lc_bare

    def test_design_point_value(self):
        # kappa_eff_1/2pi = 150 MHz * (60/600)^2 / (1 + (75/600)^2) = 1.4769 MHz
        p = SystemParams.from_hz(
            omega_cav=7.6e9, omega_lc=7.0e9, kappa_cav_1=150e6, g=60e6
        )
        r = effective_rates(p, delta_eff=hz_to_angular(600e6))
        assert angular_to_hz(r.kappa_eff_1) == pytest.approx(1476923.0769230768, rel=1e-12)

    def test_port_rates_share_common_factor(self, rng):
        for _ in range(20):
            p = random_params(rng)
            if p.kappa_cav_2 == 0.0:
                continue
            r = effective_rates(p)
            assert r.kappa_eff_1 / p.kappa_cav_1 == pytest.approx(
                r.kappa_eff_2 / p.kappa_cav_2, rel=1e-12
            )

    def test_detuning_scaling_is_exact(self):
        p = reference_params()
        k = p.kappa_cav_tot
        products = []
        for delta_hz in (300e6, 600e6, 900e6, 1500e6):
            d = hz_to_angular(delta_hz)
            r = effective_rates(p, delta_eff=d)
            products.append(r.kappa_eff_1 * (d**2 + (k / 2.0) ** 2))
        assert np.ptp(products) <= 1e-12 * abs(products[0])

    def test_bookkeeping_identity_machine_exact(self, rng):
        for _ in range(100):
            r = effective_rates(random_params(rng))
            assert r.kappa_lc_tot == r.kappa_eff_1 + r.kappa_eff_2 + r.kappa_lc_loss

    def test_identity_refused(self):
        r = effective_rates(reference_params())
        with pytest.raises(InvalidInputError, match="must equal kappa_eff_1"):
            dataclasses.replace(r, kappa_lc_tot=r.kappa_lc_tot * 2.0)

    def test_validity_flag_threshold(self):
        p = reference_params()
        edge = max(p.kappa_cav_tot, p.g)
        below = effective_rates(p, delta_eff=0.99 * edge)
        above = effective_rates(p, delta_eff=1.01 * edge)
        assert not below.within_validity
        assert above.within_validity

    def test_dissipation_fraction_bounds(self, rng):
        for _ in range(50):
            r = effective_rates(random_params(rng))
            assert 0.0 <= r.dissipation_fraction <= 1.0

    def test_to_hz_keys(self):
        d = effective_rates(reference_params()).to_hz()
        assert set(d) == {
            "delta_eff_hz", "kappa_cav_tot_hz", "kappa_eff_1_hz",
            "kappa_eff_2_hz", "kappa_eff_loss_hz", "kappa_lc_loss_hz",
            "kappa_lc_tot_hz", "dissipation_fraction", "within_validity",
        }


class TestResolvedSideband:
    def test_design_values_give_one_third(self):
        ratio = resolved_sideband_ratio(hz_to_angular(2e6), hz_to_angular(1.5e6))
        assert ratio == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_linewidth(self):
        assert resolved_sideband_ratio(0.0, 1.0) == 0.0

    def test_boundary_is_one(self):
        assert resolved_sideband_ratio(4.0, 1.0) == 1.0

    def test_nonpositive_mechanical_frequency_rejected(self):
        with pytest.raises(InvalidInputError):
            resolved_sideband_ratio(1.0, 0.0)


class TestPassivityReciprocity:
    def test_passivity_random_draws(self, rng):
        for _ in range(200):
            p = random_params(rng)
            grid = merged_grid(p, lc_points_per_linewidth=6)
            total = np.abs(s11(p, grid).values) ** 2 + np.abs(s21(p, grid).values) ** 2
            assert total.max() <= 1.0 + 1e-9

    def test_port_swap_leaves_s21_unchanged(self, rng):
        for _ in range(20):
            p = random_params(rng)
            swapped = p.replace(kappa_cav_1=p.kappa_cav_2, kappa_cav_2=p.kappa_cav_1)
            grid = np.linspace(
                angular_to_hz(p.omega_lc) - 1e9, angular_to_hz(p.omega_cav) + 1e9, 401
            )
            assert np.array_equal(s21(p, grid).values, s21(swapped, grid).values)


# -- closed-form 2x2 solve against the general eigensolver -------------------

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

# Subnormal rates (below 2.2e-308 rad/s) lie outside the supported domain.
_omegas = st.floats(1e10, 1e11)
_rates = st.floats(0.0, 2e9, allow_subnormal=False) | st.just(0.0)
_couplings = st.floats(0.0, 5e8, allow_subnormal=False) | st.just(0.0)
# bare detuning omega_cav - omega_lc: generic, near the crossing, or exactly on it
_detunings = (
    st.floats(-5e9, 5e9, allow_subnormal=False)
    | st.floats(-1e3, 1e3, allow_subnormal=False)
    | st.just(0.0)
)


@st.composite
def mode_params(draw):
    omega_lc = draw(_omegas)
    return SystemParams(
        omega_cav=omega_lc + draw(_detunings),
        omega_lc=omega_lc,
        kappa_cav_1=draw(_rates),
        kappa_cav_2=draw(_rates),
        kappa_cav_loss=draw(_rates),
        kappa_lc_bare=draw(_rates),
        g=draw(_couplings),
    )


def eig_reference(p):
    """Eigenvalues and cavity weights of mode_matrix(p) from np.linalg.eig.

    eig solves the matrix shifted by -omega_lc (same eigenvectors), so its
    backward error scales with the detuning, rates and coupling rather than
    with the ~1e10 rad/s carrier frequency. Its eigenvector error still
    grows as |A| / |lam_1 - lam_2|; the neighbourhood of the exceptional
    point, where that ratio diverges and neither solver's last digits mean
    anything, is skipped.
    """
    matrix = mode_matrix(p) - p.omega_lc * np.eye(2)
    lam, vecs = np.linalg.eig(matrix)
    weights = np.abs(vecs[0, :]) ** 2 / np.sum(np.abs(vecs) ** 2, axis=0)
    assume(p.g == 0.0 or abs(lam[0] - lam[1]) > 1e-3 * np.max(np.abs(matrix)))
    return lam + p.omega_lc, weights


class TestClosedFormMatchesEig:
    @settings(max_examples=400, deadline=None)
    @given(mode_params())
    def test_eigenvalues(self, p):
        lam, _ = eig_reference(p)
        upper, lower = eigenvalues(p)
        ref = sorted(lam, key=lambda z: -z.real)
        # equal real parts leave the order to rounding; pair by distance then
        if abs(ref[0].real - ref[1].real) <= 1e-12 * abs(ref[0]):
            ref = sorted(ref, key=lambda z: abs(z - upper))
        assert abs(upper - ref[0]) <= 1e-12 * abs(ref[0])
        assert abs(lower - ref[1]) <= 1e-12 * abs(ref[1])

    @settings(max_examples=400, deadline=None)
    @given(mode_params())
    def test_branch_labels_weights_and_ambiguity(self, p):
        assume(p.g > 0.0)  # dressed_modes returns the bare modes without solving
        lam, weights = eig_reference(p)
        gap = abs(weights[0] - weights[1])
        # rounding decides draws sitting on the 1e-9 threshold itself
        assume(abs(gap - 1e-9) > 1e-12)
        if gap < 1e-9:
            with pytest.raises(BranchAssignmentError):
                dressed_modes(p)
            return
        m = dressed_modes(p)
        cav = int(np.argmax(weights))
        lam_cav = complex(m.omega_cav, -0.5 * m.kappa_cav)
        lam_lc = complex(m.omega_lc, -0.5 * m.kappa_lc)
        assert abs(lam_cav - lam[cav]) <= 1e-12 * abs(lam[cav])
        assert abs(lam_lc - lam[1 - cav]) <= 1e-12 * abs(lam[1 - cav])
        assert m.cavity_weight == pytest.approx(weights[cav], rel=1e-12)

    def test_solver_broadcasts_like_scalar_calls(self, rng):
        draws = [random_params(rng) for _ in range(8)]
        draws += [reference_params(g=0.0), reference_params(delta_bare_hz=0.0)]
        *batch, batch_fifty_fifty = _dressed(*np.array([_theta(p) for p in draws]).T)
        # array loops may round the last bit differently from scalar ops
        eps = np.finfo(float).eps
        for i, p in enumerate(draws):
            *single, fifty_fifty = _dressed(*_theta(p))
            for got, want in zip(batch, single):
                assert abs(got[i] - want) <= 4 * eps * abs(want)
            assert batch_fifty_fifty[i] == fifty_fifty
        assert batch_fifty_fifty.tolist() == [False] * 9 + [True]

    def test_exact_crossing_is_ambiguous(self):
        # equal bare frequencies with g above |kappa_cav_tot - kappa_lc_bare|/4:
        # both eigenvectors are exactly 50/50
        p = reference_params(delta_bare_hz=0.0)
        assert p.g > abs(p.kappa_cav_tot - p.kappa_lc_bare) / 4
        with pytest.raises(BranchAssignmentError):
            dressed_modes(p)
        upper, lower = eigenvalues(p)
        assert upper.imag == pytest.approx(lower.imag, rel=1e-12)

    def test_dispersive_pulls_keep_relative_accuracy(self):
        # far detuned, the LC linewidth is a tiny imaginary part next to
        # |lam| ~ 1e11; the closed form keeps it to near machine precision
        p = reference_params(delta_bare_hz=20e9, kappa_lc_bare=0.0)
        m = dressed_modes(p)
        delta = p.omega_cav - p.omega_lc
        pull = p.g**2 * p.kappa_cav_tot / (delta**2 + (0.5 * p.kappa_cav_tot) ** 2)
        assert m.kappa_lc == pytest.approx(pull, rel=1e-3)
        assert m.kappa_cav + m.kappa_lc == pytest.approx(p.kappa_cav_tot, rel=1e-12)


# -- the exact inverse of the dressed splitting --------------------------------

from cavlink.coupled_modes import _bare_detuning  # noqa: E402

_lossy = st.floats(1e5, 2e8)


@st.composite
def detuned_lossy_params(draw):
    """Lossy modes detuned either way by 0.5 to 20 times max(g, kappa_cav_tot)."""
    omega_lc = draw(st.floats(3e10, 1e11))
    rates = [draw(_lossy) for _ in range(4)]
    g = draw(st.floats(1e6, 2e8))
    scale = max(g, rates[0] + rates[1] + rates[2])
    delta = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 20.0)) * scale
    return SystemParams(omega_lc + delta, omega_lc, *rates, g)


class TestBareDetuning:
    @settings(max_examples=400, deadline=None)
    @given(detuned_lossy_params())
    def test_inverts_the_dressed_splitting(self, p):
        bare = _bare_detuning(dressed_modes(p).delta_eff, p)
        # the dressed frequencies round at the ~1e10 rad/s carrier, and the
        # inverse scales that error by dDelta/dT, at most about 4 here
        assert bare == pytest.approx(p.omega_cav - p.omega_lc, rel=1e-11, abs=1e-14 * p.omega_lc)


# -- the kernel's Jacobian from one shared denominator -------------------------

from cavlink import HAT_PRESETS  # noqa: E402
from cavlink.coupled_modes import _root_slope, _scattering  # noqa: E402

_ALL = tuple(range(7))


def _masked_jacobian(om, theta, kind):
    """Reference: the Jacobian with q = 1/D from a masked division (0 where
    L vanishes) and u = g / (L C + g^2) from a second one, all seven columns
    built before the free ones are picked."""
    omega_cav, omega_lc, k1, k2, k_loss, k_lc, g = theta
    lc_inverse = 1j * (omega_lc - om) + 0.5 * k_lc
    cavity = 1j * (omega_cav - om) + 0.5 * (k1 + k2 + k_loss)
    live = np.ones(om.shape, bool) if g == 0.0 else lc_inverse != 0.0
    d = cavity + np.divide(g * g, lc_inverse, out=np.zeros_like(cavity), where=live)
    q = np.divide(1.0, d, out=np.zeros_like(d), where=live)
    u = g / (lc_inverse * cavity + g * g) if g != 0.0 else 0.0
    if kind is TraceKind.S21:
        prefactor = np.sqrt(k1 * k2)
        own = {2: _root_slope(k1, k2), 3: _root_slope(k2, k1)}
    else:
        prefactor, own = -k1, {2: -1.0}
    pq2, pu2 = prefactor * q * q, prefactor * u * u
    dq = (-1j * pq2, 1j * pu2, -0.5 * pq2, -0.5 * pq2, -0.5 * pq2, 0.5 * pu2,
          -2.0 * prefactor * q * u)
    jac = np.empty((7, om.size), complex)
    for row in _ALL:
        jac[row] = dq[row] + own.get(row, 0.0) * q
    return jac.T


class TestKernelJacobian:
    @pytest.mark.parametrize("kind", [TraceKind.S21, TraceKind.S11])
    def test_lossless_lc_on_resonance_takes_the_limit(self, kind):
        # L = 0 exactly at omega_lc: D -> inf, so q = 0 and u = 1/g there,
        # with no division by zero on the way
        p = HAT_PRESETS["hat270"].replace(kappa_lc_bare=0.0)
        theta = list(_theta(p))
        om = p.omega_lc + np.array([-1e-3, 0.0, 1e-3])
        with np.errstate(all="raise"):
            values, jac = _scattering(om, theta, kind, _ALL)
        assert np.all(np.isfinite(jac))
        assert values[1] == (0.0 if kind is TraceKind.S21 else 1.0)
        prefactor = np.sqrt(p.kappa_cav_1 * p.kappa_cav_2) if kind is TraceKind.S21 \
            else -p.kappa_cav_1
        limit = np.zeros(7, complex)
        limit[1], limit[5] = 1j * prefactor / p.g**2, 0.5 * prefactor / p.g**2
        np.testing.assert_allclose(jac[1], limit, rtol=1e-15, atol=0.0)
        # and the neighbours a milli-rad/s away approach it
        scale = np.max(np.abs(limit))
        for side in (0, 2):
            assert np.max(np.abs(jac[side] - limit)) <= 1e-6 * scale

    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    @pytest.mark.parametrize("kind", [TraceKind.S21, TraceKind.S11])
    def test_uncoupled_columns_match_the_masked_formulas(self, hat, kind):
        p = HAT_PRESETS[hat]
        theta = list(_theta(p))
        theta[6] = 0.0
        om = TWO_PI * merged_grid(p)
        _, jac = _scattering(om, theta, kind, _ALL)
        want = _masked_jacobian(om, theta, kind)
        assert np.all(jac[:, 6] == 0.0)  # dD/dg = 2g/L vanishes with g
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(jac - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    @pytest.mark.parametrize("kind", [TraceKind.S21, TraceKind.S11])
    def test_coupled_columns_match_the_masked_formulas(self, hat, kind):
        p = HAT_PRESETS[hat]
        om = TWO_PI * merged_grid(p)
        theta = list(_theta(p))
        _, jac = _scattering(om, theta, kind, _ALL)
        want = _masked_jacobian(om, theta, kind)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(jac - want) <= 1e-13 * scale)
        # the free columns alone, in any order, are the same numbers
        free = (6, 0, 5)
        assert np.array_equal(_scattering(om, theta, kind, free)[1], jac[:, free])

    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    def test_values_are_the_public_ones(self, hat):
        # one kernel: with or without the Jacobian, bit for bit
        p = HAT_PRESETS[hat]
        freqs = merged_grid(p)
        for kind, public in ((TraceKind.S21, s21), (TraceKind.S11, s11)):
            values, _ = _scattering(TWO_PI * freqs, list(_theta(p)), kind, _ALL)
            assert np.array_equal(values, public(p, freqs).values), kind


# -- the kernel's accuracy against extended precision --------------------------

from cavlink import ALL_PRESETS, coupling_for_damping, lower_sideband_pump  # noqa: E402

_EPS = np.finfo(float).eps


@st.composite
def preset_draws(draw):
    """A preset with both frequencies moved by up to 50 MHz and each rate
    scaled by 0.5 to 2."""
    theta = list(_theta(ALL_PRESETS[draw(st.sampled_from(sorted(ALL_PRESETS)))]))
    for i in (0, 1):
        theta[i] += TWO_PI * draw(st.floats(-50e6, 50e6))
    for i in range(2, 7):
        theta[i] *= draw(st.floats(0.5, 2.0))
    return SystemParams(*theta)


@pytest.mark.skipif(not np.finfo(np.longdouble).eps < 1e-18,
                    reason="np.longdouble is no wider than float64 here")
class TestKernelAccuracy:
    """The kernel against D = C + g^2/L evaluated in np.clongdouble from the
    same float64 inputs, to within 16 eps. Forming D can cancel, in any
    float64 order of operations, so the bound is relative to |S| times the
    sum's condition number (|C| + g^2/|L|) / |D|. S11 = 1 - kappa_cav_1 q
    cancels too near a critically coupled dip, so for S11 that condition
    number multiplies |S11| + kappa_cav_1 |q|."""

    @staticmethod
    def assert_accurate(p, om, self_energy=()):
        omega_cav, omega_lc, k1, k2, k_loss, k_lc, g = np.array(_theta(p), np.longdouble)
        w = om.astype(np.longdouble)
        lc = (1j * (omega_lc - w) + k_lc / 2).astype(np.clongdouble)
        for term in self_energy:
            lc = lc + term.astype(np.clongdouble)
        cavity = (1j * (omega_cav - w) + (k1 + k2 + k_loss) / 2).astype(np.clongdouble)
        d = cavity + g * g / lc
        condition = (np.abs(cavity) + g * g / np.abs(lc)) / np.abs(d)
        q = 1 / d
        want = {TraceKind.S21: (np.sqrt(k1 * k2) * q, 0.0),
                TraceKind.S11: (1 - k1 * q, k1 * np.abs(q))}
        for kind, (exact, cancelled) in want.items():
            got = _scattering(om, _theta(p), kind, self_energy=self_energy)
            error = np.abs(got.astype(np.clongdouble) - exact)
            scale = np.abs(exact) + cancelled
            assert np.all(error <= 16 * _EPS * condition * scale), kind

    @settings(max_examples=200, deadline=None)
    @given(preset_draws())
    def test_response(self, p):
        grid = np.concatenate([np.linspace(6.8e9, 7.6e9, 801), merged_grid(p)])
        self.assert_accurate(p, TWO_PI * grid)

    @settings(max_examples=200, deadline=None)
    @given(preset_draws(), st.floats(0.3e6, 2e6), st.floats(1.0, 100.0),
           st.floats(10.0, 1e4))
    def test_response_with_a_mechanical_self_energy(self, p, omega_m, gamma_m, gamma_e):
        # one mode on the lower sideband of the dressed LC line, its
        # self-energy formed as multi_mode_omit forms it
        mode = MechanicalMode(TWO_PI * omega_m, TWO_PI * gamma_m)
        kappa_lc_tot = effective_rates(p).kappa_lc_tot
        coupling = coupling_for_damping(TWO_PI * gamma_e, kappa_lc_tot)
        pump = lower_sideband_pump(p, mode)
        center, width = pump + mode.omega_m, mode.gamma_m + TWO_PI * gamma_e
        om = np.concatenate([center + np.linspace(-3, 3, 401) * kappa_lc_tot,
                             center + np.linspace(-30, 30, 401) * width])
        self_energy = coupling * coupling / (1j * (center - om) + 0.5 * mode.gamma_m)
        self.assert_accurate(p, om, (self_energy,))
