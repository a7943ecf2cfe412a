"""Width extraction and model fitting."""

import numpy as np
import pytest
from conftest import merged_grid, reference_params, random_params

from cavlink import (
    ComplexTrace,
    DegenerateParameterError,
    FitConfig,
    InvalidInputError,
    PeakAmbiguityError,
    SystemParams,
    TraceKind,
    WindowTooNarrowError,
    add_noise,
    auto_initial_guess,
    effective_rates,
    extract_fwhm,
    fit_trace,
    multi_trace_fit,
    normalized_power_trace,
    s11,
    s21,
)
from cavlink.units import TWO_PI


def lorentzian_trace(f0, width, span=32.0, per_linewidth=50, amp=1.0):
    n = int(2 * span * per_linewidth) + 1
    f = np.linspace(f0 - span * width, f0 + span * width, n)
    p = amp / (1.0 + (2.0 * (f - f0) / width) ** 2)
    return ComplexTrace(f, p, TraceKind.POWER)


def flat_trace(level=0.25, n=101):
    f = np.linspace(1e9, 2e9, n)
    return ComplexTrace(f, np.full(n, level), TraceKind.POWER)


class TestExtractFwhm:
    def test_pure_lorentzian_per_mille(self):
        # 50 points per linewidth; the analysis window must span many
        # linewidths or the edge-pinned baseline eats into the tails
        f0, w = 4.7e9, 1.0e6
        trace = lorentzian_trace(f0, w)
        center, fwhm = extract_fwhm(trace, (f0 - 25 * w, f0 + 25 * w))
        assert fwhm == pytest.approx(w, rel=1e-3)
        assert center == pytest.approx(f0, abs=0.01 * w)

    def test_scaling_invariance(self):
        f0, w = 4.7e9, 1.0e6
        trace = lorentzian_trace(f0, w)
        window = (f0 - 20 * w, f0 + 20 * w)
        c1, w1 = extract_fwhm(trace, window)
        scaled = ComplexTrace(trace.freqs, trace.values * 2.0**20, TraceKind.POWER)
        c2, w2 = extract_fwhm(scaled, window)
        assert w2 == pytest.approx(w1, rel=1e-12)
        assert c2 == pytest.approx(c1, rel=1e-12)

    def test_translation_invariance(self):
        f0, w, shift = 60.0e6, 1.0e6, 12345.0
        trace = lorentzian_trace(f0, w)
        moved = ComplexTrace(trace.freqs + shift, trace.values, TraceKind.POWER)
        c1, w1 = extract_fwhm(trace, (f0 - 20 * w, f0 + 20 * w))
        c2, w2 = extract_fwhm(moved, (f0 - 20 * w + shift, f0 + 20 * w + shift))
        assert w2 == pytest.approx(w1, rel=1e-9)
        assert c2 - c1 == pytest.approx(shift, rel=1e-6)

    def test_cavity_linewidth_from_model(self):
        # g = 0 transmission is a bare Lorentzian of width kappa_cav_tot
        p = reference_params(g=0.0)
        kt = p.kappa_cav_tot / TWO_PI
        f0 = p.omega_cav / TWO_PI
        f = np.linspace(f0 - 32 * kt, f0 + 32 * kt, 3201)
        center, fwhm = extract_fwhm(s21(p, f), (f0 - 25 * kt, f0 + 25 * kt))
        assert fwhm == pytest.approx(kt, rel=1e-3)
        assert center == pytest.approx(f0, abs=0.01 * kt)

    def test_flat_trace_has_no_peak(self):
        trace = flat_trace()
        with pytest.raises(PeakAmbiguityError, match="no peak"):
            extract_fwhm(trace, (1.2e9, 1.8e9))

    def test_two_peaks_rejected(self):
        f0, w = 4.7e9, 1.0e6
        f = np.linspace(f0 - 30 * w, f0 + 30 * w, 6001)
        p = 1.0 / (1.0 + (2 * (f - f0 + 8 * w) / w) ** 2)
        p += 1.0 / (1.0 + (2 * (f - f0 - 8 * w) / w) ** 2)
        trace = ComplexTrace(f, p, TraceKind.POWER)
        with pytest.raises(PeakAmbiguityError, match="2 regions"):
            extract_fwhm(trace, (f0 - 25 * w, f0 + 25 * w))

    def test_window_outside_span(self):
        trace = lorentzian_trace(4.7e9, 1.0e6)
        with pytest.raises(InvalidInputError, match="inside the trace"):
            extract_fwhm(trace, (4.7e9, 4.8e9))

    def test_window_not_ordered(self):
        trace = lorentzian_trace(4.7e9, 1.0e6)
        with pytest.raises(InvalidInputError, match="lo < hi"):
            extract_fwhm(trace, (4.7e9 + 1e6, 4.7e9 - 1e6))

    def test_window_with_too_few_samples(self):
        f0, w = 4.7e9, 1.0e6
        trace = lorentzian_trace(f0, w, per_linewidth=2)
        with pytest.raises(WindowTooNarrowError, match="fewer than"):
            extract_fwhm(trace, (f0 - 0.8 * w, f0 + 0.8 * w))

    def test_window_clipping_the_feature(self):
        f0, w = 4.7e9, 1.0e6
        trace = lorentzian_trace(f0, w)
        with pytest.raises(WindowTooNarrowError):
            extract_fwhm(trace, (f0 - 0.6 * w, f0 + 0.6 * w))


class TestFitConfig:
    def test_unknown_parameter(self):
        with pytest.raises(InvalidInputError, match="unknown parameter"):
            FitConfig(free_params=("q_factor",), initial_guess=reference_params())

    def test_empty(self):
        with pytest.raises(InvalidInputError, match="not be empty"):
            FitConfig(free_params=(), initial_guess=reference_params())

    def test_repeated(self):
        with pytest.raises(InvalidInputError, match="repeat"):
            FitConfig(free_params=("g", "g"), initial_guess=reference_params())

    def test_canonical_order(self):
        cfg = FitConfig(free_params=("g", "omega_cav"), initial_guess=reference_params())
        assert cfg.free_params == ("omega_cav", "g")

    def test_bounds_checked_against_guess(self):
        p = reference_params()
        with pytest.raises(InvalidInputError, match="outside bounds"):
            FitConfig(
                free_params=("g",),
                initial_guess=p,
                bounds={"g": (0.0, 0.5 * p.g)},
            )

    def test_bounds_must_be_ordered(self):
        with pytest.raises(InvalidInputError, match="lo < hi"):
            FitConfig(
                free_params=("g",),
                initial_guess=reference_params(),
                bounds={"g": (2.0, 1.0)},
            )

    def test_iteration_and_tolerance_validation(self):
        with pytest.raises(InvalidInputError, match="max_iterations"):
            FitConfig(free_params=("g",), initial_guess=reference_params(), max_iterations=0)
        with pytest.raises(InvalidInputError, match="tolerance"):
            FitConfig(free_params=("g",), initial_guess=reference_params(), tolerance=0.0)


FREE = ("omega_cav", "omega_lc", "kappa_cav_1", "kappa_lc_bare", "g")


def perturbed_guess(truth, free):
    """Offset the guess by 10%: rates relatively, frequencies by a tenth of
    the relevant linewidth (10% of a GHz carrier is outside any local basin)."""
    lc_width = effective_rates(truth).kappa_lc_tot
    changes = {}
    for name in free:
        if name == "omega_cav":
            changes[name] = truth.omega_cav + 0.1 * truth.kappa_cav_tot
        elif name == "omega_lc":
            changes[name] = truth.omega_lc + 0.1 * lc_width
        else:
            changes[name] = getattr(truth, name) * 1.1
    return truth.replace(**changes)


class TestFitTrace:
    def test_round_trip_complex(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        cfg = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
        result = fit_trace(trace, cfg)
        assert result.converged
        for name in FREE:
            got, want = getattr(result.params, name), getattr(truth, name)
            assert got == pytest.approx(want, rel=1e-6), name

    def test_round_trip_power(self):
        truth = reference_params()
        trace = normalized_power_trace(s21(truth, merged_grid(truth)))
        cfg = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
        result = fit_trace(trace, cfg)
        assert result.converged
        for name in FREE:
            got, want = getattr(result.params, name), getattr(truth, name)
            assert got == pytest.approx(want, rel=1e-6), name

    def test_round_trip_random_draws(self, rng):
        for _ in range(10):
            truth = random_params(rng)
            trace = s21(truth, merged_grid(truth))
            cfg = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
            result = fit_trace(trace, cfg)
            assert result.converged
            for name in FREE:
                got, want = getattr(result.params, name), getattr(truth, name)
                assert got == pytest.approx(want, rel=1e-6), name

    def test_monotone_cost_trajectory(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        cfg = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
        result = fit_trace(trace, cfg)
        costs = np.array(result.cost_trajectory)
        assert len(costs) >= 2
        assert np.all(np.diff(costs) <= 0.0)

    def test_iteration_cap_flags_nonconvergence(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        cfg = FitConfig(
            free_params=FREE,
            initial_guess=perturbed_guess(truth, FREE),
            max_iterations=1,
            tolerance=1e-15,
        )
        result = fit_trace(trace, cfg)
        assert not result.converged
        assert result.iterations == 1
        assert result.termination == "max_iterations"

    def test_degenerate_pair_on_power_trace(self):
        # normalized |S21|^2 sees kappa_cav_2 and kappa_cav_loss only
        # through their sum
        truth = reference_params()
        trace = normalized_power_trace(s21(truth, merged_grid(truth)))
        cfg = FitConfig(
            free_params=("kappa_cav_2", "kappa_cav_loss"), initial_guess=truth
        )
        with pytest.raises(DegenerateParameterError) as err:
            fit_trace(trace, cfg)
        assert set(err.value.names) == {"kappa_cav_2", "kappa_cav_loss"}

    def test_too_few_points(self):
        truth = reference_params()
        f0 = truth.omega_cav / TWO_PI
        trace = s21(truth, np.linspace(f0 - 1e8, f0 + 1e8, 20))
        cfg = FitConfig(free_params=FREE, initial_guess=truth)
        with pytest.raises(InvalidInputError, match="points"):
            fit_trace(trace, cfg)

    def test_weights_validated(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        cfg = FitConfig(
            free_params=("g",), initial_guess=truth, weights=np.ones(3)
        )
        with pytest.raises(InvalidInputError, match="weights"):
            fit_trace(trace, cfg)

    def test_uncertainties_in_hz_and_nonnegative(self):
        truth = reference_params()
        trace = add_noise(s21(truth, merged_grid(truth)), 0.01, seed=7)
        cfg = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
        result = fit_trace(trace, cfg)
        assert set(result.uncertainties) == set(FREE)
        for name, sigma in result.uncertainties.items():
            assert sigma >= 0.0
            # 1-sigma on a SNR ~ 100 trace: well below the value, above zero
            assert sigma < abs(getattr(truth, name)) / TWO_PI

    def test_uncertainty_scales_as_root_n(self):
        # quadrupling the point count at fixed noise halves the error bars
        truth = reference_params(g=0.0)
        f0 = truth.omega_cav / TWO_PI
        span = 3.0 * truth.kappa_cav_tot / TWO_PI
        free = ("omega_cav", "kappa_cav_1")
        ratios = []
        for seed in (11, 12, 13):
            sigmas = {}
            for n in (400, 1600):
                trace = add_noise(s21(truth, np.linspace(f0 - span, f0 + span, n)), 0.01, seed)
                result = fit_trace(trace, FitConfig(free_params=free, initial_guess=truth))
                assert result.converged
                sigmas[n] = result.uncertainties
            ratios.append([sigmas[400][k] / sigmas[1600][k] for k in free])
        mean_ratio = np.mean(ratios, axis=0)
        assert np.all(mean_ratio > 1.6) and np.all(mean_ratio < 2.4)


class TestFitDiagnostics:
    def test_cost_floor_at_the_truth(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        result = fit_trace(trace, FitConfig(free_params=FREE, initial_guess=truth))
        assert result.termination == "cost_floor"
        assert result.model_evaluations == 1
        assert result.cost_trajectory == (0.0,)

    def test_relative_drop_on_noisy_trace(self):
        truth = reference_params()
        trace = add_noise(s21(truth, merged_grid(truth)), 0.01, seed=7)
        cfg = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
        result = fit_trace(trace, cfg)
        assert result.converged
        assert result.termination == "relative_drop"

    def test_relative_step_from_a_zero_bound(self):
        # kappa_cav_1 = 0 zeroes S21; the lone free rate still leaves its
        # bound and lands on the truth
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        cfg = FitConfig(
            free_params=("kappa_cav_1",), initial_guess=truth.replace(kappa_cav_1=0.0)
        )
        result = fit_trace(trace, cfg)
        assert result.converged
        assert result.termination == "relative_step"
        assert result.params.kappa_cav_1 == pytest.approx(truth.kappa_cav_1, rel=1e-9)

    def test_damping_saturated_on_a_bound(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        cap = 0.9 * truth.g
        cfg = FitConfig(
            free_params=("g",),
            initial_guess=truth.replace(g=cap),
            bounds={"g": (0.5 * truth.g, cap)},
        )
        result = fit_trace(trace, cfg)
        assert result.converged
        assert result.termination == "damping_saturated"
        assert result.params.g == cap

    def test_evaluations_count_kernel_calls(self, monkeypatch):
        from cavlink import lineshape

        calls = []
        kernel = lineshape._scattering

        def counting(*args, **kwargs):
            calls.append(bool(args[3]) if len(args) > 3 else False)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(lineshape, "_scattering", counting)
        truth = reference_params()
        trace = add_noise(s21(truth, merged_grid(truth)), 0.01, seed=7)
        cfg = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
        result = fit_trace(trace, cfg)
        assert result.model_evaluations == len(calls)
        # one call with the Jacobian at the start and at every accepted point
        assert sum(calls) == len(result.cost_trajectory)

    def test_joint_summary_sums_evaluations(self):
        truth = reference_params()
        traces = [
            add_noise(s21(truth, merged_grid(truth)), 0.01, seed=s) for s in (1, 2)
        ]
        cfg = FitConfig(free_params=("omega_lc", "g"), initial_guess=truth)
        joint = multi_trace_fit(traces, ("g",), cfg, auto_guess=False)
        assert joint.combined.model_evaluations == sum(
            r.model_evaluations for r in joint.per_trace
        )
        assert joint.combined.termination == ""


class TestZeroAmplitudeStart:
    """A start with kappa_cav_1 * kappa_cav_2 = 0 makes the S21 model vanish:
    every parameter but the zero rate has no effect there."""

    @pytest.mark.parametrize("power", [False, True])
    def test_first_parameter_without_effect_is_named(self, power):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        if power:
            trace = normalized_power_trace(trace)
        cfg = FitConfig(free_params=FREE, initial_guess=truth.replace(kappa_cav_1=0.0))
        with pytest.raises(DegenerateParameterError) as err:
            fit_trace(trace, cfg)
        assert err.value.names == ("omega_cav",)

    @pytest.mark.parametrize(
        "free, zeroed, named",
        [
            (("kappa_cav_1", "g"), ("kappa_cav_1",), ("g",)),
            (("kappa_cav_2", "kappa_lc_bare"), ("kappa_cav_2",), ("kappa_lc_bare",)),
            (("kappa_cav_1", "kappa_cav_2"), ("kappa_cav_1", "kappa_cav_2"), ("kappa_cav_1",)),
        ],
    )
    def test_zero_rate_keeps_its_effect(self, free, zeroed, named):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        cfg = FitConfig(
            free_params=free, initial_guess=truth.replace(**{n: 0.0 for n in zeroed})
        )
        with pytest.raises(DegenerateParameterError) as err:
            fit_trace(trace, cfg)
        assert err.value.names == named


class TestAutoInitialGuess:
    def test_two_feature_trace(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        template = truth.replace(omega_cav=7.3e9 * TWO_PI, omega_lc=7.05e9 * TWO_PI)
        guess = auto_initial_guess(trace, template)
        assert guess.omega_cav == pytest.approx(truth.omega_cav, abs=truth.kappa_cav_tot)
        lc_width = effective_rates(truth).kappa_lc_tot
        assert guess.omega_lc == pytest.approx(
            dressed_modes_omega_lc(truth), abs=3 * lc_width
        )
        assert guess.g == template.g  # rates untouched

    def test_flat_trace_rejected(self):
        with pytest.raises(InvalidInputError, match="no feature"):
            auto_initial_guess(flat_trace(), reference_params())

    def test_single_feature_rejected(self):
        truth = reference_params(g=0.0)
        f0 = truth.omega_cav / TWO_PI
        kt = truth.kappa_cav_tot / TWO_PI
        trace = s21(truth, np.linspace(f0 - 10 * kt, f0 + 10 * kt, 2001))
        with pytest.raises(InvalidInputError, match="fewer than two"):
            auto_initial_guess(trace, truth)


def dressed_modes_omega_lc(params):
    from cavlink import dressed_modes

    return dressed_modes(params).omega_lc


class TestMultiTraceFit:
    def hat_traces(self, detunings_hz, g_hz=57e6, noise=0.0):
        traces, truths = [], []
        for i, d in enumerate(detunings_hz):
            truth = reference_params(delta_bare_hz=d, g=g_hz)
            trace = s21(truth, merged_grid(truth))
            if noise > 0.0:
                trace = add_noise(trace, noise, seed=100 + i)
            traces.append(trace)
            truths.append(truth)
        return traces, truths

    def test_identical_traces_zero_scatter(self):
        traces, truths = self.hat_traces([520e6, 520e6])
        cfg = FitConfig(
            free_params=("omega_cav", "omega_lc", "kappa_lc_bare", "g"),
            initial_guess=truths[0],
        )
        joint = multi_trace_fit(traces, ("g",), cfg)
        assert joint.shared_std_errors["g"] == 0.0
        assert joint.consistent["g"]
        assert joint.combined.converged

    def test_shared_g_recovered_across_detunings(self):
        traces, truths = self.hat_traces([250e6, 520e6, 900e6, 1250e6], noise=0.005)
        cfg = FitConfig(
            free_params=("omega_cav", "omega_lc", "kappa_lc_bare", "g"),
            initial_guess=truths[0].replace(g=55e6 * TWO_PI),
        )
        joint = multi_trace_fit(traces, ("g",), cfg)
        assert joint.combined.converged
        assert joint.shared_means["g"] == pytest.approx(57e6 * TWO_PI, rel=0.02)
        assert len(joint.per_trace) == 4
        assert joint.consistent["g"]

    def test_mismatched_g_flagged(self):
        traces_a, truths = self.hat_traces([520e6])
        traces_b, _ = self.hat_traces([900e6], g_hz=57e6 * 1.2)
        cfg = FitConfig(
            free_params=("omega_cav", "omega_lc", "kappa_lc_bare", "g"),
            initial_guess=truths[0],
        )
        joint = multi_trace_fit(traces_a + traces_b, ("g",), cfg)
        assert not joint.consistent["g"]

    def test_needs_two_traces(self):
        traces, truths = self.hat_traces([520e6])
        cfg = FitConfig(free_params=("g",), initial_guess=truths[0])
        with pytest.raises(InvalidInputError, match="at least two"):
            multi_trace_fit(traces, ("g",), cfg)

    def test_shared_must_be_free(self):
        traces, truths = self.hat_traces([520e6, 900e6])
        cfg = FitConfig(free_params=("g",), initial_guess=truths[0])
        with pytest.raises(InvalidInputError, match="not free"):
            multi_trace_fit(traces, ("kappa_cav_1",), cfg)


class TestAddNoise:
    def test_deterministic_per_seed(self):
        trace = s21(reference_params(), merged_grid(reference_params()))
        a = add_noise(trace, 0.01, seed=42)
        b = add_noise(trace, 0.01, seed=42)
        c = add_noise(trace, 0.01, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_power_traces_rejected(self):
        trace = normalized_power_trace(s21(reference_params(), merged_grid(reference_params())))
        with pytest.raises(InvalidInputError, match="complex traces"):
            add_noise(trace, 0.01, seed=1)

    def test_negative_amplitude_rejected(self):
        trace = s21(reference_params(), merged_grid(reference_params()))
        with pytest.raises(InvalidInputError, match="non-negative"):
            add_noise(trace, -0.01, seed=1)

    def test_noise_statistics(self):
        f = np.linspace(1e9, 2e9, 4000)
        trace = ComplexTrace(f, np.zeros(4000, dtype=complex), TraceKind.S21)
        noisy = add_noise(trace, 0.02, seed=5)
        assert np.std(noisy.values.real) == pytest.approx(0.02, rel=0.1)
        assert np.std(noisy.values.imag) == pytest.approx(0.02, rel=0.1)
        assert abs(np.mean(noisy.values)) < 0.005


# -- closed-form Jacobian against finite differences -------------------------

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cavlink import HAT_PRESETS  # noqa: E402
from cavlink.coupled_modes import _theta  # noqa: E402
from cavlink.lineshape import _residuals  # noqa: E402

_HAT_OM = {name: TWO_PI * merged_grid(p) for name, p in HAT_PRESETS.items()}
# Rates that may start at their lower bound of 0 without zeroing S21.
_ZERO_OK = (4, 5)  # kappa_cav_loss, kappa_lc_bare


@st.composite
def jacobian_cases(draw):
    """A hat preset moved by up to half a linewidth in each frequency and
    by -30%/+40% in each rate, a trace kind and a set of free parameters;
    optionally one rate sits on its bound of 0."""
    name = draw(st.sampled_from(sorted(HAT_PRESETS)))
    p = HAT_PRESETS[name]
    theta = list(_theta(p))
    theta[0] += draw(st.floats(-0.5, 0.5)) * p.kappa_cav_tot
    theta[1] += draw(st.floats(-0.5, 0.5)) * effective_rates(p).kappa_lc_tot
    for i in range(2, 7):
        theta[i] *= draw(st.floats(0.7, 1.4))
    free = set(draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True)))
    zero = draw(st.sampled_from((None,) + _ZERO_OK))
    if zero is not None:
        theta[zero] = 0.0
        free.add(zero)
    kind = draw(st.sampled_from(list(TraceKind)))
    return name, kind, theta, tuple(sorted(free)), zero


def _trial_residuals(name, kind, theta):
    om = _HAT_OM[name]
    data = np.zeros(om.size, dtype=float if kind is TraceKind.POWER else complex)
    return _residuals(om, theta, kind, data, np.ones(om.size))


class TestAnalyticJacobian:
    @settings(max_examples=300, deadline=None)
    @given(jacobian_cases())
    def test_matches_finite_differences(self, case):
        name, kind, theta, free, zero = case
        om = _HAT_OM[name]
        data = np.zeros(om.size, dtype=float if kind is TraceKind.POWER else complex)
        r, jac = _residuals(om, theta, kind, data, np.ones(om.size), free)
        if kind is TraceKind.POWER:
            # the normalization is differentiated at the argmax sample; a
            # difference step that moves the argmax would cross a kink
            top = np.sort(r)[-2:]
            assume(top[1] - top[0] > 1e-6)
        preset = _theta(HAT_PRESETS[name])
        for col, index in enumerate(free):
            if index == zero:
                # one-sided: the rate may not go negative
                h = 1e-7 * preset[index]
                up = list(theta)
                up[index] += h
                fd = (_trial_residuals(name, kind, up) - r) / h
            else:
                h = (1e-8 if index < 2 else 1e-5) * theta[index]
                up, down = list(theta), list(theta)
                up[index] += h
                down[index] -= h
                fd = (
                    _trial_residuals(name, kind, up) - _trial_residuals(name, kind, down)
                ) / (2.0 * h)
            scale = np.max(np.abs(jac[:, col]))
            assert np.max(np.abs(fd - jac[:, col])) <= 1e-5 * scale, (index, scale)

    def test_fit_on_every_hat_and_kind(self):
        # the Jacobian drives fits of all three trace kinds to the truth
        for p in HAT_PRESETS.values():
            clean = s21(p, merged_grid(p))
            for trace in (clean, normalized_power_trace(clean), s11(p, clean.freqs)):
                free = FREE if trace.kind is not TraceKind.POWER else (
                    "omega_cav", "omega_lc", "kappa_lc_bare", "g"
                )
                cfg = FitConfig(free_params=free, initial_guess=perturbed_guess(p, free))
                result = fit_trace(trace, cfg)
                assert result.converged
                for n in free:
                    assert getattr(result.params, n) == pytest.approx(
                        getattr(p, n), rel=1e-6
                    ), (trace.kind, n)


# -- auto_initial_guess against the scalar loop it replaced ------------------


def _auto_initial_guess_loop(trace, template):
    """Reference: the element-by-element scan over numpy scalars."""
    f = trace.freqs
    p = trace.power()
    med = float(np.median(p))
    threshold = 3.0 * med
    idx = [
        i
        for i in range(1, len(p) - 1)
        if p[i] >= p[i - 1] and p[i] > p[i + 1] and p[i] > threshold
    ]
    if not idx:
        raise InvalidInputError("no feature rises above 3x the median power")

    def halfwidth_span(i):
        level = med + 0.5 * (p[i] - med)
        l = i
        while l > 0 and p[l] > level:
            l -= 1
        r = i
        while r < len(p) - 1 and p[r] > level:
            r += 1
        return l, r

    peaks = []
    for i in sorted(idx, key=lambda i: -p[i]):
        l, r = halfwidth_span(i)
        lo_f, hi_f = f[l], f[r]
        if any(plo <= f[i] <= phi for _, _, (plo, phi) in peaks):
            continue
        weight = np.clip(p[l : r + 1] - med, 0.0, None)
        center = float(np.sum(f[l : r + 1] * weight) / np.sum(weight))
        peaks.append((center, float(hi_f - lo_f), (lo_f, hi_f)))
    if len(peaks) < 2:
        raise InvalidInputError(
            "fewer than two resolvable features above 3x the median power"
        )
    by_width = sorted(peaks, key=lambda t: t[1])
    return template.replace(
        omega_cav=TWO_PI * by_width[-1][0], omega_lc=TWO_PI * by_width[0][0]
    )


def _guess_or_error(guess, trace, template):
    try:
        g = guess(trace, template)
    except InvalidInputError as exc:
        return str(exc)
    return g.omega_cav, g.omega_lc


class TestAutoInitialGuessMatchesLoop:
    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    def test_bit_identical_on_noisy_hats(self, hat):
        # S11 traces show dips only: they cover the refusal path. Power
        # rounded to 3 digits has flat tops and tied maxima.
        truth = HAT_PRESETS[hat]
        clean = s21(truth, merged_grid(truth))
        clean11 = s11(truth, clean.freqs)
        amplitude = float(np.max(np.abs(clean.values))) / 100.0
        template = truth.replace(g=1.05 * truth.g)
        for seed in range(20):
            noisy = add_noise(clean, amplitude, seed)
            reflected = add_noise(clean11, amplitude, seed)
            power = normalized_power_trace(noisy)
            rounded = ComplexTrace(power.freqs, np.round(power.values, 3), TraceKind.POWER)
            for trace in (noisy, power, rounded, reflected):
                want = _guess_or_error(_auto_initial_guess_loop, trace, template)
                got = _guess_or_error(auto_initial_guess, trace, template)
                assert got == want, (hat, seed, trace.kind)
