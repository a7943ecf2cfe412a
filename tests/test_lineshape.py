"""Width extraction and model fitting."""

import dataclasses
import warnings

import numpy as np
import pytest
from conftest import merged_grid, reference_params, random_params

from cavlink import (
    ComplexTrace,
    DegenerateParameterError,
    FitConfig,
    HAT_PRESETS,
    InvalidInputError,
    PeakAmbiguityError,
    SystemParams,
    TraceKind,
    ValidityWarning,
    WindowTooNarrowError,
    add_noise,
    auto_initial_guess,
    dressed_modes,
    effective_rates,
    extract_fwhm,
    fit_trace,
    multi_trace_fit,
    normalized_power_trace,
    s11,
    s21,
)
from cavlink.coupled_modes import PARAM_FIELDS
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

    def test_crossing_in_the_outermost_interval(self):
        # samples every half linewidth at -0.5w ... 1.5w: the peak sits on
        # the second sample, so its left crossing lies in the first interval
        f0, w = 4.7e9, 1.0e6
        trace = lorentzian_trace(f0, w, per_linewidth=2)
        with pytest.raises(WindowTooNarrowError, match="outermost grid interval"):
            extract_fwhm(trace, (f0 - 0.6 * w, f0 + 1.6 * w))


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

    def test_bound_on_unknown_parameter_refused(self):
        with pytest.raises(InvalidInputError, match="unknown parameter 'q_factor'"):
            FitConfig(free_params=("g",), initial_guess=reference_params(),
                      bounds={"q_factor": (0.0, 1.0)})

    def test_bound_on_fixed_parameter_refused(self):
        p = reference_params()
        with pytest.raises(InvalidInputError, match="fixed parameter 'omega_cav'"):
            FitConfig(free_params=("g",), initial_guess=p, bounds={"omega_cav": (0.0, 1e12)})

    @pytest.mark.parametrize("name, lo", [
        ("g", -1e9), ("kappa_lc_bare", -np.inf), ("omega_cav", 0.0), ("omega_lc", -1.0),
    ])
    def test_bound_below_domain_refused(self, name, lo):
        p = reference_params()
        rule = "positive" if name in ("omega_cav", "omega_lc") else "non-negative"
        with pytest.raises(InvalidInputError,
                           match=rf"^lower bound for '{name}' must be {rule} and finite"):
            FitConfig(free_params=(name,), initial_guess=p, bounds={name: (lo, 1e12)})

    def test_bounds_hold_the_whole_box(self):
        p = reference_params()
        cfg = FitConfig(free_params=("g", "omega_lc", "kappa_cav_1"), initial_guess=p,
                        bounds={"g": (0.0, 2.0 * p.g)})
        assert cfg.bounds == {
            "omega_lc": (5e-324, np.inf),
            "kappa_cav_1": (0.0, np.inf),
            "g": (0.0, 2.0 * p.g),
        }
        assert list(cfg.bounds) == list(cfg.free_params)
        # a copy re-validates the filled box and keeps it as it is
        assert dataclasses.replace(cfg, initial_guess=p).bounds == cfg.bounds

    def test_iteration_and_tolerance_validation(self):
        with pytest.raises(InvalidInputError, match="max_iterations"):
            FitConfig(free_params=("g",), initial_guess=reference_params(), max_iterations=0)
        with pytest.raises(InvalidInputError, match="max_iterations must be an integer"):
            FitConfig(free_params=("g",), initial_guess=reference_params(), max_iterations=2.5)
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

    def test_all_zero_power_trace_refused(self):
        # refused for what it is, before the scale to unit maximum divides by 0
        truth = reference_params()
        grid = merged_grid(truth)
        trace = ComplexTrace(grid, np.zeros(grid.size), TraceKind.POWER)
        cfg = FitConfig(free_params=("g",), initial_guess=truth)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="identically zero"):
                fit_trace(trace, cfg)

    def test_start_outside_the_model_domain_refused(self):
        # frequencies above 2.86e307 Hz overflow in rad/s, so the residual
        # at the start is not finite
        trace = ComplexTrace(np.linspace(2.9e307, 3.0e307, 11), np.ones(11))
        config = FitConfig(free_params=("g",), initial_guess=reference_params())
        with pytest.raises(InvalidInputError, match="initial guess is outside the model's domain"):
            with np.errstate(over="ignore", invalid="ignore"):
                fit_trace(trace, config)

    def test_ultrastrong_result_warns(self):
        # the fitted parameters warn like any other SystemParams
        with pytest.warns(ValidityWarning, match="ultrastrong"):
            truth = reference_params(g=750e6)
        trace = s21(truth, np.linspace(6.0e9, 8.5e9, 401))
        with pytest.warns(ValidityWarning, match="ultrastrong"):
            result = fit_trace(trace, FitConfig(free_params=("g",), initial_guess=truth))
        assert result.params == truth

    def test_too_few_points(self):
        truth = reference_params()
        f0 = truth.omega_cav / TWO_PI
        trace = s21(truth, np.linspace(f0 - 1e8, f0 + 1e8, 20))
        cfg = FitConfig(free_params=FREE, initial_guess=truth)
        with pytest.raises(InvalidInputError, match="points"):
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


class TestNoisyPowerFits:
    """Normalized-power fits of noisy hat traces (SNR 100), fitting both
    frequencies, kappa_lc_bare and g from a template with g 5% high."""

    FREE4 = ("omega_cav", "omega_lc", "kappa_lc_bare", "g")

    @staticmethod
    def draws(hat, seeds):
        truth = HAT_PRESETS[hat]
        clean = s21(truth, merged_grid(truth))
        amplitude = float(np.max(np.abs(clean.values))) / 100.0
        for seed in seeds:
            yield normalized_power_trace(add_noise(clean, amplitude, seed))

    @staticmethod
    def z(result, truth, name):
        sigma = TWO_PI * result.uncertainties[name]
        return (getattr(result.params, name) - getattr(truth, name)) / sigma

    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    def test_recovered_from_the_auto_guess(self, hat):
        # the guess once kept the dressed peaks, and hat300 and hat316 fits
        # collapsed to g = 0 with sigma = 0
        truth = HAT_PRESETS[hat]
        template = truth.replace(g=1.05 * truth.g)
        for seed, trace in enumerate(self.draws(hat, range(5))):
            guess = auto_initial_guess(trace, template)
            result = fit_trace(trace, FitConfig(free_params=self.FREE4, initial_guess=guess))
            assert result.converged, seed
            assert all(s > 0.0 for s in result.uncertainties.values()), seed
            for name in ("g", "kappa_lc_bare"):
                assert abs(self.z(result, truth, name)) <= 6.0, (seed, name)

    @pytest.mark.parametrize("hat", ["hat238", "hat270"])
    def test_kappa_lc_bare_unbiased(self, hat):
        # a scale fixed at the noisy maxima biased kappa_lc_bare by +5.3
        # and +3.2 sigma on average
        truth = HAT_PRESETS[hat]
        cfg = FitConfig(free_params=self.FREE4, initial_guess=truth.replace(g=1.05 * truth.g))
        zs = [
            self.z(fit_trace(trace, cfg), truth, "kappa_lc_bare")
            for trace in self.draws(hat, range(20))
        ]
        assert abs(np.mean(zs)) <= 1.5


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
        # the only free parameter is held: no trial is evaluated
        assert result.model_evaluations == 1

    def test_evaluations_count_kernel_calls(self, monkeypatch):
        from cavlink import lineshape

        calls = []
        kernel = lineshape._scattering

        def counting(*args, **kwargs):
            calls.append(bool(args[3]) if len(args) > 3 else False)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(lineshape, "_scattering", counting)
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        # Half an LC linewidth and 30% of g away, some trials are rejected.
        guess = truth.replace(
            omega_lc=truth.omega_lc + 0.5 * effective_rates(truth).kappa_lc_tot,
            g=0.7 * truth.g,
        )
        result = fit_trace(trace, FitConfig(free_params=FREE, initial_guess=guess))
        assert result.model_evaluations == len(calls) > len(result.cost_trajectory)
        # one call at the start and one per trial, each with the Jacobian
        assert all(calls)

    def test_joint_summary_sums_evaluations(self):
        truth = reference_params()
        traces = [
            add_noise(s21(truth, merged_grid(truth)), 0.01, seed=s) for s in (1, 2)
        ]
        cfg = FitConfig(free_params=("omega_lc", "g"), initial_guess=truth)
        joint = multi_trace_fit(traces, ("g",), cfg)
        assert joint.combined.model_evaluations == sum(
            r.model_evaluations for r in joint.per_trace
        )
        assert joint.combined.termination == ""


class TestLosslessLC:
    """A lossless LC (kappa_lc_bare = 0, as a high-Q superconducting LC nearly
    is), fitted from 0.48 MHz of LC loss with g 5% high and omega_lc 0.2 MHz
    off, at SNR 100 on every hat. About half the fits end with kappa_lc_bare
    on its bound; a step that pushes it further out holds it there instead
    of crawling along the bound to max_iterations."""

    @pytest.mark.parametrize("kind", ["s21", "s11", "power"])
    def test_fits_on_the_bound_stop(self, kind):
        free = FREE[:2] + FREE[3:] if kind == "power" else FREE
        for hat, preset in HAT_PRESETS.items():
            truth = preset.replace(kappa_lc_bare=0.0)
            clean = (s11 if kind == "s11" else s21)(truth, merged_grid(truth))
            amplitude = float(np.max(np.abs(clean.values))) / 100.0
            start = truth.replace(g=1.05 * truth.g, kappa_lc_bare=TWO_PI * 0.48e6,
                                  omega_lc=truth.omega_lc + TWO_PI * 0.2e6)
            for seed in range(25):
                trace = add_noise(clean, amplitude, seed)
                if kind == "power":
                    trace = normalized_power_trace(trace)
                result = fit_trace(trace, FitConfig(free_params=free, initial_guess=start))
                assert result.termination != "max_iterations", (hat, seed)
                assert result.model_evaluations <= 30, (hat, seed)


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


class TestSevenFreeParameters:
    """hat270 on the README grid with all seven parameters free. S21 sees the
    cavity rates only through kappa_cav_1 kappa_cav_2 and kappa_cav_tot, S11
    only through kappa_cav_1 and kappa_cav_tot, so a combination of them has
    no effect on either trace and the fit is refused, naming it."""

    HAT = HAT_PRESETS["hat270"]
    GRID = np.linspace(6.8e9, 7.6e9, 801)
    CONFIG = FitConfig(free_params=PARAM_FIELDS, initial_guess=HAT)
    S21_NULL = ("kappa_cav_1", "kappa_cav_2", "kappa_cav_loss")

    @pytest.mark.parametrize(
        "model, named",
        [(s21, S21_NULL), (s11, ("kappa_cav_2", "kappa_cav_loss"))],
        ids=["s21", "s11"],
    )
    def test_single_trace_refused(self, model, named):
        trace = add_noise(model(self.HAT, self.GRID), 0.003, seed=1)
        with pytest.raises(DegenerateParameterError) as err:
            fit_trace(trace, self.CONFIG)
        assert err.value.names == named

    def test_joint_fit_refused(self):
        traces = [add_noise(s21(self.HAT, self.GRID), 0.003, seed=s) for s in (1, 2)]
        with pytest.raises(DegenerateParameterError) as err:
            multi_trace_fit(traces, PARAM_FIELDS, self.CONFIG)
        assert err.value.names == self.S21_NULL


class TestAutoInitialGuess:
    def test_two_feature_trace(self):
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        template = truth.replace(omega_cav=7.3e9 * TWO_PI, omega_lc=7.05e9 * TWO_PI)
        guess = auto_initial_guess(trace, template)
        assert guess.omega_cav == pytest.approx(truth.omega_cav, abs=truth.kappa_cav_tot)
        lc_width = effective_rates(truth).kappa_lc_tot
        assert guess.omega_lc == pytest.approx(truth.omega_lc, abs=0.5 * lc_width)
        assert guess.g == template.g  # rates untouched

    @pytest.mark.parametrize("hat", ["hat238", "hat300"])
    def test_bare_frequencies_undressed(self, hat):
        # the coupling pulls each peak by about g^2/Delta, several LC
        # linewidths; the guess undoes the pull with the template's g
        truth = HAT_PRESETS[hat]
        guess = auto_initial_guess(s21(truth, merged_grid(truth)), truth)
        lc_width = effective_rates(truth).kappa_lc_tot
        assert guess.omega_cav == pytest.approx(truth.omega_cav, abs=0.5 * lc_width)
        assert guess.omega_lc == pytest.approx(truth.omega_lc, abs=0.5 * lc_width)

    def test_splitting_below_the_minimum_keeps_dressed_peaks(self):
        # a template whose g no bare detuning reaches: the peaks stay dressed
        truth = reference_params()
        trace = s21(truth, merged_grid(truth))
        dressed = dressed_modes(truth)
        guess = auto_initial_guess(trace, truth.replace(g=5.0 * truth.g))
        lc_width = effective_rates(truth).kappa_lc_tot
        assert guess.omega_lc == pytest.approx(dressed.omega_lc, abs=0.5 * lc_width)

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
        assert joint.combined.uncertainties["g"] == 0.0
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

    def test_guess_outside_the_bounds_keeps_the_configured_start(self):
        # hat270 on the README grid: the peak search lands omega_lc 2-3e-5
        # below the truth, outside a box of 1e-5 around the configured start
        hat = HAT_PRESETS["hat270"]
        grid = np.linspace(6.8e9, 7.6e9, 801)
        traces = [add_noise(s21(hat, grid), 0.003, seed=s) for s in (1, 2)]
        w = hat.omega_lc
        cfg = FitConfig(free_params=FREE, initial_guess=hat,
                        bounds={"omega_lc": (w * (1 - 1e-5), w * (1 + 1e-5))})
        assert not all(cfg.bounds["omega_lc"][0] <= auto_initial_guess(t, hat).omega_lc
                       for t in traces)
        joint = multi_trace_fit(traces, ("g",), cfg)
        assert joint.combined.converged
        for result in joint.per_trace:
            for name in FREE:
                sigma = TWO_PI * result.uncertainties[name]
                assert abs(getattr(result.params, name) - getattr(hat, name)) < 3 * sigma, name

    def test_joint_fit_of_reflection_traces(self):
        # an S11 dip has no power peak; the start comes from |1 - S11|^2,
        # which peaks where |S21|^2 does
        hats = [HAT_PRESETS[h] for h in ("hat238", "hat270")]
        grid = np.linspace(6.8e9, 7.6e9, 801)
        traces = [add_noise(s11(hat, grid), 0.003, seed=s) for s, hat in zip((1, 2), hats)]
        free = ("omega_cav", "omega_lc", "kappa_lc_bare", "g")
        cfg = FitConfig(free_params=free, initial_guess=hats[0].replace(g=1.05 * hats[0].g))
        joint = multi_trace_fit(traces, ("g",), cfg)
        assert joint.combined.converged
        assert joint.consistent["g"]
        for result, hat in zip(joint.per_trace, hats):
            for name in free:
                sigma = TWO_PI * result.uncertainties[name]
                assert abs(getattr(result.params, name) - getattr(hat, name)) < 3 * sigma, name

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

    def test_negative_seed_rejected(self):
        trace = s21(reference_params(), merged_grid(reference_params()))
        with pytest.raises(InvalidInputError, match="seed must be non-negative"):
            add_noise(trace, 0.01, seed=-1)

    def test_noise_statistics(self):
        f = np.linspace(1e9, 2e9, 4000)
        trace = ComplexTrace(f, np.zeros(4000, dtype=complex), TraceKind.S21)
        noisy = add_noise(trace, 0.02, seed=5)
        assert np.std(noisy.values.real) == pytest.approx(0.02, rel=0.1)
        assert np.std(noisy.values.imag) == pytest.approx(0.02, rel=0.1)
        assert abs(np.mean(noisy.values)) < 0.005


# -- closed-form Jacobian against finite differences -------------------------

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cavlink.coupled_modes import _theta  # noqa: E402
from cavlink.lineshape import _residuals, _undressed  # noqa: E402

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


def _power_data(p, om):
    """The preset's normalized |S21|^2, modulated so that no scale of any
    model fits it exactly."""
    power = np.abs(s21(p, om / TWO_PI).values) ** 2
    return power / power.max() * (1.0 + 0.1 * np.sin(np.arange(om.size)))


_HAT_POWER = {name: _power_data(HAT_PRESETS[name], om) for name, om in _HAT_OM.items()}


class TestAnalyticJacobian:
    @settings(max_examples=300, deadline=None)
    @given(jacobian_cases())
    @example(  # a power trace whose argmax a step of 1e-8 omega_lc moves
        (
            "hat316",
            TraceKind.POWER,
            [
                52297945642.15365,
                43984582130.776184,
                942477796.0769379,
                31415926.535897933,
                62831853.071795866,
                0.0,
                440276642.0349206,
            ],
            (0, 1, 5),
            5,
        )
    )
    def test_matches_finite_differences(self, case):
        name, kind, theta, free, zero = case
        om = _HAT_OM[name]
        data = _HAT_POWER[name] if kind is TraceKind.POWER else np.zeros(om.size, complex)
        _, jac = _residuals(om, theta, kind, data, free)
        preset = _theta(HAT_PRESETS[name])
        for col, index in enumerate(free):
            # one-sided at a rate on its bound of 0: it may not go negative
            one_sided = index == zero
            if one_sided:
                h = 1e-7 * preset[index]
            else:
                h = (1e-8 if index < 2 else 1e-5) * theta[index]
            up, down = list(theta), list(theta)
            up[index] += h
            if not one_sided:
                down[index] -= h
            trials = [_residuals(om, t, kind, data, free)[0] for t in (up, down)]
            fd = (trials[0] - trials[1]) / (h if one_sided else 2.0 * h)
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


    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    @pytest.mark.parametrize("kind", [TraceKind.S21, TraceKind.S11])
    def test_complex_rows_reorder_the_stacked_parts(self, hat, kind):
        # rows interleave (Re, Im) per sample: the same numbers as all real
        # parts followed by all imaginary parts, so the fit's sums agree
        p = HAT_PRESETS[hat]
        om = _HAT_OM[hat]
        clean = (s21 if kind is TraceKind.S21 else s11)(p, om / TWO_PI)
        data = add_noise(clean, 0.01 * float(np.max(np.abs(clean.values))), 7).values
        theta, free = list(_theta(p.replace(g=1.05 * p.g))), tuple(range(7))
        r, jac = _residuals(om, theta, kind, data, free)
        model, complex_jac = lineshape._scattering(om, theta, kind, free)
        diff = model - data
        assert np.array_equal(r[0::2], diff.real) and np.array_equal(r[1::2], diff.imag)
        assert np.array_equal(jac[0::2], complex_jac.real)
        assert np.array_equal(jac[1::2], complex_jac.imag)
        r_old = np.concatenate([diff.real, diff.imag])
        jac_old = np.concatenate([complex_jac.real, complex_jac.imag])
        norms = np.linalg.norm(jac_old, axis=0)
        assert r @ r == pytest.approx(r_old @ r_old, rel=1e-13)
        bound = 1e-13 * np.outer(norms, norms)  # Cauchy-Schwarz scale of each entry
        assert np.all(np.abs(jac.T @ jac - jac_old.T @ jac_old) <= bound)
        bound = 1e-13 * norms * np.linalg.norm(r_old)
        assert np.all(np.abs(jac.T @ r - jac_old.T @ r_old) <= bound)


# -- auto_initial_guess against the scalar loop it replaced ------------------


def _auto_initial_guess_loop(trace, template):
    """Reference: the element-by-element scan over numpy scalars, ending in
    the same undressing of the two peaks."""
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
    return _undressed(template, TWO_PI * by_width[-1][0], TWO_PI * by_width[0][0])


def _auto_initial_guess_spans(trace, template):
    """Reference: the Python-float walk that tested each candidate's
    frequency against every claimed half-max span."""
    f = trace.freqs
    p = trace.power()
    med = float(np.median(p))
    threshold = 3.0 * med
    inner = p[1:-1]
    idx = np.flatnonzero((inner >= p[:-2]) & (inner > p[2:]) & (inner > threshold)) + 1
    if not idx.size:
        raise InvalidInputError("no feature rises above 3x the median power")
    fl, pl = f.tolist(), p.tolist()
    last = len(pl) - 1
    peaks = []
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
        weight = np.clip(p[l : r + 1] - med, 0.0, None)
        center = float(np.sum(f[l : r + 1] * weight) / np.sum(weight))
        peaks.append((center, fl[r] - fl[l], (fl[l], fl[r])))
    if len(peaks) < 2:
        raise InvalidInputError(
            "fewer than two resolvable features above 3x the median power"
        )
    by_width = sorted(peaks, key=lambda t: t[1])
    return _undressed(template, TWO_PI * by_width[-1][0], TWO_PI * by_width[0][0])


def _guess_or_error(guess, trace, template):
    try:
        g = guess(trace, template)
    except InvalidInputError as exc:
        return str(exc)
    return g.omega_cav, g.omega_lc


class TestAutoInitialGuessMatchesLoop:
    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    def test_bit_identical_on_noisy_hats(self, hat):
        # The reference reads power only, so it gets each S11 trace as the
        # S21-kind trace of 1 - S11, whose power the guess reads. Power
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
                read = trace
                if trace.kind is TraceKind.S11:
                    read = ComplexTrace(trace.freqs, 1.0 - trace.values, TraceKind.S21)
                want = _guess_or_error(_auto_initial_guess_loop, read, template)
                got = _guess_or_error(auto_initial_guess, trace, template)
                assert got == want, (hat, seed, trace.kind)


    @pytest.mark.parametrize("hat", sorted(HAT_PRESETS))
    def test_spans_claimed_by_index_match_by_frequency(self, hat):
        # noisier draws leave more candidate maxima for the suppression
        truth = HAT_PRESETS[hat]
        clean = s21(truth, merged_grid(truth))
        peak = float(np.max(np.abs(clean.values)))
        template = truth.replace(g=1.05 * truth.g)
        for snr in (100.0, 20.0, 5.0):
            for seed in range(20):
                noisy = add_noise(clean, peak / snr, seed)
                for trace in (noisy, normalized_power_trace(noisy)):
                    want = _guess_or_error(_auto_initial_guess_spans, trace, template)
                    got = _guess_or_error(auto_initial_guess, trace, template)
                    assert got == want, (hat, snr, seed, trace.kind)


# -- the fit engine's linear algebra against the LAPACK formulas it replaced --

from hypothesis import assume  # noqa: E402

from cavlink import lineshape  # noqa: E402


@st.composite
def synthetic_jacobians(draw, planted=False):
    """An m x k Jacobian (k = 1..7, m >= 5k) of Gaussian columns, scaled by
    10^(-3..3) overall and by 0.5..2 per column, a residual vector, and the
    columns of a planted null combination. With ``planted`` that is 2 to 4
    columns with coefficients of 0.5 to 1 in magnitude; otherwise there is
    none, and one column may lie close to another."""
    size = draw(st.integers(2, 4)) if planted else 0
    k = draw(st.integers(max(size, 1), 7))
    m = draw(st.integers(5 * k, 5 * k + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jac = rng.standard_normal((m, k))
    cols = tuple(sorted(draw(st.lists(st.integers(0, k - 1), min_size=size,
                                      max_size=size, unique=True))))
    if planted:
        coef = np.array([draw(st.floats(0.5, 1.0)) * draw(st.sampled_from((-1, 1)))
                         for _ in cols])
        jac[:, cols[0]] = -(jac[:, cols[1:]] @ coef[1:]) / coef[0]
    elif k > 1 and draw(st.booleans()):
        jac[:, 1] = jac[:, 0] + 10.0 ** draw(st.floats(-2.0, 0.0)) * jac[:, 1]
    jac *= 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.uniform(0.5, 2.0, k)
    return jac, rng.standard_normal(m), cols


def _smallest_scaled_eigenvalue(jac):
    unit = jac / np.linalg.norm(jac, axis=0)
    return np.linalg.svd(unit, compute_uv=False)[-1] ** 2


def _engine_on(jac, r, x=None, lo=None, hi=None):
    """Run the fit engine where every evaluation gives ``r`` and ``jac``, on
    parameters ``p0, p1, ...`` from ``x`` (default 1) in the box [``lo``,
    ``hi``] (default unbounded). No trial lowers the cost, so the fit ends at
    its start with ``damping_saturated``. Returns ``(sigma, run, points)``,
    ``points`` being every x it evaluated, in order."""
    k = jac.shape[1]
    points = []

    def evaluate(xv):
        points.append(xv.copy())
        return r, jac

    _, sigma, run = lineshape._least_squares(
        evaluate,
        np.ones(k) if x is None else x,
        np.full(k, -np.inf) if lo is None else lo,
        np.full(k, np.inf) if hi is None else hi,
        tuple(f"p{j}" for j in range(k)),
        200,
        1e-10,
    )
    return sigma, run, points


class TestFitterLinearAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(synthetic_jacobians(planted=True))
    def test_planted_null_combination_is_refused(self, case):
        jac, r, cols = case
        with pytest.raises(DegenerateParameterError) as err:
            _engine_on(jac, r)
        assert err.value.names == tuple(f"p{i}" for i in cols)

    @settings(max_examples=200, deadline=None)
    @given(synthetic_jacobians())
    def test_sigma_matches_the_pseudo_inverse(self, case):
        # a Jacobian that is not refused keeps the 1-sigma of
        # sqrt(s^2 diag(pinv(J^T J))), with s^2 = r.r / (m - k)
        jac, r, _ = case
        assume(_smallest_scaled_eigenvalue(jac) >= 1e-4)
        sigma, run, _ = _engine_on(jac, r)
        assert run["termination"] == "damping_saturated"
        m, k = jac.shape
        want = np.sqrt((r @ r) / (m - k) * np.diag(np.linalg.pinv(jac.T @ jac)))
        np.testing.assert_allclose(sigma, want, rtol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(synthetic_jacobians(), st.floats(-12.0, 13.0))
    def test_step_matches_the_damped_normal_equations(self, case, log_lam):
        jac, r, _ = case
        assume(_smallest_scaled_eigenvalue(jac) >= 1e-4)
        _, safe, w, v = lineshape._scaled(jac)
        unit = jac / np.linalg.norm(jac, axis=0)
        gram, gradient, lam = unit.T @ unit, unit.T @ r, 10.0**log_lam
        want = np.linalg.solve(gram + lam * np.eye(len(w)), -gradient)
        # the fit's gradient of the unit columns, taken without forming them
        got = lineshape._step(w, v, (jac.T @ r) / safe, lam)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @settings(max_examples=200, deadline=None)
    @given(synthetic_jacobians(), st.data())
    def test_a_parameter_held_on_its_bound(self, case, data):
        # parameter j starts on a bound with its descent -gradient[j] leaving
        # the box: every trial (lam = 1e-3, then x10 per rejected trial) keeps
        # it there, and the others solve their block of the damped system
        jac, r, _ = case
        assume(_smallest_scaled_eigenvalue(jac) >= 1e-4)
        k = jac.shape[1]
        j = data.draw(st.integers(0, k - 1))
        norms = np.linalg.norm(jac, axis=0)
        unit = jac / norms
        gram, gradient = unit.T @ unit, unit.T @ r
        lo, hi = np.full(k, -np.inf), np.full(k, np.inf)
        (hi if gradient[j] < 0.0 else lo)[j] = 0.0
        _, run, points = _engine_on(jac, r, np.zeros(k), lo, hi)
        assert run["termination"] == "damping_saturated"
        rest = np.arange(k) != j
        for n, x in enumerate(points[1:]):
            assert x[j] == 0.0
            reduced = gram[np.ix_(rest, rest)] + 1e-3 * 10.0**n * np.eye(k - 1)
            want = np.linalg.solve(reduced, -gradient[rest])
            got = x[rest] * norms[rest]
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @settings(max_examples=200, deadline=None)
    @given(synthetic_jacobians(), st.booleans(), st.data())
    def test_scaling_from_the_gram_matrix(self, case, null, data):
        # norms and eigenvalues as from the unit columns themselves; a null
        # column keeps a norm of 0 and counts as 1 in ``safe``
        jac, _, _ = case
        if null:
            jac[:, data.draw(st.integers(0, jac.shape[1] - 1))] = 0.0
        norms, safe, w, _ = lineshape._scaled(jac)
        want = np.linalg.norm(jac, axis=0)
        np.testing.assert_allclose(norms, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(safe, np.where(norms == 0.0, 1.0, norms))
        unit = jac / np.where(want == 0.0, 1.0, want)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(unit.T @ unit), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("gap, refused", [(0.5e-6, True), (2e-6, False)])
    def test_pair_rule_is_the_eigenvalue_rule(self, gap, refused):
        # two unit columns with cos = 1 - gap: the Gram matrix's smallest
        # eigenvalue is gap, refused below 1e-6
        cos = 1.0 - gap
        jac = np.zeros((10, 2))
        jac[0] = 1.0, cos
        jac[1, 1] = np.sqrt(1.0 - cos * cos)
        r = np.ones(10)
        if refused:
            with pytest.raises(DegenerateParameterError) as err:
                _engine_on(jac, r)
            assert err.value.names == ("p0", "p1")
        else:
            assert _engine_on(jac, r)[1]["termination"] == "damping_saturated"
