"""Pump-dressed response and transparency windows."""

import numpy as np
import pytest
from conftest import reference_params, random_params

from cavlink import (
    InvalidInputError,
    MechanicalMode,
    SingularResponseError,
    ValidityWarning,
    coupling_for_damping,
    dressed_modes,
    effective_rates,
    electromechanical_damping,
    extract_fwhm,
    lower_sideband_pump,
    multi_mode_omit,
    pumped_lc_params,
    resolved_sideband_ratio,
    s11,
    s21,
    transparency_signal,
)
from cavlink.units import TWO_PI


def window_scenario(gamma_e_hz=900.0, gamma_m_hz=10.0, omega_m_hz=0.66e6, **overrides):
    """Reference OMIT setup: params, mode, coupling, on-sideband pump frequency."""
    params = reference_params(**overrides)
    kappa_lc = effective_rates(params).kappa_lc_tot
    mode = MechanicalMode(TWO_PI * omega_m_hz, TWO_PI * gamma_m_hz)
    coupling = coupling_for_damping(TWO_PI * gamma_e_hz, kappa_lc)
    omega_pump = lower_sideband_pump(params, mode)
    return params, mode, coupling, omega_pump


def window_grid(omega_pump, mode, width_hz, span=10.0, points=2401):
    f0 = (omega_pump + mode.omega_m) / TWO_PI
    return np.linspace(f0 - span * width_hz, f0 + span * width_hz, points)


class TestValidation:
    def test_mechanical_mode(self):
        with pytest.raises(InvalidInputError, match="omega_m"):
            MechanicalMode(0.0)
        with pytest.raises(InvalidInputError, match="gamma_m"):
            MechanicalMode(TWO_PI * 1e6, -1.0)

    @pytest.mark.parametrize("knobs, name", [
        ({"lc_shift": np.nan}, "lc_shift"),
        ({"lc_shift": -np.inf}, "lc_shift"),
        ({"lc_extra_loss": -1.0}, "lc_extra_loss"),
        ({"lc_extra_loss": np.inf}, "lc_extra_loss"),
        ({"lc_extra_loss": np.nan}, "lc_extra_loss"),
    ], ids=["shift_nan", "shift_inf", "loss_negative", "loss_inf", "loss_nan"])
    def test_pumped_lc_params_refusals(self, knobs, name):
        with pytest.raises(InvalidInputError, match=name):
            pumped_lc_params(reference_params(), **knobs)

    def test_pump_must_sit_between_zero_and_pumped_lc(self):
        # 0 < omega_pump < the pumped dressed LC frequency; the bound is the
        # pumped line, not the bare one
        params, mode, coupling, _ = window_scenario()
        bare_top = dressed_modes(params).omega_lc
        pumped = pumped_lc_params(params, lc_shift=-TWO_PI * 5e6)
        top = dressed_modes(pumped).omega_lc
        assert top < bare_top
        grid = np.linspace(6.99e9, 7.0e9, 11)
        for omega_pump in (0.0, -1.0, np.nan, np.inf, top, 0.5 * (top + bare_top)):
            with pytest.raises(InvalidInputError, match="red-detuned"):
                multi_mode_omit(pumped, (mode,), (coupling,), omega_pump, grid)
        below = np.nextafter(top, 0.0)
        trace = multi_mode_omit(pumped, (mode,), (coupling,), below, grid)
        assert np.all(np.isfinite(trace.values))

    def test_multi_mode_omit_inputs(self):
        params, mode, coupling, omega_pump = window_scenario()
        grid = window_grid(omega_pump, mode, 910.0)
        with pytest.raises(InvalidInputError, match="not be empty"):
            multi_mode_omit(params, (), (), omega_pump, grid)
        with pytest.raises(InvalidInputError, match="one coupling per"):
            multi_mode_omit(params, (mode,), (coupling, coupling), omega_pump, grid)
        with pytest.raises(InvalidInputError, match="non-negative"):
            multi_mode_omit(params, (mode,), (-coupling,), omega_pump, grid)


    def test_transparency_signal_needs_s11(self):
        params, mode, coupling, omega_pump = window_scenario()
        grid = window_grid(omega_pump, mode, 910.0)
        with pytest.raises(InvalidInputError, match="s11"):
            transparency_signal(params, s21(params, grid))


class TestRates:
    def test_damping_arithmetic(self):
        assert electromechanical_damping(10.0, 400.0) == 1.0
        assert electromechanical_damping(0.0, 400.0) == 0.0

    def test_damping_round_trip(self):
        kappa = TWO_PI * 2.1e6
        gamma_e = TWO_PI * 900.0
        coupling = coupling_for_damping(gamma_e, kappa)
        assert electromechanical_damping(coupling, kappa) == pytest.approx(
            gamma_e, rel=1e-12
        )

    def test_damping_input_checks(self):
        with pytest.raises(InvalidInputError, match="coupling"):
            electromechanical_damping(-1.0, 400.0)
        with pytest.raises(InvalidInputError, match="kappa_lc_tot"):
            electromechanical_damping(1.0, 0.0)
        with pytest.raises(InvalidInputError, match="gamma_e"):
            coupling_for_damping(-1.0, 400.0)


class TestPumpPlacement:
    def test_lower_sideband_exact(self):
        params = reference_params()
        mode = MechanicalMode(TWO_PI * 0.66e6)
        omega_pump = lower_sideband_pump(params, mode)
        assert omega_pump + mode.omega_m == dressed_modes(params).omega_lc

    def test_shift_folded_into_placement(self):
        params = reference_params()
        mode = MechanicalMode(TWO_PI * 0.66e6)
        shift, extra = -TWO_PI * 50e3, TWO_PI * 20e3
        pumped = pumped_lc_params(params, lc_shift=shift, lc_extra_loss=extra)
        omega_pump = lower_sideband_pump(pumped, mode)
        expected = dressed_modes(pumped).omega_lc
        assert omega_pump + mode.omega_m == expected

    def test_pumped_lc_params(self):
        params = reference_params()
        shifted = pumped_lc_params(params, lc_shift=-100.0, lc_extra_loss=40.0)
        assert shifted.omega_lc == params.omega_lc - 100.0
        assert shifted.kappa_lc_bare == params.kappa_lc_bare + 40.0
        assert shifted.omega_cav == params.omega_cav


class TestOmitSpectrum:
    def test_zero_coupling_is_pump_off_reflection(self):
        params, mode, _, omega_pump = window_scenario()
        grid = window_grid(omega_pump, mode, 910.0)
        on = multi_mode_omit(params, (mode,), (0.0,), omega_pump, grid)
        off = s11(params, grid)
        assert np.array_equal(on.values, off.values)

    def test_blue_pump_rejected(self):
        params, mode, coupling, omega_pump = window_scenario()
        grid = window_grid(omega_pump, mode, 910.0)
        blue = dressed_modes(params).omega_lc + mode.omega_m
        with pytest.raises(InvalidInputError, match="red-detuned"):
            multi_mode_omit(params, (mode,), (coupling,), blue, grid)

    def test_sideband_miss_warns(self):
        params, mode, coupling, omega_pump = window_scenario()
        kappa_lc = effective_rates(params).kappa_lc_tot
        displaced = omega_pump - 2.0 * kappa_lc
        grid = window_grid(omega_pump, mode, 910.0)
        with pytest.warns(ValidityWarning, match="misses"):
            multi_mode_omit(params, (mode,), (coupling,), displaced, grid)

    def test_overlapping_modes_warn(self):
        params, mode, coupling, omega_pump = window_scenario(gamma_m_hz=500.0)
        twin = MechanicalMode(mode.omega_m + 0.1 * mode.gamma_m, mode.gamma_m)
        grid = window_grid(omega_pump, mode, 2000.0)
        with pytest.warns(ValidityWarning, match="overlap"):
            multi_mode_omit(params, (mode, twin), (coupling, coupling), omega_pump, grid)

    def test_undamped_sideband_on_grid_point(self):
        # pump + mode tuned so that omega_pump + omega_m lands bitwise on a
        # probe point (Sterbenz: the subtraction below is exact)
        params = reference_params()
        f_hit = 6.994e9
        omega_pump = TWO_PI * (f_hit - 0.66e6)
        mode = MechanicalMode(TWO_PI * f_hit - omega_pump, gamma_m=0.0)
        grid = np.array([f_hit - 1e4, f_hit, f_hit + 1e4])
        with pytest.raises(SingularResponseError, match="sideband"):
            multi_mode_omit(params, (mode,), (TWO_PI * 20e3,), omega_pump, grid)

    def test_window_is_a_peak_inside_the_dip(self):
        params, mode, coupling, omega_pump = window_scenario()
        width = 910.0
        f0 = (omega_pump + mode.omega_m) / TWO_PI
        kappa_lc_hz = effective_rates(params).kappa_lc_tot / TWO_PI
        grid = np.linspace(f0 - 3 * kappa_lc_hz, f0 + 3 * kappa_lc_hz, 30001)
        trace = multi_mode_omit(params, (mode,), (coupling,), omega_pump, grid)
        p = trace.power()
        at_center = p[np.argmin(np.abs(grid - f0))]
        wall = p[np.argmin(np.abs(grid - (f0 + 30 * width)))]
        edge = p[0]
        assert at_center > wall  # transparency peak rises above the dip floor
        assert wall < 0.3 * edge  # and the LC dip is deep


class TestWindowWidth:
    def test_reference_scenario_width_from_reflection(self):
        # gamma_m + gamma_e = 910 Hz read straight off the reflection dip
        params, mode, coupling, omega_pump = window_scenario()
        width = 910.0
        f0 = (omega_pump + mode.omega_m) / TWO_PI
        grid = window_grid(omega_pump, mode, width, span=6.0, points=2401)
        trace = multi_mode_omit(params, (mode,), (coupling,), omega_pump, grid)
        center, fwhm = extract_fwhm(trace, (f0 - 5 * width, f0 + 5 * width))
        assert fwhm == pytest.approx(width, rel=0.05)
        # the sloped dip wall drags the apparent maximum by a few percent
        # of the window width
        assert center == pytest.approx(f0, abs=0.05 * width)

    def test_reference_scenario_width_from_signal(self):
        params, mode, coupling, omega_pump = window_scenario()
        width = 910.0
        f0 = (omega_pump + mode.omega_m) / TWO_PI
        grid = window_grid(omega_pump, mode, width)
        sig = transparency_signal(
            params, multi_mode_omit(params, (mode,), (coupling,), omega_pump, grid)
        )
        center, fwhm = extract_fwhm(sig, (f0 - 6 * width, f0 + 6 * width))
        assert fwhm == pytest.approx(width, rel=0.05)
        assert center == pytest.approx(f0, abs=0.05 * width)

    def test_width_law_over_random_draws(self):
        # FWHM = gamma_m + gamma_e within 5% whenever the window is at
        # least 10x narrower than the LC line and the pump sits exactly on
        # the lower sideband
        rng = np.random.default_rng(20260818)
        checked = 0
        worst = 0.0
        while checked < 40:
            k1 = rng.uniform(60e6, 160e6)
            k2 = rng.uniform(0.0, 0.1) * k1
            kl = rng.uniform(0.02, 0.12) * k1
            g = rng.uniform(40e6, 75e6)
            kb = rng.uniform(0.1e6, 0.6e6)
            delta = rng.uniform(6.0, 12.0) * max(k1 + k2 + kl, g)
            params = reference_params(
                delta_bare_hz=delta, kappa_cav_1=k1, kappa_cav_2=k2,
                kappa_cav_loss=kl, kappa_lc_bare=kb, g=g,
            )
            rates = effective_rates(params)
            assert rates.within_validity
            kappa_lc = rates.kappa_lc_tot
            gamma_m = TWO_PI * rng.uniform(2.0, 50.0)
            cap = min(kappa_lc / 10.0 - gamma_m, kappa_lc / 30.0)
            gamma_e = rng.uniform(0.2, 1.0) * cap
            omega_m = rng.uniform(0.6, 3.0) * kappa_lc / 2.0
            if resolved_sideband_ratio(kappa_lc, omega_m) >= 0.5:
                continue
            mode = MechanicalMode(omega_m, gamma_m)
            coupling = coupling_for_damping(gamma_e, kappa_lc)
            omega_pump = lower_sideband_pump(params, mode)
            width = (gamma_m + gamma_e) / TWO_PI
            f0 = (omega_pump + mode.omega_m) / TWO_PI
            grid = np.linspace(f0 - 10 * width, f0 + 10 * width, 2401)
            on = multi_mode_omit(params, (mode,), (coupling,), omega_pump, grid)
            sig = transparency_signal(params, on)
            _, fwhm = extract_fwhm(sig, (f0 - 6 * width, f0 + 6 * width))
            err = abs(fwhm - width) / width
            worst = max(worst, err)
            assert err <= 0.05, f"width off by {err:.2%} at draw {checked}"
            checked += 1
        assert checked >= 40
        assert worst <= 0.05

    def test_peak_sits_on_the_sideband(self, rng):
        # window maximum at omega_pump + omega_m to within one grid step
        for _ in range(25):
            params = random_params(rng)
            kappa_lc = effective_rates(params).kappa_lc_tot
            gamma_m = TWO_PI * rng.uniform(2.0, 50.0)
            gamma_e = rng.uniform(0.2, 1.0) * kappa_lc / 30.0
            omega_m = rng.uniform(0.7, 1.5) * kappa_lc
            mode = MechanicalMode(omega_m, gamma_m)
            coupling = coupling_for_damping(gamma_e, kappa_lc)
            omega_pump = lower_sideband_pump(params, mode)
            width = (gamma_m + gamma_e) / TWO_PI
            f0 = (omega_pump + mode.omega_m) / TWO_PI
            grid = np.linspace(f0 - 10 * width, f0 + 10 * width, 241)
            step = grid[1] - grid[0]
            on = multi_mode_omit(params, (mode,), (coupling,), omega_pump, grid)
            sig = transparency_signal(params, on)
            center, _ = extract_fwhm(sig, (f0 - 6 * width, f0 + 6 * width))
            assert abs(center - f0) <= step

    def test_two_modes_two_windows(self):
        params, mode1, coupling, omega_pump = window_scenario()
        mode2 = MechanicalMode(TWO_PI * 1.1e6, TWO_PI * 25.0)
        coupling2 = coupling_for_damping(TWO_PI * 600.0, effective_rates(params).kappa_lc_tot)
        f1 = (omega_pump + mode1.omega_m) / TWO_PI
        f2 = (omega_pump + mode2.omega_m) / TWO_PI
        # the shared pump sits on mode1's sideband; mode2's window still
        # appears at omega_pump + omega_m2, displaced up the dip wall
        on = multi_mode_omit(
            params, (mode1, mode2), (coupling, coupling2),
            omega_pump, np.linspace(f1 - 2e4, f2 + 2e4, 120001),
        )
        sig = transparency_signal(params, on)
        c1, w1 = extract_fwhm(sig, (f1 - 6e3, f1 + 6e3))
        c2, w2 = extract_fwhm(sig, (f2 - 6e3, f2 + 6e3))
        assert c1 == pytest.approx(f1, abs=50.0)
        assert c2 == pytest.approx(f2, abs=200.0)
        assert w1 == pytest.approx(910.0, rel=0.05)
        assert 0.0 < w2 < 910.0  # off-sideband drive extracts less damping


class TestContinuityAndPassivity:
    def test_response_converges_to_pump_off_as_coupling_vanishes(self):
        # anchor below gamma_m so the G^2 scaling is not saturated by the
        # fully developed window
        params, mode, _, _ = window_scenario(gamma_e_hz=2.0)
        kappa_lc = effective_rates(params).kappa_lc_tot
        anchor = coupling_for_damping(TWO_PI * 2.0, kappa_lc)
        omega_pump = lower_sideband_pump(params, mode)
        grid = window_grid(omega_pump, mode, 910.0)
        off = s11(params, grid).values
        deviations = []
        for decade in range(4):
            on = multi_mode_omit(params, (mode,), (anchor / 10.0**decade,), omega_pump, grid)
            deviations.append(float(np.max(np.abs(on.values - off))))
        for bigger, smaller in zip(deviations, deviations[1:]):
            assert smaller < bigger / 30.0
        assert deviations[-1] < 1e-5 * deviations[0]

    def test_pump_dressed_passivity(self, rng):
        for _ in range(100):
            params = random_params(rng)
            kappa_lc = effective_rates(params).kappa_lc_tot
            mode = MechanicalMode(
                rng.uniform(0.7, 2.0) * kappa_lc, TWO_PI * rng.uniform(1.0, 100.0)
            )
            coupling = rng.uniform(0.0, 1.0) * coupling_for_damping(
                kappa_lc / 10.0, kappa_lc
            )
            omega_pump = lower_sideband_pump(params, mode)
            f0 = (omega_pump + mode.omega_m) / TWO_PI
            span = 3.0 * kappa_lc / TWO_PI
            trace = multi_mode_omit(
                params, (mode,), (coupling,), omega_pump,
                np.linspace(f0 - span, f0 + span, 801),
            )
            assert np.all(trace.power() <= 1.0 + 1e-9)

    def test_transparency_signal_zero_without_pump_coupling(self):
        params, mode, _, omega_pump = window_scenario()
        grid = window_grid(omega_pump, mode, 910.0)
        sig = transparency_signal(
            params, multi_mode_omit(params, (mode,), (0.0,), omega_pump, grid)
        )
        assert np.array_equal(sig.values, np.zeros(len(grid)))
