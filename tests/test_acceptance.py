"""Acceptance checks for the headline behaviors, one per test.

Each test prints a single "ACCEPTANCE n (label): PASS|FAIL" line before
asserting, so a full run always shows the scoreboard.
"""

import numpy as np
import pytest
from conftest import merged_grid, reference_params, random_params

from cavlink import (
    DEFAULT_SIDEBAND_THRESHOLD,
    DESIGN_PRESET,
    HAT_PRESETS,
    FitConfig,
    MechanicalMode,
    add_noise,
    bare_loss_for_dissipation_fraction,
    coupling_for_damping,
    dressed_modes,
    effective_rates,
    extract_fwhm,
    find_target_detuning,
    fit_trace,
    lower_sideband_pump,
    multi_mode_omit,
    normalized_power_trace,
    resolved_sideband_ratio,
    s11,
    s21,
    transparency_signal,
    with_dressed_detuning,
)
from cavlink.units import TWO_PI, angular_to_hz, hz_to_angular


@pytest.fixture
def announce(capsys):
    def _announce(number, label, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")

    return _announce


@pytest.mark.filterwarnings("error::cavlink.errors.ValidityWarning")
def test_narrow_feature_width_follows_effective_rates(announce):
    # moderately asymmetric two-port cavity; detuning stepped in units of
    # kappa_cav_tot so the approximation error has room to shrink
    base = reference_params(
        kappa_cav_1=85e6, kappa_cav_2=3.4e6, kappa_cav_loss=6.8e6
    )
    ktot_hz = angular_to_hz(base.kappa_cav_tot)
    errors = []
    for multiple in (3, 6, 12):
        p = with_dressed_detuning(base, multiple * ktot_hz)
        width_hz = angular_to_hz(effective_rates(p).kappa_lc_tot)
        f0 = angular_to_hz(dressed_modes(p).omega_lc)
        grid = np.linspace(f0 - 6 * width_hz, f0 + 6 * width_hz, 4801)
        trace = normalized_power_trace(s21(p, grid))
        _, fwhm = extract_fwhm(trace, (f0 - 5 * width_hz, f0 + 5 * width_hz))
        errors.append(abs(fwhm - width_hz) / width_hz)
    ok = all(e < 0.10 for e in errors) and errors[0] > errors[1] > errors[2]
    announce(1, "narrow-feature width follows effective rates", ok)
    assert ok, f"relative errors vs detuning multiples (3, 6, 12): {errors}"


def test_detuning_for_target_port_rate(announce):
    delta = find_target_detuning(DESIGN_PRESET, 1.5e6)
    ok = abs(delta - 600e6) <= 0.10 * 600e6
    announce(2, "detuning for 1.5 MHz port-1 rate near 600 MHz", ok)
    assert ok, f"found {delta} Hz"


def test_dissipation_fraction_in_coupling_band(announce):
    # reference cavity at the four-hat loss rates, scanned across the
    # 1.5-2.0 MHz coupling band
    base = reference_params()
    fractions = []
    for target in np.linspace(1.5e6, 2.0e6, 6):
        delta = find_target_detuning(base, target)
        rates = effective_rates(base, delta_eff=hz_to_angular(delta))
        fractions.append(rates.dissipation_fraction)
    band_ok = max(fractions) <= 0.35

    # self-consistency: solve for the bare loss giving exactly 17% and
    # confirm the bookkeeping returns it
    delta = find_target_detuning(DESIGN_PRESET, 1.8e6)
    rates = effective_rates(DESIGN_PRESET, delta_eff=hz_to_angular(delta))
    bare = bare_loss_for_dissipation_fraction(rates, 0.17)
    back = effective_rates(
        DESIGN_PRESET.replace(kappa_lc_bare=bare),
        delta_eff=hz_to_angular(delta),
    )
    exact_ok = abs(back.dissipation_fraction - 0.17) <= 1e-12
    ok = band_ok and exact_ok
    announce(3, "dissipation fraction bounded in band, 17% solvable", ok)
    assert band_ok, f"band fractions {fractions}"
    assert exact_ok, f"round-trip fraction {back.dissipation_fraction}"


def test_hat_swap_tunes_rate_by_order_of_magnitude(announce):
    keff1 = {
        name: angular_to_hz(effective_rates(p).kappa_eff_1)
        for name, p in HAT_PRESETS.items()
    }
    ratio = max(keff1.values()) / min(keff1.values())
    ok = ratio >= 10.0
    announce(4, "hat ladder tunes port-1 rate by >= 10x", ok)
    assert ok, f"kappa_eff_1 by hat: {keff1}, ratio {ratio:.1f}"


@pytest.mark.filterwarnings("error::cavlink.errors.ValidityWarning")
def test_transparency_window_width_and_position(announce):
    # electromechanical damping of 0.9 kHz on a 10 Hz mechanical line:
    # the window should be 0.91 kHz wide and sit at pump + omega_m
    params = reference_params(kappa_lc_bare=0.255e6)
    kappa_lc = effective_rates(params).kappa_lc_tot
    mode = MechanicalMode(TWO_PI * 0.66e6, TWO_PI * 10.0)
    coupling = coupling_for_damping(TWO_PI * 900.0, kappa_lc)
    omega_pump = lower_sideband_pump(params, mode)

    predicted_center = (omega_pump + mode.omega_m) / TWO_PI
    predicted_width = 910.0
    grid = np.linspace(
        predicted_center - 10 * predicted_width,
        predicted_center + 10 * predicted_width,
        241,
    )
    step = grid[1] - grid[0]
    signal = transparency_signal(
        params, multi_mode_omit(params, [mode], [coupling], omega_pump, grid)
    )
    center, fwhm = extract_fwhm(
        signal,
        (predicted_center - 6 * predicted_width, predicted_center + 6 * predicted_width),
    )
    width_ok = abs(fwhm - predicted_width) <= 0.05 * predicted_width
    center_ok = abs(center - predicted_center) <= step
    ok = width_ok and center_ok
    announce(5, "transparency window 0.91 kHz wide at pump + omega_m", ok)
    assert width_ok, f"fwhm {fwhm} Hz vs {predicted_width} Hz"
    assert center_ok, f"center off by {center - predicted_center} Hz, step {step} Hz"


FREE = ("omega_cav", "omega_lc", "kappa_cav_1", "kappa_lc_bare", "g")


def perturbed_guess(truth, free):
    """Rates offset by 10% relatively; frequencies by a tenth of the
    relevant linewidth (a relative offset on a GHz carrier would leave
    every local basin)."""
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


def test_fit_round_trips_and_noise_scatter(announce):
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        truth = random_params(rng)
        trace = normalized_power_trace(s21(truth, merged_grid(truth)))
        config = FitConfig(free_params=FREE, initial_guess=perturbed_guess(truth, FREE))
        result = fit_trace(trace, config)
        for name in FREE:
            rel = abs(
                getattr(result.params, name) - getattr(truth, name)
            ) / abs(getattr(truth, name))
            worst = max(worst, rel)
    round_trip_ok = worst <= 1e-6

    truth = reference_params()
    clean = s21(truth, merged_grid(truth))
    noise = float(np.max(np.abs(clean.values))) / 100.0  # amplitude SNR 100
    mc_free = ("omega_cav", "omega_lc", "kappa_lc_bare", "g")
    config = FitConfig(free_params=mc_free, initial_guess=truth)
    estimates = []
    for k in range(100):
        result = fit_trace(add_noise(clean, noise, seed=8000 + k), config)
        estimates.append(result.params.g)
    estimates = np.asarray(estimates)
    scatter = float(np.std(estimates, ddof=1) / np.mean(estimates))
    scatter_ok = scatter <= 0.05
    ok = round_trip_ok and scatter_ok
    announce(6, "noiseless round trips 1e-6, g scatter <= 5% at SNR 100", ok)
    assert round_trip_ok, f"worst relative recovery error {worst}"
    assert scatter_ok, f"sigma_g/g = {scatter}"


def test_passivity_and_port_symmetry(announce):
    rng = np.random.default_rng(4242)
    worst_sum = 0.0
    symmetric = True
    for _ in range(1000):
        p = random_params(rng)
        lo = min(p.omega_cav, p.omega_lc) - 2 * p.kappa_cav_tot
        hi = max(p.omega_cav, p.omega_lc) + 2 * p.kappa_cav_tot
        freqs = np.sort(rng.uniform(lo, hi, 41)) / TWO_PI
        total = np.abs(s11(p, freqs).values) ** 2 + np.abs(s21(p, freqs).values) ** 2
        worst_sum = max(worst_sum, float(total.max()))
        swapped = p.replace(kappa_cav_1=p.kappa_cav_2, kappa_cav_2=p.kappa_cav_1)
        symmetric = symmetric and np.array_equal(
            s21(p, freqs).values, s21(swapped, freqs).values
        )
    passive = worst_sum <= 1.0 + 1e-9
    ok = passive and symmetric
    announce(7, "passivity and exact port swap on 1000 draws", ok)
    assert passive, f"max |S11|^2 + |S21|^2 = {worst_sum}"
    assert symmetric


def test_resolved_sideband_bookkeeping(announce):
    ratio = resolved_sideband_ratio(hz_to_angular(2e6), hz_to_angular(1.5e6))
    valued_ok = ratio == pytest.approx(1.0 / 3.0, rel=1e-12)
    flag_ok = ratio < DEFAULT_SIDEBAND_THRESHOLD
    ok = valued_ok and flag_ok
    announce(8, "2 MHz linewidth at 1.5 MHz mode resolves sidebands", ok)
    assert valued_ok, f"ratio {ratio}"
    assert flag_ok
