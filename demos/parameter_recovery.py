"""Recover system parameters from a noisy transmission trace.

A synthetic measurement is generated at amplitude SNR 100, a starting point
is guessed from the data alone, and a damped least-squares fit pulls the
parameters back out. The second half fits two traces taken with different
hats, each on its own, and pools the coupling they have in common as the
mean of the two fits with its standard error.
"""

import numpy as np

from cavlink import (
    HAT_PRESETS,
    FitConfig,
    add_noise,
    auto_initial_guess,
    fit_trace,
    multi_trace_fit,
    s21,
)
from cavlink.units import angular_to_hz

FREE = ("omega_cav", "omega_lc", "kappa_cav_1", "kappa_lc_bare", "g")


def measurement_grid(params):
    # cavity-wide sweep plus a dense patch over the narrow feature
    center = angular_to_hz(params.omega_cav)
    span = 4 * angular_to_hz(params.kappa_cav_tot)
    coarse = np.linspace(center - span, center + span, 601)
    lc = angular_to_hz(params.omega_lc)
    fine = np.linspace(lc - 15e6, lc + 15e6, 1201)
    return np.unique(np.concatenate([coarse, fine]))


def report_fit(truth, result):
    print("parameter        truth (Hz)        fitted (Hz)        1 sigma (Hz)")
    truth_hz = truth.to_hz()
    fitted_hz = result.params.to_hz()
    for name in FREE:
        key = f"{name}_hz"
        sigma = result.uncertainties[name]
        print(
            f"{name:<15} {truth_hz[key]:>15.1f} {fitted_hz[key]:>18.1f}"
            f" {sigma:>15.2g}"
        )
    print(f"converged in {result.iterations} iterations")


def main():
    truth = HAT_PRESETS["hat270"].replace(
        g=HAT_PRESETS["hat270"].g * 1.03,
        kappa_lc_bare=HAT_PRESETS["hat270"].kappa_lc_bare * 0.9,
    )
    clean = s21(truth, measurement_grid(truth))
    noise = float(np.max(np.abs(clean.values))) / 100.0
    # fit the complex trace: both quadratures carry information
    noisy = add_noise(clean, noise, seed=7)

    guess = auto_initial_guess(noisy, HAT_PRESETS["hat270"])
    result = fit_trace(noisy, FitConfig(free_params=FREE, initial_guess=guess))
    print("single trace, guess taken from the data:")
    report_fit(truth, result)

    # same chip under two hats: only the cavity frequency moved, so the two
    # independent fits should agree on the coupling, which is pooled
    traces = []
    for seed, name in enumerate(("hat270", "hat300"), start=11):
        p = HAT_PRESETS[name].replace(g=truth.g)
        clean = s21(p, measurement_grid(p))
        noise = float(np.max(np.abs(clean.values))) / 100.0
        traces.append(add_noise(clean, noise, seed=seed))

    joint = multi_trace_fit(
        traces,
        shared=("g",),
        config=FitConfig(
            free_params=("omega_cav", "omega_lc", "kappa_lc_bare", "g"),
            initial_guess=HAT_PRESETS["hat270"],
        ),
    )
    mean = angular_to_hz(joint.shared_means["g"])
    se = joint.combined.uncertainties["g"]
    print()
    print("joint fit of hat270 + hat300 with shared coupling:")
    print(f"  g/2pi = {mean / 1e6:.4f} MHz +- {se / 1e3:.1f} kHz"
          f" (truth {angular_to_hz(truth.g) / 1e6:.4f} MHz)")
    print(f"  traces agree: {joint.consistent['g']}")


if __name__ == "__main__":
    main()
