"""Open a transparency window in the reflected probe and measure its width.

A pump parked on the lower mechanical sideband couples the LC mode to a
10 Hz mechanical line. Interference carves a narrow window into the LC
absorption dip whose width is the mechanical linewidth plus the
electromechanical damping, so the pump strength dials the window width.
"""

import numpy as np

from cavlink import (
    HAT_PRESETS,
    MechanicalMode,
    coupling_for_damping,
    effective_rates,
    extract_fwhm,
    lower_sideband_pump,
    multi_mode_omit,
    transparency_signal,
)
from cavlink.units import TWO_PI, angular_to_hz


def window_profile(params, mode, gamma_e_hz, points=1201):
    kappa_lc = effective_rates(params).kappa_lc_tot
    coupling = coupling_for_damping(TWO_PI * gamma_e_hz, kappa_lc)
    omega_pump = lower_sideband_pump(params, mode)
    center = (omega_pump + mode.omega_m) / TWO_PI
    width = gamma_e_hz + mode.gamma_m / TWO_PI
    grid = np.linspace(center - 10 * width, center + 10 * width, points)
    on = multi_mode_omit(params, [mode], [coupling], omega_pump, grid)
    signal = transparency_signal(params, on)
    return signal, center, width


def main():
    params = HAT_PRESETS["hat270"]
    mode = MechanicalMode(TWO_PI * 0.66e6, TWO_PI * 10.0)
    kappa_lc = effective_rates(params).kappa_lc_tot
    print(f"LC linewidth {angular_to_hz(kappa_lc) / 1e6:.2f} MHz,"
          f" mechanical mode at 0.66 MHz with a 10 Hz linewidth")
    print()

    print("gamma_e/2pi   predicted width   measured width")
    print("   (Hz)            (Hz)             (Hz)")
    for gamma_e in (225.0, 900.0, 3600.0):
        signal, center, width = window_profile(params, mode, gamma_e)
        _, fwhm = extract_fwhm(
            signal, (center - 6 * width, center + 6 * width)
        )
        print(f"{gamma_e:>9.0f} {width:>15.0f} {fwhm:>16.1f}")

    signal, center, width = window_profile(params, mode, 900.0, points=29)
    power = signal.power()
    print()
    print("window profile at gamma_e/2pi = 900 Hz (probe offset from"
          " pump + omega_m):")
    for f, p in zip(signal.freqs, power):
        bar = "#" * int(round(40 * p / power.max()))
        print(f"{f - center:>8.0f} Hz |{bar}")


if __name__ == "__main__":
    main()
