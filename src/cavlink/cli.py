"""Command-line front end: simulate, fit, sweep, omit.

Every subcommand reads one INI config (see README for the key reference),
writes its results atomically, and uses Hz for every number that crosses the
process boundary. Exit codes: 0 success, 2 config problem, 3 file I/O
problem, 4 trace parse problem, 5 fit did not converge (report still
written).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .coupled_modes import (
    SystemParams,
    effective_rates,
    s11,
    s21,
)
from .design import (
    ALL_PRESETS,
    SWEEPABLE_FIELDS,
    SweepSpec,
    SweepTargets,
    run_sweep,
)
from .electromechanics import (
    MechanicalMode,
    coupling_for_damping,
    electromechanical_damping,
    lower_sideband_pump,
    multi_mode_omit,
    pumped_lc_params,
    transparency_signal,
)
from .errors import (
    BranchAssignmentError,
    CavlinkError,
    ConfigError,
    InvalidInputError,
    PeakAmbiguityError,
    TraceParseError,
    WindowTooNarrowError,
)
from .lineshape import FitConfig, add_noise, extract_fwhm, fit_trace, multi_trace_fit
from .tracefile import (
    config_float,
    config_int,
    config_list,
    config_str,
    format_float,
    load_config,
    read_trace,
    write_json,
    write_text_atomic,
    write_trace,
)
from .units import TWO_PI, angular_to_hz, hz_to_angular

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_NONCONVERGENCE = 5

_RATE_KEYS = (
    "kappa_cav_1_hz",
    "kappa_cav_2_hz",
    "kappa_cav_loss_hz",
    "kappa_lc_bare_hz",
    "g_hz",
)


def _params_from_config(cp, preset: SystemParams | None) -> SystemParams:
    defaults = preset.to_hz() if preset is not None else {}
    if preset is not None and not cp.has_section("params"):
        return preset
    kwargs = {}
    for key in ("omega_cav_hz", "omega_lc_hz"):
        kwargs[key[:-3]] = config_float(cp, "params", key, default=defaults.get(key))
    for key in _RATE_KEYS:
        kwargs[key[:-3]] = config_float(
            cp, "params", key, default=defaults.get(key, 0.0)
        )
    return SystemParams.from_hz(**kwargs)


def _grid_from_config(cp) -> np.ndarray:
    if not cp.has_section("grid"):
        raise ConfigError("grid: missing required section")
    start = config_float(cp, "grid", "f_start_hz")
    stop = config_float(cp, "grid", "f_stop_hz")
    points = config_int(cp, "grid", "points")
    if not start < stop:
        raise ConfigError("grid.f_stop_hz: must be greater than grid.f_start_hz")
    if points < 2:
        raise ConfigError("grid.points: a frequency grid needs at least 2 points")
    return np.linspace(start, stop, points)


def _suffixed(path, tag):
    base, ext = os.path.splitext(path)
    return f"{base}-{tag}{ext}"


def _cmd_simulate(cp, out, seed, preset_name):
    if preset_name == "all":
        presets = [n for n in ALL_PRESETS if n.startswith("hat")]
    else:
        presets = [preset_name]
    grid = _grid_from_config(cp)
    outputs = config_list(cp, "simulate", "outputs", default=["s21"])
    for name in outputs:
        if name not in ("s21", "s11"):
            raise ConfigError(f"simulate.outputs: unknown trace {name!r}")
    noise = config_float(cp, "simulate", "noise_amplitude", default=0.0)
    generators = {"s21": s21, "s11": s11}

    written = []
    for i, pname in enumerate(presets):
        params = _params_from_config(
            cp, ALL_PRESETS[pname] if pname is not None else None
        )
        for kind in outputs:
            trace = generators[kind](params, grid)
            if noise > 0.0:
                trace = add_noise(trace, noise, seed + i)
            path = out
            if len(presets) > 1:
                path = _suffixed(path, pname)
            if len(outputs) > 1:
                path = _suffixed(path, kind)
            write_trace(path, trace)
            written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def _fit_config_from(cp, guess: SystemParams) -> FitConfig:
    free = config_list(cp, "fit", "free_params", default=None)
    if free is None or not free:
        raise ConfigError("fit.free_params: missing required value")
    bounds = {}
    for name in free:
        key = f"bound_{name}_hz"
        if cp.has_option("fit", key):
            raw = config_str(cp, "fit", key)
            pieces = [p.strip() for p in raw.split(",")]
            if len(pieces) != 2:
                raise ConfigError(f"fit.{key}: expected 'lo,hi'")
            try:
                lo, hi = float(pieces[0]), float(pieces[1])
            except ValueError:
                raise ConfigError(f"fit.{key}: bounds must be numbers") from None
            bounds[name] = (hz_to_angular(lo), hz_to_angular(hi))
    return FitConfig(
        free_params=tuple(free),
        initial_guess=guess,
        bounds=bounds,
        max_iterations=config_int(cp, "fit", "max_iterations", default=200),
        tolerance=config_float(cp, "fit", "tolerance", default=1e-10),
    )


def _derived_block(params):
    try:
        return effective_rates(params).to_hz()
    except (InvalidInputError, BranchAssignmentError) as exc:
        return {"unavailable": str(exc)}


def _fit_report(result, config):
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "free_params": list(config.free_params),
        "params_hz": result.params.to_hz(),
        "uncertainties_hz": dict(result.uncertainties),
        "derived_rates_hz": _derived_block(result.params),
    }


def _cmd_fit(cp, out, seed, preset_name):
    preset = ALL_PRESETS[preset_name] if preset_name else None
    guess = _params_from_config(cp, preset)
    config = _fit_config_from(cp, guess)

    paths = config_list(cp, "fit", "traces", default=[])
    if not paths:
        paths = [config_str(cp, "fit", "trace")]
    runs = config_int(cp, "fit", "monte_carlo_runs", default=0)
    noise = config_float(cp, "fit", "noise_amplitude", default=0.0)

    if len(paths) > 1:
        shared = config_list(cp, "fit", "shared", default=[])
        if not shared:
            raise ConfigError("fit.shared: required for multi-trace fits")
        traces = [read_trace(p) for p in paths]
        multi = multi_trace_fit(traces, tuple(shared), config)
        report = {
            "combined": _fit_report(multi.combined, config),
            "per_trace": [_fit_report(r, config) for r in multi.per_trace],
            "shared_means_hz": {
                k: angular_to_hz(v) for k, v in multi.shared_means.items()
            },
            "shared_std_errors_hz": {
                k: angular_to_hz(v) for k, v in multi.shared_std_errors.items()
            },
            "consistent": dict(multi.consistent),
        }
        write_json(out, report)
        return EXIT_OK if multi.combined.converged else EXIT_NONCONVERGENCE

    trace = read_trace(paths[0])
    if runs > 0:
        run_reports = []
        for k in range(runs):
            noisy = add_noise(trace, noise, seed + k) if noise > 0.0 else trace
            run_reports.append(_fit_report(fit_trace(noisy, config), config))
        frees = list(config.free_params)
        stats = {}
        for name in frees:
            samples = [r["params_hz"][f"{name}_hz"] for r in run_reports]
            stats[f"{name}_hz"] = {
                "mean": float(np.mean(samples)),
                "std": float(np.std(samples, ddof=1)) if runs > 1 else 0.0,
            }
        report = {
            "monte_carlo_runs": runs,
            "noise_amplitude": noise,
            "seed": seed,
            "scatter_hz": stats,
            "runs": run_reports,
        }
        write_json(out, report)
        ok = all(r["converged"] for r in run_reports)
        return EXIT_OK if ok else EXIT_NONCONVERGENCE

    result = fit_trace(trace, config)
    write_json(out, _fit_report(result, config))
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _sweep_values(cp) -> tuple:
    if cp.has_option("sweep", "values_hz"):
        items = config_list(cp, "sweep", "values_hz", default=None)
        try:
            return tuple(float(v) for v in items)
        except ValueError:
            raise ConfigError("sweep.values_hz: entries must be numbers") from None
    start = config_float(cp, "sweep", "start_hz")
    stop = config_float(cp, "sweep", "stop_hz")
    points = config_int(cp, "sweep", "points")
    if points < 1:
        raise ConfigError("sweep.points: must be at least 1")
    return tuple(np.linspace(start, stop, points))


_SWEEP_COLUMNS = (
    "value_hz",
    "valid",
    "delta_eff_hz",
    "kappa_cav_tot_hz",
    "kappa_eff_1_hz",
    "kappa_eff_2_hz",
    "kappa_eff_loss_hz",
    "kappa_lc_loss_hz",
    "kappa_lc_tot_hz",
    "dissipation_fraction",
    "within_validity",
    "in_coupling_band",
    "sideband_resolved",
    "dissipation_ok",
    "message",
)


def _cmd_sweep(cp, out, preset_name):
    preset = ALL_PRESETS[preset_name] if preset_name else None
    base = _params_from_config(cp, preset)
    field = config_str(cp, "sweep", "field")
    band_lo = config_float(cp, "sweep", "band_lo_hz", default=1.5e6)
    band_hi = config_float(cp, "sweep", "band_hi_hz", default=2.0e6)
    targets = SweepTargets(
        coupling_band_hz=(band_lo, band_hi),
        omega_m_hz=config_float(cp, "sweep", "omega_m_hz", default=1.5e6),
        sideband_threshold=config_float(cp, "sweep", "sideband_threshold", default=0.5),
        max_dissipation_fraction=config_float(
            cp, "sweep", "max_dissipation_fraction", default=0.30
        ),
    )
    spec = SweepSpec(
        base_params=base, swept_field=field, values_hz=_sweep_values(cp),
        targets=targets,
    )
    result = run_sweep(spec)

    lines = [
        "# cavlink sweep",
        f"# field = {field}",
        ",".join(_SWEEP_COLUMNS),
    ]
    for row in result.rows:
        if row.valid:
            to_hz = row.rates.to_hz()
            cells = [
                format_float(row.value_hz),
                "1",
                format_float(to_hz["delta_eff_hz"]),
                format_float(to_hz["kappa_cav_tot_hz"]),
                format_float(to_hz["kappa_eff_1_hz"]),
                format_float(to_hz["kappa_eff_2_hz"]),
                format_float(to_hz["kappa_eff_loss_hz"]),
                format_float(to_hz["kappa_lc_loss_hz"]),
                format_float(to_hz["kappa_lc_tot_hz"]),
                format_float(to_hz["dissipation_fraction"]),
                str(int(to_hz["within_validity"])),
                str(int(row.in_coupling_band)),
                str(int(row.sideband_resolved)),
                str(int(row.dissipation_ok)),
                "",
            ]
        else:
            cells = [format_float(row.value_hz), "0"] + [""] * 12
            cells.append(row.message.replace(",", ";"))
        lines.append(",".join(cells))
    write_text_atomic(out, "\n".join(lines) + "\n")
    return EXIT_OK


def _mode_index(section):
    try:
        return int(section.split(".", 1)[1])
    except ValueError:
        raise ConfigError(
            f"{section}: extra mode sections are named [mode.N] with an integer N"
        ) from None


def _optional_rate(cp, section, key):
    """The non-negative rate under ``key`` (given in Hz) in rad/s; None if absent."""
    if not cp.has_option(section, key):
        return None
    value = config_float(cp, section, key)
    if value < 0.0:
        raise ConfigError(f"{section}.{key}: must be non-negative, got {value!r}")
    return hz_to_angular(value)


def _modes_from_config(cp):
    """[omit] holds the first mode; [mode.2], [mode.3], ... add more."""
    sections = ["omit"]
    sections.extend(
        sorted((s for s in cp.sections() if s.startswith("mode.")), key=_mode_index)
    )
    entries = []
    for section in sections:
        mode = MechanicalMode(
            omega_m=hz_to_angular(config_float(cp, section, "omega_m_hz")),
            gamma_m=hz_to_angular(config_float(cp, section, "gamma_m_hz", default=0.0)),
        )
        coupling = _optional_rate(cp, section, "coupling_hz")
        gamma_e = _optional_rate(cp, section, "gamma_e_hz")
        if coupling is not None and gamma_e is not None:
            raise ConfigError(
                f"{section}: give coupling_hz or gamma_e_hz, not both"
            )
        entries.append((mode, coupling, gamma_e))
    return entries


def _cmd_omit(cp, out, preset_name):
    preset = ALL_PRESETS[preset_name] if preset_name else None
    params = _params_from_config(cp, preset)
    grid = _grid_from_config(cp)
    lc_shift = hz_to_angular(config_float(cp, "omit", "lc_shift_hz", default=0.0))
    lc_extra_loss = hz_to_angular(config_float(cp, "omit", "lc_extra_loss_hz", default=0.0))
    pump_offset = hz_to_angular(config_float(cp, "omit", "pump_offset_hz", default=0.0))

    shifted = pumped_lc_params(params, lc_shift=lc_shift, lc_extra_loss=lc_extra_loss)
    kappa_lc_tot = effective_rates(shifted).kappa_lc_tot

    modes = []
    couplings = []
    for mode, coupling, gamma_e in _modes_from_config(cp):
        modes.append(mode)
        if gamma_e is not None:
            coupling = coupling_for_damping(gamma_e, kappa_lc_tot)
        couplings.append(0.0 if coupling is None else coupling)
    gamma_es = [electromechanical_damping(c, kappa_lc_tot) for c in couplings]

    pump = lower_sideband_pump(
        params, modes[0], lc_shift=lc_shift, lc_extra_loss=lc_extra_loss
    )
    pump = replace(pump, omega_pump=pump.omega_pump + pump_offset)

    trace = multi_mode_omit(params, modes, couplings, pump, grid)
    write_trace(out, trace)

    signal = transparency_signal(params, pump, trace)
    pump_hz = angular_to_hz(pump.omega_pump)
    windows = []
    for mode, gamma_e in zip(modes, gamma_es):
        width_hz = angular_to_hz(mode.gamma_m + gamma_e)
        predicted_hz = angular_to_hz(pump.omega_pump + mode.omega_m)
        entry = {"predicted_center_hz": predicted_hz}
        lo = max(predicted_hz - 6.0 * width_hz, grid[0])
        hi = min(predicted_hz + 6.0 * width_hz, grid[-1])
        try:
            if width_hz <= 0.0 or not lo < hi:
                raise PeakAmbiguityError("no transparency window to measure")
            center, fwhm = extract_fwhm(signal, (lo, hi))
            entry.update(
                window_found=True,
                center_hz=center,
                fwhm_hz=fwhm,
                mechanical_frequency_hz=center - pump_hz,
            )
        except (PeakAmbiguityError, WindowTooNarrowError, InvalidInputError) as exc:
            entry.update(window_found=False, message=f"no window found: {exc}")
        windows.append(entry)

    report = {
        "pump_hz": pump_hz,
        "kappa_lc_tot_hz": angular_to_hz(kappa_lc_tot),
        "windows": windows,
    }
    write_json(_report_path(out), report)
    return EXIT_OK


def _report_path(out):
    base, _ = os.path.splitext(out)
    return base + ".report.json"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cavlink",
        description="Coupled cavity-LC response: simulate, fit, sweep, omit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "synthesize S21/S11 traces on a frequency grid",
        "fit": "fit a model to one or more trace files",
        "sweep": "scan a design knob and emit rates plus target verdicts",
        "omit": "synthesize a pump-probe transparency spectrum and report windows",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="INI config path")
        sp.add_argument("--out", required=True, help="output file path")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        choices = list(ALL_PRESETS) + (["all"] if name == "simulate" else [])
        sp.add_argument("--preset", choices=choices, default=None)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cp = load_config(args.config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if args.command == "simulate":
                return _cmd_simulate(cp, args.out, args.seed, args.preset)
            if args.command == "fit":
                return _cmd_fit(cp, args.out, args.seed, args.preset)
            if args.command == "sweep":
                return _cmd_sweep(cp, args.out, args.preset)
            return _cmd_omit(cp, args.out, args.preset)
    except TraceParseError as exc:
        print(f"cavlink: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CavlinkError as exc:
        print(f"cavlink: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cavlink: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(run())
