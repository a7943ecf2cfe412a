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

import numpy as np

from .coupled_modes import (
    PARAM_FIELDS,
    RATE_FIELDS,
    SystemParams,
    effective_rates,
    s11,
    s21,
)
from .design import ALL_PRESETS, HAT_PRESETS, SweepSpec, SweepTargets, run_sweep
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
_MAX_HZ = angular_to_hz(sys.float_info.max)  # the largest value that is finite in rad/s


def _params_from_config(cp, preset_name) -> SystemParams:
    """[params] over the named preset; with no preset, rates default to 0 Hz
    and the frequencies are required."""
    if preset_name:
        defaults = ALL_PRESETS[preset_name].to_hz()
    else:
        defaults = {f"{name}_hz": 0.0 for name in RATE_FIELDS}
    return SystemParams(**{
        name: _angular(
            cp, "params", f"{name}_hz", "non-negative" if name in RATE_FIELDS else "positive",
            defaults.get(f"{name}_hz"),
        )
        for name in PARAM_FIELDS
    })


def _grid_from_config(cp) -> np.ndarray:
    if not cp.has_section("grid"):
        raise ConfigError("grid: missing required section")
    start, stop = (config_float(cp, "grid", key) for key in ("f_start_hz", "f_stop_hz"))
    for key, value in (("f_start_hz", start), ("f_stop_hz", stop)):
        if np.isinf(hz_to_angular(value)):
            raise _refused(cp, "grid", key, f"must be at most {_MAX_HZ:.3g} Hz in magnitude")
    points = config_int(cp, "grid", "points")
    if not start < stop:
        raise ConfigError("grid.f_stop_hz: must be greater than grid.f_start_hz")
    if points < 2:
        raise ConfigError("grid.points: a frequency grid needs at least 2 points")
    return np.linspace(start, stop, points)


def _suffixed(path, tag):
    base, ext = os.path.splitext(path)
    return f"{base}-{tag}{ext}"


def _refused(cp, section, key, why):
    """The ConfigError for the value under ``key``, quoted as written."""
    return ConfigError(f"{section}.{key}: {why}, got {config_str(cp, section, key)}")


def _checked(read, cp, section, key, rule, default=None):
    """``read(cp, section, key, default)``, refused unless it is ``rule``
    ("non-negative", "positive" or "in (0, 1)")."""
    value = read(cp, section, key, default)
    if not {"non-negative": value >= 0, "positive": value > 0, "in (0, 1)": 0 < value < 1}[rule]:
        raise _refused(cp, section, key, f"must be {rule}")
    return value


def _angular(cp, section, key, rule, default=None):
    """The ``_checked`` Hz value under ``key`` in rad/s, refused where that overflows."""
    value = hz_to_angular(_checked(config_float, cp, section, key, rule, default))
    if np.isinf(value):
        raise _refused(cp, section, key, f"must be at most {_MAX_HZ:.3g} Hz")
    return value


def _cmd_simulate(cp, out, seed, preset_name):
    presets = list(HAT_PRESETS) if preset_name == "all" else [preset_name]
    grid = _grid_from_config(cp)
    generators = {"s21": s21, "s11": s11}
    outputs = config_list(cp, "simulate", "outputs", default=["s21"])
    for i, name in enumerate(outputs):
        if name not in generators:
            raise ConfigError(f"simulate.outputs: unknown trace {name!r}")
        if name in outputs[:i]:
            raise ConfigError(f"simulate.outputs: trace {name!r} is listed twice")
    noise = _checked(config_float, cp, "simulate", "noise_amplitude", "non-negative", 0.0)

    written = []
    for i, pname in enumerate(presets):
        params = _params_from_config(cp, pname)
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
    free = config_list(cp, "fit", "free_params")
    bounds = {}
    for name in free:
        key = f"bound_{name}_hz"
        if cp.has_option("fit", key):
            pieces = config_str(cp, "fit", key).split(",")
            if len(pieces) != 2:
                raise ConfigError(f"fit.{key}: expected 'lo,hi'")
            try:
                bounds[name] = tuple(hz_to_angular(float(p)) for p in pieces)
            except ValueError:
                raise ConfigError(f"fit.{key}: bounds must be numbers") from None
    return FitConfig(
        free_params=tuple(free),
        initial_guess=guess,
        bounds=bounds,
        max_iterations=_checked(
            config_int, cp, "fit", "max_iterations", "positive", FitConfig.max_iterations
        ),
        tolerance=_checked(
            config_float, cp, "fit", "tolerance", "in (0, 1)", FitConfig.tolerance
        ),
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
    config = _fit_config_from(cp, _params_from_config(cp, preset_name))

    paths = config_list(cp, "fit", "traces", default=[])
    if not paths:
        paths = [config_str(cp, "fit", "trace")]
    runs = _checked(config_int, cp, "fit", "monte_carlo_runs", "non-negative", 0)
    noise = _checked(config_float, cp, "fit", "noise_amplitude", "non-negative", 0.0)

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
        stats = {}
        for name in config.free_params:
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
        items = config_list(cp, "sweep", "values_hz")
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


def _targets_from_config(cp) -> SweepTargets:
    """[sweep] target keys; each absent key keeps its SweepTargets default."""
    band_lo, band_hi = SweepTargets.coupling_band_hz
    return SweepTargets(
        coupling_band_hz=(
            config_float(cp, "sweep", "band_lo_hz", default=band_lo),
            config_float(cp, "sweep", "band_hi_hz", default=band_hi),
        ),
        **{
            name: config_float(cp, "sweep", name, default=getattr(SweepTargets, name))
            for name in ("omega_m_hz", "sideband_threshold", "max_dissipation_fraction")
        },
    )


def _cell(value) -> str:
    """One sweep CSV cell: numbers exact, flags as 0/1, absent values blank."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";")
    return format_float(value) if isinstance(value, float) else str(int(value))


def _cmd_sweep(cp, out, preset_name):
    field = config_str(cp, "sweep", "field")
    spec = SweepSpec(
        base_params=_params_from_config(cp, preset_name),
        swept_field=field,
        values_hz=_sweep_values(cp),
        targets=_targets_from_config(cp),
    )
    lines = ["# cavlink sweep", f"# field = {field}", ",".join(_SWEEP_COLUMNS)]
    for row in run_sweep(spec).rows:
        named = {"value_hz": row.value_hz, "valid": row.valid, "message": row.message}
        if row.valid:
            named.update(
                row.rates.to_hz(),
                in_coupling_band=row.in_coupling_band,
                sideband_resolved=row.sideband_resolved,
                dissipation_ok=row.dissipation_ok,
            )
        lines.append(",".join(_cell(named.get(name)) for name in _SWEEP_COLUMNS))
    write_text_atomic(out, "\n".join(lines) + "\n")
    return EXIT_OK


def _mode_index(section):
    try:
        return int(section.split(".", 1)[1])
    except ValueError:
        raise ConfigError(
            f"{section}: extra mode sections are named [mode.N] with an integer N"
        ) from None


def _modes_from_config(cp):
    """[omit] holds the first mode; [mode.2], [mode.3], ... add more. Each
    entry is ``(section, mode, key, value)``: the coupling_hz or gamma_e_hz
    key given and its value in rad/s, or ``(None, 0.0)`` where neither is."""
    sections = ["omit"]
    sections.extend(
        sorted((s for s in cp.sections() if s.startswith("mode.")), key=_mode_index)
    )
    entries = []
    for section in sections:
        mode = MechanicalMode(
            omega_m=_angular(cp, section, "omega_m_hz", "positive"),
            gamma_m=_angular(cp, section, "gamma_m_hz", "non-negative", 0.0),
        )
        given = [
            (key, _angular(cp, section, key, "non-negative"))
            for key in ("coupling_hz", "gamma_e_hz")
            if cp.has_option(section, key)
        ]
        if len(given) > 1:
            raise ConfigError(
                f"{section}: give coupling_hz or gamma_e_hz, not both"
            )
        key, value = given[0] if given else (None, 0.0)
        entries.append((section, mode, key, value))
    return entries


def _cmd_omit(cp, out, preset_name):
    params = _params_from_config(cp, preset_name)
    grid = _grid_from_config(cp)
    lc_shift = hz_to_angular(config_float(cp, "omit", "lc_shift_hz", default=0.0))
    if not 0.0 < params.omega_lc + lc_shift < np.inf:
        raise _refused(cp, "omit", "lc_shift_hz", "must keep the LC frequency positive and finite")
    extra_loss = _angular(cp, "omit", "lc_extra_loss_hz", "non-negative", 0.0)
    pumped = pumped_lc_params(params, lc_shift=lc_shift, lc_extra_loss=extra_loss)
    pump_offset = hz_to_angular(config_float(cp, "omit", "pump_offset_hz", default=0.0))
    kappa_lc_tot = effective_rates(pumped).kappa_lc_tot

    modes, couplings, gamma_es = [], [], []
    for section, mode, key, value in _modes_from_config(cp):
        coupling = coupling_for_damping(value, kappa_lc_tot) if key == "gamma_e_hz" else value
        finite = np.isfinite(coupling)
        gamma_e = electromechanical_damping(coupling, kappa_lc_tot) if finite else np.inf
        if np.isinf(gamma_e):
            raise _refused(cp, section, key, "must keep the coupling and its damping finite")
        modes.append(mode)
        couplings.append(coupling)
        gamma_es.append(gamma_e)

    omega_pump = lower_sideband_pump(pumped, modes[0]) + pump_offset
    if not (omega_pump > 0.0 and pump_offset < modes[0].omega_m):
        raise _refused(cp, "omit", "pump_offset_hz", "must keep the pump red-detuned, above 0 Hz")
    trace = multi_mode_omit(pumped, modes, couplings, omega_pump, grid)
    write_trace(out, trace)

    signal = transparency_signal(pumped, trace)
    pump_hz = angular_to_hz(omega_pump)
    windows = []
    for mode, gamma_e in zip(modes, gamma_es):
        width_hz = angular_to_hz(mode.gamma_m + gamma_e)
        predicted_hz = angular_to_hz(omega_pump + mode.omega_m)
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
        sp.add_argument("--seed", type=int, default=0, help="non-negative RNG seed")
        choices = list(ALL_PRESETS) + (["all"] if name == "simulate" else [])
        sp.add_argument("--preset", choices=choices, default=None)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
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
