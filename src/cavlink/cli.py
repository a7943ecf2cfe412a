"""Command-line front end: simulate, fit, sweep, omit.

Every subcommand reads one INI config (see README for the key reference),
writes its results atomically, and uses Hz for every number that crosses the
process boundary. Exit codes: 0 success, 2 config problem, 3 file I/O
problem, 4 trace parse problem, 5 fit did not converge (report still
written).
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
import warnings

import numpy as np

from .coupled_modes import (
    DERIVED_RATE_KEYS,
    PARAM_FIELDS,
    RATE_FIELDS,
    SystemParams,
    _PARAM_RULE,
    dressed_modes,
    effective_rates,
    s11,
    s21,
)
from .design import ALL_PRESETS, HAT_PRESETS, SWEEPABLE_FIELDS, SweepSpec, SweepTargets, run_sweep
from .electromechanics import (
    MechanicalMode,
    coupling_for_damping,
    electromechanical_damping,
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
    _RULES,
)
from .lineshape import FitConfig, add_noise, extract_fwhm, fit_trace, multi_trace_fit
from .tracefile import (
    format_float,
    load_config,
    read_trace,
    write_json,
    write_text_atomic,
    write_trace,
)
from .units import angular_to_hz, hz_to_angular

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_NONCONVERGENCE = 5
_MAX_HZ = angular_to_hz(sys.float_info.max)  # the largest value that is finite in rad/s
_REQUIRED = object()  # the default of a key that must be given

# One key table per command: section -> key -> (type, rule, default); a rule names
# an errors._RULES entry. Types: "rad/s"
# (written in Hz, read in rad/s), "Hz" (kept in Hz, finite in rad/s), float, int,
# str, list. An absent key reads as its default, and --preset gives those of
# [params], which is read into a SystemParams. "mode.N" is every [mode.<integer>].
_PARAMS = {f"{name}_hz": ("rad/s", _PARAM_RULE[name], 0.0 if name in RATE_FIELDS else _REQUIRED)
           for name in PARAM_FIELDS}
_GRID = {"f_start_hz": ("Hz", None, _REQUIRED), "f_stop_hz": ("Hz", None, _REQUIRED),
         "points": (int, None, _REQUIRED)}
_MODE = {"omega_m_hz": ("rad/s", "positive", _REQUIRED),
         "gamma_m_hz": ("rad/s", "non-negative", 0.0),
         "coupling_hz": ("rad/s", "non-negative", 0.0),
         "gamma_e_hz": ("rad/s", "non-negative", None)}
_TARGETS = ("omega_m_hz", "sideband_threshold", "max_dissipation_fraction")
_TABLES = {
    "simulate": {"grid": _GRID, "params": _PARAMS, "simulate": {
        "outputs": (list, None, ["s21"]),
        "noise_amplitude": (float, "non-negative", 0.0),
    }},
    "fit": {"params": _PARAMS, "fit": {
        "free_params": (list, None, _REQUIRED),
        "trace": (str, None, _REQUIRED),
        "traces": (list, None, None),
        "shared": (list, None, []),
        **{f"bound_{name}_hz": (str, None, None) for name in PARAM_FIELDS},
        "max_iterations": (int, "positive", FitConfig.max_iterations),
        "tolerance": (float, "in (0, 1)", FitConfig.tolerance),
        "monte_carlo_runs": (int, "non-negative", 0),
        "noise_amplitude": (float, "non-negative", 0.0),
    }},
    "sweep": {"params": _PARAMS, "sweep": {
        "field": (str, None, _REQUIRED),
        "values_hz": (list, None, None),
        "start_hz": (float, None, _REQUIRED),
        "stop_hz": (float, None, _REQUIRED),
        "points": (int, None, _REQUIRED),
        "band_lo_hz": (float, "non-negative", SweepTargets.coupling_band_hz[0]),
        "band_hi_hz": (float, "non-negative", SweepTargets.coupling_band_hz[1]),
        "omega_m_hz": ("Hz", "positive", SweepTargets.omega_m_hz),
        "sideband_threshold": (float, "positive", SweepTargets.sideband_threshold),
        "max_dissipation_fraction": (float, "in [0, 1]", SweepTargets.max_dissipation_fraction),
    }},
    "omit": {"params": _PARAMS, "grid": _GRID, "omit": {
        **_MODE,
        "lc_shift_hz": ("rad/s", None, 0.0),
        "lc_extra_loss_hz": ("rad/s", "non-negative", 0.0),
        "pump_offset_hz": ("rad/s", None, 0.0),
    }, "mode.N": _MODE},
}
# Key -> its alternative, or a key whose run would drop it: a section may give
# one or neither, not both.
_EITHER = {"trace": "traces", "monte_carlo_runs": "traces", "noise_amplitude": "traces",
           "shared": "trace", "start_hz": "values_hz", "stop_hz": "values_hz",
           "points": "values_hz", "coupling_hz": "gamma_e_hz"}


def _refused(cp, section, key, why):
    """The ConfigError for the value under ``key``, quoted as written."""
    return ConfigError(f"{section}.{key}: {why}, got {cp.get(section, key)}")


def _unknown(where, name, what, known):
    """The ConfigError for an unknown section or key, naming the closest known one."""
    (closest,) = difflib.get_close_matches(name, known, n=1, cutoff=0.0)
    return ConfigError(f"{where}: unknown {what}; did you mean {closest!r}?")


def _value(cp, section, key, kind, rule, default):
    """The value under ``key`` read as ``kind`` and held to ``rule``, or ``default``."""
    if not cp.has_option(section, key):
        if default is not _REQUIRED:
            return default
        if key in _EITHER and cp.has_option(section, _EITHER[key]):
            return None
        raise ConfigError(f"{section}.{key}: missing required value")
    raw = cp.get(section, key)
    if kind is str:
        return raw
    if kind is list:
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if not (items or isinstance(default, list)):
            raise ConfigError(f"{section}.{key}: must list at least one value")
        return items or default
    try:
        value = int(raw) if kind is int else float(raw)
    except ValueError:
        a = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key}: {raw!r} is not {a}") from None
    if not _RULES["finite"](value):
        raise ConfigError(f"{section}.{key}: must be finite")
    if rule and not _RULES[rule](value):
        raise _refused(cp, section, key, f"must be {rule}")
    if kind in ("rad/s", "Hz") and not _RULES["finite"](hz_to_angular(value)):
        magnitude = "" if rule else " in magnitude"
        raise _refused(cp, section, key, f"must be at most {_MAX_HZ:.3g} Hz{magnitude}")
    return hz_to_angular(value) if kind == "rad/s" else value


def _mode_index(section):
    try:
        return int(section.split(".", 1)[1])
    except ValueError:
        raise ConfigError(
            f"{section}: extra mode sections are named [mode.N] with an integer N"
        ) from None


def _read(cp, table, preset=None):
    """``{section: {key: value}}`` for every key of a command's ``table``; a
    section or key the table lacks is a ConfigError naming the closest known one."""
    modes = [s for s in cp.sections() if s.startswith("mode.")]
    for section in cp.sections():
        rows = table.get("mode.N" if section in modes else section)
        if rows is None:
            raise _unknown(section, section, "section", table)
        for key in cp.options(section):
            if key not in rows:
                raise _unknown(f"{section}.{key}", key, "key", rows)
    values = {}
    for section in [s for s in table if s != "mode.N"] + sorted(modes, key=_mode_index):
        rows = table["mode.N" if section in modes else section]
        if section == "params" and preset:
            rows = {key: (kind, rule, getattr(ALL_PRESETS[preset], key[:-3]))
                    for key, (kind, rule, _) in rows.items()}
        if not cp.has_section(section) and all(row[2] is _REQUIRED for row in rows.values()):
            raise ConfigError(f"{section}: missing required section")
        values[section] = {key: _value(cp, section, key, *row) for key, row in rows.items()}
        for a, b in _EITHER.items():
            if cp.has_option(section, a) and cp.has_option(section, b):
                raise ConfigError(f"{section}: give {a} or {b}, not both")
    values["params"] = SystemParams(**{key[:-3]: v for key, v in values["params"].items()})
    return values


def _grid(grid) -> np.ndarray:
    if not grid["f_start_hz"] < grid["f_stop_hz"]:
        raise ConfigError("grid.f_stop_hz: must be greater than grid.f_start_hz")
    if grid["points"] < 2:
        raise ConfigError("grid.points: a frequency grid needs at least 2 points")
    return np.linspace(grid["f_start_hz"], grid["f_stop_hz"], grid["points"])


def _suffixed(path, tag):
    base, ext = os.path.splitext(path)
    return f"{base}-{tag}{ext}"


def _cmd_simulate(cp, out, seed, preset_name):
    presets = list(HAT_PRESETS) if preset_name == "all" else [preset_name]
    configs = [_read(cp, _TABLES["simulate"], pname) for pname in presets]
    grid = _grid(configs[0]["grid"])
    generators = {"s21": s21, "s11": s11}
    outputs = configs[0]["simulate"]["outputs"]
    for i, name in enumerate(outputs):
        if name not in generators:
            raise ConfigError(f"simulate.outputs: unknown trace {name!r}")
        if name in outputs[:i]:
            raise ConfigError(f"simulate.outputs: trace {name!r} is listed twice")
    noise = configs[0]["simulate"]["noise_amplitude"]
    if not all(_RULES["finite"](values["params"].g * values["params"].g) for values in configs):
        raise _refused(cp, "params", "g_hz", "must keep g^2 finite in (rad/s)^2")

    written = []
    for i, (pname, values) in enumerate(zip(presets, configs)):
        for kind in outputs:
            trace = generators[kind](values["params"], grid)
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


def _fit_config_from(fit, guess: SystemParams) -> FitConfig:
    bounds = {}
    for name in PARAM_FIELDS:
        key = f"bound_{name}_hz"
        if fit[key] is None:
            continue
        if name not in fit["free_params"]:
            raise ConfigError(f"fit.{key}: {name} is not in fit.free_params")
        pieces = fit[key].split(",")
        if len(pieces) != 2:
            raise ConfigError(f"fit.{key}: expected 'lo,hi'")
        try:
            lo, hi = (float(p) for p in pieces)
        except ValueError:
            raise ConfigError(f"fit.{key}: bounds must be numbers") from None
        if not lo < hi:
            raise ConfigError(f"fit.{key}: must satisfy lo < hi, got {fit[key]}")
        if not _RULES[_PARAM_RULE[name]](lo):
            raise ConfigError(f"fit.{key}: lo must be {_PARAM_RULE[name]}, got {fit[key]}")
        lo, hi = bounds[name] = hz_to_angular(lo), hz_to_angular(hi)
        if not _RULES["finite"](lo):
            raise ConfigError(f"fit.{key}: lo must be at most {_MAX_HZ:.3g} Hz, got {fit[key]}")
        if not lo <= getattr(guess, name) <= hi:  # in rad/s, as FitConfig tests it
            start = angular_to_hz(getattr(guess, name))
            raise ConfigError(f"fit.{key}: must hold the start {start!r} Hz, got {fit[key]}")
    return FitConfig(
        free_params=tuple(fit["free_params"]),
        initial_guess=guess,
        bounds=bounds,
        max_iterations=fit["max_iterations"],
        tolerance=fit["tolerance"],
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
    values = _read(cp, _TABLES["fit"], preset_name)
    fit = values["fit"]
    config = _fit_config_from(fit, values["params"])
    runs, noise = fit["monte_carlo_runs"], fit["noise_amplitude"]
    if (runs > 0) != (noise > 0.0):  # runs alone repeat one fit; noise alone is dropped
        raise ConfigError("fit: give monte_carlo_runs and noise_amplitude both above 0 "
                          f"or neither, got {runs} and {noise!r}")

    if fit["traces"] is not None:
        if len(fit["traces"]) < 2:
            raise ConfigError("fit.traces: list at least two files; give one as fit.trace")
        if not fit["shared"]:
            raise ConfigError("fit.shared: required for multi-trace fits")
        for name in fit["shared"]:
            if name not in config.free_params:
                raise ConfigError(f"fit.shared: {name} is not in fit.free_params")
        traces = [read_trace(p) for p in fit["traces"]]
        multi = multi_trace_fit(traces, tuple(fit["shared"]), config)
        report = {
            "combined": _fit_report(multi.combined, config),
            "per_trace": [_fit_report(r, config) for r in multi.per_trace],
            "shared_means_hz": {
                k: angular_to_hz(v) for k, v in multi.shared_means.items()
            },
            "shared_std_errors_hz": dict(multi.combined.uncertainties),
            "consistent": dict(multi.consistent),
        }
        converged = multi.combined.converged
    elif runs > 0:
        trace = read_trace(fit["trace"])
        run_reports = [_fit_report(fit_trace(add_noise(trace, noise, seed + k), config), config)
                       for k in range(runs)]
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
        converged = all(r["converged"] for r in run_reports)
    else:
        result = fit_trace(read_trace(fit["trace"]), config)
        report, converged = _fit_report(result, config), result.converged
    write_json(out, report)
    return EXIT_OK if converged else EXIT_NONCONVERGENCE


def _sweep_values(sweep) -> tuple:
    if sweep["values_hz"] is not None:
        try:
            return tuple(float(v) for v in sweep["values_hz"])
        except ValueError:
            raise ConfigError("sweep.values_hz: entries must be numbers") from None
    if sweep["points"] < 1:
        raise ConfigError("sweep.points: must be at least 1")
    return tuple(np.linspace(sweep["start_hz"], sweep["stop_hz"], sweep["points"]))


def _cell(value) -> str:
    """One sweep CSV cell: numbers exact, flags as 0/1, absent values blank."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";")
    return format_float(value) if isinstance(value, float) else str(int(value))


def _cmd_sweep(cp, out, preset_name):
    values = _read(cp, _TABLES["sweep"], preset_name)
    sweep = values["sweep"]
    if sweep["field"] not in SWEEPABLE_FIELDS:
        raise _unknown("sweep.field", sweep["field"].lower(), "field", SWEEPABLE_FIELDS)
    if not sweep["band_lo_hz"] < sweep["band_hi_hz"]:
        raise ConfigError("sweep.band_hi_hz: must be greater than sweep.band_lo_hz")
    spec = SweepSpec(
        base_params=values["params"],
        swept_field=sweep["field"],
        values_hz=_sweep_values(sweep),
        targets=SweepTargets(
            coupling_band_hz=(sweep["band_lo_hz"], sweep["band_hi_hz"]),
            **{name: sweep[name] for name in _TARGETS},
        ),
    )
    verdicts = ("in_coupling_band", "sideband_resolved", "dissipation_ok")
    header = ("value_hz", "valid", *DERIVED_RATE_KEYS, *verdicts, "message")
    lines = ["# cavlink sweep", f"# field = {sweep['field']}", ",".join(header)]
    for row in run_sweep(spec).rows:
        middle = [None] * (len(header) - 3)  # an invalid row's rates and verdicts are blank
        if row.valid:
            middle = [*row.rates.to_hz().values(), *(getattr(row, v) for v in verdicts)]
        lines.append(",".join(_cell(c) for c in (row.value_hz, row.valid, *middle, row.message)))
    write_text_atomic(out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_omit(cp, out, preset_name):
    values = _read(cp, _TABLES["omit"], preset_name)
    params, grid, omit = values["params"], _grid(values["grid"]), values["omit"]
    if not _RULES["positive"](params.omega_lc + omit["lc_shift_hz"]):
        raise _refused(cp, "omit", "lc_shift_hz", "must keep the LC frequency positive and finite")
    pumped = pumped_lc_params(
        params, lc_shift=omit["lc_shift_hz"], lc_extra_loss=omit["lc_extra_loss_hz"]
    )
    dressed = dressed_modes(pumped)
    kappa_lc_tot = effective_rates(pumped, delta_eff=dressed.delta_eff).kappa_lc_tot

    modes, couplings, gamma_es = [], [], []
    # [omit] holds the first mode; [mode.2], [mode.3], ... add more, in index order.
    for section in ["omit", *(s for s in values if s.startswith("mode."))]:
        entry = values[section]
        key = "coupling_hz" if entry["gamma_e_hz"] is None else "gamma_e_hz"
        coupling = entry[key]
        if key == "gamma_e_hz":
            coupling = coupling_for_damping(coupling, kappa_lc_tot)
        finite = _RULES["finite"](coupling)
        gamma_e = electromechanical_damping(coupling, kappa_lc_tot) if finite else np.inf
        if not _RULES["finite"](gamma_e):
            why = "must keep the coupling and its damping finite"
            if key == "gamma_e_hz" and omit["lc_extra_loss_hz"] > 0.0:  # it widens kappa_lc_tot
                why += f" with omit.lc_extra_loss_hz = {cp.get('omit', 'lc_extra_loss_hz')}"
            raise _refused(cp, section, key, why)
        modes.append(MechanicalMode(omega_m=entry["omega_m_hz"], gamma_m=entry["gamma_m_hz"]))
        couplings.append(coupling)
        gamma_es.append(gamma_e)

    omega_pump = dressed.omega_lc - modes[0].omega_m + omit["pump_offset_hz"]
    if not (_RULES["positive"](omega_pump) and omit["pump_offset_hz"] < modes[0].omega_m):
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
    if not _RULES["non-negative"](args.seed):
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
