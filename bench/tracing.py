"""Spans and exact counters recorded around calls into cavlink's public functions.

The modules bind names at import (``cli`` holds its own ``read_trace``,
``effective_rates`` calls the ``dressed_modes`` of its own module), so a
function is wrapped wherever it is bound: every cavlink module attribute that
is the original function object is replaced by the wrapper, and restored by
``uninstall``. Wrappers record only while ``active`` is set, which the worker
does around each timed op, so input generation and output checks are never
counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "coupled_modes": ("s21", "s11", "dressed_modes", "effective_rates"),
    "lineshape": ("fit_trace", "auto_initial_guess", "add_noise", "extract_fwhm",
                  "multi_trace_fit"),
    "design": ("run_sweep", "with_dressed_detuning", "find_target_detuning"),
    "electromechanics": ("multi_mode_omit", "transparency_signal"),
    "tracefile": ("write_trace", "read_trace", "write_json", "load_config"),
    "cli": ("run",),
}


def _after_model(counts, args, result):
    counts["coupled_modes.points_evaluated"] += len(result)


def _after_fit(counts, args, result):
    counts["lineshape.fit_iterations"] += result.iterations
    counts["lineshape.fit_accepted_steps"] += len(result.cost_trajectory) - 1


def _after_sweep(counts, args, result):
    counts["design.sweep_points"] += len(result.rows)
    counts["design.invalid_rows"] += sum(not row.valid for row in result.rows)


def _after_write(counts, args, result):
    counts["tracefile.write_trace.rows"] += len(args[1])
    counts["tracefile.write_trace.bytes"] += os.path.getsize(args[0])


def _after_read(counts, args, result):
    counts["tracefile.read_trace.rows"] += len(result)


AFTER = {
    "coupled_modes.s21": _after_model,
    "coupled_modes.s11": _after_model,
    "lineshape.fit_trace": _after_fit,
    "design.run_sweep": _after_sweep,
    "tracefile.write_trace": _after_write,
    "tracefile.read_trace": _after_read,
}


class Tracer:
    """In-memory span recorder with per-name busy time, self time and counts."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []   # (id, name, start, end, parent id, op id)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()  # "<name>.calls", "<ancestor>><name>", AFTER counters
        self._stack = []  # [span id, name, start, time covered by children]
        self._next_id = 0
        self._patched = []

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self.counts[f"{name}.calls"] += 1
        for ancestor in {frame[1] for frame in self._stack}:
            self.counts[f"{ancestor}>{name}"] += 1
        frame = [sid, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            self.busy[name] += duration
            self.self_time[name] += duration - frame[3]
            if self._stack:
                self._stack[-1][3] += duration
            self.spans.append((sid, name, frame[2], end, parent, self.op))
        after = AFTER.get(name)
        if after is not None:
            after(self.counts, args, result)
        return result

    def install(self):
        cavlink_modules = [m for n, m in sys.modules.items()
                           if m is not None and (n == "cavlink" or n.startswith("cavlink."))]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"cavlink.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for module in cavlink_modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def write_spans(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def _ratio(num, den):
    return num / den if den else 0.0


_CALLS = ("coupled_modes.s21", "coupled_modes.s11", "coupled_modes.dressed_modes",
          "coupled_modes.effective_rates", "lineshape.fit_trace", "design.run_sweep",
          "design.with_dressed_detuning", "design.find_target_detuning",
          "electromechanics.multi_mode_omit", "tracefile.write_trace",
          "tracefile.read_trace", "cli.run")
_SELF = ("coupled_modes.s21", "coupled_modes.s11", "coupled_modes.dressed_modes",
         "coupled_modes.effective_rates", "lineshape.fit_trace",
         "lineshape.auto_initial_guess", "lineshape.add_noise", "lineshape.extract_fwhm",
         "design.run_sweep", "electromechanics.multi_mode_omit", "cli.run")
_BUSY = ("lineshape.fit_trace", "lineshape.multi_trace_fit", "design.run_sweep",
         "design.with_dressed_detuning", "electromechanics.transparency_signal",
         "tracefile.write_trace", "tracefile.read_trace", "tracefile.write_json",
         "tracefile.load_config")

#: Every per-layer metric and its unit. Counts are per traced pass and repeat
#: exactly for a seed; times are seconds per traced pass.
PER_LAYER = dict(
    [(f"{n}.calls", "count") for n in _CALLS]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [(f"{n}.busy_s", "s") for n in _BUSY]
    + [
        ("coupled_modes.points_evaluated", "count"),
        ("lineshape.model_evals_per_fit", "evals/fit"),
        ("lineshape.iterations_per_fit", "iters/fit"),
        ("lineshape.accepted_steps_per_fit", "steps/fit"),
        ("lineshape.accepted_steps_per_model_eval", "ratio"),
        ("design.sweep_points", "count"),
        ("design.invalid_rows", "count"),
        ("design.dressed_modes_per_inversion", "calls/inv"),
        ("tracefile.write_trace.bytes", "bytes"),
        ("tracefile.read_trace.rows", "rows"),
        ("tracefile.read_rows_per_s", "rows/s"),
        ("tracefile.write_rows_per_s", "rows/s"),
        ("cli.python_start_s", "s"),
        ("cli.import_numpy_s", "s"),
        ("cli.import_cavlink_s", "s"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.traced_ops_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def layer_counts(c):
    """Exact counters of one traced pass, from its Counter."""
    fits = c["lineshape.fit_trace.calls"]
    evals = c["lineshape.fit_trace>coupled_modes.s21"] + c["lineshape.fit_trace>coupled_modes.s11"]
    out = {f"{n}.calls": c[f"{n}.calls"] for n in _CALLS}
    out.update({
        "coupled_modes.points_evaluated": c["coupled_modes.points_evaluated"],
        "lineshape.model_evals_per_fit": _ratio(evals, fits),
        "lineshape.iterations_per_fit": _ratio(c["lineshape.fit_iterations"], fits),
        "lineshape.accepted_steps_per_fit": _ratio(c["lineshape.fit_accepted_steps"], fits),
        "lineshape.accepted_steps_per_model_eval": _ratio(c["lineshape.fit_accepted_steps"], evals),
        "design.sweep_points": c["design.sweep_points"],
        "design.invalid_rows": c["design.invalid_rows"],
        "design.dressed_modes_per_inversion": _ratio(
            c["design.with_dressed_detuning>coupled_modes.dressed_modes"],
            c["design.with_dressed_detuning.calls"]),
        "tracefile.write_trace.bytes": c["tracefile.write_trace.bytes"],
        "tracefile.read_trace.rows": c["tracefile.read_trace.rows"],
    })
    return out


def layer_times(tracer, passes, c):
    """Busy and self seconds per traced pass, and the row rates of trace files,
    given the Counter ``c`` of one pass."""
    out = {f"{n}.self_s": tracer.self_time.get(n, 0.0) / passes for n in _SELF}
    out.update({f"{n}.busy_s": tracer.busy.get(n, 0.0) / passes for n in _BUSY})
    out["tracefile.read_rows_per_s"] = _ratio(
        c["tracefile.read_trace.rows"], out["tracefile.read_trace.busy_s"])
    out["tracefile.write_rows_per_s"] = _ratio(
        c["tracefile.write_trace.rows"], out["tracefile.write_trace.busy_s"])
    return out
