"""One workload process: set up, signal readiness, run timed ops, report.

Started by run.py in a fresh interpreter with cavlink's ``src`` on the path.
It prints ``READY`` with the monotonic times at which the interpreter started
running this file, finished importing numpy and finished importing cavlink,
once set-up (imports and input generation) is done, just before the first
timed op. At the end it prints one JSON line with the raw results.

Untraced (``--trace 0``): a closed loop with one client runs whole passes of
ops until ``--seconds`` of wall time have passed; each op is timed alone, and
its output is checked after its timer stops.

Traced (``--trace 1``): the workload's fixed pass (ops 0..pass_ops-1) runs
alternately without and with the tracer until ``--seconds`` have passed, at
least once each. Every traced pass must produce the same counts.

A workload with a known cavlink fault (``known_faults``) runs its probe of
that fault after the timed ops; the result is reported apart from the ops.
"""

from __future__ import annotations

import time

# Fresh-interpreter probes: run.py subtracts its spawn time from these.
T_START = time.monotonic()
import numpy  # noqa: E402, F401
T_NUMPY = time.monotonic()
import cavlink  # noqa: E402, F401
T_CAVLINK = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run_one(wl, i, timings, failures, tracer=None):
    inp = wl.make_input(i)
    if tracer is not None:
        tracer.op, tracer.active = i, True
    t0 = time.perf_counter()
    try:
        out = wl.run_op(inp)
        why = None
    except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
        why = f"raised {type(exc).__name__}: {exc}"
    timings.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.active = False
    if why is None:
        why = wl.check(inp, out)
    if why is not None:
        failures.append((wl.label(inp), why))


def _measure(wl, seconds):
    # Stop at the first whole pass after the deadline, so that every run has
    # the same mix of op kinds and sizes.
    timings, failures = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        _run_one(wl, i, timings, failures)
        i += 1
        if i % wl.pass_ops == 0 and time.perf_counter() >= deadline:
            return dict(timings=timings, failures=failures)


def _measure_traced(wl, seconds, spans_path):
    tracer = tracing.Tracer()
    tracer.install()
    plain, traced, failures = [], [], []
    pass_counts = []
    deadline = time.perf_counter() + seconds
    try:
        while not pass_counts or time.perf_counter() < deadline:
            for i in range(wl.pass_ops):
                _run_one(wl, i, plain, failures)
            before = tracer.counts.copy()
            for i in range(wl.pass_ops):
                _run_one(wl, i, traced, failures, tracer)
            pass_counts.append(tracer.counts - before)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    counts = pass_counts[0]
    metrics = tracing.layer_counts(counts)
    metrics.update(tracing.layer_times(tracer, len(pass_counts), counts))
    metrics["trace.untraced_ops_per_s"] = len(plain) / sum(plain)
    metrics["trace.traced_ops_per_s"] = len(traced) / sum(traced)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    return dict(
        timings=plain + traced,
        failures=failures,
        per_layer=metrics,
        passes=len(pass_counts),
        counts_repeat=all(c == counts for c in pass_counts),
        counts=dict(sorted(counts.items())),
        spans=len(tracer.spans),
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    # Validity warnings are expected on purpose-built invalid inputs; the CLI
    # silences them the same way.
    warnings.simplefilter("ignore")
    workdir = os.path.join(args.outdir, f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, workdir, inprocess=bool(args.trace))
    print(f"READY {T_START!r} {T_NUMPY!r} {T_CAVLINK!r}", flush=True)
    if args.setup_only:
        getattr(wl, "close", lambda: None)()
        return

    try:
        if args.trace:
            spans = os.path.join(args.outdir, f"{args.workload}-seed{args.seed}-spans.json")
            result = _measure_traced(wl, args.seconds, spans)
            result["spans_file"] = spans
        else:
            result = _measure(wl, args.seconds)
        if hasattr(wl, "known_faults"):
            result["known_faults"] = wl.known_faults()
    finally:
        getattr(wl, "close", lambda: None)()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" and not args.trace \
        else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
