"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload hat_fit --seed 1 --seconds 25 --trace 0

Run from the root of a cavlink checkout; cavlink is imported from ``src``,
so nothing needs installing. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is the result object; the lines before it are a readable
summary. The full record (environment, failures, counts) is written to
``.bench_out/`` in the checkout. See bench/README.md for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hat_fit", "design_sweep", "cli_session", "dense_trace_io")
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
# Tail percentile per workload: the highest that leaves at least ten ops
# beyond it at the op rates measured when the benchmark was defined
# (see bench/README.md).
TAIL_PERCENTILE = {"hat_fit": 98, "design_sweep": 99, "cli_session": 60, "dense_trace_io": 80}
SETUP_SAMPLES = 3  # fresh worker set-ups per run; each metric is their median
PROBES = ("python_start_s", "import_numpy_s", "import_cavlink_s")
WORKER_TIMEOUT_S = 150


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[rank - 1], len(ordered) - rank


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, child_env, outdir, setup_only=False):
    """Start a worker; return its set-up times in seconds from spawn (to the
    start of its code, to numpy and cavlink imported, to READY) and its
    result, which is None for a set-up only worker."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--outdir", outdir]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=child_env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().split()
        setup = time.monotonic() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready[:1] != ["READY"] or proc.returncode != 0:
        fail(f"worker for {args.workload} exited with code {proc.returncode}")
    starts = [float(t) - t0 for t in ready[1:]]
    times = dict(zip(PROBES, starts), setup_s=setup)
    return times, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def environment(root, seed):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "cavlink")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavlink", "__init__.py")):
        fail("run from the root of a cavlink checkout: src/cavlink is missing")
    outdir = os.path.join(root, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    child_env = _child_env(root)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root, args.seed),
              "load_average_before": os.getloadavg()}
    setups = [run_worker(args, child_env, outdir, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, result = run_worker(args, child_env, outdir)
    setups.append(setup)
    record["load_average_after"] = os.getloadavg()
    record["setup_samples_s"] = setups
    probes = {k: statistics.median(s[k] for s in setups) for k in (*PROBES, "setup_s")}
    record["import_probes_s"] = probes

    timings = result.pop("timings")
    failures = result.pop("failures")
    known = result.pop("known_faults", [])
    attempted, failed = len(timings), len(failures)
    if args.trace:
        metrics = dict(result.pop("per_layer"))
        metrics.update({f"cli.{k}": probes[k] for k in PROBES})
        units = PER_LAYER
    else:
        tail, beyond = percentile(timings, TAIL_PERCENTILE[args.workload])
        metrics = {
            "ops_per_s": attempted / sum(timings),
            "op_p50_ms": 1e3 * statistics.median(timings),
            "op_tail_ms": 1e3 * tail,
            "setup_s": probes["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        record["tail"] = {"percentile": TAIL_PERCENTILE[args.workload],
                          "samples": attempted, "beyond": beyond}
    record.update(result)
    record["failures"] = failures
    record["known_faults"] = known
    record["metrics"] = metrics
    counts_ok = result.get("counts_repeat", True)
    correct = failed == 0 and counts_ok

    path = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    env = record["environment"]
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  load {record['load_average_before'][0]:.2f} -> "
          f"{record['load_average_after'][0]:.2f}  import probes "
          + "  ".join(f"{k} {probes[k]:.3f}" for k in PROBES))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}  failed_frac {failed / attempted:.4f}")
    if "tail" in record:
        t = record["tail"]
        print(f"op_tail_ms is p{t['percentile']} of {t['samples']} ops, {t['beyond']} beyond it")
    if args.trace:
        print(f"traced passes {result['passes']}, counts repeat across passes: {counts_ok}, "
              f"tracing overhead {metrics['trace.overhead_ratio']:.3f}x")
    by_reason = Counter(f"{label}: {re.sub(r'[-+]?[0-9][0-9.e+-]*', '#', why)}"
                        for label, why in failures)
    for reason, n in sorted(by_reason.items()):
        print(f"  failed x{n}  {reason}")
    if known:
        bad = [(label, why) for label, why in known if why]
        print(f"known cavlink fault, untimed and not in failed: {len(bad)} of {len(known)} "
              "normalized-power fits fail their check")
        for label, why in bad:
            print(f"  fault  {label}: {why}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"record written to {os.path.relpath(path, root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))


if __name__ == "__main__":
    main()
