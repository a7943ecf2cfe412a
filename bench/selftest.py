"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

Run from the root of a cavlink checkout. It checks that every workload
prints every metric named in BENCHMARK.json with its unit, in both modes;
that two traced runs with one seed give identical counts; that the output
checks reject a trace file with one flipped digit and a fit whose g is 10
sigma off, so that a zero failure count cannot pass vacuously; and that the
benchmark refuses to run where there is no cavlink source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from cavlink import tracefile  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
problems = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def run(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics(spec):
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            proc = run(w["name"], mode)
            if proc.returncode != 0:
                expect(False, f"{w['name']} trace {mode} exits {proc.returncode}: {proc.stderr[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            values = [m["value"] for m in res["metrics"].values()]
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}
                   and got == wanted and res["attempted"] >= 1
                   and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{w['name']} trace {mode}: every {key} metric present with its unit")


def check_counts_repeat():
    counts = []
    for _ in range(2):
        proc = run("design_sweep", 1, seed=7)
        with open(os.path.join(ROOT, ".bench_out", "design_sweep-seed7-trace1.json")) as handle:
            counts.append(json.load(handle)["counts"])
        expect(proc.returncode == 0 and "counts repeat across passes: True" in proc.stdout,
               "traced counts repeat across passes within a run")
    expect(counts[0] == counts[1] and counts[0], "two traced runs with one seed give identical counts")


def check_rejects_flipped_digit():
    wl = workloads.DenseTraceIO(3, os.path.join(SCRATCH, "dense"))
    s21, _ = wl.make_input(0)
    path, scratch = wl.paths[0], wl.paths[2]
    tracefile.write_trace(path, s21)
    with open(path) as handle:
        lines = handle.read().split("\n")
    row = lines[10]
    i = max(k for k, ch in enumerate(row) if ch.isdigit() and 0 < k and row[k - 1].isdigit())
    lines[10] = row[:i] + str((int(row[i]) + 1) % 10) + row[i + 1:]
    with open(path, "w") as handle:
        handle.write("\n".join(lines))
    read = tracefile.read_trace(path)
    expect(workloads.roundtrip_failure(s21, read, path, scratch) is not None,
           "trace check rejects a file with one flipped digit")
    wl.close()


def check_rejects_g_off():
    wl = workloads.HatFit(5)
    inp = wl.make_input(0)  # complex S21 on hat238
    result = wl.run_op(inp)
    expect(wl.check(inp, result) is None, "an honest S21 fit passes its check")
    sigma = 2.0 * math.pi * result.uncertainties["g"]
    off = dataclasses.replace(result, params=result.params.replace(g=result.params.g + 10 * sigma))
    expect(wl.check(inp, off) is not None, "fit check rejects g 10 sigma off")


def check_refuses_without_source():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("hat_fit", 0, cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "refuses to run without the cavlink source, printing no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(SCRATCH, exist_ok=True)
    check_rejects_flipped_digit()
    check_rejects_g_off()
    check_refuses_without_source()
    check_counts_repeat()
    check_metrics(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
