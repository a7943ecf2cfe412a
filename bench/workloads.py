"""The four benchmark workloads: input generation, one op, and its output check.

Every workload is built from a seed and knows nothing of timing. ``make_input(i)``
returns the inputs of op ``i`` (deterministic in seed and ``i``), ``run_op`` hands
them to cavlink and returns what cavlink produced, and ``check`` returns ``None``
for a correct output or a one-line failure reason.

cavlink functions are always looked up through their module at call time
(``lineshape.fit_trace``, never a name bound at import), so the tracer in
``tracing.py`` sees every call it wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from cavlink import cli, coupled_modes, design, lineshape, tracefile
from cavlink.errors import NoSolutionError

TWO_PI = 2.0 * math.pi
HAT_NAMES = ("hat238", "hat270", "hat300", "hat316")
FREE5 = ("omega_cav", "omega_lc", "kappa_cav_1", "kappa_lc_bare", "g")
FREE4 = ("omega_cav", "omega_lc", "kappa_lc_bare", "g")
SNR = 100.0        # amplitude signal-to-noise ratio of every synthetic trace
G_START = 1.05     # fits start with g 5% above the truth
# A fitted parameter passes within this many sigma of the truth. At 5 sigma a
# correct fit failed (see bench/README.md, Failures).
SIGMA_LIMIT = 6.0


def _op_seed(seed, i):
    return (seed * 1_000_003 + i) % (2**32)


# -- physics the benchmark computes itself, so inputs do not depend on cavlink --

def dressed_hz(p):
    """(cavity-like, LC-like) dressed frequencies in Hz from the 2x2 mode matrix."""
    m = np.array(
        [[p.omega_cav - 0.5j * p.kappa_cav_tot, p.g],
         [p.g, p.omega_lc - 0.5j * p.kappa_lc_bare]]
    )
    lam = np.linalg.eigvals(m)
    cav = int(np.argmin(np.abs(lam.real - p.omega_cav)))
    return lam[cav].real / TWO_PI, lam[1 - cav].real / TWO_PI


def kappa_lc_tot_hz(p):
    f_cav, f_lc = dressed_hz(p)
    delta = TWO_PI * (f_cav - f_lc)
    ktot = p.kappa_cav_tot
    return (p.kappa_lc_bare + ktot * p.g**2 / (delta**2 + 0.25 * ktot**2)) / TWO_PI


def merged_grid(p):
    """Coarse grid over the cavity peak plus a dense grid over the LC line."""
    f_cav, f_lc = dressed_hz(p)
    k_cav = p.kappa_cav_tot / TWO_PI
    k_lc = kappa_lc_tot_hz(p)
    coarse = np.arange(f_cav - 4.0 * k_cav, f_cav + 4.0 * k_cav, 0.02 * k_cav)
    dense = np.arange(f_lc - 8.0 * k_lc, f_lc + 8.0 * k_lc, k_lc / 24.0)
    return np.unique(np.concatenate([coarse, dense]))


def fit_failure(result, truth, free):
    """Why a fit fails its check, or None: it must converge, and every free
    parameter must have sigma > 0 and lie within SIGMA_LIMIT sigma of the truth."""
    if not result.converged:
        return "not converged"
    stuck = [n for n in free if result.uncertainties[n] == 0.0]
    if stuck:
        return "sigma 0 for " + ", ".join(
            f"{n} = {getattr(result.params, n) / TWO_PI:.4g} Hz" for n in stuck)
    z = {n: (getattr(result.params, n) - getattr(truth, n)) / (TWO_PI * result.uncertainties[n])
         for n in free}
    off = [n for n in free if abs(z[n]) > SIGMA_LIMIT]
    if off:
        return f"beyond {SIGMA_LIMIT:g} sigma of truth: " + ", ".join(
            f"{n} ({z[n]:+.1f})" for n in off)
    return None


def shared_failure(mean_hz, sigmas_hz, truth_hz):
    """Why a joint fit's shared g fails its check, or None. The mean is judged
    against the standard error expected from the member sigmas; the scatter of
    a few members is too rough for a 5-sigma test."""
    z = (mean_hz - truth_hz) * len(sigmas_hz) / math.sqrt(sum(s * s for s in sigmas_hz))
    return f"joint shared g {z:+.1f} sigma from truth" if abs(z) > SIGMA_LIMIT else None


class HatFit:
    """Monte Carlo parameter recovery on the four hats (one fit per op)."""

    name = "hat_fit"
    # One cycle: each hat as two complex S21 draws and one complex S11 draw,
    # then one joint fit of all four S21 traces. S11 fits take about half as
    # long as S21 fits; with as many of each, the median would fall in the gap
    # between the two kinds, where a small shift moves it far.
    CYCLE = tuple((k, h) for h in HAT_NAMES for k in ("s21", "s11", "s21")) + (("multi", None),)
    pass_ops = len(CYCLE)
    # Normalized-power fits are a known cavlink fault (see bench/README.md):
    # they are not timed ops, but every run fits this many draws per hat
    # after its timed ops and reports how many fail their check.
    FAULT_DRAWS = 4

    def __init__(self, seed):
        self.seed = seed
        self.cases = {}
        for h in HAT_NAMES:
            truth = design.HAT_PRESETS[h]
            grid = merged_grid(truth)
            clean21 = coupled_modes.s21(truth, grid)
            clean11 = coupled_modes.s11(truth, grid)
            template = truth.replace(g=truth.g * G_START)
            k_lc = TWO_PI * kappa_lc_tot_hz(truth)
            self.cases[h] = dict(
                truth=truth,
                clean21=clean21,
                clean11=clean11,
                amp21=float(np.max(np.abs(clean21.values))) / SNR,
                amp11=float(np.max(np.abs(clean11.values))) / SNR,
                template=template,
                # auto_initial_guess finds no peak in a reflection dip, so S11
                # fits start from the template with both frequencies moved.
                s11_starts=[
                    template.replace(
                        omega_cav=truth.omega_cav + sc * 0.05 * truth.kappa_cav_tot,
                        omega_lc=truth.omega_lc + sl * 0.2 * k_lc,
                    )
                    for sc in (-1, 1) for sl in (-1, 1)
                ],
            )
        first = design.HAT_PRESETS[HAT_NAMES[0]]
        self.multi_template = first.replace(g=first.g * G_START)

    def make_input(self, i):
        kind, hat = self.CYCLE[i % len(self.CYCLE)]
        return dict(kind=kind, hat=hat, seed=_op_seed(self.seed, i))

    def run_op(self, inp):
        kind, seed = inp["kind"], inp["seed"]
        if kind == "multi":
            traces = [
                lineshape.add_noise(c["clean21"], c["amp21"], seed + k)
                for k, c in enumerate(self.cases[h] for h in HAT_NAMES)
            ]
            config = lineshape.FitConfig(free_params=FREE5, initial_guess=self.multi_template)
            return lineshape.multi_trace_fit(traces, ("g",), config)
        c = self.cases[inp["hat"]]
        if kind == "s11":
            trace = lineshape.add_noise(c["clean11"], c["amp11"], seed)
            guess = c["s11_starts"][seed % 4]
            free = FREE5
        else:
            trace = lineshape.add_noise(c["clean21"], c["amp21"], seed)
            free = FREE5
            if kind == "power":
                trace = coupled_modes.normalized_power_trace(trace)
                free = FREE4
            guess = lineshape.auto_initial_guess(trace, c["template"])
        return lineshape.fit_trace(trace, lineshape.FitConfig(free_params=free, initial_guess=guess))

    def known_faults(self):
        """Fit FAULT_DRAWS normalized-power draws of every hat; return
        (label, reason or None) per fit. The draws come from op indices
        past any run's timed ops, so they differ from the timed fits' draws."""
        found = []
        for n in range(self.FAULT_DRAWS * len(HAT_NAMES)):
            inp = dict(kind="power", hat=HAT_NAMES[n % len(HAT_NAMES)],
                       seed=_op_seed(self.seed, 10**7 + n))
            try:
                why = self.check(inp, self.run_op(inp))
            except Exception as exc:
                why = f"raised {type(exc).__name__}: {exc}"
            found.append((self.label(inp), why))
        return found

    def check(self, inp, out):
        if inp["kind"] != "multi":
            return fit_failure(out, self.cases[inp["hat"]]["truth"],
                               FREE4 if inp["kind"] == "power" else FREE5)
        if not out.combined.converged:
            return "joint fit not converged"
        for h, result in zip(HAT_NAMES, out.per_trace):
            why = fit_failure(result, self.cases[h]["truth"], FREE5)
            if why:
                return f"joint member {h}: {why}"
        return shared_failure(out.shared_means["g"] / TWO_PI,
                              [r.uncertainties["g"] for r in out.per_trace],
                              self.cases[HAT_NAMES[0]]["truth"].g / TWO_PI)

    def label(self, inp):
        return inp["kind"] if inp["hat"] is None else f"{inp['kind']} {inp['hat']}"


# -- design_sweep ----------------------------------------------------------

PRESET_NAMES = tuple(design.ALL_PRESETS)


def _valid_value(field, v):
    """Whether a sweep value is a legal parameter: finite, and for the
    SystemParams fields positive (frequency) or non-negative (rate)."""
    if not math.isfinite(v):
        return False
    if field == "delta_eff":
        return True
    return v > 0.0 if field == "omega_cav" else v >= 0.0


class DesignSweep:
    """One design study per op: a sweep of every knob, then both inversions."""

    name = "design_sweep"
    # Valid values per field, drawn per study. Studies of different sizes
    # spread the op times, so the median moves smoothly when the host slows.
    POINTS = (8, 48)
    pass_ops = len(PRESET_NAMES)

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, i):
        rng = np.random.default_rng(_op_seed(self.seed, i))
        pname = PRESET_NAMES[i % len(PRESET_NAMES)]
        base = design.ALL_PRESETS[pname]
        f_lc = base.omega_lc / TWO_PI
        g_hz = base.g / TWO_PI
        j = lambda: rng.uniform(0.95, 1.05)
        ranges = {
            "omega_cav": (f_lc + 0.15e9 * j(), f_lc + 1.5e9 * j(), -1.0e9),
            "kappa_cav_1": (10e6 * j(), 300e6 * j(), -5e6),
            "kappa_cav_2": (0.5e6 * j(), 40e6 * j(), -1e6),
            "g": (5e6 * j(), 120e6 * j(), -2e6),
            "delta_eff": (-1.5e9 * j(), 1.5e9 * j(), math.inf),
        }
        points = int(rng.integers(self.POINTS[0], self.POINTS[1] + 1))
        sweeps = []
        for fld in design.SWEEPABLE_FIELDS:
            lo, hi, bad = ranges[fld]
            values = list(np.linspace(lo, hi, points))
            # two invalid values at seeded places; their rows must stay there
            for _ in range(2):
                values.insert(int(rng.integers(0, len(values) + 1)), bad)
            sweeps.append((fld, tuple(float(v) for v in values)))
        # Dressed detunings below the minimum splitting 2 sqrt(g^2 - dk^2/16)
        # cannot be reached; the benchmark classifies each target itself.
        dk = (base.kappa_cav_tot - base.kappa_lc_bare) / TWO_PI
        t_min = 2.0 * math.sqrt(max(g_hz**2 - dk**2 / 16.0, 0.0))
        detunings = [(float(t), True) for t in np.linspace(0.2e9, 1.3e9, 6) * j()]
        detunings += [(t_min * f, False) for f in (0.3, 0.7)]
        k1, ktot = base.kappa_cav_1 / TWO_PI, base.kappa_cav_tot / TWO_PI
        peak = k1 * g_hz**2 / (0.5 * ktot) ** 2
        couplings = [(peak * f * j(), True) for f in (0.005, 0.02, 0.1, 0.5)]
        couplings += [(peak * f, False) for f in (1.5, 3.0)]
        return dict(preset=pname, base=base, sweeps=sweeps,
                    detunings=detunings, couplings=couplings)

    def run_op(self, inp):
        base = inp["base"]
        sweeps = [
            design.run_sweep(design.SweepSpec(base_params=base, swept_field=f, values_hz=v))
            for f, v in inp["sweeps"]
        ]

        def attempt(fn, arg):
            try:
                return fn(base, arg)
            except NoSolutionError:
                return None  # an expected refusal when the target is unreachable

        detunings = [attempt(design.with_dressed_detuning, t) for t, _ in inp["detunings"]]
        couplings = [attempt(design.find_target_detuning, t) for t, _ in inp["couplings"]]
        return sweeps, detunings, couplings

    def check(self, inp, out):
        sweeps, detunings, couplings = out
        base = inp["base"]
        for (fld, values), result in zip(inp["sweeps"], sweeps):
            if len(result.rows) != len(values):
                return f"{fld} sweep: {len(result.rows)} rows for {len(values)} values"
            for v, row in zip(values, result.rows):
                if row.value_hz != v:
                    return f"{fld} sweep: row out of place"
                if row.valid != _valid_value(fld, v):
                    return f"{fld} sweep: value {v!r} marked valid={row.valid}"
                r = row.rates
                if row.valid and (
                    r.kappa_lc_tot != r.kappa_eff_1 + r.kappa_eff_2 + r.kappa_lc_loss
                    or r.kappa_lc_loss != base.kappa_lc_bare + r.kappa_eff_loss
                ):
                    return f"{fld} sweep: rate budget is not the exact sum"
        for (target, reachable), params in zip(inp["detunings"], detunings):
            if (params is None) == reachable:
                return f"dressed detuning {target:.4g} Hz: reachable={reachable}, got {params}"
            if params is not None:
                f_cav, f_lc = dressed_hz(params)
                if abs((f_cav - f_lc) / target - 1.0) > 1e-6:
                    return f"dressed detuning {target:.4g} Hz reproduced as {f_cav - f_lc:.10g}"
        k1, ktot, g = (x / TWO_PI for x in (base.kappa_cav_1, base.kappa_cav_tot, base.g))
        for (target, reachable), delta in zip(inp["couplings"], couplings):
            if (delta is None) == reachable:
                return f"coupling target {target:.4g} Hz: reachable={reachable}, got {delta}"
            if delta is not None:
                keff1 = k1 * g**2 / (delta**2 + (0.5 * ktot) ** 2)
                if abs(keff1 / target - 1.0) > 1e-6:
                    return f"coupling target {target:.4g} Hz reproduced as {keff1:.10g}"
        return None

    def label(self, inp):
        return f"study {inp['preset']}"


# -- cli_session -----------------------------------------------------------

def _ini(sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    return "\n".join(lines)


class CliSession:
    """A scripted session of cavlink invocations; one op is one invocation."""

    name = "cli_session"
    STEPS = ("simulate", "fit", "fit_joint", "fit_mc", "sweep", "omit")
    pass_ops = len(STEPS)
    GRID = (6.8e9, 7.6e9, 801)
    NOISE = 0.003  # amplitude SNR ~100 against the hats' peak |S21| of ~0.33
    MC_RUNS = 4
    SWEEP_FIELDS = ("omega_cav", "kappa_cav_1", "g", "delta_eff")
    # Fits use the hats whose LC line spans at least two steps of the 1 MHz
    # grid (hat238 7.1 MHz, hat270 2.3 MHz). The lines of hat300 (1.1 MHz) and
    # hat316 (0.8 MHz) are not resolved, and auto_initial_guess finds no LC
    # feature in a noiseless hat316 trace at all.
    JOINT_HATS = ("hat238", "hat270")

    def __init__(self, seed, workdir, inprocess=False):
        self.seed = seed
        self.dir = workdir
        self.inprocess = inprocess
        os.makedirs(workdir, exist_ok=True)
        hats = design.HAT_PRESETS
        g_start = f"{hats['hat270'].g / TWO_PI * G_START!r}"
        free4 = ", ".join(FREE4)
        f0, f1, n = self.GRID
        configs = {
            "simulate": {"grid": dict(f_start_hz=f0, f_stop_hz=f1, points=n),
                         "simulate": dict(outputs="s21, s11", noise_amplitude=self.NOISE)},
            "fit": {"params": dict(g_hz=g_start),
                    "fit": dict(trace=self._sim("hat270", "s21"), free_params=", ".join(FREE5))},
            "fit_joint": {"params": dict(g_hz=g_start),
                          "fit": dict(traces=", ".join(self._sim(h, "s21") for h in self.JOINT_HATS),
                                      free_params=free4, shared="g")},
            "fit_mc": {"params": dict(g_hz=g_start),
                       "fit": dict(trace=self._sim("hat238", "s21"), free_params=free4,
                                   monte_carlo_runs=self.MC_RUNS, noise_amplitude=self.NOISE)},
            "omit": self._omit_config(hats["hat270"]),
        }
        for step, sections in configs.items():
            with open(self._path(f"{step}.ini"), "w") as handle:
                handle.write(_ini(sections))

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _sim(self, hat, kind):
        return self._path(f"sim-{hat}-{kind}.csv")

    def _omit_config(self, p):
        # Two windows at pump + omega_m; the grid spans both at ~600 Hz steps.
        _, f_lc = dressed_hz(p)
        self.omit_modes = (0.66e6, 1.1e6)
        pump = float(f_lc) - self.omit_modes[0]
        lo, hi = pump + 0.62e6, pump + 1.14e6
        return {
            "grid": dict(f_start_hz=repr(lo), f_stop_hz=repr(hi), points=801),
            "omit": dict(omega_m_hz=self.omit_modes[0], gamma_m_hz=10, gamma_e_hz=900),
            "mode.2": dict(omega_m_hz=self.omit_modes[1], gamma_m_hz=25, gamma_e_hz=600),
        }

    def make_input(self, i):
        step = self.STEPS[i % len(self.STEPS)]
        session = i // len(self.STEPS)
        seed = _op_seed(self.seed, session) % 100_000
        inp = dict(step=step, seed=seed, session=session)
        presets = {"simulate": "all", "fit": "hat270", "fit_joint": "hat238",
                   "fit_mc": "hat238", "sweep": "hat270", "omit": "hat270"}
        config = self._path(f"{step}.ini")
        if step == "sweep":
            rng = np.random.default_rng(seed)
            fld = self.SWEEP_FIELDS[session % len(self.SWEEP_FIELDS)]
            base = design.HAT_PRESETS["hat270"]
            lo, hi, bad = {
                "omega_cav": (base.omega_lc / TWO_PI + 0.2e9, base.omega_lc / TWO_PI + 1.4e9, -1e9),
                "kappa_cav_1": (20e6, 300e6, -5e6),
                "g": (10e6, 110e6, -2e6),
                "delta_eff": (0.2e9, 1.4e9, math.inf),
            }[fld]
            values = [float(v) for v in np.linspace(lo, hi, 25) * rng.uniform(0.97, 1.03)]
            values.insert(int(rng.integers(0, len(values) + 1)), bad)
            inp.update(field=fld, values=values)
            with open(config, "w") as handle:
                handle.write(_ini({"sweep": dict(
                    field=fld, values_hz=", ".join(repr(v) for v in values))}))
        out = self._path({"simulate": "sim.csv", "sweep": "sweep.csv", "omit": "omit.csv"}
                         .get(step, f"{step}.json"))
        inp["argv"] = [step.split("_")[0], "--config", config, "--out", out,
                       "--seed", str(seed), "--preset", presets[step]]
        inp["out"] = out
        return inp

    def run_op(self, inp):
        if self.inprocess:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.run(inp["argv"])
            return rc, err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "cavlink.cli", *inp["argv"]],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        return proc.returncode, proc.stderr

    def check(self, inp, out):
        rc, err = out
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        return getattr(self, f"_check_{inp['step']}")(inp)

    def _check_simulate(self, inp):
        f0, f1, n = self.GRID
        grid = np.linspace(f0, f1, n)
        gens = {"s21": coupled_modes.s21, "s11": coupled_modes.s11}
        for i, h in enumerate(HAT_NAMES):
            for kind, gen in gens.items():
                expected = lineshape.add_noise(
                    gen(design.HAT_PRESETS[h], grid), self.NOISE, inp["seed"] + i)
                got = tracefile.read_trace(self._sim(h, kind))
                if not (np.array_equal(got.freqs, expected.freqs)
                        and np.array_equal(got.values, expected.values)):
                    return f"simulated {h} {kind} differs from in-process {kind}"
        return None

    @staticmethod
    def _report_failure(report, truth, free):
        if not report["converged"]:
            return "not converged"
        for name in free:
            sigma = report["uncertainties_hz"][name]
            if not sigma > 0.0:
                return f"{name} has sigma 0"
            z = (report["params_hz"][f"{name}_hz"] - getattr(truth, name) / TWO_PI) / sigma
            if abs(z) > SIGMA_LIMIT:
                return f"{name} {z:+.1f} sigma from truth (sigma {sigma:.3g} Hz)"
        return None

    def _load(self, inp):
        with open(inp["out"]) as handle:
            return json.load(handle)

    def _check_fit(self, inp):
        return self._report_failure(self._load(inp), design.HAT_PRESETS["hat270"], FREE5)

    def _check_fit_joint(self, inp):
        report = self._load(inp)
        for h, member in zip(self.JOINT_HATS, report["per_trace"]):
            why = self._report_failure(member, design.HAT_PRESETS[h], FREE4)
            if why:
                return f"joint member {h}: {why}"
        return shared_failure(report["shared_means_hz"]["g"],
                              [m["uncertainties_hz"]["g"] for m in report["per_trace"]],
                              design.HAT_PRESETS["hat238"].g / TWO_PI)

    def _check_fit_mc(self, inp):
        report = self._load(inp)
        runs = report["runs"]
        if len(runs) != self.MC_RUNS:
            return f"{len(runs)} Monte Carlo runs for {self.MC_RUNS}"
        for run in runs:
            why = self._report_failure(run, design.HAT_PRESETS["hat238"], FREE4)
            if why:
                return f"Monte Carlo run: {why}"
        if not all(report["scatter_hz"][f"{n}_hz"]["std"] > 0.0 for n in FREE4):
            return "Monte Carlo scatter is zero"
        return None

    def _check_sweep(self, inp):
        with open(inp["out"]) as handle:
            lines = [ln for ln in handle.read().splitlines() if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        if len(rows) != len(inp["values"]):
            return f"sweep has {len(rows)} rows for {len(inp['values'])} values"
        for v, row in zip(inp["values"], rows):
            if float(row[0]) != v or row[1] != ("1" if _valid_value(inp["field"], v) else "0"):
                return f"sweep row for {v!r} is out of place or misflagged"
        return None

    def _check_omit(self, inp):
        base, _ = os.path.splitext(inp["out"])
        with open(base + ".report.json") as handle:
            report = json.load(handle)
        windows = report["windows"]
        if len(windows) != len(self.omit_modes):
            return f"{len(windows)} omit windows for {len(self.omit_modes)} modes"
        for w in windows:
            if not w["window_found"]:
                return f"omit window not found: {w.get('message')}"
            if abs(w["center_hz"] - w["predicted_center_hz"]) > w["fwhm_hz"]:
                return "omit window centre is more than one FWHM from the prediction"
        return None

    def label(self, inp):
        return inp["step"]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# -- dense_trace_io --------------------------------------------------------

class DenseTraceIO:
    """One op writes a dense complex S21 trace and its normalized-power twin
    and reads both back."""

    name = "dense_trace_io"
    # Rows per op cycle through 10k..30k: both file costs are per row, and a
    # spread of sizes keeps the median from jumping between two clusters of
    # op times. A fixed cycle gives every run the same mix of sizes.
    ROWS = tuple(1000 * k for k in (20, 10, 28, 14, 24, 12, 30, 16, 26, 18, 22))
    pass_ops = len(ROWS)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.paths = [os.path.join(workdir, n) for n in ("s21.csv", "power.csv", "rewrite.csv")]

    def make_input(self, i):
        rng = np.random.default_rng(_op_seed(self.seed, i))
        p = design.HAT_PRESETS[HAT_NAMES[i % len(HAT_NAMES)]]
        rows = self.ROWS[i % len(self.ROWS)]
        grid = np.linspace(6.8e9 + rng.uniform(0, 1e6), 7.6e9 - rng.uniform(0, 1e6), rows)
        clean = coupled_modes.s21(p, grid)
        noisy = lineshape.add_noise(
            clean, float(np.max(np.abs(clean.values))) / SNR, _op_seed(self.seed, i))
        return noisy, coupled_modes.normalized_power_trace(noisy)

    def run_op(self, inp):
        back = []
        for trace, path in zip(inp, self.paths):
            tracefile.write_trace(path, trace)
            back.append(tracefile.read_trace(path))
        return back

    def check(self, inp, out):
        for trace, got, path in zip(inp, out, self.paths):
            why = roundtrip_failure(trace, got, path, self.paths[2])
            if why:
                return why
        return None

    def label(self, inp):
        return "round trip"

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def roundtrip_failure(written, read, path, scratch):
    """Why a trace read back from ``path`` is not bit-exact, or why rewriting
    it to ``scratch`` is not byte-identical; None when both hold."""
    if read.kind != written.kind or not (
        np.array_equal(read.freqs, written.freqs) and np.array_equal(read.values, written.values)
    ):
        return f"{written.kind.value} trace read back differs from what was written"
    tracefile.write_trace(scratch, read)
    with open(path, "rb") as a, open(scratch, "rb") as b:
        if a.read() != b.read():
            return f"{written.kind.value} trace rewrite is not byte-identical"
    return None


NAMES = ("hat_fit", "design_sweep", "cli_session", "dense_trace_io")


def build(name, seed, workdir, inprocess=False):
    if name == "hat_fit":
        return HatFit(seed)
    if name == "design_sweep":
        return DesignSweep(seed)
    if name == "cli_session":
        return CliSession(seed, workdir, inprocess)
    if name == "dense_trace_io":
        return DenseTraceIO(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

