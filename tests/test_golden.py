"""Golden-file pins for every CLI path the README documents.

Each case runs ``cavlink.cli.run`` on a fixed config and compares what it
writes against ``tests/golden/``:

* ``simulate`` traces must match byte for byte;
* fit reports, sweep CSVs and omit outputs must keep their keys, row order
  and non-numeric text exactly, while numbers may move by at most 1e-12
  relative (fits pass through LAPACK's symmetric eigensolver and BLAS
  products, sweeps and omit runs through libm, and the last digits of
  these may differ between builds and machines). Sweep CSVs and both omit
  outputs call no BLAS or LAPACK routine, so on one build they regenerate
  byte for byte, and CI checks that they do.

Regenerate the expected files (only after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import json
import math
import os
import shutil
import sys
import warnings

import pytest

from cavlink import ValidityWarning, cli, lineshape
from cavlink.cli import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = 1e-12

GRID = {"f_start_hz": 6.8e9, "f_stop_hz": 7.6e9, "points": 801}
NOISE = 0.003
SEED = 17
FREE5 = "omega_cav, omega_lc, kappa_cav_1, kappa_lc_bare, g"
FREE4 = "omega_cav, omega_lc, kappa_lc_bare, g"
# g starts 5% above the preset's 57 MHz so every fit has work to do.
G_START = {"g_hz": 59.85e6}


def _sim(hat, kind="s21"):
    return os.path.join(GOLDEN, f"simulate-{hat}-{kind}.csv")


# name -> (subcommand, preset, config sections, output file name)
CASES = {
    "simulate": (
        "simulate", "all",
        {"grid": GRID, "simulate": {"outputs": "s21, s11", "noise_amplitude": NOISE}},
        "simulate.csv",
    ),
    "fit": (
        "fit", "hat270",
        {"params": G_START, "fit": {"trace": _sim("hat270"), "free_params": FREE5}},
        "fit.json",
    ),
    "fit_joint": (
        "fit", "hat238",
        {"params": G_START,
         "fit": {"traces": f"{_sim('hat238')}, {_sim('hat270')}",
                 "free_params": FREE4, "shared": "g"}},
        "fit_joint.json",
    ),
    "fit_mc": (
        "fit", "hat238",
        {"params": G_START,
         "fit": {"trace": _sim("hat238"), "free_params": FREE4,
                 "monte_carlo_runs": 3, "noise_amplitude": NOISE}},
        "fit_mc.json",
    ),
    # Each sweepable field with one invalid value; the omega_cav sweep also
    # crosses the bare LC frequency, where the branches hybridize 50/50.
    "sweep_omega_cav": (
        "sweep", "hat270",
        {"sweep": {"field": "omega_cav",
                   "values_hz": "7.2e9, 7.0e9, -1e9, 7.52e9, 8.4e9"}},
        "sweep_omega_cav.csv",
    ),
    "sweep_kappa_cav_1": (
        "sweep", "hat270",
        {"sweep": {"field": "kappa_cav_1", "start_hz": "-5e6", "stop_hz": "300e6",
                   "points": 7}},
        "sweep_kappa_cav_1.csv",
    ),
    "sweep_kappa_cav_2": (
        "sweep", "hat238",
        {"sweep": {"field": "kappa_cav_2", "values_hz": "0, 5e6, -1e6, 40e6"}},
        "sweep_kappa_cav_2.csv",
    ),
    "sweep_g": (
        "sweep", "hat300",
        {"sweep": {"field": "g", "values_hz": "0, 10e6, 57e6, -2e6, 110e6"}},
        "sweep_g.csv",
    ),
    "sweep_delta_eff": (
        "sweep", "design",
        {"sweep": {"field": "delta_eff", "start_hz": "0", "stop_hz": "1.4e9",
                   "points": 8}},
        "sweep_delta_eff.csv",
    ),
    "sweep_delta_eff_inf": (
        "sweep", "hat270",
        {"sweep": {"field": "delta_eff", "values_hz": "0.2e9, inf, 0.6e9"}},
        "sweep_delta_eff_inf.csv",
    ),
    # Two windows on a ~650 Hz grid spanning both sidebands of hat270's
    # dressed LC line (at 6993.968 MHz).
    "omit": (
        "omit", "hat270",
        {"grid": {"f_start_hz": 6993927760.0, "f_stop_hz": 6994447760.0,
                  "points": 801},
         "omit": {"omega_m_hz": 0.66e6, "gamma_m_hz": 10, "gamma_e_hz": 900},
         "mode.2": {"omega_m_hz": 1.1e6, "gamma_m_hz": 25, "gamma_e_hz": 600}},
        "omit.csv",
    ),
}


def _ini(sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    return "\n".join(lines)


def _run_case(name, workdir):
    """Run one case into ``workdir``; return the written file names."""
    command, preset, sections, out_name = CASES[name]
    cfg = os.path.join(workdir, f"{name}.ini")
    with open(cfg, "w") as handle:
        handle.write(_ini(sections))
    out = os.path.join(workdir, out_name)
    before = set(os.listdir(workdir))
    rc = run([command, "--config", cfg, "--out", out, "--seed", str(SEED),
              "--preset", preset])
    assert rc == 0, f"{name}: exit {rc}"
    return sorted(set(os.listdir(workdir)) - before)


def _close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _as_number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _compare_text(got, want, where):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: line count differs"
    for lineno, (g_line, w_line) in enumerate(zip(got_lines, want_lines), 1):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells), f"{where}:{lineno}: column count differs"
        for g_cell, w_cell in zip(g_cells, w_cells):
            g_num, w_num = _as_number(g_cell), _as_number(w_cell)
            if g_num is None or w_num is None or math.isnan(w_num):
                assert g_cell == w_cell, f"{where}:{lineno}: {g_cell!r} != {w_cell!r}"
            else:
                assert _close(g_num, w_num), f"{where}:{lineno}: {g_cell} vs {w_cell}"


def _compare_json(got, want, where):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _close(got, want), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    written = _run_case(name, str(tmp_path))
    expected = sorted(f for f in os.listdir(GOLDEN) if f.startswith(name + "."))
    if name == "simulate":
        expected = sorted(f for f in os.listdir(GOLDEN) if f.startswith("simulate-"))
    assert written == expected
    for fname in written:
        got = (tmp_path / fname).read_text()
        with open(os.path.join(GOLDEN, fname)) as handle:
            want = handle.read()
        if name == "simulate":
            assert got == want, f"{fname} is not byte-identical"
        elif fname.endswith(".json"):
            _compare_json(json.loads(got), json.loads(want), fname)
        else:
            _compare_text(got, want, fname)


def test_fit_case_needs_few_kernel_calls(tmp_path, monkeypatch):
    # At most 8 calls of the model kernel, one at the start and one per
    # trial step (this fit takes 6); a finite-difference Jacobian cost 89.
    calls, results = [], []
    kernel, fit = lineshape._scattering, cli.fit_trace

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    def recording(*args, **kwargs):
        results.append(fit(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(lineshape, "_scattering", counting)
    monkeypatch.setattr(cli, "fit_trace", recording)
    _run_case("fit", str(tmp_path))
    assert len(results) == 1
    assert results[0].model_evaluations == len(calls) <= 8


@pytest.mark.parametrize("points, fires", [(801, True), (3201, False)])
def test_omit_widths_warn_when_under_resolved(points, fires, tmp_path, monkeypatch):
    # The omit case's 650 Hz grid step leaves the 910 Hz and 625 Hz windows
    # only ~2 steps wide; a grid 4x finer resolves them.
    extract, messages = cli.extract_fwhm, []

    def recording(*args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = extract(*args)
        messages.extend(str(w.message) for w in caught if w.category is ValidityWarning)
        return out

    command, preset, sections, _ = CASES["omit"]
    sections = dict(sections, grid=dict(sections["grid"], points=points))
    monkeypatch.setitem(CASES, "omit_grid", (command, preset, sections, "omit_grid.csv"))
    monkeypatch.setattr(cli, "extract_fwhm", recording)
    _run_case("omit_grid", str(tmp_path))
    if fires:
        assert len(messages) == 2
        assert all("grid steps" in m for m in messages)
    else:
        assert messages == []


def _regenerate():
    # Simulated traces feed the fit cases, so they are written first.
    scratch = os.path.join(GOLDEN, ".regen")
    for name in CASES:
        os.makedirs(scratch, exist_ok=True)
        for fname in _run_case(name, scratch):
            if not fname.endswith(".ini"):
                shutil.move(os.path.join(scratch, fname), os.path.join(GOLDEN, fname))
        shutil.rmtree(scratch)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    os.makedirs(GOLDEN, exist_ok=True)
    _regenerate()

