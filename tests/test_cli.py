"""CLI tests in process via cli.run(): every row of ``cli_cases``, and what a
row cannot check (numbers against the library, file contents, call counts)."""

import json
import subprocess
import sys

import numpy as np
import pytest
from cli_cases import CASES, check
from conftest import merged_grid, reference_params

from cavlink import (
    ALL_PRESETS,
    HAT_PRESETS,
    SweepSpec,
    SweepTargets,
    cli,
    coupled_modes,
    dressed_modes,
    electromechanics,
    run_sweep,
    s21,
)
from cavlink.cli import run
from cavlink.tracefile import format_float, read_trace, write_trace
from cavlink.coupled_modes import PARAM_FIELDS
from cavlink.units import angular_to_hz, hz_to_angular


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def grid_section(start, stop, points):
    return f"[grid]\nf_start_hz = {start!r}\nf_stop_hz = {stop!r}\npoints = {points}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_case(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def call(argv):
        try:
            rc = run(argv)
        except SystemExit as exc:  # argparse exits: --help, a bad option
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    check(case, tmp_path, call)


class TestSimulate:
    def test_matches_library_exactly(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, grid_section(6.8e9, 7.6e9, 801))
        out = str(tmp_path / "sim.csv")
        assert run(["simulate", "--config", cfg, "--out", out, "--preset", "hat270"]) == 0
        loaded = read_trace(out)
        expected = s21(HAT_PRESETS["hat270"], np.linspace(6.8e9, 7.6e9, 801))
        assert np.array_equal(loaded.freqs, expected.freqs)
        assert np.array_equal(loaded.values, expected.values)
        assert out in capsys.readouterr().out

    def test_all_presets_and_both_outputs(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            grid_section(6.8e9, 7.6e9, 201) + "[simulate]\noutputs = s21, s11\n",
        )
        out = str(tmp_path / "sim.csv")
        assert run(["simulate", "--config", cfg, "--out", out, "--preset", "all"]) == 0
        names = sorted(p.name for p in tmp_path.glob("sim-*.csv"))
        assert names == sorted(
            f"sim-{hat}-{kind}.csv"
            for hat in ("hat238", "hat270", "hat300", "hat316")
            for kind in ("s21", "s11")
        )
        for name in names:
            read_trace(tmp_path / name)

    def test_noise_is_seeded(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            grid_section(6.8e9, 7.6e9, 401)
            + "[simulate]\nnoise_amplitude = 0.01\n",
        )
        out_a, out_b, out_c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
        base = ["simulate", "--config", cfg, "--preset", "hat270"]
        assert run(base + ["--out", out_a, "--seed", "9"]) == 0
        assert run(base + ["--out", out_b, "--seed", "9"]) == 0
        assert run(base + ["--out", out_c, "--seed", "10"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()

    def test_params_without_preset(self, tmp_path, capsys):
        p = reference_params()
        hz = p.to_hz()
        params = "[params]\n" + "\n".join(
            f"{k} = {v!r}" for k, v in hz.items()
        )
        cfg = write_ini(tmp_path, grid_section(6.8e9, 7.6e9, 101) + params + "\n")
        out = str(tmp_path / "sim.csv")
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        loaded = read_trace(out)
        expected = s21(p, np.linspace(6.8e9, 7.6e9, 101))
        assert np.allclose(loaded.values, expected.values, rtol=1e-12, atol=0)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_preset_round_trips_through_hz(self, name):
        # [params] defaults come from the preset's Hz form, read back in rad/s
        preset = ALL_PRESETS[name]
        hz = preset.to_hz()
        for field in PARAM_FIELDS:
            assert hz_to_angular(hz[f"{field}_hz"]).hex() == getattr(preset, field).hex(), field


def fit_sections(extra=""):
    return (
        "[fit]\n"
        "free_params = omega_cav, omega_lc, kappa_cav_1, kappa_lc_bare, g\n"
        + extra
    )


class TestFit:
    def make_trace(self, tmp_path, name="data.csv", detuning=520e6):
        truth = reference_params(delta_bare_hz=detuning)
        path = tmp_path / name
        write_trace(path, s21(truth, merged_grid(truth)))
        return str(path), truth

    def test_single_trace_round_trip(self, tmp_path, capsys):
        trace_path, truth = self.make_trace(tmp_path)
        cfg = write_ini(
            tmp_path,
            f"[params]\ng_hz = 60e6\n{fit_sections(f'trace = {trace_path}')}\n",
        )
        out = str(tmp_path / "fit.json")
        assert run(["fit", "--config", cfg, "--out", out, "--preset", "hat270"]) == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["converged"]
        assert report["free_params"] == [
            "omega_cav", "omega_lc", "kappa_cav_1", "kappa_lc_bare", "g",
        ]
        for key, want in truth.to_hz().items():
            assert report["params_hz"][key] == pytest.approx(want, rel=1e-6), key
        assert set(report["uncertainties_hz"]) == set(report["free_params"])
        assert "kappa_lc_tot_hz" in report["derived_rates_hz"]

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        trace_path, _ = self.make_trace(tmp_path)
        cfg = write_ini(
            tmp_path,
            "[params]\ng_hz = 60e6\n"
            + fit_sections(
                f"trace = {trace_path}\nmax_iterations = 1\ntolerance = 1e-15\n"
            ),
        )
        out = str(tmp_path / "fit.json")
        assert run(["fit", "--config", cfg, "--out", out, "--preset", "hat270"]) == 5
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["converged"] is False

    def test_multi_trace_shared_g(self, tmp_path, capsys):
        path_a, _ = self.make_trace(tmp_path, "a.csv", detuning=520e6)
        path_b, _ = self.make_trace(tmp_path, "b.csv", detuning=900e6)
        cfg = write_ini(
            tmp_path,
            "[params]\ng_hz = 55e6\n"
            + "[fit]\nfree_params = omega_cav, omega_lc, kappa_lc_bare, g\n"
            + f"traces = {path_a}, {path_b}\nshared = g\n",
        )
        out = str(tmp_path / "joint.json")
        assert run(["fit", "--config", cfg, "--out", out, "--preset", "hat270"]) == 0
        report = json.loads((tmp_path / "joint.json").read_text())
        assert report["combined"]["converged"]
        assert len(report["per_trace"]) == 2
        assert report["shared_means_hz"]["g"] == pytest.approx(57e6, rel=1e-6)
        assert report["shared_std_errors_hz"]["g"] < 100.0
        assert report["consistent"]["g"] is True

    def test_derived_rates_unavailable_at_a_crossing(self, tmp_path, capsys):
        # equal bare frequencies: the dressed modes hybridize 50/50, so the
        # rate budget has no branches to name and the report says why
        truth = reference_params(delta_bare_hz=0.0)
        write_trace(tmp_path / "data.csv", s21(truth, np.linspace(6.8e9, 7.2e9, 401)))
        params = "".join(f"{k} = {v!r}\n" for k, v in truth.to_hz().items())
        cfg = write_ini(tmp_path, f"[params]\n{params}[fit]\nfree_params = g\n"
                        f"trace = {tmp_path / 'data.csv'}\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out)]) == 0
        derived = json.loads(out.read_text())["derived_rates_hz"]
        assert list(derived) == ["unavailable"]
        assert "50/50" in derived["unavailable"]

    def test_monte_carlo_batch_is_deterministic(self, tmp_path, capsys):
        trace_path, _ = self.make_trace(tmp_path)
        cfg = write_ini(
            tmp_path,
            "[params]\ng_hz = 58e6\n"
            + fit_sections(
                f"trace = {trace_path}\nmonte_carlo_runs = 3\nnoise_amplitude = 0.01\n"
            ),
        )
        out_a, out_b = str(tmp_path / "mc_a.json"), str(tmp_path / "mc_b.json")
        base = ["fit", "--config", cfg, "--preset", "hat270", "--seed", "21"]
        assert run(base + ["--out", out_a]) == 0
        assert run(base + ["--out", out_b]) == 0
        assert (tmp_path / "mc_a.json").read_bytes() == (tmp_path / "mc_b.json").read_bytes()
        report = json.loads((tmp_path / "mc_a.json").read_text())
        assert report["monte_carlo_runs"] == 3
        assert len(report["runs"]) == 3
        scatter = report["scatter_hz"]["g_hz"]
        assert scatter["mean"] == pytest.approx(57e6, rel=0.01)
        assert 0.0 < scatter["std"] < 0.05 * 57e6


class TestSweep:
    def test_csv_layout_and_verdicts(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[sweep]\nfield = delta_eff\nstart_hz = 200e6\nstop_hz = 1400e6\n"
            "points = 13\n",
        )
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--config", cfg, "--out", out, "--preset", "design"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# cavlink sweep"
        assert lines[1] == "# field = delta_eff"
        header = lines[2].split(",")
        assert header[0] == "value_hz" and header[-1] == "message"
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 13
        keff = [float(r[4]) for r in rows]
        assert all(a > b for a, b in zip(keff, keff[1:]))
        assert all(r[1] == "1" for r in rows)

    def test_invalid_rows_survive(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[sweep]\nfield = kappa_cav_1\nvalues_hz = 100e6, -5e6, 150e6\n",
        )
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--config", cfg, "--out", out, "--preset", "design"]) == 0
        rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[3:]]
        assert len(rows) == 3
        assert rows[1][1] == "0"
        assert rows[1][-1] != ""  # failure reason, commas stripped
        assert rows[0][1] == "1" and rows[2][1] == "1"

    def test_non_default_targets(self, tmp_path, capsys):
        # Each of the five keys flips at least one verdict of this sweep away
        # from what the SweepTargets defaults give.
        values = (5e6, 20e6, 35e6, 45e6, -2e6, 57e6, 80e6, 110e6)
        targets = SweepTargets(
            coupling_band_hz=(0.4e6, 1.0e6), omega_m_hz=0.9e6,
            sideband_threshold=0.7, max_dissipation_fraction=0.45,
        )
        cfg = write_ini(
            tmp_path,
            "[sweep]\nfield = g\nvalues_hz = " + ", ".join(map(repr, values)) + "\n"
            "band_lo_hz = 0.4e6\nband_hi_hz = 1.0e6\nomega_m_hz = 0.9e6\n"
            "sideband_threshold = 0.7\nmax_dissipation_fraction = 0.45\n",
        )
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 0
        lines = out.read_text().splitlines()
        header = lines[2].split(",")
        rows = [line.split(",") for line in lines[3:]]

        def run_library(targets):
            spec = SweepSpec(HAT_PRESETS["hat270"], "g", values, targets=targets)
            return run_sweep(spec).rows

        expected = run_library(targets)
        verdicts = ("in_coupling_band", "sideband_resolved", "dissipation_ok")
        columns = [header.index(name) for name in verdicts]
        assert len(rows) == len(expected)
        for cells, row in zip(rows, expected):
            assert cells[1] == str(int(row.valid))
            if not row.valid:
                assert all(cells[i] == "" for i in columns)
                continue
            assert [cells[i] for i in columns] == [
                str(int(getattr(row, name))) for name in verdicts
            ]
            to_hz = row.rates.to_hz()
            rate_names = [name for name in to_hz if name != "within_validity"]
            assert header[2:2 + len(rate_names)] == rate_names
            assert cells[2:2 + len(rate_names)] == [
                format_float(to_hz[name]) for name in rate_names
            ]
        defaults = run_library(SweepTargets())
        assert [(r.in_coupling_band, r.sideband_resolved, r.dissipation_ok)
                for r in expected] != [
            (r.in_coupling_band, r.sideband_resolved, r.dissipation_ok) for r in defaults
        ]

    def test_targets_on_their_edges_run(self, tmp_path, capsys):
        for lines in ("band_lo_hz = 0\nmax_dissipation_fraction = 0\n",
                      "omega_m_hz = 2.86e307\nmax_dissipation_fraction = 1\n"):
            cfg = write_ini(tmp_path, "[sweep]\nfield = g\nvalues_hz = 20e6\n" + lines)
            out = tmp_path / "s.csv"
            assert run(["sweep", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 0
            assert len(out.read_text().splitlines()) == 4


def omit_grid_for(preset_name, halfwidth_hz=6000.0, points=2401):
    center = angular_to_hz(dressed_modes(HAT_PRESETS[preset_name]).omega_lc)
    return grid_section(center - halfwidth_hz, center + halfwidth_hz, points)


class TestOmit:
    def omit_ini(self, tmp_path, mode_lines, grid=None, name="omit.ini"):
        text = (grid or omit_grid_for("hat270")) + "[omit]\n" + mode_lines
        return write_ini(tmp_path, text, name=name)

    def test_window_report(self, tmp_path, capsys):
        cfg = self.omit_ini(
            tmp_path, "omega_m_hz = 0.66e6\ngamma_m_hz = 10\ngamma_e_hz = 900\n"
        )
        out = str(tmp_path / "omit.csv")
        assert run(["omit", "--config", cfg, "--out", out, "--preset", "hat270"]) == 0
        trace = read_trace(out)
        assert trace.kind.value == "s11"
        report = json.loads((tmp_path / "omit.report.json").read_text())
        assert report["kappa_lc_tot_hz"] == pytest.approx(2.33e6, rel=0.01)
        (window,) = report["windows"]
        assert window["window_found"] is True
        assert window["fwhm_hz"] == pytest.approx(910.0, rel=0.05)
        assert window["mechanical_frequency_hz"] == pytest.approx(0.66e6, abs=10.0)
        assert window["center_hz"] == pytest.approx(window["predicted_center_hz"], abs=50.0)

    def test_no_window_without_coupling(self, tmp_path, capsys):
        cfg = self.omit_ini(tmp_path, "omega_m_hz = 0.66e6\ngamma_m_hz = 10\n")
        out = str(tmp_path / "omit.csv")
        assert run(["omit", "--config", cfg, "--out", out, "--preset", "hat270"]) == 0
        report = json.loads((tmp_path / "omit.report.json").read_text())
        (window,) = report["windows"]
        assert window["window_found"] is False
        assert window["message"].startswith("no window found")

    def test_two_modes_two_windows(self, tmp_path, capsys):
        center = angular_to_hz(dressed_modes(HAT_PRESETS["hat270"]).omega_lc)
        grid = grid_section(center - 1e4, center + 4.6e5, 5201)
        cfg = write_ini(
            tmp_path,
            grid
            + "[omit]\nomega_m_hz = 0.66e6\ngamma_m_hz = 10\ngamma_e_hz = 900\n"
            + "[mode.2]\nomega_m_hz = 1.1e6\ngamma_m_hz = 25\ngamma_e_hz = 600\n",
        )
        out = str(tmp_path / "omit.csv")
        assert run(["omit", "--config", cfg, "--out", out, "--preset", "hat270"]) == 0
        report = json.loads((tmp_path / "omit.report.json").read_text())
        first, second = report["windows"]
        assert first["window_found"] and second["window_found"]
        assert second["predicted_center_hz"] - first["predicted_center_hz"] == pytest.approx(
            0.44e6, abs=1.0
        )
        assert second["mechanical_frequency_hz"] == pytest.approx(1.1e6, abs=200.0)

    def test_one_model_call_per_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        model = electromechanics.multi_mode_omit

        def counting(*args, **kwargs):
            calls.append(args)
            return model(*args, **kwargs)

        monkeypatch.setattr(electromechanics, "multi_mode_omit", counting)
        monkeypatch.setattr(cli, "multi_mode_omit", counting)
        cfg = self.omit_ini(
            tmp_path, "omega_m_hz = 0.66e6\ngamma_m_hz = 10\ngamma_e_hz = 900\n"
        )
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 0
        assert len(calls) == 1

    def test_pump_applied_once_per_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        pump = electromechanics.pumped_lc_params

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return pump(*args, **kwargs)

        monkeypatch.setattr(electromechanics, "pumped_lc_params", counting)
        monkeypatch.setattr(cli, "pumped_lc_params", counting)
        cfg = self.omit_ini(
            tmp_path,
            "omega_m_hz = 0.66e6\ngamma_m_hz = 10\ngamma_e_hz = 900\n"
            "lc_shift_hz = -2e4\nlc_extra_loss_hz = 5e3\n",
        )
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 0
        assert len(calls) == 1

    def test_pumped_modes_solved_twice_per_run(self, tmp_path, capsys, monkeypatch):
        # once in the command (rates and pump) and once in multi_mode_omit
        calls = []
        solve = coupled_modes.dressed_modes

        def counting(params):
            calls.append(params)
            return solve(params)

        for module in (coupled_modes, electromechanics, cli):
            monkeypatch.setattr(module, "dressed_modes", counting, raising=False)
        cfg = self.omit_ini(
            tmp_path, "omega_m_hz = 0.66e6\ngamma_m_hz = 10\ngamma_e_hz = 900\n"
        )
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 0
        assert len(calls) == 2


class TestEntryPoint:
    def test_help_runs_as_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cavlink.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for word in ("simulate", "fit", "sweep", "omit"):
            assert word in proc.stdout

    def test_no_scipy_import(self, tmp_path):
        # The model is closed-form 2x2 algebra on numpy; a stray scipy import
        # would add most of a second to every CLI start.
        cfg = write_ini(tmp_path, "[sweep]\nfield = omega_cav\nvalues_hz = 7.2e9, 7.5e9\n")
        script = (
            "import sys, cavlink, cavlink.cli\n"
            f"rc = cavlink.cli.run(['sweep', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'sweep.csv')!r}, '--preset', 'hat270'])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split(None, 1) == ["0", "[]\n"]
