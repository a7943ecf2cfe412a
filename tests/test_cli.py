"""End-to-end CLI coverage, mostly in process via cli.run()."""

import json
import subprocess
import sys

import numpy as np
import pytest
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
from cavlink.units import TWO_PI, angular_to_hz, hz_to_angular


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def grid_section(start, stop, points):
    return f"[grid]\nf_start_hz = {start!r}\nf_stop_hz = {stop!r}\npoints = {points}\n"


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

    @pytest.mark.parametrize("line, grid, message", [
        ("kappa_lc_bare_hz = -5", None, "params.kappa_lc_bare_hz: must be non-negative, got -5"),
        ("omega_cav_hz = 0", None, "params.omega_cav_hz: must be positive, got 0"),
        ("g_hz = 1e308", None, "params.g_hz: must be at most 2.86e+307 Hz, got 1e308"),
        # grid ends finite in Hz but infinite in rad/s
        ("", ("6.8e9", "1e308"),
         "grid.f_stop_hz: must be at most 2.86e+307 Hz in magnitude, got 1e308"),
        ("", ("-1e308", "7.6e9"),
         "grid.f_start_hz: must be at most 2.86e+307 Hz in magnitude, got -1e308"),
        ("", ("7.6e9", "6.8e9"), "grid.f_stop_hz: must be greater than grid.f_start_hz"),
    ], ids=["negative_rate", "zero_frequency", "overflow", "grid_stop_overflow",
            "grid_start_overflow", "grid_unordered"])
    def test_params_named_in_hz(self, tmp_path, capsys, line, grid, message):
        start, stop = grid or ("6.8e9", "7.6e9")
        text = f"[grid]\nf_start_hz = {start}\nf_stop_hz = {stop}\npoints = 101\n"
        cfg = write_ini(tmp_path, text + f"[params]\n{line}\n")
        out = tmp_path / "x.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "rad/s" not in err
        assert not out.exists()

    def test_coupling_whose_square_overflows(self, tmp_path, capsys):
        # g is finite in rad/s but g^2 is not: the model refuses its traces
        cfg = write_ini(tmp_path, grid_section(6.8e9, 7.6e9, 101) + "[params]\ng_hz = 1e160\n")
        out = tmp_path / "x.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        err = capsys.readouterr().err
        assert "params.g_hz: " in err and "finite" in err and "got 1e160" in err
        assert not out.exists()

    def test_bad_output_name(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path, grid_section(6.8e9, 7.6e9, 101) + "[simulate]\noutputs = s12\n"
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                    "--preset", "hat270"]) == 2
        assert "s12" in capsys.readouterr().err

    def test_repeated_output_rejected(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            grid_section(6.8e9, 7.6e9, 101) + "[simulate]\noutputs = s21, s11, s21\n",
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                    "--preset", "hat270"]) == 2
        captured = capsys.readouterr()
        assert "simulate.outputs" in captured.err and "'s21'" in captured.err
        assert captured.out == ""
        assert list(tmp_path.glob("x*.csv")) == []

    def test_negative_noise_rejected(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            grid_section(6.8e9, 7.6e9, 101) + "[simulate]\nnoise_amplitude = -0.01\n",
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                    "--preset", "hat270"]) == 2
        assert "simulate.noise_amplitude" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_single_point_grid_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, grid_section(6.8e9, 7.6e9, 1))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                    "--preset", "hat270"]) == 2

    def test_missing_params_without_preset(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, grid_section(6.8e9, 7.6e9, 101))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "omega_cav_hz" in capsys.readouterr().err

    def test_missing_grid_section(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[simulate]\noutputs = s21\n")
        out = tmp_path / "x.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "grid: missing required section" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert run(["simulate", "--config", str(tmp_path / "absent.ini"),
                    "--out", str(tmp_path / "x.csv"), "--preset", "hat270"]) == 3

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(grid_section(6.8e9, 7.6e9, 101).encode() + b"; temp\xe9rature\n")
        out = tmp_path / "x.csv"
        assert run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--preset", "hat270"]) == 2
        assert f"{cfg}: byte 0xe9 is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, grid_section(6.8e9, 7.6e9, 101))
        out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert run(["simulate", "--config", cfg, "--out", out,
                    "--preset", "hat270"]) == 3


class TestPresets:
    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_preset_round_trips_through_hz(self, name):
        # [params] defaults come from the preset's Hz form, read back in rad/s
        preset = ALL_PRESETS[name]
        hz = preset.to_hz()
        for field in PARAM_FIELDS:
            assert hz_to_angular(hz[f"{field}_hz"]).hex() == getattr(preset, field).hex(), field

    def test_empty_params_section_is_no_section(self, tmp_path, capsys):
        grid = grid_section(6.8e9, 7.6e9, 801) + "[simulate]\noutputs = s21, s11\n"
        written = {}
        for tag, text in (("bare", grid), ("empty", grid + "[params]\n")):
            cfg = write_ini(tmp_path, text, name=f"{tag}.ini")
            out = tmp_path / f"{tag}.csv"
            assert run(["simulate", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 0
            written[tag] = [(tmp_path / f"{tag}-{kind}.csv").read_bytes() for kind in ("s21", "s11")]
        assert written["bare"] == written["empty"]


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

    def test_all_zero_power_trace_refused(self, tmp_path, capsys):
        # exit 2 naming the cause, not a start "outside the model's domain"
        grid = merged_grid(reference_params())
        path = tmp_path / "zero.csv"
        write_trace(path, coupled_modes.ComplexTrace(grid, np.zeros(grid.size), "power_normalized"))
        cfg = write_ini(tmp_path, fit_sections(f"trace = {path}\n"))
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        err = capsys.readouterr().err
        assert "trace power is identically zero" in err
        assert "domain" not in err
        assert not out.exists()

    def test_start_outside_the_model_domain_refused(self, tmp_path, capsys):
        # frequencies above 2.86e307 Hz overflow in rad/s: exit 2 naming the
        # start, no report
        far = tmp_path / "far.csv"
        write_trace(far, coupled_modes.ComplexTrace(np.linspace(2.9e307, 3.0e307, 11),
                                                    np.ones(11)))
        cfg = write_ini(tmp_path, f"[fit]\nfree_params = g\ntrace = {far}\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "initial guess is outside the model's domain" in capsys.readouterr().err
        assert not out.exists()

    def test_coupling_whose_square_overflows_refused(self, tmp_path, capsys):
        # g^2 overflows, so the model reads S21 = 0 and no free parameter
        # moves it: exit 2, no report
        trace_path, _ = self.make_trace(tmp_path)
        cfg = write_ini(tmp_path, "[params]\ng_hz = 1e160\n"
                        + fit_sections(f"trace = {trace_path}\n"))
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "has no effect on this trace" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_trace_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("freq_hz,re,im\n1,0,0\n2,zz,0\n")
        cfg = write_ini(tmp_path, fit_sections(f"trace = {bad}\n"))
        assert run(["fit", "--config", cfg, "--out", str(tmp_path / "fit.json"),
                    "--preset", "hat270"]) == 4
        err = capsys.readouterr().err
        assert "bad.csv:3" in err

    def test_undecodable_trace_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# cavlink trace\n# note: temp\xe9rature\nfreq_hz,re,im\n1,0,0\n2,0,0\n")
        cfg = write_ini(tmp_path, fit_sections(f"trace = {bad}\n"))
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 4
        assert "bad.csv:2: byte 0xe9 is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

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

    def test_multi_trace_requires_shared(self, tmp_path, capsys):
        path_a, _ = self.make_trace(tmp_path, "a.csv")
        path_b, _ = self.make_trace(tmp_path, "b.csv", detuning=900e6)
        cfg = write_ini(
            tmp_path, fit_sections(f"traces = {path_a}, {path_b}\n")
        )
        assert run(["fit", "--config", cfg, "--out", str(tmp_path / "j.json"),
                    "--preset", "hat270"]) == 2
        assert "shared" in capsys.readouterr().err

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

    @pytest.mark.parametrize("lines, key", [
        ("monte_carlo_runs = -3\n", "fit.monte_carlo_runs"),
        ("monte_carlo_runs = 3\nnoise_amplitude = -0.01\n", "fit.noise_amplitude"),
    ], ids=["runs", "noise"])
    def test_negative_monte_carlo_settings_rejected(self, tmp_path, capsys, lines, key):
        trace_path, _ = self.make_trace(tmp_path)
        cfg = write_ini(tmp_path, fit_sections(f"trace = {trace_path}\n{lines}"))
        out = tmp_path / "mc.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        err = capsys.readouterr().err
        assert key in err and "non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize("lines, message", [
        ("max_iterations = 0\n", "fit.max_iterations: must be positive, got 0"),
        ("tolerance = 0\n", "fit.tolerance: must be in (0, 1), got 0"),
        ("tolerance = 1.5\n", "fit.tolerance: must be in (0, 1), got 1.5"),
    ], ids=["max_iterations", "tolerance_zero", "tolerance_above_one"])
    def test_stopping_settings_named_in_errors(self, tmp_path, capsys, lines, message):
        trace_path, _ = self.make_trace(tmp_path)
        cfg = write_ini(tmp_path, fit_sections(f"trace = {trace_path}\n{lines}"))
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_monte_carlo_keys_both_zero_run_one_fit(self, tmp_path, capsys):
        trace_path, _ = self.make_trace(tmp_path)
        plain = write_ini(tmp_path, fit_sections(f"trace = {trace_path}\n"), name="plain.ini")
        zeros = write_ini(tmp_path, fit_sections(
            f"trace = {trace_path}\nmonte_carlo_runs = 0\nnoise_amplitude = 0\n"))
        for cfg, name in ((plain, "plain.json"), (zeros, "zeros.json")):
            assert run(["fit", "--config", cfg, "--out", str(tmp_path / name),
                        "--preset", "hat270"]) == 0
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "zeros.json").read_bytes()

    @pytest.mark.parametrize("lines, message", [
        ("bound_g_hz = 2e8, 1e8\n", "fit.bound_g_hz: must satisfy lo < hi, got 2e8, 1e8"),
        ("bound_g_hz = -1e6, 1e8\n", "fit.bound_g_hz: lo must be non-negative, got -1e6, 1e8"),
        ("bound_omega_cav_hz = 0, 8e9\n",
         "fit.bound_omega_cav_hz: lo must be positive, got 0, 8e9"),
        ("bound_g_hz = 1e8\n", "fit.bound_g_hz: expected 'lo,hi'"),
        ("bound_g_hz = low, high\n", "fit.bound_g_hz: bounds must be numbers"),
        # hat270's g starts at 57 MHz, outside this box
        ("bound_g_hz = 1e300, 2e300\n",
         "fit.bound_g_hz: must hold the start 57000000.0 Hz, got 1e300, 2e300"),
        # below hi in Hz, but lo overflows in rad/s
        ("bound_g_hz = 1e308, inf\n",
         "fit.bound_g_hz: lo must be at most 2.86e+307 Hz, got 1e308, inf"),
    ], ids=["unordered", "negative_rate", "zero_frequency", "one_number", "not_numbers",
            "start_outside", "lo_overflows"])
    def test_bad_bounds_named_in_errors(self, tmp_path, capsys, lines, message):
        trace_path, _ = self.make_trace(tmp_path)
        cfg = write_ini(tmp_path, fit_sections(f"trace = {trace_path}\n{lines}"))
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_free_params_rejected(self, tmp_path, capsys):
        trace_path, _ = self.make_trace(tmp_path)
        cfg = write_ini(tmp_path, f"[fit]\nfree_params =\ntrace = {trace_path}\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "fit.free_params" in capsys.readouterr().err
        assert not out.exists()


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

    def test_empty_values_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[sweep]\nfield = g\nvalues_hz =\n")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "sweep.values_hz" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_points_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[sweep]\nfield = g\nstart_hz = 10e6\nstop_hz = 90e6\n"
                        "points = 0\n")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "sweep.points: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_values_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[sweep]\nfield = g\nvalues_hz = 20e6, many\n")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "sweep.values_hz: entries must be numbers" in capsys.readouterr().err
        assert not out.exists()

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

    def test_unknown_field(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[sweep]\nfield = omega_lc\nvalues_hz = 7e9\n")
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                    "--preset", "design"]) == 2

    def test_unknown_field_names_the_closest(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[sweep]\nfield = G\nvalues_hz = 20e6\n")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert "sweep.field: unknown field; did you mean 'g'?" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, message", [
        ("band_lo_hz = 3e6\nband_hi_hz = 1e6\n",
         "sweep.band_hi_hz: must be greater than sweep.band_lo_hz"),
        ("band_lo_hz = -1\n", "sweep.band_lo_hz: must be non-negative, got -1"),
        ("band_hi_hz = -1\n", "sweep.band_hi_hz: must be non-negative, got -1"),
        ("omega_m_hz = 1e308\n", "sweep.omega_m_hz: must be at most 2.86e+307 Hz, got 1e308"),
        ("omega_m_hz = 0\n", "sweep.omega_m_hz: must be positive, got 0"),
        ("sideband_threshold = 0\n", "sweep.sideband_threshold: must be positive, got 0"),
        ("max_dissipation_fraction = 1.5\n",
         "sweep.max_dissipation_fraction: must be in [0, 1], got 1.5"),
    ], ids=["band_unordered", "band_lo_negative", "band_hi_negative",
            "omega_m_overflows", "omega_m_zero", "threshold_zero", "fraction_above_one"])
    def test_bad_targets_named_in_errors(self, tmp_path, capsys, lines, message):
        cfg = write_ini(tmp_path, "[sweep]\nfield = g\nvalues_hz = 20e6\n" + lines)
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_coupling_and_damping_exclusive(self, tmp_path, capsys):
        cfg = self.omit_ini(
            tmp_path,
            "omega_m_hz = 0.66e6\ngamma_e_hz = 900\ncoupling_hz = 2e4\n",
        )
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("rate_lines, key", [
        ("coupling_hz = -5e3\n", "omit.coupling_hz"),
        ("gamma_e_hz = -900\n", "omit.gamma_e_hz"),
        ("coupling_hz = -1\ngamma_e_hz = 900\n", "omit.coupling_hz"),
    ], ids=["coupling", "gamma_e", "negative_coupling_with_gamma_e"])
    def test_negative_rates_rejected(self, tmp_path, capsys, rate_lines, key):
        cfg = self.omit_ini(tmp_path, "omega_m_hz = 0.66e6\ngamma_m_hz = 10\n" + rate_lines)
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 2
        err = capsys.readouterr().err
        assert key in err and "non-negative" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("mode_lines, message", [
        ("omega_m_hz = -1\n", "omit.omega_m_hz: must be positive, got -1"),
        ("omega_m_hz = 0\n", "omit.omega_m_hz: must be positive, got 0"),
        ("omega_m_hz = 0.66e6\ngamma_m_hz = -10\n",
         "omit.gamma_m_hz: must be non-negative, got -10"),
        ("omega_m_hz = 0.66e6\nlc_extra_loss_hz = -1e3\n",
         "omit.lc_extra_loss_hz: must be non-negative, got -1e3"),
        ("omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = -2e6\n",
         "mode.2.omega_m_hz: must be positive, got -2e6"),
        ("omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = 1.1e6\ngamma_m_hz = -25\n",
         "mode.2.gamma_m_hz: must be non-negative, got -25"),
        ("omega_m_hz = 1e308\n", "omit.omega_m_hz: must be at most 2.86e+307 Hz, got 1e308"),
        ("omega_m_hz = 0.66e6\nlc_shift_hz = -8e9\n",
         "omit.lc_shift_hz: must keep the LC frequency positive and finite, got -8e9"),
        ("omega_m_hz = 0.66e6\npump_offset_hz = 2e6\n",
         "omit.pump_offset_hz: must keep the pump red-detuned, above 0 Hz, got 2e6"),
        # 4 G^2 / kappa_lc_tot overflows
        ("omega_m_hz = 0.66e6\ncoupling_hz = 1e300\n[mode.2]\nomega_m_hz = 1.1e6\n",
         "omit.coupling_hz: must keep the coupling and its damping finite, got 1e300"),
        ("omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = 1.1e6\ncoupling_hz = 1e300\n"
         "[mode.3]\nomega_m_hz = 1.5e6\n",
         "mode.2.coupling_hz: must keep the coupling and its damping finite, got 1e300"),
        # G = sqrt(gamma_e kappa_lc_tot) / 2 overflows
        ("omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = 1.1e6\ngamma_e_hz = 1e307\n"
         "[mode.3]\nomega_m_hz = 1.5e6\n",
         "mode.2.gamma_e_hz: must keep the coupling and its damping finite, got 1e307"),
        # gamma_e is modest, but the extra loss makes gamma_e * kappa_lc_tot overflow
        ("omega_m_hz = 0.66e6\nlc_extra_loss_hz = 2.8e307\n",
         "omit.gamma_e_hz: must keep the coupling and its damping finite with "
         "omit.lc_extra_loss_hz = 2.8e307, got 900"),
    ], ids=["omega_m", "omega_m_zero", "gamma_m", "lc_extra_loss", "mode2_omega_m",
            "mode2_gamma_m", "omega_m_overflow", "lc_shift", "pump_offset",
            "damping_overflow", "mode2_damping_overflow", "mode2_coupling_overflow",
            "extra_loss_coupling_overflow"])
    def test_mode_and_pump_values_named_in_hz(self, tmp_path, capsys, mode_lines, message):
        cfg = self.omit_ini(tmp_path, mode_lines + "gamma_e_hz = 900\n")
        out = tmp_path / "o.csv"
        assert run(["omit", "--config", cfg, "--out", str(out), "--preset", "hat270"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "rad/s" not in err
        assert not out.exists() and not (tmp_path / "o.report.json").exists()

    def test_non_integer_mode_section_rejected(self, tmp_path, capsys):
        cfg = self.omit_ini(
            tmp_path,
            "omega_m_hz = 0.66e6\ngamma_e_hz = 900\n"
            "[mode.two]\nomega_m_hz = 1.1e6\ngamma_e_hz = 600\n",
        )
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 2
        assert "mode.two" in capsys.readouterr().err

    def test_zero_lc_linewidth_rejected(self, tmp_path, capsys):
        # g = 0 and a lossless LC leave kappa_lc_tot = 0, where the
        # electromechanical damping 4 G^2 / kappa_lc_tot is undefined
        cfg = write_ini(
            tmp_path,
            omit_grid_for("hat270")
            + "[params]\ng_hz = 0\nkappa_lc_bare_hz = 0\n"
            + "[omit]\nomega_m_hz = 0.66e6\ncoupling_hz = 1e3\n",
        )
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 2
        assert "kappa_lc_tot" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

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

    def test_blue_pump_offset_rejected(self, tmp_path, capsys):
        cfg = self.omit_ini(
            tmp_path,
            "omega_m_hz = 0.66e6\ngamma_e_hz = 900\npump_offset_hz = 2e6\n",
        )
        assert run(["omit", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                    "--preset", "hat270"]) == 2
        assert "red-detuned" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path, capsys):
        cfg = self.omit_ini(
            tmp_path, "omega_m_hz = 0.66e6\ngamma_m_hz = 10\ngamma_e_hz = 900\n"
        )
        out_a, out_b = str(tmp_path / "oa.csv"), str(tmp_path / "ob.csv")
        assert run(["omit", "--config", cfg, "--out", out_a, "--preset", "hat270"]) == 0
        assert run(["omit", "--config", cfg, "--out", out_b, "--preset", "hat270"]) == 0
        assert (tmp_path / "oa.csv").read_bytes() == (tmp_path / "ob.csv").read_bytes()
        assert (tmp_path / "oa.report.json").read_bytes() == (
            tmp_path / "ob.report.json"
        ).read_bytes()


class TestConfigKeys:
    """Every command reads its config against one key table."""

    def configs(self, tmp_path):
        hat = HAT_PRESETS["hat270"]
        write_trace(tmp_path / "data.csv", s21(hat, merged_grid(hat)))
        return {
            "simulate": grid_section(6.8e9, 7.6e9, 11),
            "fit": f"[fit]\nfree_params = g\ntrace = {tmp_path / 'data.csv'}\n",
            "sweep": "[sweep]\nfield = g\nstart_hz = 10e6\nstop_hz = 90e6\npoints = 5\n",
            "omit": omit_grid_for("hat270", points=101) + "[omit]\nomega_m_hz = 0.66e6\n",
        }

    def run_command(self, tmp_path, command, text):
        cfg = write_ini(tmp_path, text, name="keys.ini")
        out = tmp_path / "keys.out"
        return run([command, "--config", cfg, "--out", str(out), "--preset", "hat270"]), out

    @pytest.mark.parametrize("command", ["simulate", "fit", "sweep", "omit"])
    def test_known_keys_run(self, tmp_path, capsys, command):
        assert self.run_command(tmp_path, command, self.configs(tmp_path)[command])[0] == 0

    @pytest.mark.parametrize("command, typo, message", [
        pytest.param(command, typo, message, id=f"{command}-{name}")
        for command, name, typo, message in [
            ("simulate", "ponits", "[grid]\nponits = 5\n",
             "grid.ponits: unknown key; did you mean 'points'?"),
            ("omit", "ponits", "[grid]\nponits = 5\n",
             "grid.ponits: unknown key; did you mean 'points'?"),
            ("sweep", "ponits", "[sweep]\nponits = 5\n",
             "sweep.ponits: unknown key; did you mean 'points'?"),
            ("fit", "max_iteration", "[fit]\nmax_iteration = 5\n",
             "fit.max_iteration: unknown key; did you mean 'max_iterations'?"),
            *[(command, "g_hzz", "[params]\ng_hzz = 57e6\n",
               "params.g_hzz: unknown key; did you mean 'g_hz'?")
              for command in ("simulate", "fit", "sweep", "omit")],
            # with no close section the nearest of the command's own is named
            *[(command, "simulat", "[simulat]\n",
               f"simulat: unknown section; did you mean '{command}'?")
              for command in ("simulate", "fit", "sweep", "omit")],
            ("simulate", "mode_section", "[mode.2]\nomega_m_hz = 1e6\n",
             "mode.2: unknown section"),
            ("omit", "mode_pump_key", "[mode.2]\nomega_m_hz = 1e6\npump_offset_hz = 0\n",
             "mode.2.pump_offset_hz: unknown key; did you mean"),
        ]
    ])
    def test_unknown_names_refused(self, tmp_path, capsys, command, typo, message):
        base = self.configs(tmp_path)[command]
        header, _ = typo.split("\n", 1)
        text = base.replace(header + "\n", typo, 1) if header in base else base + typo
        rc, out = self.run_command(tmp_path, command, text)
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err
        assert captured.out == "" and not out.exists()
        assert list(tmp_path.glob("keys*")) == [tmp_path / "keys.ini"]

    def test_default_section_refused(self, tmp_path, capsys):
        # configparser would copy [DEFAULT] keys into [grid] and blame them there
        text = "[DEFAULT]\nnote = x\n" + self.configs(tmp_path)["simulate"]
        rc, out = self.run_command(tmp_path, "simulate", text)
        captured = capsys.readouterr()
        assert rc == 2
        assert "DEFAULT: unknown section" in captured.err
        assert "grid.note" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, text, keys", [
        ("sweep", "field = g\nvalues_hz = 20e6\nstart_hz = 10e6\n", ("values_hz", "start_hz")),
        ("sweep", "field = g\nvalues_hz = 20e6\nstop_hz = 90e6\n", ("values_hz", "stop_hz")),
        ("sweep", "field = g\nvalues_hz = 20e6\npoints = 5\n", ("values_hz", "points")),
        ("fit", "free_params = g\ntrace = {data}\ntraces = {data}, {data}\nshared = g\n",
         ("trace", "traces")),
        ("fit", "free_params = g\ntrace = {data}\nbound_omega_cav_hz = 7e9, 8e9\n",
         ("bound_omega_cav_hz", "free_params")),
        # a joint fit runs no Monte Carlo batch
        ("fit", "free_params = g\ntraces = {data}, {data}\nshared = g\nmonte_carlo_runs = 3\n",
         ("monte_carlo_runs", "traces")),
        ("fit", "free_params = g\ntraces = {data}, {data}\nshared = g\nnoise_amplitude = 0.01\n",
         ("noise_amplitude", "traces")),
        # noise without runs is never applied; runs without noise repeat one fit
        ("fit", "free_params = g\ntrace = {data}\nnoise_amplitude = 0.5\n",
         ("noise_amplitude", "monte_carlo_runs")),
        ("fit", "free_params = g\ntrace = {data}\nmonte_carlo_runs = 2\n",
         ("monte_carlo_runs", "noise_amplitude")),
        # one trace is one fit, with nothing to pool
        ("fit", "free_params = g\ntrace = {data}\nshared = g\n", ("shared", "trace")),
        # refused before any trace is read: neither file exists
        ("fit", "free_params = g\ntraces = {data}-a, {data}-b\nshared = kappa_cav_1\n",
         ("fit.shared: kappa_cav_1 is not in fit.free_params",)),
        # one file is a trace, not a joint fit
        ("fit", "free_params = g\ntraces = {data}-a\n",
         ("fit.traces: list at least two files; give one as fit.trace",)),
        ("fit", "free_params = g\ntraces = {data}-a\nshared = g\n",
         ("fit.traces: list at least two files; give one as fit.trace",)),
        ("fit", "free_params = g\ntraces = {data}-a\nmonte_carlo_runs = 3\n"
         "noise_amplitude = 0.01\n", ("monte_carlo_runs", "traces")),
    ], ids=["values_and_start", "values_and_stop", "values_and_points", "trace_and_traces",
            "bound_of_fixed_param", "monte_carlo_runs_and_traces", "noise_and_traces",
            "noise_without_runs", "runs_without_noise", "shared_and_trace",
            "shared_param_not_free", "one_entry_traces", "one_entry_traces_and_shared",
            "one_entry_traces_and_monte_carlo"])
    def test_keys_a_run_would_drop_refused(self, tmp_path, capsys, command, text, keys):
        self.configs(tmp_path)  # writes data.csv
        text = f"[{command}]\n" + text.format(data=tmp_path / "data.csv")
        rc, out = self.run_command(tmp_path, command, text)
        err = capsys.readouterr().err
        assert rc == 2
        assert all(key in err for key in keys), err
        assert not out.exists()


class TestEntryPoint:
    @pytest.mark.parametrize("command, config", [
        ("simulate", grid_section(6.8e9, 7.6e9, 101)
         + "[simulate]\nnoise_amplitude = 0.01\n"),
        ("fit", "[fit]\nfree_params = g\ntrace = data.csv\n"
         "monte_carlo_runs = 2\nnoise_amplitude = 0.01\n"),
    ], ids=["simulate", "fit"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, config):
        hat = HAT_PRESETS["hat270"]
        write_trace(tmp_path / "data.csv", s21(hat, merged_grid(hat)))
        cfg = write_ini(tmp_path, config.replace("data.csv", str(tmp_path / "data.csv")))
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", cfg, "--out", str(out), "--seed", "-1",
                 "--preset", "hat270"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

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
