"""The CLI's cases as data: each row is one cavlink run and what it must do.

``check(case, directory, call)`` runs a row in ``directory`` through
``call(argv) -> (exit code, stdout, stderr)``: ``test_cli.test_case`` passes
``cavlink.cli.run`` in process, ``installed_cli`` the ``cavlink`` script on
PATH. Paths in a config are relative to ``directory``, where the run starts.

Besides each row's own fields, every row is held to two uniform checks. A run
that exits 2, 3 or 4 prints nothing to stdout and leaves ``directory`` as it
found it. Every output of a run that exits 0 or 5 exists, with the mode
``open(path, "w")`` gives a new file: 0666 less the umask.
"""

import os
import re
import stat
from typing import NamedTuple

import numpy as np
from conftest import merged_grid, reference_params

from cavlink import HAT_PRESETS, ComplexTrace, s21
from cavlink.tracefile import write_trace

UMASK = os.umask(0o022)
os.umask(UMASK)


class Case(NamedTuple):
    id: str
    args: str  # a command and its options; --config <id>.ini --out <out> follow the command
    config: object = None  # the config's text or bytes; None writes no config
    rc: int = 0
    err: tuple = ()  # words stderr names, as grep -Fw finds them
    not_err: tuple = ()  # strings stderr must not contain
    out: str = "out.csv"
    outputs: tuple = None  # what a run that exits 0 or 5 leaves; default (out,)
    stdout: tuple = ()  # words stdout names
    files: dict = {}  # inputs written first: name -> text, bytes or a builder(path)
    after: tuple = ()  # rows run first, in the same directory
    cmp: str = None  # a row, run first, whose outputs this row's equal byte for byte


def refused(id, args, config, *err, rc=2, **fields):
    """A row whose run fails with exit code ``rc``, its stderr naming each of ``err``."""
    return Case(id, args, config, rc, err, **fields)


def _s21(params, freqs=None):
    """A builder that writes s21(params) on freqs, by default the merged grid."""
    def build(path):
        write_trace(path, s21(params, merged_grid(params) if freqs is None else freqs))
    return build


def _zero_power(path):
    grid = merged_grid(reference_params())
    write_trace(path, ComplexTrace(grid, np.zeros(grid.size), "power_normalized"))


def _crlf(path):
    """sim201.csv with CRLF endings, a comment and a blank line mid-data."""
    lines = [line + b"\r\n" for line in (path.parent / "sim201.csv").read_bytes().splitlines()]
    lines.insert(149, b"\r\n")
    lines.insert(99, b"# note\r\n")
    path.write_bytes(b"".join(lines))


def grid(points=101, start="6.8e9", stop="7.6e9"):
    return f"[grid]\nf_start_hz = {start}\nf_stop_hz = {stop}\npoints = {points}\n"


SIM, FIT, SWEEP, OMIT = (f"{command} --preset hat270"
                         for command in ("simulate", "fit", "sweep", "omit"))
RAD_S = ("rad/s",)  # absent where a message names the config's values in Hz
DATA = {"data.csv": _s21(reference_params())}
DATA_900 = {**DATA, "b.csv": _s21(reference_params(delta_bare_hz=900e6))}
FREE5 = "[fit]\nfree_params = omega_cav, omega_lc, kappa_cav_1, kappa_lc_bare, g\n"
FIT5 = FREE5 + "trace = data.csv\n"
# hat270's dressed LC frequency +- 6 kHz
OMIT_GRID = grid(2401, "6993961759.947647", "6993973759.947647")
WINDOW = "[omit]\nomega_m_hz = 0.66e6\ngamma_m_hz = 10\ngamma_e_hz = 900\n"
OMIT_101 = grid(101, "6993961760", "6993973760") + WINDOW
TARGETS = "[sweep]\nfield = g\nvalues_hz = 20e6\n"
# one known-good config per command, for the key-table rows
KEYS = {
    "simulate": grid(11),
    "fit": "[fit]\nfree_params = g\ntrace = data.csv\n",
    "sweep": "[sweep]\nfield = g\nstart_hz = 10e6\nstop_hz = 90e6\npoints = 5\n",
    "omit": grid(101, "6993961759.947647", "6993973759.947647") + "[omit]\nomega_m_hz = 0.66e6\n",
}
KEYS_DATA = {"data.csv": _s21(HAT_PRESETS["hat270"])}


def _typo(command, typo):
    """KEYS[command] with a misspelt name put into its section, or added."""
    base, header = KEYS[command], typo.split("\n", 1)[0]
    return base.replace(header + "\n", typo, 1) if header in base else base + typo


ROWS = [
    Case("help", "--help", stdout=("simulate", "fit", "sweep", "omit"), outputs=()),
    # -- simulate
    Case("simulate", SIM, grid(11)),
    refused("simulate-negative-rate", SIM, grid() + "[params]\nkappa_lc_bare_hz = -5\n",
            "params.kappa_lc_bare_hz: must be non-negative, got -5", not_err=RAD_S),
    refused("simulate-zero-frequency", SIM, grid() + "[params]\nomega_cav_hz = 0\n",
            "params.omega_cav_hz: must be positive, got 0", not_err=RAD_S),
    refused("simulate-rate-overflows", SIM, grid() + "[params]\ng_hz = 1e308\n",
            "params.g_hz: must be at most 2.86e+307 Hz, got 1e308", not_err=RAD_S),
    # grids that end finite in Hz but infinite in rad/s
    refused("simulate-grid-stop-overflows", SIM, grid(stop="1e308"),
            "grid.f_stop_hz: must be at most 2.86e+307 Hz in magnitude, got 1e308", not_err=RAD_S),
    refused("simulate-grid-start-overflows", SIM, grid(start="-1e308"),
            "grid.f_start_hz: must be at most 2.86e+307 Hz in magnitude, got -1e308",
            not_err=RAD_S),
    refused("simulate-grid-unordered", SIM, grid(start="7.6e9", stop="6.8e9"),
            "grid.f_stop_hz: must be greater than grid.f_start_hz", not_err=RAD_S),
    # finite in rad/s, but the model's values are not: the axis is named
    refused("simulate-grid-past-numeric-domain", SIM, grid(start="1e299", stop="2e299"),
            "frequency axis reaches 2e+299 Hz", not_err=RAD_S),
    # g is finite in rad/s but g^2 is not
    refused("simulate-coupling-square-overflows", SIM, grid() + "[params]\ng_hz = 1e160\n",
            "params.g_hz: ", "finite", "got 1e160"),
    # the cross-rate rules of SystemParams, named by key: a rate the config
    # does not give is quoted from the preset
    refused("simulate-port-product-overflows", SIM,
            grid() + "[params]\nkappa_cav_1_hz = 1e300\nkappa_cav_2_hz = 1e300\n",
            "params.kappa_cav_1_hz and params.kappa_cav_2_hz: must have a product of at most "
            "4.55e+306 Hz^2, got 1e300 and 1e300", not_err=RAD_S),
    refused("simulate-port-product-with-preset-rate", SIM,
            grid() + "[params]\nkappa_cav_1_hz = 1e300\n",
            "params.kappa_cav_1_hz and params.kappa_cav_2_hz: must have a product of at most "
            "4.55e+306 Hz^2, got 1e300 and 5000000.0", not_err=RAD_S),
    refused("simulate-cavity-sum-overflows", SIM, grid() + "[params]\nkappa_cav_1_hz = 2.8e307\n"
            "kappa_cav_2_hz = 0\nkappa_cav_loss_hz = 2.8e307\n",
            "params.kappa_cav_1_hz, params.kappa_cav_2_hz and params.kappa_cav_loss_hz: "
            "must have a sum of at most 2.86e+307 Hz, got 2.8e307, 0 and 2.8e307",
            not_err=RAD_S),
    refused("simulate-unknown-output", SIM, grid() + "[simulate]\noutputs = s12\n", "s12"),
    refused("simulate-repeated-output", SIM, grid() + "[simulate]\noutputs = s21, s11, s21\n",
            "simulate.outputs", "'s21'"),
    refused("simulate-negative-noise", SIM, grid() + "[simulate]\nnoise_amplitude = -0.01\n",
            "simulate.noise_amplitude"),
    refused("simulate-single-point-grid", SIM, grid(1), "grid.points"),
    refused("simulate-params-without-preset", "simulate", grid(), "omega_cav_hz"),
    refused("simulate-missing-grid", SIM, "[simulate]\noutputs = s21\n",
            "grid: missing required section"),
    refused("simulate-missing-config", SIM, None, rc=3),
    refused("simulate-undecodable-config", SIM, grid().encode() + b"; temp\xe9rature\n",
            "simulate-undecodable-config.ini: byte 0xe9 is not UTF-8"),
    refused("simulate-unwritable-output", SIM, grid(), rc=3, out="no/such/dir/x.csv"),
    # the unknown key is named, not the missing points
    refused("simulate-misspelt-points", SIM, "[grid]\nf_start_hz = 6.8e9\nf_stop_hz = 7.6e9\n"
            "ponits = 5\n", "grid.ponits", "'points'"),
    # an empty [params] is no [params]
    Case("simulate-bare", SIM, grid(801) + "[simulate]\noutputs = s21, s11\n",
         out="bare.csv", outputs=("bare-s21.csv", "bare-s11.csv")),
    Case("simulate-empty-params", SIM, grid(801) + "[simulate]\noutputs = s21, s11\n[params]\n",
         out="empty.csv", outputs=("empty-s21.csv", "empty-s11.csv"), cmp="simulate-bare"),
    # -- fit
    refused("fit-zero-power", FIT, FREE5 + "trace = zero.csv\n", "trace power is identically zero",
            not_err=("domain",), files={"zero.csv": _zero_power}),
    # a cavity at 1.6e306 Hz puts L C out of range at every probe point
    refused("fit-start-outside-domain", FIT, "[params]\nomega_cav_hz = 1.6e306\n"
            "[fit]\nfree_params = g\ntrace = hat270.csv\n",
            "initial guess is outside the model's domain",
            files={"hat270.csv": _s21(HAT_PRESETS["hat270"], np.linspace(6.8e9, 7.6e9, 101))}),
    # a trace above 2.86e307 Hz overflows in rad/s: the axis is named, not the start
    refused("fit-frequencies-overflow", FIT, "[fit]\nfree_params = g\ntrace = far.csv\n",
            "frequency axis reaches 3e+307 Hz", not_err=("initial guess",), files={"far.csv": (
                "freq_hz,re,im\n2.9e307,1,0\n2.925e307,1,0\n2.95e307,1,0\n2.975e307,1,0\n"
                "3e307,1,0\n")}),
    # g^2 overflows, so the model reads S21 = 0 and no free parameter moves it
    refused("fit-coupling-square-overflows", FIT, "[params]\ng_hz = 1e160\n" + FIT5,
            "has no effect on this trace", files=DATA),
    refused("fit-malformed-trace", FIT, FREE5 + "trace = bad.csv\n", "bad.csv:3", rc=4,
            files={"bad.csv": "freq_hz,re,im\n1,0,0\n2,zz,0\n"}),
    refused("fit-undecodable-trace", FIT, FREE5 + "trace = bad.csv\n",
            "bad.csv:2: byte 0xe9 is not UTF-8", rc=4,
            files={"bad.csv": b"# cavlink trace\n# note: temp\xe9rature\nfreq_hz,re,im\n"
                              b"1,0,0\n2,0,0\n"}),
    refused("fit-traces-without-shared", FIT, FREE5 + "traces = data.csv, b.csv\n", "shared",
            files=DATA_900),
    refused("fit-negative-runs", FIT, FIT5 + "monte_carlo_runs = -3\n",
            "fit.monte_carlo_runs", "non-negative", files=DATA),
    refused("fit-negative-noise", FIT, FIT5 + "monte_carlo_runs = 3\nnoise_amplitude = -0.01\n",
            "fit.noise_amplitude", "non-negative", files=DATA),
    refused("fit-zero-max-iterations", FIT, FIT5 + "max_iterations = 0\n",
            "fit.max_iterations: must be positive, got 0", files=DATA),
    refused("fit-zero-tolerance", FIT, FIT5 + "tolerance = 0\n",
            "fit.tolerance: must be in (0, 1), got 0", files=DATA),
    refused("fit-tolerance-above-one", FIT, FIT5 + "tolerance = 1.5\n",
            "fit.tolerance: must be in (0, 1), got 1.5", files=DATA),
    # both Monte Carlo keys at 0 run the one plain fit
    Case("fit-plain", FIT, FIT5, out="plain.json", files=DATA),
    Case("fit-zero-monte-carlo", FIT, FIT5 + "monte_carlo_runs = 0\nnoise_amplitude = 0\n",
         out="zeros.json", cmp="fit-plain"),
    refused("fit-bound-unordered", FIT, FIT5 + "bound_g_hz = 2e8, 1e8\n",
            "fit.bound_g_hz: must satisfy lo < hi, got 2e8, 1e8", files=DATA),
    refused("fit-bound-negative-rate", FIT, FIT5 + "bound_g_hz = -1e6, 1e8\n",
            "fit.bound_g_hz: lo must be non-negative, got -1e6, 1e8", files=DATA),
    refused("fit-bound-zero-frequency", FIT, FIT5 + "bound_omega_cav_hz = 0, 8e9\n",
            "fit.bound_omega_cav_hz: lo must be positive, got 0, 8e9", files=DATA),
    refused("fit-bound-one-number", FIT, FIT5 + "bound_g_hz = 1e8\n",
            "fit.bound_g_hz: expected 'lo,hi'", files=DATA),
    refused("fit-bound-not-numbers", FIT, FIT5 + "bound_g_hz = low, high\n",
            "fit.bound_g_hz: bounds must be numbers", files=DATA),
    # hat270's g starts at 57 MHz, outside this box
    refused("fit-bound-start-outside", FIT, FIT5 + "bound_g_hz = 1e300, 2e300\n",
            "fit.bound_g_hz: must hold the start 57000000.0 Hz, got 1e300, 2e300", files=DATA),
    # below hi in Hz, but lo overflows in rad/s
    refused("fit-bound-lo-overflows", FIT, FIT5 + "bound_g_hz = 1e308, inf\n",
            "fit.bound_g_hz: lo must be at most 2.86e+307 Hz, got 1e308, inf", files=DATA),
    refused("fit-empty-free-params", FIT, "[fit]\nfree_params =\ntrace = data.csv\n",
            "fit.free_params", files=DATA),
    # S21 sees the cavity rates only through kappa_cav_1 kappa_cav_2 and their
    # sum with kappa_cav_loss: with all seven free, a combination of the three
    # has no effect. 201 points clear the 5 per parameter.
    Case("simulate-201", SIM, grid(201), out="sim201.csv"),
    refused("fit-seven-free", FIT, "[fit]\nfree_params = omega_cav, omega_lc, kappa_cav_1, "
            "kappa_cav_2, kappa_cav_loss, kappa_lc_bare, g\ntrace = sim201.csv\n",
            "kappa_cav_1", "kappa_cav_2", "kappa_cav_loss", after=("simulate-201",)),
    # the line walk: the CRLF copy fits to a report byte-identical to the plain file's
    Case("fit-plain-201", FIT, "[fit]\nfree_params = g, kappa_lc_bare\ntrace = sim201.csv\n",
         out="plain201.json", after=("simulate-201",)),
    Case("fit-crlf-201", FIT, "[fit]\nfree_params = g, kappa_lc_bare\ntrace = crlf201.csv\n",
         out="crlf201.json", files={"crlf201.csv": _crlf}, cmp="fit-plain-201"),
    # a lossless LC fitted from 0.48 MHz of LC loss ends with kappa_lc_bare on
    # its bound: the fit holds it there and converges (exit 0) instead of
    # crawling along the bound to max_iterations (exit 5)
    Case("simulate-lossless", "simulate --preset hat238 --seed 18", grid(801)
         + "[params]\nkappa_lc_bare_hz = 0\n[simulate]\nnoise_amplitude = 0.003\n",
         out="lossless.csv"),
    Case("fit-lossless", "fit --preset hat238",
         "[params]\ng_hz = 59.85e6\nkappa_lc_bare_hz = 0.48e6\n"
         "[fit]\nfree_params = omega_cav, omega_lc, kappa_cav_1, kappa_lc_bare, g\n"
         "trace = lossless.csv\n", out="lossless.json", after=("simulate-lossless",)),
    # a joint fit of two S11 traces starts each from |1 - S11|^2, which peaks
    # where |S21|^2 does (an S11 dip has no power peak of its own)
    *(Case(f"simulate-s11-{hat}", f"simulate --preset {hat} --seed 5",
           grid(801) + "[simulate]\noutputs = s11\nnoise_amplitude = 0.003\n", out=f"{hat}.csv")
      for hat in ("hat238", "hat270")),
    Case("fit-s11-joint", "fit --preset hat238", "[params]\ng_hz = 59.85e6\n[fit]\nfree_params = "
         "omega_cav, omega_lc, kappa_lc_bare, g\ntraces = hat238.csv, hat270.csv\nshared = g\n",
         out="joint.json", after=("simulate-s11-hat238", "simulate-s11-hat270")),
    # -- sweep
    refused("sweep-empty-values", SWEEP, "[sweep]\nfield = g\nvalues_hz =\n", "sweep.values_hz"),
    refused("sweep-zero-points", SWEEP, "[sweep]\nfield = g\nstart_hz = 10e6\nstop_hz = 90e6\n"
            "points = 0\n", "sweep.points: must be at least 1"),
    refused("sweep-non-numeric-values", SWEEP, "[sweep]\nfield = g\nvalues_hz = 20e6, many\n",
            "sweep.values_hz: entries must be numbers"),
    refused("sweep-unknown-field", "sweep --preset design",
            "[sweep]\nfield = omega_lc\nvalues_hz = 7e9\n", "sweep.field"),
    refused("sweep-unknown-field-closest", SWEEP, "[sweep]\nfield = G\nvalues_hz = 20e6\n",
            "sweep.field: unknown field; did you mean 'g'?"),
    *(refused(f"sweep-{name}", SWEEP, TARGETS + lines, message) for name, lines, message in [
        ("band-unordered", "band_lo_hz = 3e6\nband_hi_hz = 1e6\n",
         "sweep.band_hi_hz: must be greater than sweep.band_lo_hz"),
        ("band-lo-negative", "band_lo_hz = -1\n",
         "sweep.band_lo_hz: must be non-negative, got -1"),
        ("band-hi-negative", "band_hi_hz = -1\n",
         "sweep.band_hi_hz: must be non-negative, got -1"),
        ("omega-m-overflows", "omega_m_hz = 1e308\n",
         "sweep.omega_m_hz: must be at most 2.86e+307 Hz, got 1e308"),
        ("omega-m-zero", "omega_m_hz = 0\n", "sweep.omega_m_hz: must be positive, got 0"),
        ("threshold-zero", "sideband_threshold = 0\n",
         "sweep.sideband_threshold: must be positive, got 0"),
        ("fraction-above-one", "max_dissipation_fraction = 1.5\n",
         "sweep.max_dissipation_fraction: must be in [0, 1], got 1.5"),
    ]),
    # -- omit
    Case("omit", OMIT, OMIT_101, out="omit.csv", outputs=("omit.csv", "omit.report.json")),
    refused("omit-negative-extra-loss", OMIT, OMIT_101 + "lc_extra_loss_hz = -1\n",
            "omit.lc_extra_loss_hz: must be non-negative, got -1"),
    refused("omit-huge-coupling", OMIT,
            OMIT_101.replace("gamma_e_hz = 900", "coupling_hz = 1e300"),
            "omit.coupling_hz: must keep the coupling and its damping finite, got 1e300"),
    refused("omit-coupling-and-damping", OMIT, OMIT_GRID + "[omit]\nomega_m_hz = 0.66e6\n"
            "gamma_e_hz = 900\ncoupling_hz = 2e4\n", "not both"),
    *(refused(f"omit-negative-{name}", OMIT, OMIT_GRID + "[omit]\nomega_m_hz = 0.66e6\n"
              "gamma_m_hz = 10\n" + lines, key, "non-negative") for name, lines, key in [
        ("coupling", "coupling_hz = -5e3\n", "omit.coupling_hz"),
        ("gamma-e", "gamma_e_hz = -900\n", "omit.gamma_e_hz"),
        ("coupling-with-gamma-e", "coupling_hz = -1\ngamma_e_hz = 900\n", "omit.coupling_hz"),
    ]),
    *(refused(f"omit-{name}", OMIT, OMIT_GRID + "[omit]\n" + lines + "gamma_e_hz = 900\n", message,
              not_err=RAD_S) for name, lines, message in [
        ("omega-m-negative", "omega_m_hz = -1\n", "omit.omega_m_hz: must be positive, got -1"),
        ("omega-m-zero", "omega_m_hz = 0\n", "omit.omega_m_hz: must be positive, got 0"),
        ("gamma-m-negative", "omega_m_hz = 0.66e6\ngamma_m_hz = -10\n",
         "omit.gamma_m_hz: must be non-negative, got -10"),
        ("extra-loss-negative", "omega_m_hz = 0.66e6\nlc_extra_loss_hz = -1e3\n",
         "omit.lc_extra_loss_hz: must be non-negative, got -1e3"),
        ("mode2-omega-m-negative", "omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = -2e6\n",
         "mode.2.omega_m_hz: must be positive, got -2e6"),
        ("mode2-gamma-m-negative",
         "omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = 1.1e6\ngamma_m_hz = -25\n",
         "mode.2.gamma_m_hz: must be non-negative, got -25"),
        ("omega-m-overflows", "omega_m_hz = 1e308\n",
         "omit.omega_m_hz: must be at most 2.86e+307 Hz, got 1e308"),
        ("lc-shift", "omega_m_hz = 0.66e6\nlc_shift_hz = -8e9\n",
         "omit.lc_shift_hz: must keep the LC frequency positive and finite, got -8e9"),
        ("blue-pump", "omega_m_hz = 0.66e6\npump_offset_hz = 2e6\n",
         "omit.pump_offset_hz: must keep the pump red-detuned, above 0 Hz, got 2e6"),
        # 4 G^2 / kappa_lc_tot overflows
        ("damping-overflows",
         "omega_m_hz = 0.66e6\ncoupling_hz = 1e300\n[mode.2]\nomega_m_hz = 1.1e6\n",
         "omit.coupling_hz: must keep the coupling and its damping finite, got 1e300"),
        ("mode2-damping-overflows", "omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = 1.1e6\n"
         "coupling_hz = 1e300\n[mode.3]\nomega_m_hz = 1.5e6\n",
         "mode.2.coupling_hz: must keep the coupling and its damping finite, got 1e300"),
        # G = sqrt(gamma_e kappa_lc_tot) / 2 overflows
        ("mode2-coupling-overflows", "omega_m_hz = 0.66e6\n[mode.2]\nomega_m_hz = 1.1e6\n"
         "gamma_e_hz = 1e307\n[mode.3]\nomega_m_hz = 1.5e6\n",
         "mode.2.gamma_e_hz: must keep the coupling and its damping finite, got 1e307"),
        # gamma_e is modest, but the extra loss makes gamma_e kappa_lc_tot overflow
        ("extra-loss-coupling-overflows", "omega_m_hz = 0.66e6\nlc_extra_loss_hz = 2.8e307\n",
         "omit.gamma_e_hz: must keep the coupling and its damping finite with "
         "omit.lc_extra_loss_hz = 2.8e307, got 900"),
    ]),
    refused("omit-mode-section-not-integer", OMIT, OMIT_GRID + "[omit]\nomega_m_hz = 0.66e6\n"
            "gamma_e_hz = 900\n[mode.two]\nomega_m_hz = 1.1e6\ngamma_e_hz = 600\n", "mode.two"),
    # g = 0 and a lossless LC leave kappa_lc_tot = 0, where the
    # electromechanical damping 4 G^2 / kappa_lc_tot is undefined
    refused("omit-zero-lc-linewidth", OMIT, OMIT_GRID + "[params]\ng_hz = 0\n"
            "kappa_lc_bare_hz = 0\n[omit]\nomega_m_hz = 0.66e6\ncoupling_hz = 1e3\n",
            "kappa_lc_tot"),
    Case("omit-window", OMIT, OMIT_GRID + WINDOW, out="a.csv", outputs=("a.csv", "a.report.json")),
    Case("omit-again", OMIT, OMIT_GRID + WINDOW, out="b.csv", outputs=("b.csv", "b.report.json"),
         cmp="omit-window"),
    # -- every command reads its config against one key table
    *(Case(f"keys-{command}", f"{command} --preset hat270", text, out="keys.out",
           outputs=("keys.out", "keys.report.json") if command == "omit" else None,
           files=KEYS_DATA)
      for command, text in KEYS.items()),
    *(refused(f"keys-{command}-{name}", f"{command} --preset hat270", _typo(command, typo),
              message, out="keys.out", files=KEYS_DATA) for command, name, typo, message in [
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
          for command in KEYS],
        # with no close section the nearest of the command's own is named
        *[(command, "simulat", "[simulat]\n",
           f"simulat: unknown section; did you mean '{command}'?")
          for command in KEYS],
        ("simulate", "mode-section", "[mode.2]\nomega_m_hz = 1e6\n", "mode.2: unknown section"),
        ("omit", "mode-pump-key", "[mode.2]\nomega_m_hz = 1e6\npump_offset_hz = 0\n",
         "mode.2.pump_offset_hz: unknown key; did you mean"),
    ]),
    # configparser would copy [DEFAULT] keys into [grid] and blame them there
    refused("keys-default-section", SIM, "[DEFAULT]\nnote = x\n" + KEYS["simulate"],
            "DEFAULT: unknown section", not_err=("grid.note",), out="keys.out"),
    *(refused(f"keys-{command}-{name}", f"{command} --preset hat270", f"[{command}]\n" + text,
              *keys, out="keys.out", files=KEYS_DATA) for command, name, text, keys in [
        ("sweep", "values-and-start", "field = g\nvalues_hz = 20e6\nstart_hz = 10e6\n",
         ("values_hz", "start_hz")),
        ("sweep", "values-and-stop", "field = g\nvalues_hz = 20e6\nstop_hz = 90e6\n",
         ("values_hz", "stop_hz")),
        ("sweep", "values-and-points", "field = g\nvalues_hz = 20e6\npoints = 5\n",
         ("values_hz", "points")),
        ("fit", "trace-and-traces",
         "free_params = g\ntrace = data.csv\ntraces = data.csv, data.csv\nshared = g\n",
         ("trace", "traces")),
        ("fit", "bound-of-fixed-param",
         "free_params = g\ntrace = data.csv\nbound_omega_cav_hz = 7e9, 8e9\n",
         ("bound_omega_cav_hz", "free_params")),
        # a joint fit runs no Monte Carlo batch
        ("fit", "runs-and-traces", "free_params = g\ntraces = data.csv, data.csv\nshared = g\n"
         "monte_carlo_runs = 3\n", ("monte_carlo_runs", "traces")),
        ("fit", "noise-and-traces", "free_params = g\ntraces = data.csv, data.csv\nshared = g\n"
         "noise_amplitude = 0.01\n", ("noise_amplitude", "traces")),
        # noise without runs is never applied; runs without noise repeat one fit
        ("fit", "noise-without-runs", "free_params = g\ntrace = data.csv\nnoise_amplitude = 0.5\n",
         ("noise_amplitude", "monte_carlo_runs")),
        ("fit", "runs-without-noise", "free_params = g\ntrace = data.csv\nmonte_carlo_runs = 2\n",
         ("monte_carlo_runs", "noise_amplitude")),
        # one trace is one fit, with nothing to pool
        ("fit", "shared-and-trace", "free_params = g\ntrace = data.csv\nshared = g\n",
         ("shared", "trace")),
        # refused before any trace is read: neither file exists
        ("fit", "shared-param-not-free", "free_params = g\ntraces = data.csv-a, data.csv-b\n"
         "shared = kappa_cav_1\n", ("fit.shared: kappa_cav_1 is not in fit.free_params",)),
        # one file is a trace, not a joint fit
        ("fit", "one-entry-traces", "free_params = g\ntraces = data.csv-a\n",
         ("fit.traces: list at least two files; give one as fit.trace",)),
        ("fit", "one-entry-traces-and-shared",
         "free_params = g\ntraces = data.csv-a\nshared = g\n",
         ("fit.traces: list at least two files; give one as fit.trace",)),
        ("fit", "one-entry-traces-and-runs", "free_params = g\ntraces = data.csv-a\n"
         "monte_carlo_runs = 3\nnoise_amplitude = 0.01\n", ("monte_carlo_runs", "traces")),
    ]),
    # -- the entry point
    refused("simulate-negative-seed", "simulate --seed -1 --preset hat270",
            grid() + "[simulate]\nnoise_amplitude = 0.01\n", "--seed", out="out.json"),
    refused("fit-negative-seed", "fit --seed -1 --preset hat270", "[fit]\nfree_params = g\n"
            "trace = data.csv\nmonte_carlo_runs = 2\nnoise_amplitude = 0.01\n", "--seed",
            out="out.json", files=KEYS_DATA),
]
CASES = {case.id: case for case in ROWS}
assert len(CASES) == len(ROWS), "row ids repeat"


def _names(text, word):
    """grep -Fw: ``word`` in ``text``, not inside a longer word. An end of
    ``word`` that is not a word character needs no boundary."""
    pattern = re.escape(word)
    if re.match(r"\w", word):
        pattern = r"(?<!\w)" + pattern
    if re.match(r"\w", word[-1]):
        pattern += r"(?!\w)"
    return re.search(pattern, text) is not None


def _outputs(case):
    return (case.out,) if case.outputs is None else case.outputs


def check(case, directory, call):
    """Run ``case`` in ``directory`` through ``call`` and check what it did."""
    for name in case.after + ((case.cmp,) if case.cmp else ()):
        check(CASES[name], directory, call)
    config = f"{case.id}.ini"
    files = case.files if case.config is None else {**case.files, config: case.config}
    for name, content in files.items():
        if callable(content):
            content(directory / name)
        elif isinstance(content, bytes):
            (directory / name).write_bytes(content)
        else:
            (directory / name).write_text(content)
    inputs = sorted(directory.rglob("*"))
    argv = case.args.split()
    if not argv[0].startswith("-"):  # a command, not --help
        argv[1:1] = ["--config", config, "--out", case.out]
    rc, out, err = call(argv)
    assert rc == case.rc, err
    assert [word for word in case.err if not _names(err, word)] == [], err
    assert [word for word in case.not_err if word in err] == [], err
    assert [word for word in case.stdout if not _names(out, word)] == [], out
    if rc in (2, 3, 4):
        assert out == ""
        assert sorted(directory.rglob("*")) == inputs
    else:
        for name in _outputs(case):
            assert stat.S_IMODE((directory / name).stat().st_mode) == 0o666 & ~UMASK, name
    if case.cmp:
        for mine, theirs in zip(_outputs(case), _outputs(CASES[case.cmp]), strict=True):
            assert (directory / mine).read_bytes() == (directory / theirs).read_bytes(), mine
