"""Trace files, configs, and atomic writes."""

import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavlink import (
    ComplexTrace,
    ConfigError,
    FitConfig,
    SweepTargets,
    TraceKind,
    TraceParseError,
    normalized_power_trace,
    tracefile,
)
from cavlink.cli import _TABLES, _read
from cavlink.tracefile import (
    format_float,
    load_config,
    read_trace,
    write_json,
    write_text_atomic,
    write_trace,
)
from cavlink.units import hz_to_angular


def sample_trace(kind=TraceKind.S21, n=7):
    f = np.linspace(6.9e9, 7.1e9, n)
    if kind is TraceKind.POWER:
        return ComplexTrace(f, np.linspace(0.2, 1.0, n), kind)
    values = np.exp(1j * np.linspace(0.0, 1.0, n)) * np.linspace(0.1, 0.9, n)
    return ComplexTrace(f, values, kind)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", [TraceKind.S21, TraceKind.S11, TraceKind.POWER])
    def test_values_and_kind_survive(self, tmp_path, kind):
        path = tmp_path / "trace.csv"
        original = sample_trace(kind)
        write_trace(path, original)
        loaded = read_trace(path)
        assert loaded.kind is kind
        assert np.array_equal(loaded.freqs, original.freqs)
        assert np.array_equal(loaded.values, original.values)

    def test_byte_identical_rewrites(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        trace = sample_trace()
        write_trace(a, trace)
        write_trace(b, trace)
        assert a.read_bytes() == b.read_bytes()

    def test_format_float_is_repr(self):
        assert format_float(np.float64(0.1)) == "0.1"
        assert format_float(1e9 + 0.25) == "1000000000.25"

    def test_headers_imply_kind(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("freq_hz,re,im\n1.0,0.5,0.0\n2.0,0.4,0.1\n", encoding="utf-8")
        assert read_trace(path).kind is TraceKind.S21
        path.write_text("freq_hz,power\n1.0,0.5\n2.0,0.4\n", encoding="utf-8")
        assert read_trace(path).kind is TraceKind.POWER

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text(
            "# produced by hand\n\n# kind = s11\nfreq_hz , re , im\n"
            "1.0, 0.5, 0.0\n\n# midway note\n2.0, 0.4, 0.1\n",
            encoding="utf-8",
        )
        trace = read_trace(path)
        assert trace.kind is TraceKind.S11
        assert len(trace) == 2


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]
_VALUES = st.one_of(
    st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
_POWERS = st.one_of(
    st.sampled_from([v for v in _EDGE_VALUES if not v < 0.0]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def traces(draw):
    """Any valid trace of any kind: strictly increasing finite freqs, values
    with signed zeros, subnormals and extremes (non-negative for power)."""
    kind = draw(st.sampled_from(list(TraceKind)))
    freqs = sorted(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40, unique=True
    )))
    n = len(freqs)
    if kind is TraceKind.POWER:
        values = np.array(draw(st.lists(_POWERS, min_size=n, max_size=n)))
    else:
        parts = draw(st.lists(_VALUES, min_size=2 * n, max_size=2 * n))
        values = np.array(parts).view(complex)
    return ComplexTrace(np.array(freqs), values, kind)


def bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@given(trace=traces())
def test_file_round_trip_is_bit_exact(tmp_path_factory, trace):
    folder = tmp_path_factory.mktemp("roundtrip")
    first, second = folder / "first.csv", folder / "second.csv"
    write_trace(first, trace)
    loaded = read_trace(first)
    assert loaded.kind is trace.kind
    assert bit_equal(loaded.freqs, trace.freqs)
    if trace.kind is TraceKind.POWER:
        assert bit_equal(loaded.values, trace.values)
    else:
        assert bit_equal(loaded.values.real, trace.values.real)
        assert bit_equal(loaded.values.imag, trace.values.imag)
    write_trace(second, loaded)
    assert second.read_bytes() == first.read_bytes()


def test_file_round_trip_is_bit_exact_in_blocks_of_2(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(tracefile, "_BLOCK", 2)
    test_file_round_trip_is_bit_exact(tmp_path_factory)


class TestMemory:
    """A trace file costs one block of rows beyond the arrays it holds."""

    ROWS = 100_000

    @pytest.mark.parametrize("kind", [TraceKind.S21, TraceKind.POWER], ids=lambda k: k.value)
    def test_peaks(self, tmp_path, kind):
        trace = sample_trace(TraceKind.S21, self.ROWS)
        if kind is TraceKind.POWER:
            trace = normalized_power_trace(trace)
        path = tmp_path / "dense.csv"
        tracemalloc.start()
        try:
            write_trace(path, trace)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded = read_trace(path)
            read_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, trace.values)
        assert write_peak < 1e6
        assert read_peak < 2.5 * (loaded.freqs.nbytes + loaded.values.nbytes)


class TestParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_unknown_kind(self, tmp_path):
        path = self.write(tmp_path, "# kind = s99\nfreq_hz,re,im\n1,0,0\n2,0,0\n")
        with pytest.raises(TraceParseError, match="unknown trace kind"):
            read_trace(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "frequency,real,imag\n1,0,0\n")
        with pytest.raises(TraceParseError, match=r"bad\.csv:1: expected header"):
            read_trace(path)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "freq_hz,re,im\n1,0\n")
        with pytest.raises(TraceParseError, match="expected 3 columns, got 2"):
            read_trace(path)

    def test_non_number_with_position(self, tmp_path):
        path = self.write(tmp_path, "freq_hz,re,im\n1,0,0\n2,0,oops\n")
        with pytest.raises(TraceParseError, match=r"bad\.csv:3: column 3: 'oops'"):
            read_trace(path)

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, "freq_hz,power\n1,0.5\n2,inf\n")
        with pytest.raises(TraceParseError, match="non-finite"):
            read_trace(path)

    def test_non_increasing_frequencies(self, tmp_path):
        path = self.write(tmp_path, "freq_hz,power\n2,0.5\n1,0.4\n")
        with pytest.raises(TraceParseError, match="strictly increasing"):
            read_trace(path)

    def test_no_header(self, tmp_path):
        path = self.write(tmp_path, "# only a comment\n")
        with pytest.raises(TraceParseError, match="no header"):
            read_trace(path)

    def test_too_few_samples(self, tmp_path):
        path = self.write(tmp_path, "freq_hz,power\n1,0.5\n")
        with pytest.raises(TraceParseError, match="at least 2 samples"):
            read_trace(path)

    def test_kind_header_mismatch(self, tmp_path):
        path = self.write(tmp_path, "# kind = s21\nfreq_hz,power\n1,0.5\n2,0.4\n")
        with pytest.raises(TraceParseError, match="power-only"):
            read_trace(path)
        path = self.write(
            tmp_path, "# kind = power_normalized\nfreq_hz,re,im\n1,0,0\n2,0,0\n"
        )
        with pytest.raises(TraceParseError, match="re,im"):
            read_trace(path)

    def test_negative_power(self, tmp_path):
        path = self.write(tmp_path, "freq_hz,power\n1,0.5\n2,-0.1\n")
        with pytest.raises(TraceParseError, match="non-negative"):
            read_trace(path)

    def test_missing_file_is_io_not_parse(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "absent.csv")

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# cavlink trace\n# note: temp\xe9rature\nfreq_hz,re,im\n1,0,0\n2,0,0\n")
        with pytest.raises(TraceParseError, match=r"bad\.csv:2: byte 0xe9 is not UTF-8"):
            read_trace(path)
        # rows fill many blocks and decode buffers before the byte; one is bad
        rows = [f"{f},0.5\n" for f in range(1, 20_001)]
        text = "freq_hz,power\n" + "".join(rows) + "# \xe9\n"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(TraceParseError, match=r"bad\.csv:20002: byte 0xe9 is not UTF-8"):
            read_trace(path)
        rows[15_000] = "15001,x\n"
        path.write_bytes(("freq_hz,power\n" + "".join(rows) + "# \xe9\n").encode("latin-1"))
        with pytest.raises(TraceParseError, match=r"bad\.csv:15002: column 2: 'x'"):
            read_trace(path)

    def test_utf8_text_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "accented.csv"
        path.write_bytes("# note: température\nfreq_hz,power\n1,0.5\n2,0.4\n".encode("utf-8"))
        assert len(read_trace(path)) == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as Notepad or Excel's "CSV UTF-8" saves a trace: BOM first, CRLF endings
        path = tmp_path / "bom.csv"
        text = "# cavlink trace\r\n# kind = s11\r\nfreq_hz,re,im\r\n1,0.5,0\r\n2,0.4,0.1\r\n"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        trace = read_trace(path)
        assert trace.kind is TraceKind.S11
        assert np.array_equal(trace.values, [0.5, 0.4 + 0.1j])
        write_trace(path, trace)
        assert not path.read_bytes().startswith(b"\xef\xbb\xbf")

    def test_error_carries_location(self, tmp_path):
        path = self.write(tmp_path, "freq_hz,re,im\n1,0,0\n2,x,0\n")
        with pytest.raises(TraceParseError) as err:
            read_trace(path)
        assert err.value.line_number == 3
        assert err.value.path.endswith("bad.csv")


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "payload\n")
        assert path.read_text(encoding="utf-8") == "payload\n"
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".cavlink-")]
        assert leftovers == []

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        # a directory in the way makes the final rename fail
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            write_text_atomic(tmp_path / "taken", "payload\n")
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "a much longer first payload\n")
        write_text_atomic(path, "short\n")
        assert path.read_text(encoding="utf-8") == "short\n"

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
    def test_written_files_follow_the_umask(self, tmp_path, umask):
        # the mode open(path, "w") gives a new file, also when one is replaced
        old = os.umask(umask)
        try:
            (tmp_path / "old.txt").write_text("", encoding="utf-8")
            os.chmod(tmp_path / "old.txt", 0o644)
            write_text_atomic(tmp_path / "old.txt", "payload\n")
            write_text_atomic(tmp_path / "new.txt", "payload\n")
            write_json(tmp_path / "new.json", {})
            write_trace(tmp_path / "new.csv", sample_trace())
        finally:
            os.umask(old)
        for name in ("old.txt", "new.txt", "new.json", "new.csv"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask, name

    def test_write_json_layout(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {"b": 2, "a": [1.5, None]}
        write_json(path, payload)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == payload


class TestConfig:
    """``load_config`` and the CLI's key-table walker ``cli._read``."""

    GRID = "[grid]\nf_start_hz = 1\nf_stop_hz = 2\n"

    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        return path

    def read(self, tmp_path, command, text, preset="hat270"):
        return _read(load_config(self.write(tmp_path, text)), _TABLES[command], preset)

    def test_inline_comments(self, tmp_path):
        text = "[params]\ng_hz = 57e6  # published\n[sweep]\nfield = g\nvalues_hz = 1 ; one\n"
        values = self.read(tmp_path, "sweep", text)
        assert values["params"].g == hz_to_angular(57e6)
        assert values["sweep"]["values_hz"] == ["1"]

    def test_readme_config_blocks_load_verbatim(self, tmp_path):
        # The README's examples use `;` comments, both on their own and after
        # values; every block must load with the comments stripped. They are
        # also the key reference: each key they show is in its command's table
        # (the shared [params] block in every table, [grid] in simulate's and
        # omit's), each block reads without error, and the README names every
        # table key.
        readme_path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme_path, encoding="utf-8") as handle:
            readme = handle.read()
        blocks = [b.split("```")[0] for b in readme.split("```ini\n")[1:]]
        assert len(blocks) == 5
        for block in blocks:
            cp = load_config(self.write(tmp_path, block))
            for section in cp.sections():
                for key, value in cp.items(section):
                    assert ";" not in value, f"{section}.{key} = {value!r}"
        shared, params = blocks[0], blocks[0].split("[grid]")[0]
        values = self.read(tmp_path, "simulate", shared + blocks[1], preset=None)
        assert values["params"].omega_cav == hz_to_angular(7.52e9)
        assert values["params"].g == hz_to_angular(57e6)
        assert values["grid"]["points"] == 801
        for command, block in zip(("simulate", "fit", "sweep", "omit"), blocks[1:]):
            given = shared if command in ("simulate", "omit") else params
            self.read(tmp_path, command, given + block, preset=None)
        for command, table in _TABLES.items():
            for section, rows in table.items():
                for key in rows:
                    named = "bound_<p>_hz" if key.startswith("bound_") else key
                    assert re.search(rf"\b{re.escape(named)}\b", readme), (command, key)

    def test_syntax_error(self, tmp_path):
        path = self.write(tmp_path, "not an ini file at all\n")
        with pytest.raises(ConfigError, match="run.ini"):
            load_config(path)

    def test_missing_file_is_io(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.ini")

    def test_undecodable_byte(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[grid]\n; temp\xe9rature\nf_start_hz = 1\n")
        with pytest.raises(ConfigError, match=r"run\.ini: byte 0xe9 is not UTF-8"):
            load_config(path)
        path.write_bytes("[grid]\n; température\nf_start_hz = 1\n".encode("utf-8"))
        assert load_config(path).get("grid", "f_start_hz") == "1"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xef\xbb\xbf" + self.GRID.encode("utf-8"))
        assert load_config(path).get("grid", "f_start_hz") == "1"

    def test_float_required_and_invalid(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.f_start_hz: missing"):
            self.read(tmp_path, "simulate", "[grid]\npoints = 5\n")
        with pytest.raises(ConfigError, match="not a number"):
            self.read(tmp_path, "simulate", "[grid]\nf_start_hz = many\n")
        values = self.read(tmp_path, "sweep", "[sweep]\nfield = g\nvalues_hz = 1\n")
        assert values["sweep"]["band_lo_hz"] == SweepTargets.coupling_band_hz[0]

    def test_float_must_be_finite(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.f_start_hz: must be finite"):
            self.read(tmp_path, "simulate", "[grid]\nf_start_hz = nan\n")

    def test_int_parsing(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.points: '4.5' is not an integer"):
            self.read(tmp_path, "simulate", self.GRID + "points = 4.5\n")
        values = self.read(tmp_path, "fit", "[fit]\nfree_params = g\ntrace = a.csv\n")
        assert values["fit"]["max_iterations"] == FitConfig.max_iterations

    def test_str_and_list(self, tmp_path):
        values = self.read(
            tmp_path, "fit", "[fit]\nfree_params = g , omega_cav,kappa_lc_bare\ntrace = a.csv\n"
        )
        assert values["fit"]["free_params"] == ["g", "omega_cav", "kappa_lc_bare"]
        assert values["fit"]["trace"] == "a.csv"
        assert values["fit"]["shared"] == []
        with pytest.raises(ConfigError, match="fit.trace: missing"):
            self.read(tmp_path, "fit", "[fit]\nfree_params = g\n")
        values = self.read(tmp_path, "simulate", self.GRID + "points = 3\n")
        assert values["simulate"]["outputs"] == ["s21"]

    def test_empty_required_list(self, tmp_path):
        with pytest.raises(ConfigError, match="fit.free_params: must list"):
            self.read(tmp_path, "fit", "[fit]\nfree_params =\ntrace = a.csv\n")
        text = self.GRID + "points = 3\n[simulate]\noutputs = ,\n"
        assert self.read(tmp_path, "simulate", text)["simulate"]["outputs"] == ["s21"]
