"""read_trace against the line-by-line reader it replaced.

`reference_read_trace` below is the earlier parser, kept as the reference:
on every edit of a valid file the block reader must return the same trace,
bit for bit, or raise TraceParseError with the same message and line, whether
a block goes through numpy's text reader or the line walk.
"""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavlink import ComplexTrace, InvalidInputError, TraceKind, TraceParseError, tracefile
from cavlink.tracefile import read_trace, write_trace

_COMPLEX_HEADER = "freq_hz,re,im"
_POWER_HEADER = "freq_hz,power"
_KIND_COMMENT = re.compile(r"#\s*kind\s*=\s*(\S+)")


def _parse_kind(token, path, lineno):
    for kind in TraceKind:
        if token == kind.value:
            return kind
    raise TraceParseError(
        path, lineno, f"unknown trace kind {token!r}; expected one of "
        + ", ".join(k.value for k in TraceKind)
    )


def _parse_float(token, path, lineno, column):
    try:
        value = float(token)
    except ValueError:
        raise TraceParseError(
            path, lineno, f"column {column}: {token!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise TraceParseError(path, lineno, f"column {column}: non-finite value")
    return value


def reference_read_trace(path) -> ComplexTrace:
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.readlines()

    kind = None
    header = None
    header_line = 0
    freqs = []
    values = []
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _KIND_COMMENT.match(line)
            if match:
                kind = _parse_kind(match.group(1), path, lineno)
            continue
        if header is None:
            compact = line.replace(" ", "")
            if compact not in (_COMPLEX_HEADER, _POWER_HEADER):
                raise TraceParseError(
                    path, lineno,
                    f"expected header {_COMPLEX_HEADER!r} or {_POWER_HEADER!r}, "
                    f"got {line!r}",
                )
            header = compact
            header_line = lineno
            continue
        columns = [c.strip() for c in line.split(",")]
        expected = 3 if header == _COMPLEX_HEADER else 2
        if len(columns) != expected:
            raise TraceParseError(
                path, lineno, f"expected {expected} columns, got {len(columns)}"
            )
        f = _parse_float(columns[0], path, lineno, 1)
        if freqs and f <= freqs[-1]:
            raise TraceParseError(
                path, lineno, "frequencies must be strictly increasing"
            )
        freqs.append(f)
        if header == _COMPLEX_HEADER:
            re_part = _parse_float(columns[1], path, lineno, 2)
            im_part = _parse_float(columns[2], path, lineno, 3)
            values.append(complex(re_part, im_part))
        else:
            values.append(_parse_float(columns[1], path, lineno, 2))

    if header is None:
        raise TraceParseError(path, len(raw_lines), "no header line found")
    if len(freqs) < 2:
        raise TraceParseError(
            path, len(raw_lines), "a trace needs at least 2 samples"
        )
    if header == _POWER_HEADER:
        if kind is None:
            kind = TraceKind.POWER
        elif kind is not TraceKind.POWER:
            raise TraceParseError(
                path, header_line,
                f"kind comment says {kind.value!r} but header is power-only",
            )
        data = np.asarray(values, dtype=float)
    else:
        if kind is None:
            kind = TraceKind.S21
        elif kind is TraceKind.POWER:
            raise TraceParseError(
                path, header_line,
                "kind comment says power but header has re,im columns",
            )
        data = np.asarray(values, dtype=complex)
    try:
        return ComplexTrace(np.asarray(freqs, dtype=float), data, kind)
    except InvalidInputError as exc:
        raise TraceParseError(path, len(raw_lines), str(exc)) from None


def outcome(reader, path):
    """What a reader makes of a file: the trace's kind and raw bytes, or the
    error's message and line number."""
    try:
        trace = reader(path)
    except TraceParseError as exc:
        return ("error", str(exc), exc.line_number)
    return ("trace", trace.kind, trace.freqs.tobytes(), trace.values.tobytes())


def assert_same_outcome(path):
    expected = outcome(reference_read_trace, path)
    assert outcome(read_trace, path) == expected
    return expected


def valid_text(tmp_path, kind):
    f = np.linspace(6.9e9, 7.1e9, 6)
    if kind is TraceKind.POWER:
        values = np.array([0.5, 0.25, 0.0, 1.0, 5e-324, 0.75])
    else:
        values = np.array([-0.0 + 0.5j, 0.25 - 0.0j, -1e300j, 5e-324 + 1j, 0.1, -0.2 - 0.3j])
    path = tmp_path / "valid.csv"
    write_trace(path, ComplexTrace(f, values, kind))
    return path.read_text(encoding="utf-8")


def replace_line(text, index, new):
    lines = text.split("\n")
    lines[index] = new
    return "\n".join(lines)


def insert_line(text, index, new):
    lines = text.split("\n")
    lines.insert(index, new)
    return "\n".join(lines)


def on_data(text, edit):
    lines = text.split("\n")
    return "\n".join(lines[:3] + [edit(line) for line in lines[3:]])


def complex_row(text, row):
    """``row`` with a third column when ``text`` is a complex trace."""
    return row + ",0" if ",re," in text else row


# Lines 0-2 of a written file are two comments and the header; 3-8 are data.
EDITS = {
    "unchanged": lambda t: t,
    "comment_and_blank_mid_data": lambda t: insert_line(insert_line(t, 5, "# note"), 7, "  "),
    "empty_lines_mid_data": lambda t: insert_line(insert_line(insert_line(t, 5, ""), 5, ""), 5, ""),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "no_final_newline": lambda t: t.rstrip("\n"),
    "spaces_and_tabs_around_columns": lambda t: on_data(t, lambda r: r.replace(",", " ,\t")),
    "padded_lines": lambda t: "\n".join(f"  {line}\t" for line in t.split("\n")),
    "unit_separator_padding": lambda t: on_data(t, lambda r: r.replace(",", "\x1f,\x1c")),
    "kind_after_data": lambda t: t + "# kind = s11\n",
    "power_kind_after_data": lambda t: t + "# kind = power_normalized\n",
    "unknown_kind_after_data": lambda t: t + "# kind = s99\n",
    "unknown_kind_after_bad_row": lambda t: replace_line(
        t, 5, complex_row(t, "7e9,x")) + "# kind = s99\n",
    "unknown_kind_mid_data_then_bad_row": lambda t: replace_line(
        insert_line(t, 5, "#kind=s12"), 8, "oops"),
    "ragged_short": lambda t: replace_line(t, 6, "7.0e9"),
    "ragged_long": lambda t: replace_line(t, 4, t.split("\n")[4] + ",1,2"),
    "non_number": lambda t: replace_line(t, 7, t.split("\n")[7].replace(".", "..", 1)),
    "hex_float_last_column": lambda t: replace_line(
        t, 6, t.split("\n")[6].rsplit(",", 1)[0] + ",0x1p3"),
    "empty_column": lambda t: replace_line(t, 5, t.split("\n")[5].replace(",", ",,", 1)),
    "nan_value": lambda t: replace_line(t, 6, complex_row(t, "7.0e9,nan")),
    "inf_freq": lambda t: replace_line(t, 8, t.split("\n")[8].replace("7100000000.0", "inf")),
    "minus_inf_last_column": lambda t: replace_line(
        t, 4, t.split("\n")[4].rsplit(",", 1)[0] + ",-inf"),
    "underscore_digits": lambda t: t.replace("0.5", "0_0.5").replace(
        "7100000000.0", "7_100_000_000"),
    "arabic_indic_digits": lambda t: replace_line(
        t, 4, t.split("\n")[4].rsplit(",", 1)[0] + ",١٢"),
    "repeated_freq": lambda t: replace_line(
        t, 5, t.split("\n")[4].split(",")[0] + "," + t.split("\n")[5].split(",", 1)[1]),
    "decreasing_freq": lambda t: replace_line(
        t, 6, "6e9," + t.split("\n")[6].split(",", 1)[1]),
    "ragged_and_non_number": lambda t: replace_line(t, 5, "x"),
    "repeated_freq_and_non_number": lambda t: replace_line(
        t, 5, complex_row(t, t.split("\n")[4].split(",")[0] + ",y")),
    "nan_then_non_number": lambda t: replace_line(
        t, 5, t.split("\n")[5].split(",")[0] + (",nan,z" if ",re," in t else ",nan")),
    "non_number_then_nan": lambda t: replace_line(
        t, 5, t.split("\n")[5].split(",")[0] + (",z,nan" if ",re," in t else ",z")),
    "two_faulty_lines": lambda t: replace_line(replace_line(t, 7, "1,2,3,4,5"), 4, "q,1,1"),
    "one_row": lambda t: "\n".join(t.split("\n")[:4]) + "\n",
    "no_rows": lambda t: "\n".join(t.split("\n")[:3]) + "\n",
    "no_header": lambda t: "\n".join(t.split("\n")[:2]) + "\n",
    "empty_file": lambda t: "",
    "bad_header": lambda t: replace_line(t, 2, "frequency,real,imag"),
    "header_with_spaces": lambda t: replace_line(t, 2, t.split("\n")[2].replace(",", " , ")),
    "negative_value": lambda t: replace_line(t, 6, t.split("\n")[6].replace(",", ",-", 1)),
}


@pytest.mark.parametrize("kind", list(TraceKind), ids=lambda k: k.value)
@pytest.mark.parametrize("edit", list(EDITS), ids=str)
def test_edited_file_matches_reference(tmp_path, kind, edit):
    path = tmp_path / "edited.csv"
    path.write_text(EDITS[edit](valid_text(tmp_path, kind)), encoding="utf-8", newline="")
    assert_same_outcome(path)


@pytest.mark.parametrize("kind", list(TraceKind), ids=lambda k: k.value)
@pytest.mark.parametrize("edit", list(EDITS), ids=str)
def test_edited_file_matches_reference_in_blocks_of_2(tmp_path, monkeypatch, kind, edit):
    monkeypatch.setattr(tracefile, "_BLOCK", 2)
    test_edited_file_matches_reference(tmp_path, kind, edit)


# Files of 2-row blocks: the lines up to the header are read one at a time,
# then (with the header on line 1) lines 2-3 hold the first block, 4-5 the second.
BLOCK_EDGES = {
    "frequency_repeated_across_blocks": (
        "freq_hz,power\n1,0.5\n2,0.5\n2,0.4\n3,0.3\n", 4, "strictly increasing"),
    "unknown_kind_after_full_block": (
        "freq_hz,power\n1,0.5\n2,0.5\n# kind = s99\n3,0.3\n", 4, "unknown trace kind"),
    "non_number_ends_full_block": (
        "freq_hz,re,im\n1,0,0\n2,0,x\n3,0,0\n", 3, "column 3: 'x' is not a number"),
    "comments_and_blanks_longer_than_a_block_before_header": (
        "# cavlink trace\n\n# note\n  \n# kind = power_normalized\nfreq_hz,power\n1,0.5\n2,x\n",
        8, "column 2: 'x' is not a number"),
    "unknown_kind_before_header": (
        "# note\n# kind = s99\nfreq_hz,power\n1,0.5\n2,0.5\n", 2, "unknown trace kind"),
    "header_is_last_line": (
        "# cavlink trace\n\n# kind = s21\nfreq_hz,re,im", 4, "at least 2 samples"),
}


@pytest.mark.parametrize("case", list(BLOCK_EDGES))
def test_block_edges(tmp_path, monkeypatch, case):
    monkeypatch.setattr(tracefile, "_BLOCK", 2)
    text, line, message = BLOCK_EDGES[case]
    path = tmp_path / "edge.csv"
    path.write_text(text, encoding="utf-8")
    kind, got, lineno = assert_same_outcome(path)
    assert (kind, lineno) == ("error", line)
    assert message in got


def test_edits_reach_both_outcomes(tmp_path):
    # The table above is meant to exercise both paths of the reader.
    seen = set()
    for edit in EDITS.values():
        path = tmp_path / "edited.csv"
        path.write_text(edit(valid_text(tmp_path, TraceKind.S21)), encoding="utf-8", newline="")
        seen.add(assert_same_outcome(path)[0])
    assert seen == {"trace", "error"}


_TOKENS = st.sampled_from(
    ["1", "2", "3", "2.5", "-0.0", "0", "5e-324", "1e300", "-1", "nan", "inf", "x", "",
     " 4 ", "1_000", "١٢", "\x1c5", "1e309"]
)
_LINES = st.one_of(
    st.lists(_TOKENS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "# note", "# kind = s11", "# kind = power_normalized",
                     "#kind=s21", "# kind = s99", "freq_hz,re,im", "freq_hz, power"]),
)


@given(lines=st.lists(_LINES, max_size=12), newline=st.sampled_from(["\n", "\r\n"]))
def test_generated_files_match_reference(tmp_path_factory, lines, newline):
    path = tmp_path_factory.mktemp("gen") / "gen.csv"
    path.write_text("freq_hz,re,im\n" + newline.join(lines), encoding="utf-8", newline="")
    assert_same_outcome(path)
    path.write_text("freq_hz,power\n" + newline.join(lines), encoding="utf-8", newline="")
    assert_same_outcome(path)


def test_generated_files_match_reference_in_blocks_of_2(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(tracefile, "_BLOCK", 2)
    test_generated_files_match_reference(tmp_path_factory)


@pytest.mark.parametrize("block", [tracefile._BLOCK, 2])
@pytest.mark.parametrize("kind", list(TraceKind), ids=lambda k: k.value)
def test_edited_files_read_without_warnings(tmp_path, monkeypatch, block, kind):
    # numpy's reader warns on a block of empty lines (lines 7 and 8 of
    # "empty_lines_mid_data" make one at 2 lines a block); no warning escapes.
    monkeypatch.setattr(tracefile, "_BLOCK", block)
    for edit in EDITS.values():
        path = tmp_path / "edited.csv"
        path.write_text(edit(valid_text(tmp_path, kind)), encoding="utf-8", newline="")
        expected = outcome(read_trace, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(read_trace, path) == expected


@pytest.mark.parametrize("kind", [TraceKind.S21, TraceKind.POWER], ids=lambda k: k.value)
def test_plain_blocks_skip_the_line_walk(tmp_path, monkeypatch, kind):
    # Every block of a written file, the first after the header included, is
    # plain rows that numpy's reader takes whole: none is walked line by line.
    calls = []
    walk = tracefile._walk
    monkeypatch.setattr(tracefile, "_walk", lambda *args: calls.append(args) or walk(*args))
    for rows in (801, 4_000, 20_000):
        path = tmp_path / f"plain{rows}.csv"
        values = np.full(rows, 0.5 if kind is TraceKind.POWER else 0.5 - 0.25j)
        write_trace(path, ComplexTrace(np.linspace(6.9e9, 7.1e9, rows), values, kind))
        assert len(read_trace(path)) == rows
        assert not calls, rows


_BAD_TOKENS = ["x", "", "nan", "-inf", "1e309", "1_0", "١٢", "0x1p3", "1 2", "#"]
_EXTRA_LINES = ["# note", "# kind = s11", "# kind = power_normalized", "#kind=s21",
                "# kind = s99", "", "   ", "\t"]
_EDITS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(_EXTRA_LINES)),
    st.tuples(st.just("bad_token"), st.integers(0, 10**6), st.sampled_from(_BAD_TOKENS)),
)


@given(
    block=st.sampled_from([2, 3, 5]),
    kind=st.sampled_from(list(TraceKind)),
    extra_rows=st.integers(0, 6),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=42, max_size=42),
    edits=st.lists(_EDITS, max_size=4),
    crlf=st.booleans(),
)
def test_block_edges_match_reference(tmp_path_factory, block, kind, extra_rows, values, edits,
                                     crlf):
    # A written trace of at least three blocks, edited at drawn lines: each
    # block either parses whole in numpy's reader or is walked line by line.
    n = 3 * block + extra_rows
    values = np.array(values[:2 * n])
    if kind is TraceKind.POWER:
        values = np.abs(values[:n])
    else:
        values = values.view(complex)
    folder = tmp_path_factory.mktemp("edges")
    write_trace(folder / "valid.csv", ComplexTrace(6.9e9 + 1e3 * np.arange(n), values, kind))
    lines = (folder / "valid.csv").read_text(encoding="utf-8").split("\n")[:-1]
    for edit, where, token in edits:
        if edit == "insert":
            lines.insert(where % (len(lines) + 1), token)
        else:
            index = 3 + where % (len(lines) - 3)  # a line after the header
            columns = lines[index].split(",")
            columns[where % len(columns)] = token
            lines[index] = ",".join(columns)
    path = folder / "edited.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                    newline="\r\n" if crlf else "\n")
    with mock.patch.object(tracefile, "_BLOCK", block):
        assert_same_outcome(path)
