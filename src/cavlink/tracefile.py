"""Plain-text trace files, INI-style configs, and atomic result writing.

Trace format (CSV, `#` comments allowed anywhere):

    # kind = s21
    freq_hz,re,im
    6.9e9,0.93,-0.11
    ...

or `freq_hz,power` for normalized power traces. Everything on disk is in Hz;
rad/s never leaks into files. Floats are written with repr so that identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import math
import os
import re
import tempfile
from itertools import chain, repeat

import numpy as np

from .coupled_modes import ComplexTrace, TraceKind
from .errors import ConfigError, InvalidInputError, TraceParseError

_COMPLEX_HEADER = "freq_hz,re,im"
_POWER_HEADER = "freq_hz,power"
_KIND_COMMENT = re.compile(r"#\s*kind\s*=\s*(\S+)")


def format_float(x) -> str:
    """Shortest exact decimal form, identical across runs and platforms."""
    return repr(float(x))


def write_text_atomic(path, text: str) -> None:
    """Write text to path via a temp file + rename, so readers never see
    a partially written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cavlink-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trace(path, trace: ComplexTrace) -> None:
    if trace.kind is TraceKind.POWER:
        header, columns = _POWER_HEADER, (trace.freqs, trace.values)
    else:
        header, columns = _COMPLEX_HEADER, (trace.freqs, trace.values.real, trace.values.imag)
    # One format call over the rows' Python floats: %r of a float is format_float.
    row = ",".join(["%r"] * len(columns)) + "\n"
    text = f"# cavlink trace\n# kind = {trace.kind.value}\n{header}\n" + row * len(trace)
    write_text_atomic(path, text % tuple(np.stack(columns, axis=1).ravel().tolist()))


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


def _table(path, rows, linenos, header):
    """The data rows as one (n, columns) float array, each value converted once by float();
    only if a check fails are the rows walked, in order, to raise the first bad one's error."""
    width = 3 if header == _COMPLEX_HEADER else 2
    chunks = (",".join(rows[i:i + 1024]).split(",") for i in range(0, len(rows), 1024))
    with contextlib.suppress(ValueError):  # a non-number, named by the walk
        if set(map(str.count, rows, repeat(","))) <= {width - 1}:
            values = map(float, map(str.strip, chain.from_iterable(chunks)))
            table = np.fromiter(values, float, len(rows) * width).reshape(-1, width)
            if np.isfinite(table).all() and (np.diff(table[:, 0]) > 0).all():
                return table
    previous = -math.inf
    for lineno, row in zip(linenos, rows):
        columns = [c.strip() for c in row.split(",")]
        if len(columns) != width:
            raise TraceParseError(path, lineno, f"expected {width} columns, got {len(columns)}")
        f = _parse_float(columns[0], path, lineno, 1)
        if f <= previous:
            raise TraceParseError(path, lineno, "frequencies must be strictly increasing")
        previous = f
        for column, token in enumerate(columns[1:], 2):
            _parse_float(token, path, lineno, column)


def read_trace(path) -> ComplexTrace:
    """Parse a trace file; malformed content raises TraceParseError with the
    offending line number. A missing file raises the usual FileNotFoundError
    so callers can distinguish I/O problems from format problems.
    """
    with open(path, "r") as handle:
        raw_lines = handle.readlines()

    kind = None
    header = None
    header_line = 0
    rows, linenos = [], []  # each data line as read, and its line number
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _KIND_COMMENT.match(line)
            if match:
                try:
                    kind = _parse_kind(match.group(1), path, lineno)
                except TraceParseError:  # a bad row before it is reported first
                    _table(path, rows, linenos, header)
                    raise
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
        rows.append(raw)
        linenos.append(lineno)
    table = _table(path, rows, linenos, header)

    if header is None:
        raise TraceParseError(path, len(raw_lines), "no header line found")
    if len(rows) < 2:
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
        data = table[:, 1]
    else:
        if kind is None:
            kind = TraceKind.S21
        elif kind is TraceKind.POWER:
            raise TraceParseError(
                path, header_line,
                "kind comment says power but header has re,im columns",
            )
        data = table[:, 1:].view(complex)[:, 0]  # (re, im) as is: re + 1j*im loses a -0.0 re
    try:
        return ComplexTrace(table[:, 0], data, kind)
    except InvalidInputError as exc:
        raise TraceParseError(path, len(raw_lines), str(exc)) from None


def load_config(path) -> configparser.ConfigParser:
    """Read an INI config; syntax errors become ConfigError. Missing files
    raise FileNotFoundError (an I/O problem, not a config problem). No header
    can name the default section "\\n", so ``[DEFAULT]`` is an ordinary one."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n")
    try:
        with open(path, "r") as handle:
            parser.read_file(handle, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parser

