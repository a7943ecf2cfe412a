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
import warnings
from itertools import islice

import numpy as np

from .coupled_modes import ComplexTrace, TraceKind
from .errors import ConfigError, InvalidInputError, TraceParseError

_COMPLEX_HEADER = "freq_hz,re,im"
_POWER_HEADER = "freq_hz,power"
_KIND_COMMENT = re.compile(r"#\s*kind\s*=\s*(\S+)")
_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as surrogateescape reads it
_BLOCK = 2048  # rows written, lines read at a time: the memory a trace file costs beyond its arrays


def format_float(x) -> str:
    """Shortest exact decimal form, identical across runs and platforms."""
    return repr(float(x))


@contextlib.contextmanager
def _replacing(path):
    """A handle on a new temp file beside ``path`` that replaces ``path`` when
    the block exits cleanly, so readers never see a partially written file.
    Like ``open(path, "w")`` on a new file, the file gets 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".cavlink-{os.urandom(8).hex()}.tmp")
    # As tempfile.mkstemp opens (a name taken raises; nothing is overwritten), but not 0o600.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write text to path via a temp file + rename, so readers never see
    a partially written file."""
    with _replacing(path) as handle:
        handle.write(text)


def write_json(path, payload) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trace(path, trace: ComplexTrace) -> None:
    if trace.kind is TraceKind.POWER:
        header, columns = _POWER_HEADER, (trace.freqs, trace.values)
    else:
        header, columns = _COMPLEX_HEADER, (trace.freqs, trace.values.real, trace.values.imag)
    # One format call per block over its rows' Python floats: %r of a float is format_float.
    row = ",".join(["%r"] * len(columns)) + "\n"
    with _replacing(path) as handle:
        handle.write(f"# cavlink trace\n# kind = {trace.kind.value}\n{header}\n")
        for start in range(0, len(trace), _BLOCK):
            block = np.stack([c[start:start + _BLOCK] for c in columns], axis=1)
            handle.write((row * len(block)) % tuple(block.ravel().tolist()))


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


def _text(raw, path, lineno, kind):
    """A line's text ("" for a blank or comment line) and the trace kind after it,
    which a ``# kind = ...`` comment sets. A byte that is not UTF-8 raises."""
    if not raw.isascii() and (undecoded := _UNDECODED.search(raw)):
        byte = ord(undecoded[0]) - 0xDC00
        raise TraceParseError(path, lineno, f"byte {byte:#04x} is not UTF-8")
    line = raw.strip()
    if line.startswith("#"):
        match = _KIND_COMMENT.match(line)
        return "", _parse_kind(match.group(1), path, lineno) if match else kind
    return line, kind


def _plain(lines, width, previous):
    """The block as one (n, width) float array if every line is a row of finite
    values whose frequencies rise from ``previous``, else None. numpy's reader
    converts each value with the parser float() uses, and refuses comments, blank
    lines, non-ASCII digits and underscores, which ``_walk`` then handles."""
    with warnings.catch_warnings(), contextlib.suppress(ValueError):
        warnings.simplefilter("ignore")  # a block of blank lines warns "no data"
        # max_rows sizes the result once; skipped blank lines leave it short of len(lines)
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=len(lines))
        if table.shape == (len(lines), width) and np.isfinite(table).all():
            if (np.diff(table[:, 0], prepend=previous) > 0).all():
                return table
    return None


def _walk(path, lines, lineno, width, previous, kind):
    """A block read a line at a time, each value by float(): the first fault in line
    order raises, else the block's rows as an (n, width) array and the kind its
    comments leave. ``lineno`` is the number of the line before the block, and
    ``previous`` the frequency before its first row's (-inf for none)."""
    values = []  # row after row: one flat list converts to an array fastest
    for lineno, raw in enumerate(lines, lineno + 1):
        line, kind = _text(raw, path, lineno, kind)
        if not line:
            continue
        columns = [c.strip() for c in line.split(",")]
        if len(columns) != width:
            raise TraceParseError(path, lineno, f"expected {width} columns, got {len(columns)}")
        f = _parse_float(columns[0], path, lineno, 1)
        if f <= previous:
            raise TraceParseError(path, lineno, "frequencies must be strictly increasing")
        values.append(previous := f)
        for column, token in enumerate(columns[1:], 2):
            values.append(_parse_float(token, path, lineno, column))
    return np.array(values).reshape(-1, width), kind


def read_trace(path) -> ComplexTrace:
    """Parse a UTF-8 trace file; malformed content raises TraceParseError with
    the offending line number. A missing file raises the usual FileNotFoundError
    so callers can distinguish I/O problems from format problems. The lines up to
    the header are read one at a time, the rest a block of lines at a time, so
    memory beyond the returned arrays stays small. A block of plain rows goes
    through numpy's text reader (``_plain``); any other is walked line by line
    (``_walk``), with the same outcome.
    """
    kind = None
    header = None
    lineno = 0  # ends as the line count, which whole-file errors name
    blocks = []
    previous = -math.inf
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            line, kind = _text(raw, path, lineno, kind)
            if line:
                header = line.replace(" ", "")
                if header not in (_COMPLEX_HEADER, _POWER_HEADER):
                    raise TraceParseError(
                        path, lineno,
                        f"expected header {_COMPLEX_HEADER!r} or {_POWER_HEADER!r}, "
                        f"got {line!r}",
                    )
                break
        header_line = lineno
        width = 3 if header == _COMPLEX_HEADER else 2
        while lines := list(islice(handle, _BLOCK)):
            table = _plain(lines, width, previous)
            if table is None:
                table, kind = _walk(path, lines, lineno, width, previous, kind)
            lineno += len(lines)
            if len(table):
                blocks.append(table)
                previous = table[-1, 0]

    if header is None:
        raise TraceParseError(path, lineno, "no header line found")
    table = np.concatenate(blocks) if blocks else np.empty((0, 2))
    del blocks  # before ComplexTrace copies the table
    if len(table) < 2:
        raise TraceParseError(path, lineno, "a trace needs at least 2 samples")
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
        raise TraceParseError(path, lineno, str(exc)) from None


def load_config(path) -> configparser.ConfigParser:
    """Read an INI config; syntax errors become ConfigError. Missing files
    raise FileNotFoundError (an I/O problem, not a config problem). No header
    can name the default section "\\n", so ``[DEFAULT]`` is an ordinary one."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n")
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # drops a leading byte-order mark
            parser.read_file(handle, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.object[exc.start]:#04x} is not UTF-8") from None
    return parser

