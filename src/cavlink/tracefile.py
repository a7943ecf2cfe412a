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
import json
import math
import os
import re
import tempfile

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
    lines = ["# cavlink trace", f"# kind = {trace.kind.value}"]
    if trace.kind is TraceKind.POWER:
        lines.append(_POWER_HEADER)
        for f, p in zip(trace.freqs, trace.values):
            lines.append(f"{format_float(f)},{format_float(p)}")
    else:
        lines.append(_COMPLEX_HEADER)
        for f, v in zip(trace.freqs, trace.values):
            lines.append(
                f"{format_float(f)},{format_float(v.real)},{format_float(v.imag)}"
            )
    write_text_atomic(path, "\n".join(lines) + "\n")


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


def load_config(path) -> configparser.ConfigParser:
    """Read an INI config; syntax errors become ConfigError. Missing files
    raise FileNotFoundError (an I/O problem, not a config problem)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r") as handle:
            parser.read_file(handle, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parser


def config_float(cp, section, key, default=None):
    raw = config_str(cp, section, key, default)
    if raw is default:  # the key is absent
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite")
    return value


def config_int(cp, section, key, default=None):
    raw = config_str(cp, section, key, default)
    if raw is default:  # the key is absent
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: {raw!r} is not an integer") from None


def config_str(cp, section, key, default=None):
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"{section}.{key}: missing required value")
    return cp.get(section, key).strip()


def config_list(cp, section, key, default=None):
    raw = config_str(cp, section, key, default="" if default is not None else None)
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items and default is None:
        raise ConfigError(f"{section}.{key}: must list at least one value")
    return items or list(default)
