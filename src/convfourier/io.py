"""Self-describing signal files: CSV with a metadata comment, plus a JSON mirror.

CSV layout::

    # kind=periodic-analog ts=0.015625 n=64
    index,re,im
    0,1,0
    ...

``kind`` is one of discrete, analog, periodic-discrete, periodic-analog;
analog kinds carry ``ts``, periodic kinds carry ``n``, and a file that gives
a kind metadata it does not carry, any other key, or a key twice is rejected.
Aperiodic rows must be contiguous and strictly increasing (the first index
is the start); periodic rows must be exactly 0..N-1.  The JSON mirror stores the same
fields as ``{"kind": ..., "ts": ..., "n": ..., "rows": [[index, re, im], ...]}``
with JSON numbers: the index an integer, ``ts``, ``re`` and ``im`` integers
or floats (strings and booleans are rejected).  A CSV value or cell with a
'_' or a non-ASCII character is rejected.  CSV numbers are written with
17 significant digits and JSON numbers as the shortest round-tripping repr,
so a write/read round trip is exact, signed zeros included.  The series and
spectrum tables use the same layouts with their own metadata and columns.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .fourier import SeriesSpectrum, TransformSpectrum
from .signals import (
    DiscreteSignal,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
)

__all__ = [
    "SignalFormatError",
    "signal_kind",
    "read_signal",
    "read_signal_text",
    "write_signal",
    "signal_text",
    "series_table_text",
    "transform_table_text",
]


class SignalFormatError(ValueError):
    """A signal file does not parse or violates the schema."""


# the metadata keys of a signal file; analog kinds carry ts, periodic kinds carry n
_META_KEYS = ("kind", "ts", "n")
# kind <-> signal type
_TYPES = {
    "discrete": DiscreteSignal,
    "analog": SampledSignal,
    "periodic-discrete": PeriodicDiscreteSignal,
    "periodic-analog": PeriodicSampledSignal,
}


def signal_kind(signal) -> str:
    for kind, cls in _TYPES.items():
        if isinstance(signal, cls):
            return kind
    raise TypeError(f"not a signal type: {type(signal).__name__}")


# --------------------------------------------------------------------------
# reading
# --------------------------------------------------------------------------

def _ints(cells, what: str) -> list:
    try:
        return list(map(int, cells))
    except ValueError:
        for cell in cells:
            try:
                int(cell)
            except ValueError:
                raise SignalFormatError(f"{what} is not an integer: {cell.strip()!r}") from None
        raise


def _floats(cells, what: str) -> np.ndarray:
    """float64 column of number texts or JSON numbers; the first bad cell is named."""
    try:
        column = np.fromiter(map(float, cells), np.float64, len(cells))
        if np.isfinite(column).all():
            return column
    except (ValueError, OverflowError):
        pass
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            raise SignalFormatError(f"{what} is not a number: {cell.strip()!r}") from None
        except OverflowError:  # a JSON integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise SignalFormatError(f"{what} must be finite, got {str(cell).strip()!r}")
    raise AssertionError("a cell failed to parse but none is bad")


def _build_signal(kind, ts, n, index, re, im):
    """The signal of one parsed file: ``index`` holds ints, ``re``/``im`` finite floats."""
    if kind not in _TYPES:
        raise SignalFormatError(f"unknown kind {kind!r}; expected one of {', '.join(_TYPES)}")
    periodic = kind.startswith("periodic")
    if ts is not None and not kind.endswith("analog"):
        raise SignalFormatError(f"kind={kind} takes no ts metadata")
    if n is not None and not periodic:
        raise SignalFormatError(f"kind={kind} takes no n metadata")
    fields = {}
    if kind.endswith("analog"):
        if ts is None:
            raise SignalFormatError(f"kind={kind} requires ts metadata")
        if ts <= 0:
            raise SignalFormatError(f"ts must be > 0, got {ts}")
        fields["ts"] = ts
    start = index[0] if index else 0
    contiguous = index == list(range(start, start + len(index)))
    if periodic:
        if n is None:
            raise SignalFormatError(f"kind={kind} requires n metadata")
        if n < 1:
            raise SignalFormatError(f"kind={kind} needs n >= 1, got n={n}")
        if n != len(index):
            raise SignalFormatError(f"metadata says n={n} but file has {len(index)} rows")
        if start != 0 or not contiguous:
            raise SignalFormatError("periodic rows must cover exactly the indices 0..N-1 in order")
    else:
        if not contiguous:
            raise SignalFormatError("indices must be contiguous and strictly increasing")
        fields["start"] = start
    # filled part by part, so signed zeros survive
    samples = np.empty(len(index), dtype=np.complex128)
    samples.real = re
    samples.imag = im
    return _TYPES[kind](samples=samples, **fields)


def _read_csv(text: str):
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    body_at = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    meta = {}
    for token in " ".join(ln.lstrip("#") for ln in lines[:body_at]).split():
        key, eq, value = token.partition("=")
        if not eq:
            raise SignalFormatError(f"bad metadata token {token!r}")
        if key not in _META_KEYS:
            raise SignalFormatError(f"unknown metadata key {key!r}")
        if key in meta:
            raise SignalFormatError(f"repeated metadata key {key!r}")
        meta[key] = value
    if "kind" not in meta:
        raise SignalFormatError("missing '# kind=...' metadata line")
    ts = float(_floats([meta["ts"]], "ts")[0]) if "ts" in meta else None
    n = _ints([meta["n"]], "n")[0] if "n" in meta else None
    body = lines[body_at:]
    if not body or body[0].replace(" ", "") != "index,re,im":
        raise SignalFormatError("expected header row 'index,re,im'")
    rows = body[1:]
    for line in rows:
        if line.count(",") != 2:
            raise SignalFormatError(f"expected 3 columns, got {line.count(',') + 1}: {line!r}")
    cells = ",".join(rows).split(",") if rows else []
    if not text.isascii() or "_" in text:
        # int() and float() read '1_5' as 15 and accept non-ASCII digits
        named = [("ts", meta.get("ts", "")), ("n", meta.get("n", ""))]
        for what, cell in named + list(zip(("index", "re", "im") * len(rows), cells)):
            if "_" in cell or not cell.isascii():
                bad = f"{what} holds a '_' or a non-ASCII character: {cell.strip()!r}"
                raise SignalFormatError(bad)
    index = _ints(cells[0::3], "index")
    re, im = _floats(cells[1::3], "re"), _floats(cells[2::3], "im")
    return _build_signal(meta["kind"], ts, n, index, re, im)


def _json_column(cells, what: str, integer: bool = False):
    """A column of JSON numbers: a list of ints, or a float64 array (never a bool)."""
    types = {int} if integer else {int, float}
    if not {type(c) for c in cells} <= types:
        bad = next(c for c in cells if type(c) not in types)
        noun = "an integer" if integer else "a number"
        raise SignalFormatError(f"{what} is not {noun}: {json.dumps(bad)}")
    return cells if integer else _floats(cells, what)


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a repeated key is rejected, not overwritten."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise SignalFormatError(f"repeated key {key!r}")
        data[key] = value
    return data


def _read_json(text: str):
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer beyond the int-string limit, or nesting
        # deeper than the interpreter's recursion limit
        raise SignalFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SignalFormatError("JSON signal must be an object")
    unknown = [key for key in data if key not in (*_META_KEYS, "rows")]
    if unknown:
        raise SignalFormatError(f"unknown metadata key {unknown[0]!r}")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise SignalFormatError("missing or non-string 'kind'")
    ts = data.get("ts")
    if ts is not None:
        ts = float(_json_column([ts], "ts")[0])
    n = data.get("n")
    if n is not None and type(n) is not int:
        raise SignalFormatError(f"'n' must be an integer, got {n!r}")
    rows = data.get("rows")
    if not isinstance(rows, list):
        raise SignalFormatError("missing 'rows' list")
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3):
            raise SignalFormatError(f"each row must be [index, re, im], got {row!r}")
    index = _json_column([row[0] for row in rows], "index", integer=True)
    re = _json_column([row[1] for row in rows], "re")
    im = _json_column([row[2] for row in rows], "im")
    return _build_signal(kind, ts, n, index, re, im)


def read_signal_text(text: str):
    """Parse a signal from CSV or JSON text (sniffed by the leading character)."""
    stripped = text.lstrip()
    if not stripped:
        raise SignalFormatError("empty input")
    if stripped[0] in "{[":
        return _read_json(text)
    return _read_csv(text)


def read_signal(path: str):
    """Read a signal file, or standard input when ``path`` is ``-``.

    Input that cannot be opened, read or decoded as UTF-8 raises
    ``SignalFormatError``.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SignalFormatError(f"cannot read {path}: {exc}") from None
    return read_signal_text(text)


# --------------------------------------------------------------------------
# writing
# --------------------------------------------------------------------------

def _table_text(meta: dict, header: str, columns, fmt: str) -> str:
    """Every table's text: CSV under a ``# key=value`` line, or the JSON mirror.

    ``meta`` lists the metadata in output order.  ``columns`` are equal-length
    arrays or ranges; an integer column is written as integers, every other
    one as floats (17 significant digits in CSV).

    The JSON text is exactly ``json.dumps({**meta, "rows": rows}, indent=2)``
    plus a newline, but ``json`` formats only the metadata head and each
    column's numbers (compact, so its C encoder runs; with ``indent`` it runs
    the pure-Python one); this function owns the ``indent=2`` layout of the
    rows around those number tokens.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if fmt == "json":
        head = json.dumps({**meta, "rows": []}, indent=2)
        if not columns[0]:
            return head + "\n"
        tokens = [json.dumps(c)[1:-1].split(", ") for c in columns]
        rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*tokens)))
        # head ends in '"rows": []\n}'; the rows go between its brackets
        return head[:-4] + "[\n    [\n      " + rows + "\n    ]\n  ]\n}\n"
    tokens = (f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items())
    row = ",".join("{}" if c and type(c[0]) is int else "{:.17g}" for c in columns)
    lines = ["# " + " ".join(tokens), header, *map(row.format, *columns)]
    return "\n".join(lines) + "\n"


def signal_text(signal, fmt: str = "csv") -> str:
    """Serialize a signal to CSV or JSON text."""
    kind = signal_kind(signal)
    meta = {"kind": kind}
    if kind.endswith("analog"):
        meta["ts"] = signal.ts
    if kind.startswith("periodic"):
        meta["n"] = signal.samples.size
    start = getattr(signal, "start", 0)
    index = range(start, start + signal.samples.size)
    return _table_text(meta, "index,re,im", [index, signal.samples.real, signal.samples.imag], fmt)


def write_signal(signal, path: str, fmt: str = "csv"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(signal_text(signal, fmt))


def series_table_text(spectrum: SeriesSpectrum, fmt: str = "csv") -> str:
    """Coefficient table: C_n plus the one-period factor column F(n) = T * C_n."""
    t = spectrum.period_t
    meta = {"kind": "series", "t": t, "omega0": spectrum.omega0, "n_max": spectrum.n_max}
    c = spectrum.coeffs
    # F(n) as the complex product (T + 0j) * C_n, whose signed zeros differ from T * Re, T * Im
    f_re, f_im = t * c.real - 0.0 * c.imag, t * c.imag + 0.0 * c.real
    columns = [spectrum.harmonics(), c.real, c.imag, f_re, f_im]
    return _table_text(meta, "n,c_re,c_im,f_re,f_im", columns, fmt)


def transform_table_text(spectrum: TransformSpectrum, fmt: str = "csv") -> str:
    """Frequency table of F(omega) values."""
    columns = [spectrum.omegas, spectrum.values.real, spectrum.values.imag]
    return _table_text({"kind": "spectrum"}, "omega,re,im", columns, fmt)
