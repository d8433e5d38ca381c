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

Memory: files are parsed and tables formatted in blocks of about
``_IO_BLOCK_ROWS`` rows, so the only whole-file allocations are the text
and the sample arrays; no list of all lines, cells or Python numbers is
built.  JSON is the one exception: ``json.loads`` has no incremental form,
so its parse tree holds the whole file while its columns are read out block
by block.  A CSV block is cut after a '\\n', so a file with no '\\n' (lines
broken by '\\r' alone) is one block.  ``signal_text`` and the table
functions return one string, joined from blocks that together make a
second copy of it; ``write_signal`` writes the blocks one at a time.
Every output, the CLI's included, goes through one writer: ``-`` is
standard output, and a path that cannot be written is a
``SignalFormatError``, as a path that cannot be read is.

Where a file has several defects, the error names the first defect of the
first class in this order, wherever the blocks are cut: metadata, header,
column count, '_' or non-ASCII cell, index, re, im, then the kind's
metadata and the order of the indices.
"""

from __future__ import annotations

import itertools
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
    _of_kind,
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
    """A signal file or a command line does not parse or violates its schema."""


# the metadata keys of a signal file; analog kinds carry ts, periodic kinds carry n
_META_KEYS = ("kind", "ts", "n")
# Rows per block: tables are formatted and JSON rows read this many rows at
# a time, and CSV text is cut into blocks of at most about this many rows,
# so no whole-file list of lines, cells or Python numbers is built.
_IO_BLOCK_ROWS = 2**13
# the characters of the shortest CSV row, '0,0,0' and its line break
_MIN_ROW_CHARS = 6
# kind <-> signal type
_TYPES = {
    "discrete": DiscreteSignal,
    "analog": SampledSignal,
    "periodic-discrete": PeriodicDiscreteSignal,
    "periodic-analog": PeriodicSampledSignal,
}


def signal_kind(signal) -> str:
    """The file kind of a signal: discrete, analog, periodic-discrete or periodic-analog."""
    signal = _of_kind("signal_kind", tuple(_TYPES.values()), signal)
    return next(kind for kind, cls in _TYPES.items() if isinstance(signal, cls))


# --------------------------------------------------------------------------
# reading
# --------------------------------------------------------------------------

def _is_plain(text: str) -> bool:
    """Whether int() and float() read text as written: they read '1_5' as 15
    and accept non-ASCII digits, so a text with a '_' or a non-ASCII
    character is not plain.  Every number cell and numeric CLI flag is held
    to this rule."""
    return text.isascii() and "_" not in text


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


def _build_signal(kind, ts, n, start, contiguous, samples):
    """The signal of one parsed file from its rows as ``_rows`` returns them."""
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
    if periodic:
        if n is None:
            raise SignalFormatError(f"kind={kind} requires n metadata")
        if n < 1:
            raise SignalFormatError(f"kind={kind} needs n >= 1, got n={n}")
        if n != samples.size:
            raise SignalFormatError(f"metadata says n={n} but file has {samples.size} rows")
        if start != 0 or not contiguous:
            raise SignalFormatError("periodic rows must cover exactly the indices 0..N-1 in order")
    else:
        if not contiguous:
            raise SignalFormatError("indices must be contiguous and strictly increasing")
        fields["start"] = start
    return _TYPES[kind](samples=samples, **fields)


def _rows(blocks):
    """(start, contiguous, samples) of a file's rows, parsed block by block.

    Each block is a tuple of stages: callables that each look for one class
    of defect in the block, in the order in which the classes take
    precedence, and raise SignalFormatError at the first one.  The last three
    return the block's index list and its re and im columns.  The error
    raised is the first defect of the first class in the whole file, also
    when a defect of a later class sits in an earlier block, so where the
    blocks are cut never changes it.  Each block's indices are compared with
    the ones that continue the file's first index, as Python ints, so
    indices beyond int64 work; ``start`` is 0 for a file with no rows.
    """
    parts = [np.empty(0, dtype=np.complex128)]
    start, contiguous, filled = None, True, 0
    error = None  # (stage number, SignalFormatError) of the first defect found
    for stages in blocks:
        results = []
        for stage_no, stage in enumerate(stages[: error[0] if error else None]):
            try:
                results.append(stage())
            except SignalFormatError as exc:
                error = (stage_no, exc)
                break
        if error:
            if error[0] == 0:  # no later defect takes precedence over it
                break
            continue
        index, re, im = results[-3:]
        end = filled + len(index)
        if index:
            if start is None:
                start = index[0]
            contiguous = contiguous and index == list(range(start + filled, start + end))
        # real part, then imaginary part, so signed zeros survive
        part = np.empty(len(index), dtype=np.complex128)
        part.real, part.imag = re, im
        parts.append(part)
        filled = end
    if error:
        raise error[1]
    return 0 if start is None else start, contiguous, np.concatenate(parts)


def _csv_line_blocks(text: str):
    """The stripped, non-blank lines of ``text`` in blocks of at most about
    _IO_BLOCK_ROWS rows.

    A block ends at the first '\\n' at least _IO_BLOCK_ROWS * _MIN_ROW_CHARS
    characters on from its start: one ``str.find`` per block, where a cut at
    an exact row count would take one per row.  A cut after a '\\n' splits
    no line, so the blocks hold exactly the lines of ``text.splitlines()``.
    """
    at = 0
    while at < len(text):
        cut = text.find("\n", at + _IO_BLOCK_ROWS * _MIN_ROW_CHARS - 1) + 1 or len(text)
        yield [ln for ln in map(str.strip, text[at:cut].splitlines()) if ln]
        at = cut


def _csv_stages(rows, named=()):
    """The stages (see ``_rows``) of one block of CSV rows.  ``named`` are
    (what, cell) pairs checked for a '_' or a non-ASCII character before the
    block's own cells."""
    joined = ",".join(rows)
    cells = joined.split(",") if rows else []

    def columns():
        for line in rows:
            if line.count(",") != 2:
                raise SignalFormatError(f"expected 3 columns, got {line.count(',') + 1}: {line!r}")

    def plain():
        suspect = not _is_plain(joined)
        own = zip(itertools.cycle(("index", "re", "im")), cells) if suspect else ()
        for what, cell in itertools.chain(named, own):
            if not _is_plain(cell):
                bad = f"{what} holds a '_' or a non-ASCII character: {cell.strip()!r}"
                raise SignalFormatError(bad)

    return (
        columns,
        plain,
        lambda: _ints(cells[0::3], "index"),
        lambda: _floats(cells[1::3], "re"),
        lambda: _floats(cells[2::3], "im"),
    )


def _read_csv(text: str):
    blocks = _csv_line_blocks(text)
    meta, body = {}, []
    for lines in blocks:
        body_at = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
        for token in " ".join(ln.lstrip("#") for ln in lines[:body_at]).split():
            key, eq, value = token.partition("=")
            if not eq:
                raise SignalFormatError(f"bad metadata token {token!r}")
            if key not in _META_KEYS:
                raise SignalFormatError(f"unknown metadata key {key!r}")
            if key in meta:
                raise SignalFormatError(f"repeated metadata key {key!r}")
            meta[key] = value
        body = lines[body_at:]
        if body:
            break
    if "kind" not in meta:
        raise SignalFormatError("missing '# kind=...' metadata line")
    ts = float(_floats([meta["ts"]], "ts")[0]) if "ts" in meta else None
    n = _ints([meta["n"]], "n")[0] if "n" in meta else None
    if not body or body[0].replace(" ", "") != "index,re,im":
        raise SignalFormatError("expected header row 'index,re,im'")
    named = [("ts", meta.get("ts", "")), ("n", meta.get("n", ""))]
    first = _csv_stages(body[1:], named)
    rows = _rows(itertools.chain([first], map(_csv_stages, blocks)))
    return _build_signal(meta["kind"], ts, n, *rows)


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
    blocks = (rows[at : at + _IO_BLOCK_ROWS] for at in range(0, len(rows), _IO_BLOCK_ROWS))
    return _build_signal(kind, ts, n, *_rows(map(_json_stages, blocks)))


def _json_stages(rows):
    """The stages (see ``_rows``) of one block of JSON rows."""

    def shapes():
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3):
                raise SignalFormatError(f"each row must be [index, re, im], got {row!r}")

    return (
        shapes,
        lambda: _json_column([row[0] for row in rows], "index", integer=True),
        lambda: _json_column([row[1] for row in rows], "re"),
        lambda: _json_column([row[2] for row in rows], "im"),
    )


def read_signal_text(text: str):
    """Parse a signal from CSV or JSON text (sniffed by the leading character).

    One leading UTF-8 byte-order mark, as spreadsheet programs write, is dropped."""
    text = text.removeprefix("\ufeff")
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

def _table_text(meta: dict, header: str, columns, fmt: str):
    """Every table's text, as a generator of blocks of _IO_BLOCK_ROWS rows:
    CSV under a ``# key=value`` line, or the JSON mirror.

    ``meta`` lists the metadata in output order.  ``columns`` are equal-length
    arrays or ranges; an integer column is written as integers, every other
    one as floats (17 significant digits in CSV).  ``fmt`` is checked here,
    before the first block is asked for.

    The JSON text is exactly ``json.dumps({**meta, "rows": rows}, indent=2)``
    plus a newline, but ``json`` formats only the metadata head and each
    column's numbers (compact, so its C encoder runs; with ``indent`` it runs
    the pure-Python one); the blocks own the ``indent=2`` layout of the rows
    around those number tokens.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "json":
        return _json_text_blocks(meta, columns)
    return _csv_text_blocks(meta, header, columns)


def _column_blocks(columns):
    """Each block of rows as a list of its columns' Python numbers."""
    for at in range(0, len(columns[0]), _IO_BLOCK_ROWS):
        parts = [c[at : at + _IO_BLOCK_ROWS] for c in columns]
        yield [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in parts]


def _csv_text_blocks(meta, header, columns):
    tokens = (f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items())
    yield "# " + " ".join(tokens) + "\n" + header + "\n"
    for block in _column_blocks(columns):
        row = ",".join("{}" if type(c[0]) is int else "{:.17g}" for c in block)
        yield "\n".join(map(row.format, *block)) + "\n"


def _json_text_blocks(meta, columns):
    head = json.dumps({**meta, "rows": []}, indent=2)
    if not len(columns[0]):
        yield head + "\n"
        return
    # head ends in '"rows": []\n}'; the rows go between its brackets
    between = "\n    ],\n    [\n      "
    first = head[:-4] + "[\n    [\n      "
    for block in _column_blocks(columns):
        tokens = [json.dumps(c)[1:-1].split(", ") for c in block]
        yield first + between.join(map(",\n      ".join, zip(*tokens)))
        first = between
    yield "\n    ]\n  ]\n}\n"


def _signal_table(signal, what: str):
    """(meta, header, columns) of a signal's table; a value of another kind is
    a TypeError naming ``what``, the caller."""
    kind = signal_kind(_of_kind(what, tuple(_TYPES.values()), signal))
    meta = {"kind": kind}
    if kind.endswith("analog"):
        meta["ts"] = signal.ts
    if kind.startswith("periodic"):
        meta["n"] = signal.samples.size
    start = getattr(signal, "start", 0)
    index = range(start, start + signal.samples.size)
    return meta, "index,re,im", [index, signal.samples.real, signal.samples.imag]


def signal_text(signal, fmt: str = "csv") -> str:
    """Serialize a signal to CSV or JSON text."""
    return "".join(_table_text(*_signal_table(signal, "signal_text"), fmt))


def write_signal(signal, path: str, fmt: str = "csv"):
    """Write a signal's CSV or JSON text to ``path``, or to standard output
    when ``path`` is ``-``, one block of rows at a time.  The library's file
    writer, the counterpart of ``read_signal``; the CLI does not call it yet
    (ROADMAP.md, item 9)."""
    _write_text(_table_text(*_signal_table(signal, "write_signal"), fmt), path)


def _write_text(chunks, path: str):
    """The one writer of every output: text chunks to ``path``, or to standard
    output when ``path`` is ``-``.  Output that cannot be written raises
    ``SignalFormatError``."""
    try:
        if path == "-":
            sys.stdout.writelines(chunks)
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise SignalFormatError(f"cannot write {path}: {exc}") from None


def series_table_text(spectrum: SeriesSpectrum, fmt: str = "csv") -> str:
    """Coefficient table: C_n plus the one-period factor column F(n) = T * C_n."""
    t = _of_kind("series_table_text", SeriesSpectrum, spectrum).period_t
    meta = {"kind": "series", "t": t, "omega0": spectrum.omega0, "n_max": spectrum.n_max}
    c = spectrum.coeffs
    # F(n) as the complex product (T + 0j) * C_n, whose signed zeros differ from T * Re, T * Im
    f_re, f_im = t * c.real - 0.0 * c.imag, t * c.imag + 0.0 * c.real
    columns = [spectrum.harmonics(), c.real, c.imag, f_re, f_im]
    return "".join(_table_text(meta, "n,c_re,c_im,f_re,f_im", columns, fmt))


def transform_table_text(spectrum: TransformSpectrum, fmt: str = "csv") -> str:
    """Frequency table of F(omega) values."""
    spectrum = _of_kind("transform_table_text", TransformSpectrum, spectrum)
    columns = [spectrum.omegas, spectrum.values.real, spectrum.values.imag]
    return "".join(_table_text({"kind": "spectrum"}, "omega,re,im", columns, fmt))
