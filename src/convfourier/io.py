"""Self-describing signal files: CSV with a metadata comment, plus a JSON mirror.

CSV layout::

    # kind=periodic-analog ts=0.015625 n=64
    index,re,im
    0,1,0
    ...

``kind`` is one of discrete, analog, periodic-discrete, periodic-analog;
analog kinds carry ``ts``, periodic kinds carry ``n``.  Aperiodic rows must
be contiguous and strictly increasing (the first index is the start);
periodic rows must be exactly 0..N-1.  The JSON mirror stores the same
fields as ``{"kind": ..., "ts": ..., "n": ..., "rows": [[index, re, im], ...]}``.
Numbers are written with 17 significant digits so a write/read round trip
is exact.
"""

from __future__ import annotations

import io as _io
import json
import math

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


_KINDS = ("discrete", "analog", "periodic-discrete", "periodic-analog")


def signal_kind(signal) -> str:
    if isinstance(signal, DiscreteSignal):
        return "discrete"
    if isinstance(signal, SampledSignal):
        return "analog"
    if isinstance(signal, PeriodicDiscreteSignal):
        return "periodic-discrete"
    if isinstance(signal, PeriodicSampledSignal):
        return "periodic-analog"
    raise TypeError(f"not a signal type: {type(signal).__name__}")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SignalFormatError(f"{what} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise SignalFormatError(f"{what} must be finite, got {text!r}")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SignalFormatError(f"{what} is not an integer: {text!r}") from None


def _build_signal(kind, ts, n, rows):
    if kind not in _KINDS:
        raise SignalFormatError(f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")
    periodic = kind.startswith("periodic")
    analog = kind.endswith("analog")
    if analog:
        if ts is None:
            raise SignalFormatError(f"kind={kind} requires ts metadata")
        if ts <= 0:
            raise SignalFormatError(f"ts must be > 0, got {ts}")
    indices = [r[0] for r in rows]
    values = np.asarray([complex(r[1], r[2]) for r in rows], dtype=np.complex128)
    if periodic:
        if n is None:
            raise SignalFormatError(f"kind={kind} requires n metadata")
        if n != len(rows):
            raise SignalFormatError(f"metadata says n={n} but file has {len(rows)} rows")
        if indices != list(range(n)):
            raise SignalFormatError("periodic rows must cover exactly the indices 0..N-1 in order")
        if kind == "periodic-discrete":
            return PeriodicDiscreteSignal(samples=values)
        return PeriodicSampledSignal(ts=ts, samples=values)
    if indices and indices != list(range(indices[0], indices[0] + len(indices))):
        raise SignalFormatError("indices must be contiguous and strictly increasing")
    start = indices[0] if indices else 0
    if kind == "discrete":
        return DiscreteSignal(start=start, samples=values)
    return SampledSignal(ts=ts, start=start, samples=values)


def _read_csv(text: str):
    kind = ts = n = None
    lines = text.splitlines()
    body_at = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            body_at = i + 1
            continue
        if not stripped.startswith("#"):
            body_at = i
            break
        body_at = i + 1
        for token in stripped.lstrip("#").split():
            if "=" not in token:
                raise SignalFormatError(f"bad metadata token {token!r}")
            key, _, value = token.partition("=")
            if key == "kind":
                kind = value
            elif key == "ts":
                ts = _parse_float(value, "ts")
            elif key == "n":
                n = _parse_int(value, "n")
            else:
                raise SignalFormatError(f"unknown metadata key {key!r}")
    if kind is None:
        raise SignalFormatError("missing '# kind=...' metadata line")
    body = [ln.strip() for ln in lines[body_at:] if ln.strip()]
    if not body or body[0].replace(" ", "") != "index,re,im":
        raise SignalFormatError("expected header row 'index,re,im'")
    rows = []
    for line in body[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise SignalFormatError(f"expected 3 columns, got {len(parts)}: {line!r}")
        rows.append(
            (
                _parse_int(parts[0], "index"),
                _parse_float(parts[1], "re"),
                _parse_float(parts[2], "im"),
            )
        )
    return _build_signal(kind, ts, n, rows)


def _read_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SignalFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SignalFormatError("JSON signal must be an object")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise SignalFormatError("missing or non-string 'kind'")
    ts = data.get("ts")
    if ts is not None:
        ts = _parse_float(str(ts), "ts")
    n = data.get("n")
    if n is not None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise SignalFormatError(f"'n' must be an integer, got {n!r}")
    rows_raw = data.get("rows")
    if not isinstance(rows_raw, list):
        raise SignalFormatError("missing 'rows' list")
    rows = []
    for row in rows_raw:
        if not (isinstance(row, list) and len(row) == 3):
            raise SignalFormatError(f"each row must be [index, re, im], got {row!r}")
        rows.append(
            (
                _parse_int(str(row[0]), "index"),
                _parse_float(str(row[1]), "re"),
                _parse_float(str(row[2]), "im"),
            )
        )
    return _build_signal(kind, ts, n, rows)


def read_signal_text(text: str):
    """Parse a signal from CSV or JSON text (sniffed by the leading character)."""
    stripped = text.lstrip()
    if not stripped:
        raise SignalFormatError("empty input")
    if stripped[0] in "{[":
        return _read_json(text)
    return _read_csv(text)


def read_signal(path: str):
    """Read a signal file; '-' is not handled here (the CLI reads stdin itself)."""
    with open(path, "r", encoding="utf-8") as fh:
        return read_signal_text(fh.read())


def _metadata(signal) -> tuple:
    kind = signal_kind(signal)
    ts = getattr(signal, "ts", None)
    n = signal.period_samples if isinstance(signal, PeriodicSampledSignal) else (
        signal.period if isinstance(signal, PeriodicDiscreteSignal) else None
    )
    start = getattr(signal, "start", 0)
    return kind, ts, n, start


def signal_text(signal, fmt: str = "csv") -> str:
    """Serialize a signal to CSV or JSON text."""
    kind, ts, n, start = _metadata(signal)
    indices = range(start, start + signal.samples.size) if n is None else range(n)
    if fmt == "json":
        payload = {"kind": kind}
        if ts is not None:
            payload["ts"] = ts
        if n is not None:
            payload["n"] = n
        payload["rows"] = [
            [int(i), float(v.real), float(v.imag)] for i, v in zip(indices, signal.samples)
        ]
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    meta = [f"kind={kind}"]
    if ts is not None:
        meta.append(f"ts={_fmt(ts)}")
    if n is not None:
        meta.append(f"n={n}")
    out = _io.StringIO()
    out.write("# " + " ".join(meta) + "\n")
    out.write("index,re,im\n")
    for i, v in zip(indices, signal.samples):
        out.write(f"{i},{_fmt(v.real)},{_fmt(v.imag)}\n")
    return out.getvalue()


def write_signal(signal, path: str, fmt: str = "csv"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(signal_text(signal, fmt))


def series_table_text(spectrum: SeriesSpectrum, fmt: str = "csv") -> str:
    """Coefficient table: C_n plus the one-period factor column F(n) = T * C_n."""
    t = spectrum.period_t
    if fmt == "json":
        payload = {
            "kind": "series",
            "t": t,
            "omega0": spectrum.omega0,
            "n_max": spectrum.n_max,
            "rows": [
                [int(n), c.real, c.imag, (t * c).real, (t * c).imag]
                for n, c in zip(spectrum.harmonics(), spectrum.coeffs)
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    out = _io.StringIO()
    out.write(f"# kind=series t={_fmt(t)} omega0={_fmt(spectrum.omega0)} n_max={spectrum.n_max}\n")
    out.write("n,c_re,c_im,f_re,f_im\n")
    for n, c in zip(spectrum.harmonics(), spectrum.coeffs):
        f = t * c
        out.write(f"{n},{_fmt(c.real)},{_fmt(c.imag)},{_fmt(f.real)},{_fmt(f.imag)}\n")
    return out.getvalue()


def transform_table_text(spectrum: TransformSpectrum, fmt: str = "csv") -> str:
    """Frequency table of F(omega) values."""
    if fmt == "json":
        payload = {
            "kind": "spectrum",
            "rows": [
                [float(w), v.real, v.imag] for w, v in zip(spectrum.omegas, spectrum.values)
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    out = _io.StringIO()
    out.write("# kind=spectrum\n")
    out.write("omega,re,im\n")
    for w, v in zip(spectrum.omegas, spectrum.values):
        out.write(f"{_fmt(w)},{_fmt(v.real)},{_fmt(v.imag)}\n")
    return out.getvalue()
