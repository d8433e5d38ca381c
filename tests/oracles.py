"""Brute-force reference implementations used as independent test oracles.

Everything here is plain Python over cmath, deliberately sharing no code
with the library: the scalar exponential a^k, dictionary-accumulated double
loops for convolution, term-by-term sums for factors and transforms, and a
whole-file parser of the signal-file contract.
"""

import cmath
import json
import math
import numbers


def _is_bool(value):
    # Python's bool and NumPy's, whose type is also named bool
    return type(value).__name__ in ("bool", "bool_")


def eval_discrete_exponential(a, k):
    """a^k for a nonzero finite base a and an integer k, as Python's complex
    power; a value beyond the float64 range is an OverflowError.  A str or a
    bool base, or an index that is no integer, is a ValueError, never parsed
    or truncated."""
    if isinstance(a, str) or _is_bool(a):
        raise ValueError(f"exponential parameter must be a number, got {a!r}")
    a = complex(a)
    if not cmath.isfinite(a):
        raise ValueError(f"exponential parameter must be finite, got {a}")
    if a == 0:
        raise ValueError("discrete base must be nonzero")
    if _is_bool(k) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    try:
        value = a**k
    except (OverflowError, ZeroDivisionError):  # 1 / a^-k with a^-k rounded to 0
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise OverflowError(f"a^{k} for a = {a} is beyond the float64 range")
    return value


def conv_brute(f_vals, f_start, g_vals, g_start):
    """Full convolution by double loop; returns (start, list of values)."""
    if not f_vals or not g_vals:
        return f_start + g_start, []
    acc = {}
    for i, fv in enumerate(f_vals):
        for j, gv in enumerate(g_vals):
            k = (f_start + i) + (g_start + j)
            acc[k] = acc.get(k, 0j) + fv * gv
    start = f_start + g_start
    return start, [acc.get(k, 0j) for k in range(start, start + len(f_vals) + len(g_vals) - 1)]


def periodic_conv_brute(f_vals, g_vals):
    """Wrap-around convolution over one period by double loop."""
    n = len(f_vals)
    out = []
    for k in range(n):
        total = 0j
        for m in range(n):
            total += f_vals[m] * g_vals[(k - m) % n]
        out.append(total)
    return out


def mixed_conv_brute(h_vals, h_start, f_vals, scale=1.0):
    """Finite signal against one period of a periodic one, folded by modulo."""
    n = len(f_vals)
    out = [0j] * n
    for k in range(n):
        for i, hv in enumerate(h_vals):
            out[k] += scale * hv * f_vals[(k - (h_start + i)) % n]
    return out


def dft_brute(vals):
    """Plain-sum DFT with cmath exponentials."""
    n = len(vals)
    out = []
    for k in range(n):
        total = 0j
        for m in range(n):
            total += vals[m] * cmath.exp(-2j * cmath.pi * m * k / n)
        out.append(total)
    return out


def power_factor_brute(vals, start, a):
    """sum_n f(n) a^(-n) over the support, term by term."""
    total = 0j
    for i, v in enumerate(vals):
        n = start + i
        total += v * a ** (-n)
    return total


def riemann_factor_brute(vals, start, ts, a):
    """ts * sum_k f(k ts) e^(-a k ts), term by term."""
    total = 0j
    for i, v in enumerate(vals):
        t = (start + i) * ts
        total += v * cmath.exp(-a * t)
    return ts * total


def riemann_sum_fsum(vals, times, ts, a):
    """ts * sum_k f_k e^(-a t_k) with one cmath.exp per term and compensated
    (math.fsum) sums of the real and imaginary parts, together with the
    absolute mass ts * sum_k |f_k e^(-a t_k)| that bounds the rounding error
    of any summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, section 4.2)."""
    terms = [complex(v) * cmath.exp(-a * float(t)) for v, t in zip(vals, times)]
    total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    return ts * total, ts * math.fsum(abs(z) for z in terms)


# ---------------------------------------------------------------------------
# The signal-file contract as one whole-file pass: every line, cell and number
# of the file at once, in plain Python.  It raises FileContractError with the
# message the library's SignalFormatError carries, and decides between
# several defects in the same order: metadata, header, column count, '_' or
# non-ASCII, index, re, im, then the kind's metadata and the indices.
# ---------------------------------------------------------------------------

_KINDS = ("discrete", "analog", "periodic-discrete", "periodic-analog")


class FileContractError(ValueError):
    """A signal text that the file contract rejects."""


def _contract_ints(cells, what):
    out = []
    for cell in cells:
        try:
            out.append(int(cell))
        except ValueError:
            raise FileContractError(f"{what} is not an integer: {cell.strip()!r}") from None
    return out


def _contract_floats(cells, what):
    out = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            raise FileContractError(f"{what} is not a number: {cell.strip()!r}") from None
        except OverflowError:  # a JSON integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise FileContractError(f"{what} must be finite, got {str(cell).strip()!r}")
        out.append(value)
    return out


def _contract_signal(kind, ts, n, index, re, im):
    """(kind, ts or None, start, re, im) of a file whose cells all parsed."""
    if kind not in _KINDS:
        raise FileContractError(f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")
    periodic, analog = kind.startswith("periodic"), kind.endswith("analog")
    if ts is not None and not analog:
        raise FileContractError(f"kind={kind} takes no ts metadata")
    if n is not None and not periodic:
        raise FileContractError(f"kind={kind} takes no n metadata")
    if analog:
        if ts is None:
            raise FileContractError(f"kind={kind} requires ts metadata")
        if ts <= 0:
            raise FileContractError(f"ts must be > 0, got {ts}")
    start = index[0] if index else 0
    contiguous = index == list(range(start, start + len(index)))
    if periodic:
        if n is None:
            raise FileContractError(f"kind={kind} requires n metadata")
        if n < 1:
            raise FileContractError(f"kind={kind} needs n >= 1, got n={n}")
        if n != len(index):
            raise FileContractError(f"metadata says n={n} but file has {len(index)} rows")
        if start != 0 or not contiguous:
            raise FileContractError("periodic rows must cover exactly the indices 0..N-1 in order")
    elif not contiguous:
        raise FileContractError("indices must be contiguous and strictly increasing")
    return kind, ts, start, re, im


def _contract_csv(text):
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    body_at = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    meta = {}
    for token in " ".join(ln.lstrip("#") for ln in lines[:body_at]).split():
        key, eq, value = token.partition("=")
        if not eq:
            raise FileContractError(f"bad metadata token {token!r}")
        if key not in ("kind", "ts", "n"):
            raise FileContractError(f"unknown metadata key {key!r}")
        if key in meta:
            raise FileContractError(f"repeated metadata key {key!r}")
        meta[key] = value
    if "kind" not in meta:
        raise FileContractError("missing '# kind=...' metadata line")
    ts = _contract_floats([meta["ts"]], "ts")[0] if "ts" in meta else None
    n = _contract_ints([meta["n"]], "n")[0] if "n" in meta else None
    body = lines[body_at:]
    if not body or body[0].replace(" ", "") != "index,re,im":
        raise FileContractError("expected header row 'index,re,im'")
    rows = body[1:]
    for line in rows:
        if line.count(",") != 2:
            raise FileContractError(f"expected 3 columns, got {line.count(',') + 1}: {line!r}")
    cells = ",".join(rows).split(",") if rows else []
    named = [("ts", meta.get("ts", "")), ("n", meta.get("n", ""))]
    for what, cell in named + list(zip(("index", "re", "im") * len(rows), cells)):
        if "_" in cell or not cell.isascii():
            raise FileContractError(f"{what} holds a '_' or a non-ASCII character: {cell.strip()!r}")
    index = _contract_ints(cells[0::3], "index")
    re, im = _contract_floats(cells[1::3], "re"), _contract_floats(cells[2::3], "im")
    return _contract_signal(meta["kind"], ts, n, index, re, im)


def _contract_keys(pairs):
    data = {}
    for key, value in pairs:
        if key in data:
            raise FileContractError(f"repeated key {key!r}")
        data[key] = value
    return data


def _contract_json_column(cells, what, integer=False):
    types = (int,) if integer else (int, float)
    for cell in cells:
        if type(cell) not in types:
            noun = "an integer" if integer else "a number"
            raise FileContractError(f"{what} is not {noun}: {json.dumps(cell)}")
    return cells if integer else _contract_floats(cells, what)


def _contract_json(text):
    try:
        data = json.loads(text, object_pairs_hook=_contract_keys)
    except (ValueError, RecursionError) as exc:  # a repeated key too
        raise FileContractError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FileContractError("JSON signal must be an object")
    unknown = [key for key in data if key not in ("kind", "ts", "n", "rows")]
    if unknown:
        raise FileContractError(f"unknown metadata key {unknown[0]!r}")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise FileContractError("missing or non-string 'kind'")
    ts = data.get("ts")
    if ts is not None:
        ts = _contract_json_column([ts], "ts")[0]
    n = data.get("n")
    if n is not None and type(n) is not int:
        raise FileContractError(f"'n' must be an integer, got {n!r}")
    rows = data.get("rows")
    if not isinstance(rows, list):
        raise FileContractError("missing 'rows' list")
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3):
            raise FileContractError(f"each row must be [index, re, im], got {row!r}")
    index = _contract_json_column([row[0] for row in rows], "index", integer=True)
    re = _contract_json_column([row[1] for row in rows], "re")
    im = _contract_json_column([row[2] for row in rows], "im")
    return _contract_signal(kind, ts, n, index, re, im)


def parse_signal_file(text):
    """(kind, ts or None, start, re list, im list) of a CSV or JSON signal text."""
    stripped = text.lstrip()
    if not stripped:
        raise FileContractError("empty input")
    return _contract_json(text) if stripped[0] in "{[" else _contract_csv(text)
