import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfourier import io as cio
from convfourier.cli import main
from convfourier.fourier import SeriesSpectrum, TransformSpectrum
from convfourier.io import (
    SignalFormatError,
    _table_text,
    read_signal,
    read_signal_text,
    series_table_text,
    signal_kind,
    signal_text,
    transform_table_text,
    write_signal,
)
from convfourier.signals import (
    DiscreteSignal,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
)
from oracles import FileContractError, parse_signal_file

# awkward values that expose any serialization below 17 significant digits
TRICKY = [1 / 3, 0.1, math.pi, -1e-17, 2**-52, 123456789.123456789]


def tricky_samples():
    return np.asarray(
        [complex(TRICKY[i], TRICKY[-1 - i]) for i in range(len(TRICKY))], dtype=complex
    )


SIGNALS = [
    DiscreteSignal(-3, tricky_samples()),
    SampledSignal(1 / 3, 5, tricky_samples()),
    PeriodicDiscreteSignal(tricky_samples()),
    PeriodicSampledSignal(0.1, tricky_samples()),
]


class TestRoundTrip:
    @pytest.mark.parametrize("signal", SIGNALS, ids=lambda s: signal_kind(s))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_round_trip(self, signal, fmt):
        text = signal_text(signal, fmt)
        back = read_signal_text(text)
        assert type(back) is type(signal)
        assert np.array_equal(back.samples, signal.samples)
        if hasattr(signal, "ts"):
            assert back.ts == signal.ts
        if hasattr(signal, "start"):
            assert back.start == signal.start

    def test_file_round_trip(self, tmp_path):
        signal = SIGNALS[1]
        path = tmp_path / "sig.csv"
        write_signal(signal, str(path))
        back = read_signal(str(path))
        assert np.array_equal(back.samples, signal.samples)

    def test_read_signal_stdin_and_unreadable_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(signal_text(SIGNALS[0])))
        assert np.array_equal(read_signal("-").samples, SIGNALS[0].samples)
        with pytest.raises(SignalFormatError, match="cannot read"):
            read_signal(str(tmp_path / "missing.csv"))
        with pytest.raises(SignalFormatError, match="cannot read"):
            read_signal(str(tmp_path))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_signal_stdout_and_unwritable_path(self, tmp_path, monkeypatch, capsys, fmt):
        # "-" is standard output, as for read_signal, and names no file
        monkeypatch.chdir(tmp_path)
        write_signal(SIGNALS[0], "-", fmt)
        assert capsys.readouterr().out == signal_text(SIGNALS[0], fmt)
        assert list(tmp_path.iterdir()) == []
        for path in (tmp_path, tmp_path / "missing" / "out.csv"):
            with pytest.raises(SignalFormatError, match=f"cannot write {re.escape(str(path))}"):
                write_signal(SIGNALS[0], str(path), fmt)
        assert list(tmp_path.iterdir()) == []

    def test_empty_aperiodic(self):
        signal = DiscreteSignal(0, [])
        back = read_signal_text(signal_text(signal))
        assert len(back.samples) == 0


class TestCsvParsing:
    def test_minimal(self):
        sig = read_signal_text("# kind=discrete\nindex,re,im\n2,1.5,-0.5\n3,0,1\n")
        assert isinstance(sig, DiscreteSignal)
        assert sig.start == 2
        assert sig.value(3) == 1j

    def test_missing_kind(self):
        with pytest.raises(SignalFormatError, match="kind"):
            read_signal_text("index,re,im\n0,1,0\n")

    def test_bad_header(self):
        with pytest.raises(SignalFormatError, match="header"):
            read_signal_text("# kind=discrete\nidx,re,im\n0,1,0\n")

    def test_non_contiguous_indices(self):
        with pytest.raises(SignalFormatError, match="contiguous"):
            read_signal_text("# kind=discrete\nindex,re,im\n0,1,0\n2,1,0\n")

    def test_periodic_row_count_mismatch(self):
        with pytest.raises(SignalFormatError, match="rows"):
            read_signal_text("# kind=periodic-discrete n=3\nindex,re,im\n0,1,0\n1,2,0\n")

    def test_periodic_wrong_indices(self):
        with pytest.raises(SignalFormatError, match="0..N-1"):
            read_signal_text("# kind=periodic-discrete n=2\nindex,re,im\n1,1,0\n2,2,0\n")

    def test_analog_needs_ts(self):
        with pytest.raises(SignalFormatError, match="ts"):
            read_signal_text("# kind=analog\nindex,re,im\n0,1,0\n")

    def test_nonfinite_value(self):
        with pytest.raises(SignalFormatError, match="finite"):
            read_signal_text("# kind=discrete\nindex,re,im\n0,inf,0\n")

    def test_unparseable_number(self):
        with pytest.raises(SignalFormatError, match="not a number"):
            read_signal_text("# kind=discrete\nindex,re,im\n0,abc,0\n")

    def test_unknown_kind(self):
        with pytest.raises(SignalFormatError, match="unknown kind"):
            read_signal_text("# kind=sampled\nindex,re,im\n0,1,0\n")

    def test_unknown_metadata_key(self):
        with pytest.raises(SignalFormatError, match="metadata"):
            read_signal_text("# kind=discrete color=red\nindex,re,im\n0,1,0\n")

    @pytest.mark.parametrize(
        "text,named",
        [
            ("# kind=analog ts=0_5\nindex,re,im\n0,1_5,0\n", "ts .* '0_5'"),
            ("# kind=periodic-discrete n=0_2\nindex,re,im\n0,1,0\n1,1,0\n", "n .* '0_2'"),
            ("# kind=discrete\nindex,re,im\n1_0,1,0\n", "index .* '1_0'"),
            ("# kind=discrete\nindex,re,im\n0,1,0\n1,0,1_5\n", "im .* '1_5'"),
            ("# kind=discrete\nindex,re,im\n0,\uff11,0\n", "re .* '\uff11'"),
        ],
    )
    def test_digit_group_or_non_ascii_numeral_named(self, text, named):
        # int() and float() would read '1_5' as 15 and a full-width digit as 1
        with pytest.raises(SignalFormatError, match=named):
            read_signal_text(text)

    def test_wrong_column_count(self):
        with pytest.raises(SignalFormatError, match="columns"):
            read_signal_text("# kind=discrete\nindex,re,im\n0,1\n")


class TestJsonParsing:
    def test_minimal(self):
        sig = read_signal_text('{"kind": "periodic-discrete", "n": 2, "rows": [[0, 1, 0], [1, 0, 1]]}')
        assert isinstance(sig, PeriodicDiscreteSignal)
        assert sig.value(1) == 1j

    def test_invalid_json(self):
        with pytest.raises(SignalFormatError, match="JSON"):
            read_signal_text("{not json")

    def test_not_an_object(self):
        with pytest.raises(SignalFormatError, match="object"):
            read_signal_text("[1, 2, 3]")

    def test_missing_rows(self):
        with pytest.raises(SignalFormatError, match="rows"):
            read_signal_text('{"kind": "discrete"}')

    def test_bad_row_shape(self):
        with pytest.raises(SignalFormatError, match="row"):
            read_signal_text('{"kind": "discrete", "rows": [[0, 1]]}')

    def test_empty_input(self):
        with pytest.raises(SignalFormatError, match="empty"):
            read_signal_text("   ")


class TestByteOrderMark:
    # spreadsheet programs save "CSV UTF-8" with a leading U+FEFF, which used
    # to be read as a missing metadata line (and a BOM JSON file as CSV)
    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        assert np.array_equal(got.samples, want.samples)
        assert getattr(got, "ts", None) == getattr(want, "ts", None)
        assert getattr(got, "start", None) == getattr(want, "start", None)

    @pytest.mark.parametrize("signal", SIGNALS, ids=lambda s: signal_kind(s))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_leading_bom_is_dropped(self, signal, fmt, tmp_path, monkeypatch):
        text = signal_text(signal, fmt)
        want = read_signal_text(text)
        self.assert_same(read_signal_text("\ufeff" + text), want)
        path = tmp_path / f"bom.{fmt}"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        self.assert_same(read_signal(str(path)), want)
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
        self.assert_same(read_signal("-"), want)

    @pytest.mark.parametrize("text, message", [
        ("# kind=discrete\nindex,re,im\n0,\ufeff1,0\n", "non-ASCII"),
        ("\ufeff\ufeff# kind=discrete\nindex,re,im\n0,1,0\n", "metadata"),
    ], ids=["in-a-cell", "second-bom"])
    def test_any_other_bom_is_rejected(self, text, message):
        with pytest.raises(SignalFormatError, match=message):
            read_signal_text(text)


class TestTables:
    def test_series_table_has_factor_column(self):
        spectrum = SeriesSpectrum(period_t=2.0, coeffs=np.array([0.25j, 1.0, 0.5]))
        text = series_table_text(spectrum)
        lines = text.strip().splitlines()
        assert lines[1] == "n,c_re,c_im,f_re,f_im"
        # F(n) = T * C_n
        row = lines[3].split(",")
        assert float(row[3]) == pytest.approx(2.0 * 1.0)

    def test_series_table_json(self):
        import json

        spectrum = SeriesSpectrum(period_t=1.0, coeffs=np.array([0, 1.0, 0]))
        data = json.loads(series_table_text(spectrum, "json"))
        assert data["kind"] == "series"
        assert data["rows"][1] == [0, 1.0, 0.0, 1.0, 0.0]

    def test_factor_column_is_the_complex_product(self):
        # (T + 0j) * C_n: an underflowing T * Im and a T * (-0.0) come out as +0
        t = 1e-167
        spectrum = SeriesSpectrum(period_t=t, coeffs=np.array([0j, complex(1, -5e-324), -1j]))
        assert series_table_text(spectrum).splitlines()[3:] == [
            "0,1,-4.9406564584124654e-324,1e-167,0",
            "1,-0,-1,0,-1e-167",
        ]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            signal_text(DiscreteSignal(0, [1]), "xml")

    def test_transform_table(self):
        spectrum = TransformSpectrum(
            omegas=np.array([-1.0, 0.0, 1.0]), values=np.array([1j, 2.0, -1j])
        )
        text = transform_table_text(spectrum)
        lines = text.strip().splitlines()
        assert lines[0] == "# kind=spectrum"
        assert lines[1] == "omega,re,im"
        assert lines[3] == "0,2,0"


# ---------------------------------------------------------------------------
# The file contract, byte for byte: a -0.0 sample and a value that needs 17
# significant digits in every kind and table, in CSV and JSON.
# ---------------------------------------------------------------------------

PINNED_SAMPLES = np.array([complex(-0.0, 1 / 3), complex(0.1, -0.0)])
PINNED_SIGNALS = {
    "discrete": DiscreteSignal(-2, PINNED_SAMPLES),
    "analog": SampledSignal(0.1, 3, PINNED_SAMPLES),
    "periodic-discrete": PeriodicDiscreteSignal(PINNED_SAMPLES),
    "periodic-analog": PeriodicSampledSignal(1 / 3, PINNED_SAMPLES),
}
PINNED_SERIES = SeriesSpectrum(
    period_t=2.0, coeffs=np.array([complex(-0.0, 1 / 3), 0.1, complex(2 / 3, -0.0)])
)
PINNED_SPECTRUM = TransformSpectrum(omegas=np.array([-0.5, 1 / 3]), values=PINNED_SAMPLES)

PINNED = {
    ("discrete", "csv"): """\
# kind=discrete
index,re,im
-2,-0,0.33333333333333331
-1,0.10000000000000001,-0
""",
    ("discrete", "json"): """\
{
  "kind": "discrete",
  "rows": [
    [
      -2,
      -0.0,
      0.3333333333333333
    ],
    [
      -1,
      0.1,
      -0.0
    ]
  ]
}
""",
    ("analog", "csv"): """\
# kind=analog ts=0.10000000000000001
index,re,im
3,-0,0.33333333333333331
4,0.10000000000000001,-0
""",
    ("analog", "json"): """\
{
  "kind": "analog",
  "ts": 0.1,
  "rows": [
    [
      3,
      -0.0,
      0.3333333333333333
    ],
    [
      4,
      0.1,
      -0.0
    ]
  ]
}
""",
    ("periodic-discrete", "csv"): """\
# kind=periodic-discrete n=2
index,re,im
0,-0,0.33333333333333331
1,0.10000000000000001,-0
""",
    ("periodic-discrete", "json"): """\
{
  "kind": "periodic-discrete",
  "n": 2,
  "rows": [
    [
      0,
      -0.0,
      0.3333333333333333
    ],
    [
      1,
      0.1,
      -0.0
    ]
  ]
}
""",
    ("periodic-analog", "csv"): """\
# kind=periodic-analog ts=0.33333333333333331 n=2
index,re,im
0,-0,0.33333333333333331
1,0.10000000000000001,-0
""",
    ("periodic-analog", "json"): """\
{
  "kind": "periodic-analog",
  "ts": 0.3333333333333333,
  "n": 2,
  "rows": [
    [
      0,
      -0.0,
      0.3333333333333333
    ],
    [
      1,
      0.1,
      -0.0
    ]
  ]
}
""",
    ("series", "csv"): """\
# kind=series t=2 omega0=3.1415926535897931 n_max=1
n,c_re,c_im,f_re,f_im
-1,-0,0.33333333333333331,-0,0.66666666666666663
0,0.10000000000000001,0,0.20000000000000001,0
1,0.66666666666666663,-0,1.3333333333333333,0
""",
    ("spectrum", "csv"): """\
# kind=spectrum
omega,re,im
-0.5,-0,0.33333333333333331
0.33333333333333331,0.10000000000000001,-0
""",
    ("series", "json"): """\
{
  "kind": "series",
  "t": 2.0,
  "omega0": 3.141592653589793,
  "n_max": 1,
  "rows": [
    [
      -1,
      -0.0,
      0.3333333333333333,
      -0.0,
      0.6666666666666666
    ],
    [
      0,
      0.1,
      0.0,
      0.2,
      0.0
    ],
    [
      1,
      0.6666666666666666,
      -0.0,
      1.3333333333333333,
      0.0
    ]
  ]
}
""",
    ("spectrum", "json"): """\
{
  "kind": "spectrum",
  "rows": [
    [
      -0.5,
      -0.0,
      0.3333333333333333
    ],
    [
      0.3333333333333333,
      0.1,
      -0.0
    ]
  ]
}
""",
}


SIGNAL_KEYS = [key for key in PINNED if key[0] in PINNED_SIGNALS]


class TestPinnedText:
    @pytest.mark.parametrize("key", SIGNAL_KEYS, ids="-".join)
    def test_signal_text(self, key):
        kind, fmt = key
        assert signal_text(PINNED_SIGNALS[kind], fmt) == PINNED[key]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_series_table_text(self, fmt):
        assert series_table_text(PINNED_SERIES, fmt) == PINNED[("series", fmt)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_transform_table_text(self, fmt):
        assert transform_table_text(PINNED_SPECTRUM, fmt) == PINNED[("spectrum", fmt)]

    @pytest.mark.parametrize("key", SIGNAL_KEYS, ids="-".join)
    def test_read_then_write_is_identity(self, key):
        text = PINNED[key]
        assert signal_text(read_signal_text(text), key[1]) == text

    def test_index_beyond_int64_keeps_its_bytes(self, tmp_path, capsys):
        text = "# kind=discrete\nindex,re,im\n100000000000000000000000,1,0.25\n100000000000000000000001,2,0.5\n"
        src = tmp_path / "big.csv"
        src.write_text(text)
        delta = tmp_path / "delta.csv"
        delta.write_text("# kind=discrete\nindex,re,im\n0,1,0\n")
        assert main(["conv", str(src), str(delta)]) == 0
        assert capsys.readouterr().out == text

    def test_400_digit_json_sample_exit_2(self, tmp_path, capsys):
        src = tmp_path / "huge.json"
        src.write_text('{"kind": "discrete", "rows": [[0, 1' + "0" * 399 + ', 0]]}')
        assert main(["conv", str(src), str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: re must be finite")


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps(..., indent=2), its reference layout
# ---------------------------------------------------------------------------

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# spectrum columns may hold NaN and infinities; signal samples may not
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
ROW_COUNTS = st.one_of(st.just(0), st.just(1), st.integers(2, 60))
METAS = st.sampled_from([
    {"kind": "spectrum"},
    {"kind": "analog", "ts": 0.1},
    {"kind": "periodic-discrete", "n": 3},
    {"kind": "series", "t": 2.0, "omega0": math.pi, "n_max": 7},
])


@st.composite
def tables(draw):
    rows = draw(ROW_COUNTS)
    width = draw(st.sampled_from([3, 5]))
    start = draw(st.integers(-(2**70), 2**70))
    index = draw(st.sampled_from([
        range(start, start + rows),  # beyond int64 when |start| is large
        np.arange(rows, dtype=np.int64) - rows // 2,
    ]))
    floats = [np.array(draw(st.lists(ANY_FLOAT, min_size=rows, max_size=rows)), dtype=np.float64)
              for _ in range(width - 1)]
    return draw(METAS), [index, *floats]


# a signal of each kind from its samples and (aperiodic kinds only) its start
SIGNAL_TYPES = {
    "discrete": lambda samples, start: DiscreteSignal(start, samples),
    "analog": lambda samples, start: SampledSignal(0.1, start, samples),
    "periodic-discrete": lambda samples, start: PeriodicDiscreteSignal(samples),
    "periodic-analog": lambda samples, start: PeriodicSampledSignal(0.1, samples),
}


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(table=tables())
    def test_json_table_is_json_dumps_indent_2(self, table):
        meta, columns = table
        lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
        want = json.dumps({**meta, "rows": [list(row) for row in zip(*lists)]}, indent=2) + "\n"
        assert "".join(_table_text(meta, "h", columns, "json")) == want

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(list(SIGNAL_TYPES)),
        samples=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=40),
        start=st.integers(-(2**70), 2**70),
    )
    def test_signal_json_round_trips_bit_for_bit(self, kind, samples, start):
        values = np.empty(len(samples), dtype=np.complex128)
        values.real, values.imag = np.array(samples).T
        signal = SIGNAL_TYPES[kind](values, start)
        back = read_signal_text(signal_text(signal, "json"))
        assert type(back) is type(signal)
        assert back.samples.tobytes() == signal.samples.tobytes()
        assert getattr(back, "start", None) == getattr(signal, "start", None)



# ---------------------------------------------------------------------------
# Block boundaries: files are parsed and tables formatted _IO_BLOCK_ROWS rows
# at a time, and where the blocks are cut must change no byte, no sample and
# no error.
# ---------------------------------------------------------------------------

DEFAULT_BLOCK_ROWS = cio._IO_BLOCK_ROWS


@pytest.fixture(params=[1, 2, 3, 7, DEFAULT_BLOCK_ROWS], ids=lambda k: f"block{k}")
def block_rows(request, monkeypatch):
    monkeypatch.setattr(cio, "_IO_BLOCK_ROWS", request.param)
    return request.param


def _csv_rows(count, start=0, gap_at=None):
    """CSV rows start.., with index gap_at skipped."""
    indices = [i for i in range(start, start + count + (gap_at is not None)) if i != gap_at]
    return [f"{i},{(i - start) / 7!r},{-(i - start) / 3!r}" for i in indices]


def _csv(meta, rows, sep="\n", head=()):
    return sep.join(["# " + meta, *head, "index,re,im", *rows]) + sep


def _json(rows, **meta):
    return json.dumps({**meta, "rows": rows})


def _with(rows, at, row):
    rows = list(rows)
    rows[at] = row
    return rows


ROWS = _csv_rows(30)
JSON_ROWS = [[i, i / 7, -i / 3] for i in range(30)]
BIG = 2**70 - 10

BLOCK_CORPUS = {
    # well-formed
    "crlf": _csv("kind=discrete", ROWS, "\r\n"),
    "form-feed-and-other-separators": "# kind=analog ts=0.5\nindex,re,im\n" + "".join(
        row + ("\x0c", "\r", "\n", "\x0c\n", "\x85", "\u2028", "\r\n")[i % 7] for i, row in enumerate(ROWS)
    ),
    "carriage-returns-only": _csv("kind=discrete", ROWS, "\r"),
    "blank-and-whitespace-lines": _csv(
        "kind=discrete", [r for row in ROWS for r in (row, "", "   ", "\t\x0c")], head=("", "  ")
    ),
    "more-leading-comments-than-a-block": "\n".join(
        ["#"] * 20 + ["# kind=analog", "#", "#  ", "#ts=0.25"] + ["#"] * 20 + ["index,re,im", *ROWS, ""]
    ),
    "non-ascii-whitespace-stripped": _csv("kind=discrete", [row + "\u3000" for row in ROWS]),
    "periodic": _csv("kind=periodic-analog ts=0.125 n=30", ROWS),
    "beyond-int64": _csv("kind=discrete", _csv_rows(30, BIG)),
    "below-int64": _csv("kind=discrete", _csv_rows(30, -BIG - 40)),
    "no-rows": "# kind=discrete\nindex,re,im\n",
    "json": _json(JSON_ROWS, kind="discrete"),
    "json-beyond-int64": _json([[BIG + i, 1.5, -0.0] for i in range(30)], kind="analog", ts=0.5),
    "json-periodic": _json(JSON_ROWS, kind="periodic-discrete", n=30),
    # one defect
    "comment-row-after-header": _csv("kind=discrete", ROWS[:10] + ["# note"] + ROWS[10:]),
    "comment-cells-after-header": _csv("kind=discrete", ROWS[:10] + ["#a,b,c"] + ROWS[10:]),
    "no-header-after-comments": "\n".join(["#"] * 40 + ["# kind=discrete"] + ROWS) + "\n",
    "bad-token-after-many-comments": "\n".join(["#"] * 40 + ["# kind=discrete oops"] + ROWS) + "\n",
    "periodic-no-rows": "# kind=periodic-discrete n=0\nindex,re,im\n",
    "periodic-wrong-start": _csv("kind=periodic-discrete n=30", _csv_rows(30, 1)),
    "periodic-count": _csv("kind=periodic-discrete n=29", ROWS),
    **{f"gap-at-{g}": _csv("kind=discrete", _csv_rows(30, gap_at=g)) for g in (1, 2, 3, 6, 7, 14, 21)},
    "gap-beyond-int64": _csv("kind=discrete", _csv_rows(30, BIG, gap_at=BIG + 7)),
    "json-gap-at-7": _json([row for row in JSON_ROWS + [[30, 0, 0]] if row[0] != 7], kind="discrete"),
    "json-nan": _json(_with(JSON_ROWS, 20, [20, 1, math.nan]), kind="discrete"),
    "json-huge-integer": _json(_with(JSON_ROWS, 20, [20, 10**400, 0]), kind="discrete"),
    "json-repeated-key": '{"kind": "discrete", "kind": "analog", "rows": []}',
    # defects in different blocks: the first of the first class wins
    "columns-late-bad-cell-early": _csv(
        "kind=discrete", _with(_with(ROWS, 2, "x2,1,0"), 27, "27,1,2,3")
    ),
    "bad-im-early-bad-index-late": _csv(
        "kind=discrete", _with(_with(ROWS, 1, "1,0,abc"), 25, "2.5,0,0")
    ),
    "bad-re-early-bad-index-late": _csv(
        "kind=discrete", _with(_with(ROWS, 3, "3,x,0"), 26, "26e0,0,0")
    ),
    "bad-index-early-underscore-late": _csv(
        "kind=discrete", _with(_with(ROWS, 2, "x,0,0"), 26, "26,1_0,0")
    ),
    "ts-underscore-columns-late": _csv("kind=analog ts=0_25", _with(ROWS, 28, "28,1")),
    "ts-underscore-bad-index": _csv("kind=analog ts=0_25", _with(ROWS, 9, "z,1,0")),
    "n-non-ascii-bad-re": _csv("kind=periodic-discrete n=3\uff10", _with(ROWS, 0, "0,q,0")),
    "two-bad-re": _csv("kind=discrete", _with(_with(ROWS, 3, "3,abc,0"), 20, "20,inf,0")),
    "infinite-im-early-bad-index-late": _csv(
        "kind=discrete", _with(_with(ROWS, 0, "0,0,1e999"), 29, "y,0,0")
    ),
    "unknown-kind-bad-re": _csv("kind=sampled", _with(ROWS, 22, "22,x,0")),
    "periodic-count-bad-im": _csv("kind=periodic-discrete n=5", _with(ROWS, 17, "17,0,?")),
    "gap-early-bad-im-late": _csv("kind=discrete", _with(_csv_rows(30, gap_at=2), 27, "28,0,e")),
    "non-ascii-digit-late-bad-index-early": _csv(
        "kind=discrete", _with(_with(ROWS, 1, "one,0,0"), 24, "24,\uff11,0")
    ),
    "json-shape-late-bad-index-early": _json(
        _with(_with(JSON_ROWS, 2, [2.5, 0, 0]), 25, [25, 0]), kind="discrete"
    ),
    "json-bad-index-late-bad-re-early": _json(
        _with(_with(JSON_ROWS, 2, [2, "x", 0]), 25, [True, 0, 0]), kind="discrete"
    ),
    "json-bad-im-early-nan-re-late": _json(
        _with(_with(JSON_ROWS, 1, [1, 0, "0"]), 28, [28, math.nan, 0]), kind="discrete"
    ),
}


def _oracle(text):
    """The whole-file contract's result for ``text``, or its error message."""
    try:
        return parse_signal_file(text)
    except FileContractError as exc:
        return str(exc)


MALFORMED = [name for name, text in BLOCK_CORPUS.items() if isinstance(_oracle(text), str)]


def _default_text(signal, fmt):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cio, "_IO_BLOCK_ROWS", DEFAULT_BLOCK_ROWS)
        return signal_text(signal, fmt)


class TestBlockBoundaries:
    @pytest.mark.parametrize("name", BLOCK_CORPUS)
    def test_reader_matches_the_whole_file_contract(self, name, block_rows):
        want = _oracle(BLOCK_CORPUS[name])
        if isinstance(want, str):
            with pytest.raises(SignalFormatError) as info:
                read_signal_text(BLOCK_CORPUS[name])
            assert str(info.value) == want
            return
        got = read_signal_text(BLOCK_CORPUS[name])
        kind, ts, start, re, im = want
        assert signal_kind(got) == kind
        assert getattr(got, "ts", None) == ts
        assert getattr(got, "start", 0) == start
        assert got.samples.real.tobytes() == np.array(re, dtype=np.float64).tobytes()
        assert got.samples.imag.tobytes() == np.array(im, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("name", MALFORMED)
    def test_cli_exit_code_and_message(self, name, block_rows, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(BLOCK_CORPUS[name], encoding="utf-8", newline="")
        assert main(["conv", str(path), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {_oracle(BLOCK_CORPUS[name])}\n"

    def test_corpus_holds_both_outcomes(self):
        assert 10 <= len(MALFORMED) <= len(BLOCK_CORPUS) - 10

    @pytest.mark.parametrize("key", list(PINNED), ids="-".join)
    def test_pinned_text(self, key, block_rows):
        kind, fmt = key
        if kind == "series":
            assert series_table_text(PINNED_SERIES, fmt) == PINNED[key]
        elif kind == "spectrum":
            assert transform_table_text(PINNED_SPECTRUM, fmt) == PINNED[key]
        else:
            assert signal_text(PINNED_SIGNALS[kind], fmt) == PINNED[key]
            assert signal_text(read_signal_text(PINNED[key]), fmt) == PINNED[key]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("signal", SIGNALS + [DiscreteSignal(BIG, tricky_samples())],
                             ids=lambda s: signal_kind(s))
    def test_round_trip_equals_the_default_blocks(self, signal, fmt, block_rows, tmp_path):
        rows = 23  # several blocks of every patched size
        signal = type(signal)(**{**vars(signal), "samples": np.resize(signal.samples, rows)})
        want = _default_text(signal, fmt)
        assert signal_text(signal, fmt) == want
        write_signal(signal, str(tmp_path / "out"), fmt)
        assert (tmp_path / "out").read_text(encoding="utf-8") == want
        back = read_signal_text(want)
        assert back.samples.tobytes() == signal.samples.tobytes()
        assert signal_text(back, fmt) == want

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 7, 8, 15])
    def test_json_writer_reference(self, rows, block_rows):
        floats = EDGE_FLOATS + [math.nan, math.inf, -math.inf]
        columns = [
            range(BIG, BIG + rows),
            np.array([floats[i % len(floats)] for i in range(rows)]),
            np.arange(rows, dtype=np.int64) - 3,
        ]
        meta = {"kind": "series", "t": 2.0, "omega0": math.pi, "n_max": 7}
        lists = [list(c) if isinstance(c, range) else c.tolist() for c in columns]
        want = json.dumps({**meta, "rows": [list(row) for row in zip(*lists)]}, indent=2) + "\n"
        assert "".join(_table_text(meta, "h", columns, "json")) == want


# ---------------------------------------------------------------------------
# Memory: the text and the sample arrays are the only whole-file allocations
# of a CSV read or of a write; a JSON read also holds json's parse tree.
# tracemalloc counts every allocation, so these peaks are deterministic.
# ---------------------------------------------------------------------------

def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_RNG = np.random.default_rng(20_000)
MEMORY_SIGNAL = DiscreteSignal(-7, _RNG.standard_normal(20_000) + 1j * _RNG.standard_normal(20_000))

# peak / text length, each about 1.4x what these blocks measure (1.7x CSV
# read, 2.8x JSON read, 2.7x and 3.4x CSV and JSON signal_text, 2.3x
# write_signal).  Whole-file lists of lines, cells and numbers measured
# 9.3x (CSV read), 6.5x (CSV write) and 7.1x (JSON write); a JSON read is
# mostly json's parse tree either way (3.0x then).  write_signal formats
# JSON with the same blocks as signal_text, so only its CSV case runs.
MEMORY_BOUNDS = {
    ("read", "csv"): 2.5,
    ("read", "json"): 4.0,
    ("signal_text", "csv"): 3.75,
    ("signal_text", "json"): 4.75,
    ("write_signal", "csv"): 3.25,
}


@pytest.fixture(scope="module")
def memory_texts():
    return {fmt: signal_text(MEMORY_SIGNAL, fmt) for fmt in ("csv", "json")}


class TestMemory:
    @pytest.mark.parametrize("step, fmt", list(MEMORY_BOUNDS), ids=[f"{s}-{f}" for s, f in MEMORY_BOUNDS])
    def test_peak_is_a_small_multiple_of_the_text(self, step, fmt, memory_texts, tmp_path):
        text = memory_texts[fmt]
        calls = {
            "read": lambda: read_signal_text(text),
            "signal_text": lambda: signal_text(MEMORY_SIGNAL, fmt),
            "write_signal": lambda: write_signal(MEMORY_SIGNAL, str(tmp_path / "out"), fmt),
        }
        assert _traced_peak(calls[step]) < MEMORY_BOUNDS[(step, fmt)] * len(text)

    def test_ft_of_2_16_frequencies_to_a_file(self, tmp_path):
        # a 3 MiB table; a whole-file format peaked at 20.6 MiB
        out = tmp_path / "ft.csv"
        argv = ["ft", "--gen", "pulse", "--ts", "0.25", "--omega-min", "0",
                "--omega-max", str(2**16 - 1), "--omega-step", "1", "--out", str(out)]
        assert _traced_peak(lambda: main(argv)) < 12 * 2**20
        assert out.read_text(encoding="utf-8").count("\n") == 2 + 2**16
