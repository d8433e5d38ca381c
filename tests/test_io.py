import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert _table_text(meta, "h", columns, "json") == want

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

