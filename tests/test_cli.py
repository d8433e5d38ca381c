import contextlib
import gc
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convfourier import cli, convolution, fourier, generators, signals
from convfourier.cli import build_parser, main
from convfourier.io import read_signal
from test_harness import FAULTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text)
    return str(path)


def python(cwd, *argv):
    """A fresh interpreter, run in cwd, that imports this checkout's convfourier."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, env=env, timeout=120
    )


DISCRETE_A = "# kind=discrete\nindex,re,im\n0,1,0\n1,2,0\n2,3,0\n"
DISCRETE_B = "# kind=discrete\nindex,re,im\n0,1,0\n1,1,0\n"
DELTA = "# kind=discrete\nindex,re,im\n0,1,0\n"


class TestConv:
    def test_discrete_example(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", DISCRETE_A)
        b = write(tmp_path / "b.csv", DISCRETE_B)
        code, out, _ = run(capsys, "conv", a, b, "--mode", "discrete")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [float(r[1]) for r in rows] == [1, 3, 5, 3]

    def test_delta_preserves_bytes(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", DISCRETE_A)
        d = write(tmp_path / "d.csv", DELTA)
        code, out, _ = run(capsys, "conv", a, d)
        assert code == 0
        assert out == DISCRETE_A

    @pytest.mark.parametrize("mode", [[], ["--mode", "discrete"]], ids=["default", "discrete"])
    def test_indices_beyond_int64_cancel(self, tmp_path, capsys, mode):
        # starts of +1e23 and -1e23 add up to an output at index 0
        a = write(tmp_path / "a.csv", "# kind=discrete\nindex,re,im\n"
                  + "".join(f"{10**23 + i},{i + 1},0\n" for i in range(3)))
        b = write(tmp_path / "b.csv", "# kind=discrete\nindex,re,im\n"
                  + "".join(f"{i - 10**23},1,0\n" for i in range(2)))
        code, out, err = run(capsys, "conv", a, b, *mode)
        assert (code, out, err) == (0, "# kind=discrete\nindex,re,im\n0,1,0\n1,3,0\n2,5,0\n3,3,0\n", "")

    def test_analog_index_beyond_int64_exit_0(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", "# kind=analog ts=0.5\nindex,re,im\n"
                  + "".join(f"{10**23 + i},{i + 1},0\n" for i in range(3)))
        b = write(tmp_path / "b.json", '{"kind": "analog", "ts": 0.5, "rows": [[%d, 1, 0], [%d, 1, 0]]}'
                  % (10**23, 10**23 + 1))
        code, out, err = run(capsys, "conv", a, b)
        big = 2 * 10**23
        rows = "".join(f"{big + i},{v},0\n" for i, v in enumerate([0.5, 1.5, 2.5, 1.5]))
        assert (code, out, err) == (0, "# kind=analog ts=0.5\nindex,re,im\n" + rows, "")

    def test_ts_mismatch_exit_3(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", "# kind=analog ts=0.5\nindex,re,im\n0,1,0\n")
        b = write(tmp_path / "b.csv", "# kind=analog ts=0.25\nindex,re,im\n0,1,0\n")
        code, _, err = run(capsys, "conv", a, b)
        assert code == 3
        assert "ts" in err

    def test_mode_kind_conflict_exit_3(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", DISCRETE_A)
        b = write(tmp_path / "b.csv", DISCRETE_B)
        code, _, err = run(capsys, "conv", a, b, "--mode", "analog")
        assert code == 3
        assert "kind" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", "not a signal\n")
        b = write(tmp_path / "b.csv", DISCRETE_B)
        code, _, _ = run(capsys, "conv", a, b)
        assert code == 2

    def test_periodic_modes(self, tmp_path, capsys):
        f = write(tmp_path / "f.csv", "# kind=periodic-discrete n=2\nindex,re,im\n0,1,0\n1,2,0\n")
        g = write(tmp_path / "g.csv", "# kind=periodic-discrete n=2\nindex,re,im\n0,3,0\n1,4,0\n")
        code, out, _ = run(capsys, "conv", f, g, "--mode", "periodic-discrete")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [float(r[1]) for r in rows] == [11, 10]

    def test_json_output(self, tmp_path, capsys):
        a = write(tmp_path / "a.csv", DISCRETE_A)
        d = write(tmp_path / "d.csv", DELTA)
        code, out, _ = run(capsys, "conv", a, d, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "discrete"
        assert data["rows"][2] == [2, 3.0, 0.0]

    @pytest.mark.parametrize(
        "kind", ["discrete", "analog ts=1", "periodic-discrete n=2", "periodic-analog ts=1 n=2"]
    )
    def test_overflow_exit_4(self, tmp_path, capsys, kind):
        # finite samples whose convolution leaves the float64 range
        f = write(tmp_path / "f.csv", f"# kind={kind}\nindex,re,im\n0,1e308,0\n1,1e308,0\n")
        code, out, err = run(capsys, "conv", f, f)
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err

    def test_period_mismatch_exit_3(self, tmp_path, capsys):
        f = write(tmp_path / "f.csv", "# kind=periodic-discrete n=2\nindex,re,im\n0,1,0\n1,2,0\n")
        g = write(tmp_path / "g.csv", "# kind=periodic-discrete n=1\nindex,re,im\n0,1,0\n")
        code, _, err = run(capsys, "conv", f, g)
        assert code == 3
        assert "period mismatch" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "discrete", "rows": [[0, "1.5", 0]]}',
            '{"kind": "analog", "ts": "0.5", "rows": [[0, 1, 0]]}',
            '{"kind": "discrete", "rows": [[true, 1, 0]]}',
            '{"kind": "discrete", "rows": [[1.0, 1, 0]]}',
        ],
        ids=["string-sample", "string-ts", "bool-index", "float-index"],
    )
    def test_json_numbers_must_be_typed_exit_2(self, tmp_path, capsys, text):
        # JSON rows hold JSON numbers: an integer index, integer or float samples and ts
        f = write(tmp_path / "f.json", text)
        code, out, err = run(capsys, "conv", f, f)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "is not a" in err


class TestDftIdft:
    def test_delta_to_ones(self, tmp_path, capsys):
        f = write(
            tmp_path / "d.csv",
            "# kind=periodic-discrete n=4\nindex,re,im\n0,1,0\n1,0,0\n2,0,0\n3,0,0\n",
        )
        code, out, _ = run(capsys, "dft", f)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [float(r[1]) for r in rows] == [1, 1, 1, 1]

    def test_round_trip_through_files(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        values = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        lines = ["# kind=periodic-discrete n=8", "index,re,im"]
        lines += [f"{i},{float(v.real)!r},{float(v.imag)!r}" for i, v in enumerate(values)]
        src = write(tmp_path / "f.csv", "\n".join(lines) + "\n")
        spec_path = str(tmp_path / "spec.csv")
        assert main(["dft", src, "--out", spec_path]) == 0
        back_path = str(tmp_path / "back.csv")
        assert main(["idft", spec_path, "--out", back_path]) == 0
        back = read_signal(back_path)
        assert np.max(np.abs(back.samples - values)) <= 1e-12

    def test_row_count_disagreement_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "f.csv", "# kind=periodic-discrete n=4\nindex,re,im\n0,1,0\n1,0,0\n")
        code, _, err = run(capsys, "dft", f)
        assert code == 2

    def test_wrong_kind_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "f.csv", DISCRETE_A)
        code, _, err = run(capsys, "dft", f)
        assert code == 2
        assert "periodic-discrete" in err

    def test_wrong_kind_message_keeps_a_before_periodic(self, tmp_path, capsys):
        f = write(tmp_path / "f.csv", DISCRETE_A)
        _, _, err = run(capsys, "idft", f)
        assert err == "error: idft input must be a periodic-discrete signal, got kind=discrete\n"

    def test_json_bool_period_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "f.json", '{"kind": "periodic-discrete", "n": true, "rows": [[0, 1, 0]]}')
        code, out, err = run(capsys, "dft", f)
        assert code == 2
        assert out == ""
        assert "'n' must be an integer" in err


class TestSeries:
    def test_cosine_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "series", "--gen", "cos", "--n", "16", "--ts", "0.0625", "--nmax", "3"
        )
        assert code == 0
        rows = {int(line.split(",")[0]): line.split(",") for line in out.strip().splitlines()[2:]}
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-12)
        assert abs(float(rows[2][1])) <= 1e-12
        # factor column is T * C_n with T = 1
        assert float(rows[1][3]) == pytest.approx(0.5, abs=1e-12)

    def test_alias_window_exit_4(self, capsys):
        code, _, err = run(
            capsys, "series", "--gen", "cos", "--n", "16", "--ts", "0.0625", "--nmax", "16"
        )
        assert code == 4
        assert "alias" in err

    def test_wrong_kind_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "f.csv", DISCRETE_A)
        code, _, _ = run(capsys, "series", f, "--nmax", "1")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_gen_cos_sample_count_exit_2_names_the_bound(self, capsys, n):
        code, out, err = run(capsys, "series", "--gen", "cos", "--n", n, "--ts", "0.25", "--nmax", "0")
        assert (code, out, err) == (2, "", f"error: argument --n: n must be >= 1, got {n}\n")


class TestFt:
    def test_pulse_at_pi(self, capsys):
        code, out, _ = run(
            capsys,
            "ft",
            "--gen",
            "pulse",
            "--ts",
            "0.001953125",
            "--omega-min",
            str(math.pi),
            "--omega-max",
            str(math.pi),
            "--omega-step",
            "1.0",
        )
        assert code == 0
        row = out.strip().splitlines()[2].split(",")
        value = complex(float(row[1]), float(row[2]))
        assert abs(value - 2 / math.pi) <= 5e-3

    def test_wrong_kind_exit_2_reads_an_analog_signal(self, tmp_path, capsys):
        f = write(tmp_path / "f.csv", DISCRETE_A)
        code, out, err = run(
            capsys, "ft", f, "--omega-min", "0", "--omega-max", "1", "--omega-step", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: ft input must be an analog signal, got kind=discrete\n"

    def test_missing_gen_params_exit_2(self, capsys):
        code, _, err = run(
            capsys, "ft", "--gen", "pulse", "--omega-min", "0", "--omega-max", "1", "--omega-step", "1"
        )
        assert code == 2
        assert "--ts" in err

    @pytest.mark.parametrize(
        "omega_max, omega_step, rows",
        [
            # a span of 1.67 steps rounded to 2 wrote a row at 1.2
            ("1", "0.6", [0.0, 0.6]),
            # 0.3 / 0.1 is 2.9999999999999996 in float64: a span within 1e-9
            # of a whole number of steps keeps its last frequency
            ("0.3", "0.1", [0.0, 0.1, 0.2, 0.30000000000000004]),
        ],
    )
    def test_frequencies_end_at_omega_max(self, capsys, omega_max, omega_step, rows):
        code, out, _ = run(capsys, *pulse_ft("0", omega_max, omega_step))
        assert code == 0
        assert [float(line.split(",")[0]) for line in out.splitlines()[2:]] == rows

    def test_index_beyond_int64_exit_4(self, tmp_path, capsys):
        # float64 would round all four sample times to 5e22: the times of a
        # span past 2^53 are an error, never a spectrum of one instant
        f = write(tmp_path / "big.csv", "# kind=analog ts=0.5\nindex,re,im\n"
                  + "".join(f"{10**23 + i},1,0\n" for i in range(4)))
        code, out, err = run(capsys, "ft", f, "--omega-min", "0", "--omega-max", "0", "--omega-step", "1")
        assert (code, out) == (4, "")
        assert err == f"error: 4 samples from index {10**23} reach past 2^53, where float64 skips integers\n"

    def test_frequency_count_overflow_exit_4(self, capsys):
        # (omega_max - omega_min) / omega_step overflows to inf
        code, out, err = run(capsys, "ft", "--gen", "pulse", "--ts", "0.25", "--omega-min=-1e308",
                             "--omega-max", "1e308", "--omega-step", "1")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "span", [["--omega-min", "-1e308", "--omega-max", "1e308", "--omega-step", "1"],
                 ["--omega-min", "0", "--omega-max", "1", "--omega-step", "5e-324"]],
        ids=["span", "step"],
    )
    def test_frequency_count_overflow_is_over_the_budget(self, capsys, span):
        # the inf count was Python's "cannot convert float infinity to integer"
        code, out, err = run(capsys, "ft", "--gen", "pulse", "--ts", "0.25", *span)
        assert (code, out) == (4, "")
        assert err == (
            "error: ft work budget exceeded: M=inf frequencies x L=4 samples; "
            f"the limit is M <= {cli._FT_MAX_FREQUENCIES}, L*M <= {cli._MAX_TERMS}\n"
        )

    @pytest.mark.parametrize(
        "step, count",
        # from 2^53 on a count prints to 6 digits, not as the 301 digits of
        # math.floor(2e300); below it every digit is kept
        [("1e-300", "2e+300"), ("2.220446049250313e-16", "9.0072e+15"),
         ("4.440892098500626e-16", "4503599627370497")],
    )
    def test_huge_frequency_count_prints_short(self, capsys, step, count):
        code, out, err = run(capsys, *pulse_ft("-1", "1", step))
        assert (code, out) == (4, "")
        assert err == (
            f"error: ft work budget exceeded: M={count} frequencies x L=4 samples; "
            f"the limit is M <= {cli._FT_MAX_FREQUENCIES}, L*M <= {cli._MAX_TERMS}\n"
        )

    @pytest.mark.parametrize("omega_min, first", [("-1.5e0", -1.5), ("-2E-3", -0.002), ("-.5", -0.5)])
    def test_negative_value_in_exponent_form_is_a_value(self, capsys, omega_min, first):
        # argparse took -1.5e0 for a flag: "expected one argument"
        code, out, err = run(capsys, *pulse_ft(omega_min, "0", "0.5"))
        assert (code, err) == (0, "")
        assert float(out.splitlines()[2].split(",")[0]) == first

    def test_negative_infinity_is_a_value(self, capsys):
        code, out, err = run(capsys, *pulse_ft("-inf", "0", "1"))
        assert (code, out) == (2, "")
        assert err == "error: argument --omega-min: omega must be finite, got -inf\n"

    @pytest.mark.parametrize(
        "gen_args",
        [
            # 10^12 frequencies: np.arange alone would ask for 7.28 TiB
            ["--ts", "0.25", "--omega-min", "0", "--omega-max", "1", "--omega-step", "1e-12"],
            # 2^20 samples x 2048 frequencies: 2^31 terms, over a minute of sums
            ["--ts", str(2.0**-20), "--omega-min", "0", "--omega-max", "2047", "--omega-step", "1"],
        ],
        ids=["frequencies", "terms"],
    )
    def test_work_budget_exit_4(self, capsys, monkeypatch, gen_args):
        def unbudgeted(f, omegas):
            raise AssertionError("the ft work budget did not fire")

        monkeypatch.setattr(fourier, "fourier_transform", unbudgeted)
        code, out, err = run(capsys, "ft", "--gen", "pulse", *gen_args)
        assert code == 4
        assert out == ""
        assert err.startswith("error: ft work budget exceeded: M=") and err.count("\n") == 1
        assert "L=" in err and "limit" in err

    def test_bad_step_exit_2(self, capsys):
        code, _, _ = run(
            capsys,
            "ft",
            "--gen",
            "pulse",
            "--ts",
            "0.25",
            "--omega-min",
            "0",
            "--omega-max",
            "1",
            "--omega-step",
            "-1",
        )
        assert code == 2

    @pytest.mark.parametrize("ts", ["0", "-0.25", "nan", "inf"])
    def test_bad_gen_ts_exit_2(self, capsys, ts):
        code, _, err = run(
            capsys, "ft", "--gen", "pulse", "--ts", ts, "--omega-min", "0", "--omega-max", "1", "--omega-step", "1"
        )
        assert code == 2
        assert err == f"error: argument --ts: ts must be finite and > 0, got {float(ts)}\n"

    @pytest.mark.parametrize(
        "gen_args, message",
        [
            (["square", "--n", "1", "--ts", "0.25"], "argument --n: n_samples must be >= 2, got 1"),
            (["square", "--n", "3", "--ts", "0.25"],
             "argument --n: square wave needs an even sample count, got 3"),
            (["pulse", "--ts", "0.3"],
             "argument --width: pulse width 1.0 is not a whole number of steps of 0.3"),
            (["pulse", "--ts", "0.25", "--width", "0"],
             "argument --width: pulse width must be >= 1 steps of 0.25, got 0.0"),
            (["pulse", "--ts", "0.25", "--width", "0.3"],
             "argument --width: pulse width 0.3 is not a whole number of steps of 0.25"),
        ],
    )
    def test_generator_precondition_exit_2(self, capsys, gen_args, message):
        # the generator's reason, under the flag that carries the value, as
        # every parse-time bound is reported
        code, out, err = run(
            capsys, "ft", "--gen", *gen_args, "--omega-min", "0", "--omega-max", "1", "--omega-step", "1"
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


# Unreadable input exits 2 with one "error:" line; each used to raise out of
# main (a traceback, exit 1), except the digit-group and non-ASCII numerals,
# which used to be read as other numbers (exit 0).
UNREADABLE = {
    "json-no-rows": b'{"kind": "periodic-discrete", "n": 0, "rows": []}',
    "csv-no-rows": b"# kind=periodic-discrete n=0\nindex,re,im\n",
    "latin-1": "# kind=periodic-discrete n=1\n# \xe9t\xe9\nindex,re,im\n0,1,0\n".encode("latin-1"),
    "long-json-int": b'{"kind": "periodic-discrete", "n": 1, "rows": [[0, ' + b"1" * 5001 + b", 0]]}",
    "deep-json": b"[" * 100000 + b"]" * 100000,
    "digit-group-cell": b"# kind=periodic-discrete n=1\nindex,re,im\n0,1_5,0\n",
    "digit-group-index": b"# kind=periodic-discrete n=1\nindex,re,im\n0_0,1,0\n",
    "non-ascii-digit": "# kind=periodic-discrete n=1\nindex,re,im\n0,\u0661,0\n".encode(),
}


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
@pytest.mark.parametrize("data", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_input_exit_2(tmp_path, capsys, monkeypatch, data, stdin):
    path = tmp_path / "f"
    path.write_bytes(data)
    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, err = run(capsys, "dft", "-" if stdin else str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Metadata a kind does not carry, an unknown key, a repeated key or a value
# Python reads but no CSV number holds ('0_5' read as 5) is a parse error;
# each of these used to be dropped, or the last value kept or misread, and
# the file read as a valid signal.
@pytest.mark.parametrize(
    "name,text",
    [
        ("f.json", '{"kind": "discrete", "ts": -3, "n": 99, "rows": [[0, 1, 0]]}'),
        ("f.csv", "# kind=analog ts=0.5 n=7\nindex,re,im\n0,1,0\n1,1,0\n"),
        ("f.json", '{"kind": "analog", "ts": 0.5, "tss": 0.5, "rows": [[0, 1, 0]]}'),
        ("f.csv", "# kind=analog ts=0.5 ts=0.25\nindex,re,im\n0,1,0\n"),
        ("f.csv", "# kind=discrete\n# kind=discrete\nindex,re,im\n0,1,0\n"),
        ("f.csv", "# kind=periodic-discrete n=1 n=1\nindex,re,im\n0,1,0\n"),
        ("f.json", '{"kind": "analog", "ts": 0.5, "ts": 0.25, "rows": [[0, 1, 0]]}'),
        ("f.json", '{"kind": "discrete", "kind": "discrete", "rows": [[0, 1, 0]]}'),
        ("f.json", '{"kind": "periodic-discrete", "n": 1, "n": 1, "rows": [[0, 1, 0]]}'),
        ("f.csv", "# kind=analog ts=0_5\nindex,re,im\n0,1_5,0\n"),
        ("f.csv", "# kind=periodic-discrete n=0_2\nindex,re,im\n0,1,0\n1,1,0\n"),
        ("f.csv", "# kind=analog ts=0.\u0665\nindex,re,im\n0,1,0\n"),
    ],
    ids=["json-discrete-ts-n", "csv-analog-n", "json-unknown-key", "csv-repeated-ts",
         "csv-repeated-kind", "csv-repeated-n", "json-repeated-ts", "json-repeated-kind",
         "json-repeated-n", "csv-digit-group-ts", "csv-digit-group-n", "csv-non-ascii-ts"],
)
def test_metadata_the_kind_does_not_carry_exit_2(tmp_path, capsys, name, text):
    f = write(tmp_path / name, text)
    code, out, err = run(capsys, "conv", f, f)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestStdinStdout:
    def test_dash_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(DISCRETE_A))
        code, out, _ = run(capsys, "dft", "-")
        assert code == 2  # right plumbing, wrong kind
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "# kind=periodic-discrete n=2\nindex,re,im\n0,1,0\n1,0,0\n"
        ))
        code, out, _ = run(capsys, "dft", "-")
        assert code == 0
        assert "index,re,im" in out


# Bad arguments exit 2 with one "error:" line.  Each case used to raise out of
# main (a traceback, exit 1) or write a NaN frequency row (--omega-step inf,
# exit 0).
def pulse_ft(omega_min, omega_max, omega_step):
    return ["ft", "--gen", "pulse", "--ts", "0.25", "--omega-min", omega_min,
            "--omega-max", omega_max, "--omega-step", omega_step]


BAD_ARGUMENTS = [
    ["verify", "--ts", "nan"],
    ["verify", "--n", "0"],
    pulse_ft("0", "1", "nan"),
    pulse_ft("nan", "1", "1"),
    pulse_ft("0", "inf", "1"),
    pulse_ft("0", "1", "inf"),
    ["series", "--gen", "cos", "--n", "16", "--ts", "0.0625", "--nmax", "-1"],
]


_OMEGAS = ["--omega-min", "0", "--omega-max", "1", "--omega-step", "1"]

# an input that is missing or whose file breaks the schema, with its one error line
MISSING_OR_BAD_INPUT = {
    "gen-cos-without-n": ({}, ["series", "--gen", "cos", "--ts", "0.25", "--nmax", "1"],
                          "--gen cos requires --n"),
    "series-without-input": ({}, ["series", "--nmax", "1"], "provide an input file or --gen NAME"),
    "ft-without-input": ({}, ["ft", *_OMEGAS], "provide an input file or --gen NAME"),
    "csv-negative-ts": ({"f.csv": "# kind=analog ts=-0.5\nindex,re,im\n0,1,0\n"},
                        ["ft", "f.csv", *_OMEGAS], "ts must be > 0, got -0.5"),
    "csv-zero-ts": ({"f.csv": "# kind=periodic-analog ts=0 n=1\nindex,re,im\n0,1,0\n"},
                    ["series", "f.csv", "--nmax", "0"], "ts must be > 0, got 0.0"),
    "json-negative-ts": ({"f.json": '{"kind": "analog", "ts": -0.5, "rows": [[0, 1, 0]]}'},
                         ["ft", "f.json", *_OMEGAS], "ts must be > 0, got -0.5"),
    "json-no-kind": ({"f.json": '{"n": 1, "rows": [[0, 1, 0]]}'}, ["dft", "f.json"],
                     "missing or non-string 'kind'"),
    "csv-periodic-without-n": ({"f.csv": "# kind=periodic-analog ts=0.25\nindex,re,im\n0,1,0\n"},
                               ["series", "f.csv", "--nmax", "0"],
                               "kind=periodic-analog requires n metadata"),
    "json-periodic-without-n": ({"f.json": '{"kind": "periodic-discrete", "rows": [[0, 1, 0]]}'},
                                ["dft", "f.json"], "kind=periodic-discrete requires n metadata"),
    "csv-periodic-discrete-without-n": ({"f.csv": "# kind=periodic-discrete\nindex,re,im\n0,1,0\n"},
                                        ["dft", "f.csv"], "kind=periodic-discrete requires n metadata"),
    "json-periodic-analog-without-n": ({"f.json": '{"kind": "periodic-analog", "ts": 0.25, "rows": [[0, 1, 0]]}'},
                                       ["series", "f.json", "--nmax", "0"],
                                       "kind=periodic-analog requires n metadata"),
    "ft-omega-max-below-min": ({}, pulse_ft("1", "0", "0.5"), "--omega-max must be >= --omega-min"),
    "json-numeric-kind": ({"f.json": '{"kind": 1, "rows": []}'}, ["dft", "f.json"],
                          "missing or non-string 'kind'"),
}


@pytest.mark.parametrize("case", MISSING_OR_BAD_INPUT)
def test_missing_or_bad_input_exit_2(tmp_path, capsys, monkeypatch, case):
    files, argv, message = MISSING_OR_BAD_INPUT[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        write(tmp_path / name, text)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_bad_arguments_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# A command line argparse rejects returns 2 from main with one "error:" line;
# it used to raise SystemExit(2) out of main after two stderr lines (usage:
# and "convfourier: error: ...").
@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["verify", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["ft", "--omega-min", "0"], "the following arguments are required"),
        (["dft", "a", "b"], "unrecognized arguments: b"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_usage_error_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    one_error_line(code, out, err, 2)
    assert message in err


# A numeric flag is read as io reads a file cell: int() and float() read
# '4_2' as 42 and non-ASCII digits as their values, and each of these command
# lines used to run on those values and exit 0.
SERIES_COS = ["series", "--gen", "cos", "--n", "16", "--ts", "0.0625", "--nmax", "3"]


def _with(argv, flag, text):
    argv = list(argv)
    argv[argv.index(flag) + 1] = text
    return argv


NUMBER_TEXTS = [
    (["verify", "--seed", "4_2"], "--seed"),
    (["verify", "--seed", "\u0664\u0662"], "--seed"),
    (["verify", "--n", "6_4"], "--n"),
    (["verify", "--ts", "0.0_625"], "--ts"),
    (["verify", "--nmax", "\u0663"], "--nmax"),
    (_with(SERIES_COS, "--n", "1_6"), "--n"),
    (_with(SERIES_COS, "--ts", "0.0_625"), "--ts"),
    (_with(SERIES_COS, "--nmax", "\u0663"), "--nmax"),
    (pulse_ft("0", "1", "1") + ["--width", "1_0"], "--width"),
    (pulse_ft("0", "1", "0.2_5"), "--omega-step"),
    (pulse_ft("\uff10", "1", "1"), "--omega-min"),
    (pulse_ft("0", "1_0", "1"), "--omega-max"),
]


@pytest.mark.parametrize("argv,flag", NUMBER_TEXTS, ids=[" ".join(argv) for argv, _ in NUMBER_TEXTS])
def test_numeric_flag_reads_like_a_file_cell(tmp_path, capsys, argv, flag):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    one_error_line(code, out, err, 2)
    kind = "int" if flag in ("--seed", "--n", "--nmax") else "float"
    text = argv[argv.index(flag) + 1]
    assert f"argument {flag}: invalid {kind} value: {text!r}" in err
    assert not (tmp_path / "out").exists()


# Every numeric flag is read with its bound when parsed: the first value
# outside it exits 2 with argparse's one line naming the flag, before any file
# is written, and the bound itself is admitted.
MAX = repr(float(np.finfo(np.float64).max))
VERIFY_16 = ["verify", "--n", "16", "--ts", "0.0625", "--nmax", "2"]
PULSE_AT_0 = pulse_ft("0", "0", "1")
FLAG_BOUNDS = [
    # (command line, flag, first value outside the bound, the bound, exit code at the bound)
    (VERIFY_16 + ["--seed", "1"], "--seed", "-1", "0", 0),
    (["verify", "--n", "16", "--nmax", "0"], "--n", "0", "1", 0),
    (VERIFY_16, "--nmax", "-1", "0", 0),
    (VERIFY_16, "--ts", "0", "5e-324", 1),
    (["series", "--gen", "cos", "--n", "16", "--ts", "1", "--nmax", "0"], "--n", "0", "1", 0),
    (["series", "--gen", "cos", "--n", "1", "--ts", "1", "--nmax", "1"], "--nmax", "-1", "0", 0),
    (PULSE_AT_0 + ["--width", "5e-324"], "--ts", "0", "5e-324", 0),
    (_with(PULSE_AT_0, "--ts", MAX) + ["--width", MAX], "--width", "inf", MAX, 0),
    (pulse_ft("0", "-" + MAX, "1"), "--omega-min", "-inf", "-" + MAX, 0),
    (pulse_ft(MAX, "0", "1"), "--omega-max", "inf", MAX, 0),
    (PULSE_AT_0, "--omega-step", "0", "5e-324", 0),
]


@pytest.mark.parametrize("argv,flag,outside,bound,code", FLAG_BOUNDS,
                         ids=[f"{argv[0]} {flag}" for argv, flag, *_ in FLAG_BOUNDS])
def test_numeric_flag_is_read_with_its_bound(tmp_path, capsys, argv, flag, outside, bound, code):
    out = tmp_path / "out"
    result = run(capsys, *_with(argv, flag, outside), "--out", str(out))
    one_error_line(*result, 2)
    assert result[2].startswith(f"error: argument {flag}: ")
    assert not out.exists()
    assert run(capsys, *_with(argv, flag, bound), "--out", str(out))[0] == code


# A --gen flag the input does not read, or an input file beside --gen, exits 2
# with one line naming the flag; each used to be dropped and the command run
# on the other input (exit 0).
WAVE = "# kind=periodic-analog ts=1 n=2\nindex,re,im\n0,1,0\n1,0,0\n"
UNUSED_INPUTS = [
    (["series", "missing.csv", "--gen", "cos", "--n", "16", "--ts", "0.0625", "--nmax", "1"],
     "--gen cos takes no input file, got missing.csv"),
    (["series", "W", "--ts", "0.5", "--nmax", "1"], "--ts is not used with an input file"),
    (["series", "W", "--n", "4", "--nmax", "1"], "--n is not used with an input file"),
    (["series", "W", "--width", "1", "--nmax", "1"], "--width is not used with an input file"),
    (SERIES_COS + ["--width", "1"], "--width is not used with --gen cos"),
    (_with(SERIES_COS, "--gen", "square") + ["--width", "1"], "--width is not used with --gen square"),
    (pulse_ft("0", "1", "1") + ["--n", "4"], "--n is not used with --gen pulse"),
]


@pytest.mark.parametrize("argv,message", UNUSED_INPUTS, ids=[m for _, m in UNUSED_INPUTS])
def test_gen_flag_the_input_does_not_read_exit_2(tmp_path, capsys, argv, message):
    wave = write(tmp_path / "wave.csv", WAVE)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *(wave if a == "W" else a for a in argv), "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["ft", "--help"]], ids=" ".join)
def test_help_exits_0(capsys, monkeypatch, argv):
    # the parser is built at import, but argparse sizes its help to COLUMNS
    # when it prints: main prints a fresh parser's help at either width
    texts = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        before, shared, fresh = capsys.readouterr().out.split("usage: convfourier")
        assert before == "" and shared == fresh
        texts.append(shared)
    assert texts[0] != texts[1]


# The parser is built once, at import, and every call parses with it.  A
# call reads no flag of the call before it, whatever that call set or got
# wrong, and a command is looked up by name at call time.
PD = "# kind=periodic-discrete n=2\nindex,re,im\n0,1,0\n1,2,0\n"
ANALOG = "# kind=analog ts=0.5\nindex,re,im\n0,1,0\n1,2,0\n"
OMEGAS = ["--omega-min", "0", "--omega-max", "1", "--omega-step", "0.5"]
# command -> (a call that sets every optional flag, one that sets none)
EVERY_THEN_NONE = {
    "conv": (["conv", "D", "D", "--mode", "discrete", "--format", "json"], ["conv", "D", "D"]),
    "dft": (["dft", "P", "--format", "json"], ["dft", "P"]),
    "idft": (["idft", "P", "--format", "json"], ["idft", "P"]),
    "series": (["series", "--gen", "cos", "--n", "8", "--ts", "0.25", "--nmax", "1", "--format", "json"],
               ["series", "W", "--nmax", "0"]),
    "ft": (["ft", "--gen", "pulse", "--ts", "0.25", "--width", "2", *OMEGAS, "--format", "json"],
           ["ft", "A", *OMEGAS]),
    "verify": (["verify", "--seed", "7", "--n", "16", "--ts", "0.0625", "--nmax", "2"],
               ["verify", "--n", "16", "--nmax", "2"]),
}


def _inputs(tmp_path, argv):
    files = {"D": DISCRETE_A, "P": PD, "W": WAVE, "A": ANALOG}
    return [write(tmp_path / f"{a}.csv", files[a]) if a in files else a for a in argv]


@pytest.mark.parametrize("command", EVERY_THEN_NONE)
def test_a_call_reads_no_flag_of_the_call_before(tmp_path, capsys, monkeypatch, command):
    every, none = (_inputs(tmp_path, argv) for argv in EVERY_THEN_NONE[command])
    real, seen = getattr(cli, f"_cmd_{command}"), []

    def recorded(args):
        seen.append(dict(vars(args)))
        return real(args)

    monkeypatch.setattr(cli, f"_cmd_{command}", recorded)
    first = run(capsys, *none)
    assert run(capsys, *every, "--out", str(tmp_path / "every"))[0] == 0
    assert run(capsys, *none) == first and first[0] == 0
    # the namespace a fresh parser gives: each flag the call left out at its default
    assert seen[-1] == vars(build_parser().parse_args(none))
    if command == "verify":
        report = json.loads(first[1])
        assert (report["seed"], report["grid_params"]["ts"]) == (42, 0.015625)


@pytest.mark.parametrize("bad,message", [
    (["verify", "--n", "16", "--bogus"], "unrecognized arguments: --bogus"),
    (["ft", "--gen", "pulse", "--ts", "0.25", "--omega-min", "0", "--omega-step", "1"],
     "the following arguments are required: --omega-max"),
], ids=["bogus", "ft-omega-max"])
def test_a_usage_error_leaves_the_next_call_alone(tmp_path, capsys, bad, message):
    good = _inputs(tmp_path, ["dft", "P"])
    before = run(capsys, *good)
    assert run(capsys, *bad) == (2, "", f"error: {message}\n")
    assert run(capsys, *good) == before and before[0] == 0


def test_main_looks_its_command_up_by_name(tmp_path, capsys, monkeypatch):
    # a patch of a command reaches main, as a patch of a kernel reaches its callers
    calls = []
    monkeypatch.setattr(cli, "_cmd_dft", lambda args: calls.append(args.input) or 0)
    path = write(tmp_path / "p.csv", PD)
    assert run(capsys, "dft", path) == (0, "", "")
    assert calls == [path]


@pytest.mark.parametrize("argv", [["conv", "D", "D"], ["verify", "--n", "16", "--nmax", "2"]],
                         ids=lambda argv: argv[0])
def test_a_call_leaves_no_argparse_object_to_the_collector(tmp_path, argv):
    # a parser built per call left its reference cycles (347 objects for
    # conv, 380 for verify) to the cyclic collector on every call
    argv = [*_inputs(tmp_path, argv), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


# An --out that cannot be written exits 2 with one "error:" line in every
# command; a directory or a missing parent used to end in a traceback (exit 1).
@pytest.mark.parametrize("target", ["folder", "missing/out"])
@pytest.mark.parametrize(
    "argv",
    [
        ["conv", "F", "F"],
        ["dft", "P"],
        ["idft", "P"],
        ["series", "--gen", "cos", "--n", "8", "--ts", "1", "--nmax", "1"],
        ["ft", "--gen", "pulse", "--ts", "0.25", "--omega-min", "0", "--omega-max", "1",
         "--omega-step", "1"],
        ["verify", "--n", "16", "--nmax", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exit_2(tmp_path, capsys, argv, target):
    files = {"F": write(tmp_path / "f.csv", DISCRETE_A),
             "P": write(tmp_path / "p.csv", "# kind=periodic-discrete n=1\nindex,re,im\n0,1,0\n")}
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / target
    code, stdout, err = run(capsys, *(files.get(a, a) for a in argv), "--out", str(out))
    one_error_line(code, stdout, err, 2)
    assert f"cannot write {out}" in err
    assert list(folder.iterdir()) == [] and not (tmp_path / "missing").exists()


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        code, _, _ = run(capsys, "verify", "--out", out_path)
        assert code == 0
        report = json.loads(open(out_path).read())
        assert report["passed"] is True
        assert len(report["checks"]) == 31
        assert all(c["residual"] <= c["tolerance"] * max(1.0, c["scale"]) for c in report["checks"])

    def test_nmax_0_runs_every_check(self, tmp_path, capsys):
        # the periodic checks run on harmonic 0; none is reported as skipped
        code, out, err = run(capsys, "verify", "--nmax", "0", "--out", str(tmp_path / "r.json"))
        assert code == 0
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 31
        assert all(line.startswith("pass  ") for line in lines)
        report = json.loads((tmp_path / "r.json").read_text())
        assert not [c["id"] for c in report["checks"] if c["skipped"] or not c["passed"]]

    def test_loads_no_numpy_random(self, tmp_path):
        # the harness draws from the standard library's random; a first import
        # of numpy.random would be most of a one-shot verify's memory.  On a
        # NumPy that imports numpy.random eagerly, `import convfourier.cli`
        # has loaded it already
        script = (
            "import sys\n"
            "import convfourier.cli\n"
            "before = set(sys.modules)\n"
            "code = convfourier.cli.main(['verify', '--seed', '1', '--out', sys.argv[1]])\n"
            "loaded = set(sys.modules) - before\n"
            "print(code, *sorted(m for m in loaded if m.split('.')[:2] == ['numpy', 'random']))\n"
        )
        done = python(tmp_path, "-c", script, str(tmp_path / "r.json"))
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    def test_reports_byte_identical(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["verify", "--seed", "7", "--out", p1]) == 0
        assert main(["verify", "--seed", "7", "--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_fault_exit_1_names_every_failing_check(self, tmp_path, capsys, monkeypatch):
        # a broken build fails against the declared tolerances, and no option
        # can scale them until it passes
        patches, must_fail = FAULTS["fft scaled by 1+1e-6"]
        for module, name, replacement in patches:
            monkeypatch.setattr(module, name, replacement)
        code, _, err = run(capsys, "verify", "--out", str(tmp_path / "r.json"))
        assert code == 1
        report = json.loads((tmp_path / "r.json").read_text())
        failing = [c["id"] for c in report["checks"] if not c["passed"]]
        assert must_fail <= set(failing)
        assert err.splitlines()[-1] == "verification failed: " + ", ".join(failing)
        code, out, err = run(capsys, "verify", "--tol-scale", "1e6")
        one_error_line(code, out, err, 2)
        assert "unrecognized arguments: --tol-scale" in err

    @pytest.mark.parametrize("ts", ["-1e-3", "-1.5e0", "-2E-3", "-inf"])
    def test_negative_ts_in_exponent_form_is_a_value(self, capsys, ts):
        # argparse took -1e-3 for a flag: "expected one argument"
        code, out, err = run(capsys, "verify", "--ts", ts)
        assert (code, out) == (2, "")
        assert err == f"error: argument --ts: ts must be finite and > 0, got {float(ts)}\n"

    def test_overflowing_grid_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--ts", "1000", "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert "FAIL  eigen.analog" in err
        *status, last = err.splitlines()
        assert last == "verification failed: eigen.analog"
        assert len(status) == 31
        assert all(line.split("  ")[0] in ("pass", "FAIL") for line in status)
        assert "Warning" not in err
        # a RuntimeWarning, raised as an error under pytest, would be the note instead
        report = json.loads((tmp_path / "r.json").read_text())
        check = next(c for c in report["checks"] if c["id"] == "eigen.analog")
        assert check["note"] == "failed: ValueError: samples contain non-finite values"

    def test_alias_grid_exit_4(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "8", "--nmax", "8")
        assert code == 4

    def test_negative_seed_exit_2_names_the_bound(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: argument --seed: seed must be >= 0, got -1\n")


def one_error_line(code, out, err, want):
    assert code == want
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err


# finite samples whose results leave the float64 range
OVERFLOWING = {
    "pd.csv": "# kind=periodic-discrete n=2\nindex,re,im\n0,1e308,0\n1,1e308,0\n",
    "pa.csv": "# kind=periodic-analog ts=1 n=2\nindex,re,im\n0,1e308,0\n1,1e308,0\n",
    "a.csv": "# kind=analog ts=1\nindex,re,im\n0,1e308,0\n1,1e308,0\n",
}


# A result beyond float64 exits 4 in every command.  dft, idft and the
# subnormal-ts series used to end in a traceback; the other three exited 0
# and wrote nan (ts=1e308 with a RuntimeWarning).
@pytest.mark.parametrize(
    "argv",
    [
        ["dft", "pd.csv"],
        ["idft", "pd.csv"],
        ["series", "pa.csv", "--nmax", "0"],
        ["ft", "a.csv", "--omega-min", "0", "--omega-max", "0", "--omega-step", "1"],
        ["series", "--gen", "cos", "--ts", "5e-324", "--n", "16", "--nmax", "1"],
        ["series", "--gen", "cos", "--ts", "1e308", "--n", "16", "--nmax", "0"],
    ],
    ids=" ".join,
)
def test_result_beyond_float64_exit_4(tmp_path, capsys, argv):
    files = {name: write(tmp_path / name, text) for name, text in OVERFLOWING.items()}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    one_error_line(code, out, err, 4)
    assert "overflows float64" in err


def test_dft_overflow_names_the_spectrum_samples(tmp_path, capsys):
    # the DFT's spectrum is a periodic discrete signal, built by its constructor
    f = write(tmp_path / "pd.csv", OVERFLOWING["pd.csv"])
    assert run(capsys, "dft", f) == (
        4, "", "error: dft overflows float64: samples contain non-finite values\n"
    )


def test_unresolvable_frequency_grid_exit_2(tmp_path, capsys):
    # 0.015625 is below the float64 spacing (16) at 1e17: the grid does not increase
    f = write(tmp_path / "f.csv", DISCRETE_A.replace("kind=discrete", "kind=analog ts=1"))
    code, out, err = run(capsys, "ft", f, "--omega-min", "1e17",
                         "--omega-max", "1.000000000000001e17", "--omega-step", "0.015625")
    one_error_line(code, out, err, 2)
    assert "--omega-step" in err


def test_subnormal_ts_verify_fails_without_warning(tmp_path, capsys):
    # omega0 and the ft.forward frequency are infinite at ts = 5e-324; a
    # RuntimeWarning, raised as an error under pytest, would be a check's note
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, "verify", "--n", "64", "--ts", "5e-324", "--nmax", "7",
                       "--out", str(out_path))
    assert code == 1
    assert "Warning" not in err
    report = json.loads(out_path.read_text())
    assert not [c["note"] for c in report["checks"] if "Warning" in c["note"]]


def _refuse(*args, **kwargs):
    raise AssertionError("the work budget did not fire")


# Over-budget requests exit 4 before any array is built: the heavy function
# is patched to raise, so nothing large is allocated.
@pytest.mark.parametrize(
    "argv,module,name",
    [
        # a 1.56e10-sample pulse: MemoryError after asking for 233 GiB
        (["ft", "--gen", "pulse", "--ts", "1e-12", "--width", "0.015625", "--omega-min", "0",
          "--omega-max", "0", "--omega-step", "1"], generators, "pulse"),
        (["series", "--gen", "cos", "--n", str(2**24 + 1), "--ts", "1", "--nmax", "0"],
         generators, "cosine"),
        (["series", "--gen", "square", "--n", str(2**24 + 2), "--ts", "1", "--nmax", "0"],
         generators, "square"),
        # the --gen limit bounds memory: 2^22 samples peak near 256 MiB resident
        (["ft", "--gen", "pulse", "--ts", "1", "--width", str(2**22 + 1), "--omega-min", "0",
          "--omega-max", "0", "--omega-step", "1"], generators, "pulse"),
        (["series", "--gen", "cos", "--n", str(2**22 + 1), "--ts", "1", "--nmax", "0"],
         generators, "cosine"),
        (["series", "--gen", "square", "--n", str(2**22 + 1), "--ts", "1", "--nmax", "0"],
         generators, "square"),
        # 32770 samples x 32769 harmonics: 2^30 + 98306 terms
        (["series", "--gen", "cos", "--n", "32770", "--ts", "1", "--nmax", "16384"],
         fourier, "fourier_coefficients"),
        (["verify", "--n", str(2**16 + 1)], cli, "run_all"),
        # n * (2 nmax + 1) = 2^16 * 257 > 2^24
        (["verify", "--n", str(2**16), "--nmax", "128"], cli, "run_all"),
    ],
    ids=["gen-pulse", "gen-cos", "gen-square", "gen-pulse-2^22+1", "gen-cos-2^22+1",
         "gen-square-2^22+1", "series", "verify-n", "verify-work"],
)
def test_work_budget_of_every_command_exit_4(tmp_path, capsys, monkeypatch, argv, module, name):
    monkeypatch.setattr(module, name, _refuse)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    one_error_line(code, out, err, 4)
    assert "work budget exceeded" in err and "limit is" in err
    assert not (tmp_path / "out").exists()


def test_linear_conv_work_budget_exit_4(capsys, monkeypatch):
    # 2^17 x (2^16 + 1) multiply-adds is over 2^33
    inputs = {"f": signals.DiscreteSignal(0, np.zeros(2**17)),
              "g": signals.DiscreteSignal(0, np.zeros(2**16 + 1))}
    monkeypatch.setattr(cli, "read_signal", inputs.__getitem__)
    monkeypatch.setattr(convolution, "discrete_convolve", _refuse)
    code, out, err = run(capsys, "conv", "f", "g")
    one_error_line(code, out, err, 4)
    assert "conv work budget exceeded: 131072 x 65537 samples" in err


# Property test over argument vectors and small, often malformed signal files
# (MacIver et al., "Hypothesis: a new approach to property-based testing",
# JOSS 4(43):1891, 2019).  Values come from small sets that include the
# float64 extremes, so every admitted request stays small; a huge request is
# only ever refused by a work budget.
POSITIVE = ["1", "0.25", "16", "1e308", "5e-324", "1e17", repr(float(np.nextafter(1e17, np.inf)))]
FINITE = POSITIVE + ["0", "-1", "-1e308"]
NUMBERS = FINITE + ["nan", "inf"]
COUNTS = ["-1", "0", "1", "2", "3", "16", str(2**25)]
KINDS = ["discrete", "analog", "periodic-discrete", "periodic-analog"]
number = st.sampled_from(NUMBERS)


def _json_value(text):
    for parse in (int, float):
        with contextlib.suppress(ValueError):
            return parse(text)
    return text


@st.composite
def signal_files(draw, kind):
    """A well-formed signal file of the kind, or one with a single defect."""
    periodic = kind.startswith("periodic")
    start = 0 if periodic else draw(st.sampled_from([0, -3, 10**23]))
    finite = st.sampled_from(FINITE)
    samples = draw(st.lists(st.tuples(finite, finite), min_size=1, max_size=4))
    rows = [[str(start + i), re, im] for i, (re, im) in enumerate(samples)]
    meta = {"kind": kind}
    if "analog" in kind:
        meta["ts"] = draw(st.sampled_from(POSITIVE))
    if periodic:
        meta["n"] = str(len(rows))
    defect = draw(st.sampled_from([None, None, None, "kind", "ts", "n", "cell", "truncate"]))
    if defect == "kind":
        meta["kind"] = draw(st.sampled_from(["series", *KINDS]))
    elif defect in ("ts", "n"):
        meta[defect] = draw(st.sampled_from(NUMBERS + COUNTS))
    elif defect == "cell":
        cell = draw(st.sampled_from(["x", "", "1.5", "true", "nan", "inf"]))
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] = cell
    if draw(st.booleans()):
        text = json.dumps({**{k: _json_value(v) for k, v in meta.items()},
                           "rows": [[_json_value(cell) for cell in row] for row in rows]})
    else:
        head = " ".join(f"{k}={v}" for k, v in meta.items())
        text = f"# {head}\nindex,re,im\n" + "".join(",".join(row) + "\n" for row in rows)
    return text[: draw(st.integers(0, len(text) - 1))] if defect == "truncate" else text


@st.composite
def generated(draw):
    """--gen and the flags its signal reads, now and then with one it does not
    read, which exits 2."""
    name = draw(st.sampled_from(["pulse", "cos", "square"]))
    reads, unused = (["--width"], ["--n"]) if name == "pulse" else (["--n"], ["--width"])
    flags = ["--ts", *reads, *draw(st.sampled_from([[], [], [], [], unused]))]
    values = {"--ts": number, "--width": number, "--n": st.sampled_from(COUNTS)}
    return ["--gen", name, *(part for flag in flags for part in (flag, draw(values[flag])))]


# an input is the file F or a built-in signal
single_input = st.one_of(st.just(["F"]), generated())


INPUT_KIND = {"dft": "periodic-discrete", "idft": "periodic-discrete",
              "series": "periodic-analog", "ft": "analog"}


@st.composite
def command_lines(draw):
    """(argv, text of file F, text of file G) for one command."""
    command = draw(st.sampled_from(["conv", "dft", "idft", "series", "ft", "verify"]))
    kind = INPUT_KIND.get(command) or draw(st.sampled_from(KINDS))
    f, g = draw(signal_files(kind)), draw(signal_files(kind))
    return draw(arguments(command)), f, g


# --out targets besides standard output: a file in the example's folder, the
# folder itself and a path under a missing directory
OUT_PATHS = {"OUT": "out", "DIR": "", "MISSING": "missing/out"}


@st.composite
def arguments(draw, command):
    out = ["--out", draw(st.sampled_from(["-", *OUT_PATHS]))]
    omega = st.one_of(st.sampled_from(["0", "1", "-16", "16", "0.25"]), number)
    if command == "verify":
        # n and nmax stay small: verify admits up to n * (2 nmax + 1) = 2^24
        return ["verify", "--n", draw(st.sampled_from(["1", "2", "3", "16", "0"])),
                "--ts", draw(number), "--nmax", draw(st.sampled_from(["0", "1", "2", "3", "-1"])),
                *out]
    if command == "conv":
        argv = ["conv", "F", "G", *draw(st.sampled_from([[], ["--mode", "discrete"]]))]
    elif command in ("dft", "idft"):
        argv = [command, "F"]
    elif command == "series":
        argv = ["series", *draw(single_input), "--nmax", draw(st.sampled_from(COUNTS))]
    else:
        argv = ["ft", *draw(single_input), "--omega-min", draw(omega),
                "--omega-max", draw(omega), "--omega-step", draw(omega)]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"])), *out]


OVERFLOWING_PD = OVERFLOWING["pd.csv"]


@settings(max_examples=150, deadline=None)
@given(case=command_lines())
@example(case=(["dft", "F"], OVERFLOWING_PD, ""))
@example(case=(["verify", "--n", "16", "--ts", "5e-324", "--nmax", "2"], "", ""))
@example(case=(["verify", "--n", "16", "--ts", "0.0625", "--nmax", "2"], "", ""))
@example(case=(["series", "--gen", "cos", "--n", "8", "--ts", "1", "--nmax", "1", "--out", "DIR"],
               "", ""))
def test_any_command_line_keeps_the_exit_contract(tmp_path_factory, case):
    argv, f, g = case
    folder = tmp_path_factory.mktemp("argv")
    (folder / "F").write_text(f)
    (folder / "G").write_text(g)
    paths = {"F": "F", "G": "G", **OUT_PATHS}
    argv = [str(folder / paths[a]) if a in paths else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    assert code != 1 or argv[0] == "verify", argv
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
    assert not caught, [str(w.message) for w in caught]


SUBCOMMANDS = build_parser()._subparsers._group_actions[0].choices


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(SUBCOMMANDS)), data=st.data())
def test_arguments_emit_only_known_options(command, data):
    # an option the parser does not know ends every example in argparse's
    # exit 2, which the exit-contract test would still pass
    argv = data.draw(arguments(command))
    known = SUBCOMMANDS[argv[0]]._option_string_actions
    assert [a for a in argv if a.startswith("--") and a.split("=")[0] not in known] == []


# The shipped entry point: `python -m convfourier.cli` runs ``entry_point``,
# which exits with ``main``'s code.
def test_entry_point_writes_what_main_writes(tmp_path):
    argv = ["verify", "--seed", "1", "--n", "16", "--nmax", "2", "--out"]
    done = python(tmp_path, "-m", "convfourier.cli", *argv, "shipped.json")
    assert done.returncode == 0, done.stderr
    assert main([*argv, str(tmp_path / "in_process.json")]) == 0
    assert (tmp_path / "shipped.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()


def test_entry_point_error_is_one_line(tmp_path):
    done = python(tmp_path, "-m", "convfourier.cli", "conv", "missing.csv", "other.csv")
    one_error_line(done.returncode, done.stdout, done.stderr, 2)
