import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convfourier import cli, fourier, generators, signals
from convfourier.cli import main
from convfourier.io import read_signal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text)
    return str(path)


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

    def test_missing_gen_params_exit_2(self, capsys):
        code, _, err = run(
            capsys, "ft", "--gen", "pulse", "--omega-min", "0", "--omega-max", "1", "--omega-step", "1"
        )
        assert code == 2
        assert "--ts" in err

    def test_frequency_count_overflow_exit_4(self, capsys):
        # (omega_max - omega_min) / omega_step overflows to inf
        code, out, err = run(capsys, "ft", "--gen", "pulse", "--ts", "0.25", "--omega-min=-1e308",
                             "--omega-max", "1e308", "--omega-step", "1")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert "--ts must be finite and > 0" in err

    @pytest.mark.parametrize(
        "gen_args",
        [
            ["cos", "--n", "0", "--ts", "0.25"],
            ["square", "--n", "3", "--ts", "0.25"],
            ["pulse", "--ts", "0.3"],
            ["pulse", "--ts", "0.25", "--width", "inf"],
        ],
    )
    def test_generator_precondition_exit_2(self, capsys, gen_args):
        code, _, err = run(
            capsys, "ft", "--gen", *gen_args, "--omega-min", "0", "--omega-max", "1", "--omega-step", "1"
        )
        assert code == 2
        assert err.startswith(f"error: --gen {gen_args[0]}:")


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
# main (a traceback, exit 1), give a wrong verdict (--tol-scale nan or inf,
# exit 1) or write a NaN frequency row (--omega-step inf, exit 0).
def pulse_ft(omega_min, omega_max, omega_step):
    return ["ft", "--gen", "pulse", "--ts", "0.25", "--omega-min", omega_min,
            "--omega-max", omega_max, "--omega-step", omega_step]


BAD_ARGUMENTS = [
    ["verify", "--ts", "nan"],
    ["verify", "--n", "0"],
    ["verify", "--tol-scale", "0"],
    ["verify", "--tol-scale", "nan"],
    ["verify", "--tol-scale", "inf"],
    pulse_ft("0", "1", "nan"),
    pulse_ft("nan", "1", "1"),
    pulse_ft("0", "inf", "1"),
    pulse_ft("0", "1", "inf"),
    ["series", "--gen", "cos", "--n", "16", "--ts", "0.0625", "--nmax", "-1"],
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_bad_arguments_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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

    def test_reports_byte_identical(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["verify", "--seed", "7", "--out", p1]) == 0
        assert main(["verify", "--seed", "7", "--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_tightened_tolerances_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--tol-scale", "1e-9", "--out", str(tmp_path / "r.json"))
        assert code == 1
        report = json.loads(open(tmp_path / "r.json").read())
        failing = [c["id"] for c in report["checks"] if not c["passed"]]
        assert failing
        assert "verification failed" in err
        for check_id in failing:
            assert check_id in err

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
    monkeypatch.setitem(cli._CONV_OPS, "discrete", _refuse)
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


# an input is the file F or a built-in signal
generated = st.tuples(st.sampled_from(["pulse", "cos", "square"]), st.sampled_from(COUNTS),
                      number, number).map(
    lambda g: ["--gen", g[0], "--n", g[1], "--ts", g[2], "--width", g[3]])
single_input = st.one_of(st.just(["F"]), generated)


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
                "--tol-scale", draw(st.sampled_from(["1", "1e-300", "nan"])), *out]
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the vector
            code = exc.code
    assert code in (0, 1, 2, 3, 4), argv
    assert code != 1 or argv[0] == "verify", argv
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
    assert not caught, [str(w.message) for w in caught]
