import io
import json
import math

import numpy as np
import pytest

from convfourier import fourier
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
# main (a traceback, exit 1).
UNREADABLE = {
    "json-no-rows": b'{"kind": "periodic-discrete", "n": 0, "rows": []}',
    "csv-no-rows": b"# kind=periodic-discrete n=0\nindex,re,im\n",
    "latin-1": "# kind=periodic-discrete n=1\n# \xe9t\xe9\nindex,re,im\n0,1,0\n".encode("latin-1"),
    "long-json-int": b'{"kind": "periodic-discrete", "n": 1, "rows": [[0, ' + b"1" * 5001 + b", 0]]}",
    "deep-json": b"[" * 100000 + b"]" * 100000,
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


# Metadata a kind does not carry, or an unknown key, is a parse error; each
# of these used to be dropped and the file read as a valid signal.
@pytest.mark.parametrize(
    "name,text",
    [
        ("f.json", '{"kind": "discrete", "ts": -3, "n": 99, "rows": [[0, 1, 0]]}'),
        ("f.csv", "# kind=analog ts=0.5 n=7\nindex,re,im\n0,1,0\n1,1,0\n"),
        ("f.json", '{"kind": "analog", "ts": 0.5, "tss": 0.5, "rows": [[0, 1, 0]]}'),
    ],
    ids=["json-discrete-ts-n", "csv-analog-n", "json-unknown-key"],
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


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        code, _, _ = run(capsys, "verify", "--out", out_path)
        assert code == 0
        report = json.loads(open(out_path).read())
        assert report["passed"] is True
        assert len(report["checks"]) == 31
        assert all(
            c["residual"] <= c["tolerance"] * max(1.0, c["scale"])
            for c in report["checks"]
            if not c["skipped"]
        )

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
