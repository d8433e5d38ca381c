"""Print the SHA-256 of each CLI command's stdout, stderr, exit code and
``--out`` file, for a fixed set of commands.

The first line names the build: Python, NumPy, platform and the path of the
``convfourier`` package imported, so a diff of two outputs shows a build
mismatch, or a PYTHONPATH that reaches the wrong checkout, before any digest.
Each other line is one command; the last line digests every command together.
The inputs are the literal texts below, written to a temporary directory, so
they do not depend on the checkout under test.  Run it against two checkouts
and compare the outputs:

    PYTHONPATH=<checkout>/src python tools/cli_digest.py > digests.txt

Outputs hold floats, so digests compare only between runs on one host and
one NumPy build.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import tempfile

import numpy as np

import convfourier
from convfourier.cli import main

FILES = {
    "d1.csv": "# kind=discrete\nindex,re,im\n-2,1,0.5\n-1,-0.25,2\n0,3,0\n1,0.125,-1\n",
    "d2.csv": "# kind=discrete\nindex,re,im\n0,1,0\n1,-1,0.5\n2,0.75,0.25\n",
    "d1.json": '{"kind": "discrete", "rows": [[3, 1.5, -0.5], [4, 0.25, 2], [5, -1, 0]]}',
    "d2.json": '{"kind": "discrete", "rows": [[-1, 2, 0], [0, 0.5, -0.5]]}',
    "a1.csv": "# kind=analog ts=0.25\nindex,re,im\n-1,0.5,0\n0,1,0\n1,0.5,0\n",
    "a2.csv": "# kind=analog ts=0.25\nindex,re,im\n0,1,-0.5\n1,0.25,0.75\n2,-0.5,0\n3,0.125,0\n",
    "a3.csv": "# kind=analog ts=0.5\nindex,re,im\n0,1,0\n",
    "a1.json": '{"kind": "analog", "ts": 0.125, "rows": [[-2, 0.25, 0], [-1, 0.75, 0.5], [0, 1, 0]]}',
    "a2.json": '{"kind": "analog", "ts": 0.125, "rows": [[0, 1, 0], [1, -0.5, 0.25]]}',
    "pd1.csv": "# kind=periodic-discrete n=4\nindex,re,im\n0,1,0\n1,2,-1\n2,0,0.5\n3,-1,0\n",
    "pd2.csv": "# kind=periodic-discrete n=4\nindex,re,im\n0,0.5,0\n1,0,1\n2,-0.5,0\n3,0.25,-0.25\n",
    "pd1.json": '{"kind": "periodic-discrete", "n": 3, "rows": [[0, 1, 1], [1, -2, 0], [2, 0.5, 0]]}',
    "pd2.json": '{"kind": "periodic-discrete", "n": 3, "rows": [[0, 0, 1], [1, 1, 0], [2, 1, -1]]}',
    "pa1.csv": (
        "# kind=periodic-analog ts=0.125 n=8\nindex,re,im\n"
        "0,1,0\n1,0.75,0.25\n2,0,0.5\n3,-0.75,0.25\n4,-1,0\n5,-0.75,-0.25\n6,0,-0.5\n7,0.75,-0.25\n"
    ),
    "pa2.csv": (
        "# kind=periodic-analog ts=0.125 n=8\nindex,re,im\n"
        "0,0.5,0\n1,0,0\n2,0.25,0.5\n3,0,0\n4,-0.5,0\n5,0,0\n6,0.25,-0.5\n7,0,1\n"
    ),
    "pa1.json": (
        '{"kind": "periodic-analog", "ts": 0.25, "n": 4, '
        '"rows": [[0, 1, 0], [1, 0.5, 0.5], [2, 0, 0], [3, 0.5, -0.5]]}'
    ),
    "pa2.json": (
        '{"kind": "periodic-analog", "ts": 0.25, "n": 4, '
        '"rows": [[0, 0.25, 0], [1, -1, 0], [2, 0.5, 0.25], [3, 0, 1]]}'
    ),
    # values whose transform or convolution is beyond the float64 range
    "big_d.csv": "# kind=discrete\nindex,re,im\n0,1e200,0\n1,1e200,0\n",
    "big_pd.csv": "# kind=periodic-discrete n=2\nindex,re,im\n0,1e308,0\n1,1e308,0\n",
    "big_pa.csv": "# kind=periodic-analog ts=1 n=2\nindex,re,im\n0,1e308,0\n1,1e308,0\n",
    "big_a.csv": "# kind=analog ts=1\nindex,re,im\n0,1e308,0\n1,1e308,0\n",
    # malformed files; bad_index.csv also holds a bad re, which is reported second
    "bad_columns.csv": "# kind=discrete\nindex,re,im\n0,1\n",
    "bad_ts.csv": "# kind=analog ts=0.2_5\nindex,re,im\n0,1,0\n",
    "bad_index.csv": "# kind=discrete\nindex,re,im\ny,x,0\n",
    "bad_row.json": '{"kind": "discrete", "rows": [[1, 2]]}',
    "bad_n.json": '{"kind": "periodic-discrete", "n": 3, "rows": [[0, 1, 0], [1, 2, 0]]}',
}

OMEGAS = ["--omega-min", "-2", "--omega-max", "2", "--omega-step", "0.5"]

# name -> argv; a file name stands for its path, OUT for an output file
COMMANDS = {
    "conv discrete csv": ["conv", "d1.csv", "d2.csv"],
    "conv discrete json": ["conv", "d1.json", "d2.json", "--format", "json"],
    "conv analog csv": ["conv", "a1.csv", "a2.csv"],
    "conv analog json": ["conv", "a1.json", "a2.json", "--mode", "analog", "--format", "json"],
    "conv periodic-discrete csv": ["conv", "pd1.csv", "pd2.csv"],
    "conv periodic-discrete json": ["conv", "pd1.json", "pd2.json", "--format", "json"],
    "conv periodic-analog csv": ["conv", "pa1.csv", "pa2.csv", "--mode", "periodic-analog"],
    "conv periodic-analog json": ["conv", "pa1.json", "pa2.json", "--format", "json"],
    "dft csv": ["dft", "pd1.csv"],
    "dft json": ["dft", "pd1.json", "--format", "json"],
    "idft csv": ["idft", "pd2.csv"],
    "idft json out": ["idft", "pd2.json", "--format", "json", "--out", "OUT"],
    "series file csv": ["series", "pa1.csv", "--nmax", "3"],
    "series file json": ["series", "pa1.json", "--nmax", "1", "--format", "json"],
    "series gen cos": ["series", "--gen", "cos", "--n", "16", "--ts", "0.0625", "--nmax", "4"],
    "series gen square": ["series", "--gen", "square", "--n", "12", "--ts", "0.5", "--nmax", "5",
                          "--format", "json"],
    "ft file csv": ["ft", "a2.csv", *OMEGAS],
    "ft file json": ["ft", "a1.json", *OMEGAS, "--format", "json"],
    "ft gen pulse": ["ft", "--gen", "pulse", "--ts", "0.0625", "--width", "0.5", *OMEGAS],
    "ft gen pulse out": ["ft", "--gen", "pulse", "--ts", "0.25", *OMEGAS, "--out", "OUT"],
    "verify seed 1": ["verify", "--seed", "1"],
    "verify seed 42": ["verify", "--seed", "42"],
    "verify seed 1 out": ["verify", "--seed", "1", "--out", "OUT"],
    "verify seed 42 out": ["verify", "--seed", "42", "--n", "16", "--nmax", "2", "--out", "OUT"],
    "exit 2 omega-max below omega-min": ["ft", "--gen", "pulse", "--ts", "0.25", "--omega-min", "1",
                                         "--omega-max", "0", "--omega-step", "0.5"],
    "exit 2 argparse type": ["verify", "--seed", "4_2"],
    "exit 2 missing required flag": ["series", "pa1.csv"],
    "exit 2 unknown subcommand": ["transform", "pa1.csv"],
    "exit 2 unused --gen flag": ["series", "--gen", "cos", "--n", "8", "--ts", "0.125", "--width", "1",
                                 "--nmax", "1"],
    "exit 2 ft kind": ["ft", "d1.csv", *OMEGAS],
    "exit 2 idft kind": ["idft", "a1.csv"],
    "exit 3 ts mismatch": ["conv", "a1.csv", "a3.csv"],
    "exit 3 mode mismatch": ["conv", "d1.csv", "d2.csv", "--mode", "analog"],
    "exit 3 kinds differ": ["conv", "d1.csv", "a1.csv"],
    "exit 3 kinds differ json": ["conv", "pa1.json", "a1.json", "--format", "json"],
    "exit 3 period mismatch": ["conv", "pd1.csv", "pd1.json"],
    "exit 4 alias window": ["series", "pa1.csv", "--nmax", "4"],
    "exit 4 conv overflow": ["conv", "big_d.csv", "big_d.csv"],
    "exit 4 dft overflow": ["dft", "big_pd.csv"],
    "exit 4 idft overflow": ["idft", "big_pd.csv"],
    "exit 4 series overflow": ["series", "big_pa.csv", "--nmax", "0"],
    "exit 4 ft overflow": ["ft", "big_a.csv", *OMEGAS],
    "exit 2 csv columns": ["conv", "bad_columns.csv", "d1.csv"],
    "exit 2 ts text": ["ft", "bad_ts.csv", *OMEGAS],
    "exit 2 index text": ["dft", "bad_index.csv"],
    "exit 2 json row": ["conv", "d1.json", "bad_row.json"],
    "exit 2 periodic row count": ["idft", "bad_n.json"],
}


def run(folder: pathlib.Path, argv):
    """(exit code, stdout, stderr, --out file text) of one command."""
    out_path = folder / "out"
    out_path.unlink(missing_ok=True)
    names = {name: str(folder / name) for name in FILES}
    argv = [str(out_path) if a == "OUT" else names.get(a, a) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def build_line() -> str:
    return (
        f"build python={platform.python_version()} numpy={np.__version__} "
        f"platform={platform.platform()} library={convfourier.__file__}"
    )


def main_digest():
    print(build_line())
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        folder = pathlib.Path(tmp)
        for name, text in FILES.items():
            (folder / name).write_text(text, encoding="utf-8")
        for name, argv in COMMANDS.items():
            result = json.dumps(run(folder, argv))
            digest = hashlib.sha256(result.encode()).hexdigest()
            total.update(digest.encode())
            print(f"{name}: {digest}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main_digest()
