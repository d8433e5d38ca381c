"""Workloads: inputs generated from the seed, the CLI calls made on them, and output checks.

Each workload yields units of work in a fixed order.  A unit of
``verify-small`` or ``verify-large`` is one ``verify`` call with its own
seed; a unit of ``cli-files`` is one pass over the command mix.  Every
operation carries a check that reads its output with the benchmark's own
parser and compares it against a reference computed here with NumPy, so a
wrong answer counts as a failure.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EPS = np.finfo(np.float64).eps

# (n, ts, nmax) for the verify grids; the quick grids only keep the scripts running.
VERIFY_GRIDS = {
    "verify-small": {"full": (64, 1.0 / 64.0, 8), "quick": (16, 1.0 / 16.0, 2)},
    "verify-large": {"full": (1024, 1.0 / 1024.0, 100), "quick": (32, 1.0 / 32.0, 4)},
}

CLI_SIZES = {
    "full": {"taps": 16, "long": 100_000, "period": 2048, "wave": 16384, "nmax": 64,
             "ts": 1.0 / 1024.0, "half_width": 6.0, "freqs": 401, "step": 0.25},
    "quick": {"taps": 4, "long": 2000, "period": 64, "wave": 256, "nmax": 8,
              "ts": 1.0 / 64.0, "half_width": 6.0, "freqs": 41, "step": 0.25},
}

WORKLOADS = ("verify-small", "verify-large", "cli-files")


@dataclass
class Op:
    """One CLI call: ``command`` names its latency group, ``check`` judges its exit code and output."""

    command: str
    argv: list
    check: Callable[[object], str | None]


def build(name: str, seed: int, workdir: Path, quick: bool):
    workdir.mkdir(parents=True, exist_ok=True)
    size = "quick" if quick else "full"
    if name in VERIFY_GRIDS:
        return VerifyWorkload(seed, workdir, *VERIFY_GRIDS[name][size])
    if name == "cli-files":
        return CliFilesWorkload(seed, workdir, CLI_SIZES[size])
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


class VerifyWorkload:
    """``verify`` at a fixed grid, one derived seed per call.

    Unit 1 repeats unit 0's seed: the two report files must be byte-identical.
    """

    def __init__(self, seed, workdir, n, ts, nmax):
        self.grid = (n, ts, nmax)
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(4096)]
        self.seeds[1] = self.seeds[0]
        self.report = workdir / "report.json"
        self.first_report = None
        self.memory = [self._op(-1)]
        self.inputs = []  # verify reads no files

    def prepare(self):
        """Nothing to precompute: each report is checked against its own residuals."""

    def unit(self, i: int) -> list:
        return [self._op(i)]

    def _op(self, i: int) -> Op:
        n, ts, nmax = self.grid
        seed = self.seeds[i % len(self.seeds)]
        argv = ["verify", "--seed", str(seed), "--n", str(n), "--ts", repr(ts),
                "--nmax", str(nmax), "--out", str(self.report)]
        return Op("verify", argv, lambda code: self._check(code, i, seed))

    def _check(self, code, i, seed):
        if code != 0:
            return f"verify seed={seed} exited {code!r}"
        raw = self.report.read_bytes()
        error = check_report(json.loads(raw), seed, self.grid)
        if error:
            return f"verify seed={seed}: {error}"
        if i % len(self.seeds) == 0:
            self.first_report = raw
        elif i % len(self.seeds) == 1 and raw != self.first_report:
            return f"verify seed={seed}: report differs from the first run of the same seed"
        return None


def check_report(report: dict, seed: int, grid) -> str | None:
    """Re-derive each pass flag from residual, scale and tolerance."""
    n, ts, nmax = grid
    params = report.get("grid_params", {})
    if report.get("seed") != seed or (params.get("n"), params.get("ts"), params.get("n_max")) != (n, ts, nmax):
        return "report names another seed or grid"
    checks = report.get("checks") or []
    if not checks:
        return "report lists no checks"
    for c in checks:
        if c["skipped"]:
            continue
        ok = c["residual"] <= c["tolerance"] * max(1.0, c["scale"])
        if not (ok and c["passed"]):
            return f"check {c['id']} did not pass (residual {c['residual']:.3g})"
    if report.get("passed") is not True:
        return "report is not marked passed"
    return None


# --------------------------------------------------------------------------
# cli-files
# --------------------------------------------------------------------------


def _cplx(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def write_csv(path: Path, meta: str, start: int, values: np.ndarray):
    rows = "".join(
        f"{i},{v.real!r},{v.imag!r}\n"
        for i, v in enumerate(values.tolist(), start)
    )
    path.write_text(f"# {meta}\nindex,re,im\n{rows}", encoding="utf-8")


def write_json(path: Path, meta: dict, start: int, values: np.ndarray):
    rows = [[i, v.real, v.imag] for i, v in enumerate(values.tolist(), start)]
    path.write_text(json.dumps({**meta, "rows": rows}), encoding="utf-8")


def read_table(path: Path):
    """(metadata, rows) of a CSV or JSON table written by the CLI."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        return data, np.asarray(data.pop("rows"), dtype=np.float64)
    first, _, rest = text.partition("\n")
    meta = dict(token.split("=", 1) for token in first.lstrip("#").split())
    _, _, body = rest.partition("\n")
    rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    return meta, rows


def read_signal_rows(path: Path):
    """(kind, start, complex samples) of a signal file, checking contiguous indices."""
    meta, rows = read_table(path)
    start = int(rows[0, 0]) if rows.size else 0
    if not np.array_equal(rows[:, 0], np.arange(start, start + rows.shape[0])):
        raise ValueError("indices are not contiguous")
    return meta["kind"], start, rows[:, 1] + 1j * rows[:, 2]


def _max_abs(a) -> float:
    return float(np.abs(a).max()) if np.size(a) else 0.0


def _compare(what, got, want, tol):
    if got.shape != want.shape:
        return f"{what}: {got.size} values, expected {want.size}"
    err = _max_abs(got - want)
    if not err <= tol:
        return f"{what}: max error {err:.3g} exceeds {tol:.3g}"
    return None


class CliFilesWorkload:
    """A fixed-order mix of file-based CLI commands on inputs written at set-up.

    One unit: linear ``conv`` of a short filter with a long file in both
    operand orders and in both formats, circular ``conv``, ``dft``, ``idft``,
    ``series`` and ``ft``.
    """

    def __init__(self, seed, workdir, sizes):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        self.sizes = sizes
        taps, long_n, period = sizes["taps"], sizes["long"], sizes["period"]

        h_start = int(rng.integers(-8, 9))
        x_start = int(rng.integers(-1000, 1001))
        self.h = _cplx(rng, taps)
        self.x = _cplx(rng, long_n)
        self.lin_start = h_start + x_start
        for fmt, write in (("csv", write_csv), ("json", write_json)):
            meta = "kind=discrete" if fmt == "csv" else {"kind": "discrete"}
            write(workdir / f"h.{fmt}", meta, h_start, self.h)
            write(workdir / f"x.{fmt}", meta, x_start, self.x)

        self.pa, self.pb = _cplx(rng, period), _cplx(rng, period)
        meta = f"kind=periodic-discrete n={period}"
        write_csv(workdir / "pa.csv", meta, 0, self.pa)
        write_csv(workdir / "pb.csv", meta, 0, self.pb)
        write_csv(workdir / "spectrum.csv", meta, 0, np.fft.fft(self.pa))

        ts, wave_n = sizes["ts"], sizes["wave"]
        self.wave = _cplx(rng, wave_n)
        write_csv(workdir / "wave.csv", f"kind=periodic-analog ts={ts!r} n={wave_n}", 0, self.wave)

        # Gaussian a*exp(-(t - t0)^2) on |t - t0| <= half_width, t0 on the grid
        half = round(sizes["half_width"] / ts)
        self.shift = int(rng.integers(-half // 8, half // 8 + 1))
        self.amp = float(rng.uniform(0.5, 2.0))
        k = np.arange(self.shift - half, self.shift + half + 1)
        self.gauss = self.amp * np.exp(-((k - self.shift) * ts) ** 2)
        self.gauss_k = k
        write_csv(workdir / "gauss.csv", f"kind=analog ts={ts!r}", int(k[0]), self.gauss.astype(complex))
        step = sizes["step"]
        self.omega_min = -step * (sizes["freqs"] // 2) + float(rng.uniform(0.0, step))
        self.omegas = self.omega_min + step * np.arange(sizes["freqs"])

        self.references = None
        self.last_linear = {}
        self.cycle = self._ops()
        # one linear conv and every other command; the largest peak is the
        # DFT's N x N matrix, and tracemalloc makes a 100k-row parse slow
        self.memory = self.cycle[:1] + self.cycle[4:]
        self.inputs = sorted(workdir.iterdir())

    def prepare(self):
        """Reference outputs, computed outside any timed region."""
        self.references = {
            "linear": np.convolve(self.h, self.x),
            "periodic": np.fft.ifft(np.fft.fft(self.pa) * np.fft.fft(self.pb)),
            "dft": np.fft.fft(self.pa),
            "series": np.fft.fft(self.wave) / self.wave.size,
        }

    def unit(self, i: int) -> list:
        return self.cycle

    def _ops(self) -> list:
        d = self.dir
        sizes = self.sizes

        def path(name):
            return str(d / name)

        def conv_linear(first, second, fmt, out, key):
            argv = ["conv", path(f"{first}.{fmt}"), path(f"{second}.{fmt}"),
                    "--format", fmt, "--out", path(out)]
            return Op("conv_linear", argv, lambda code: self._check_linear(code, d / out, key))

        step = sizes["step"]
        omega_max = self.omega_min + step * (sizes["freqs"] - 1)
        return [
            conv_linear("h", "x", "csv", "lin_hx.csv", ("csv", "hx")),
            conv_linear("x", "h", "csv", "lin_xh.csv", ("csv", "xh")),
            conv_linear("h", "x", "json", "lin_hx.json", ("json", "hx")),
            conv_linear("x", "h", "json", "lin_xh.json", ("json", "xh")),
            Op("conv_periodic",
               ["conv", path("pa.csv"), path("pb.csv"), "--mode", "periodic-discrete",
                "--out", path("periodic.csv")],
               lambda code: self._check_periodic(code, d / "periodic.csv")),
            Op("dft", ["dft", path("pa.csv"), "--out", path("dft.csv")],
               lambda code: self._check_dft(code, d / "dft.csv")),
            Op("dft", ["idft", path("spectrum.csv"), "--out", path("idft.csv")],
               lambda code: self._check_idft(code, d / "idft.csv")),
            Op("series",
               ["series", path("wave.csv"), "--nmax", str(sizes["nmax"]), "--out", path("series.csv")],
               lambda code: self._check_series(code, d / "series.csv")),
            Op("ft",
               ["ft", path("gauss.csv"), "--omega-min", repr(self.omega_min),
                "--omega-max", repr(omega_max), "--omega-step", repr(step), "--out", path("ft.csv")],
               lambda code: self._check_ft(code, d / "ft.csv")),
        ]

    # Tolerances are a priori rounding bounds: a length-k sum of products
    # carries at most about k*eps*sum|a_i b_i| in each of two independent
    # implementations; the factor 8 covers complex arithmetic.

    def _check_linear(self, code, out, key):
        if code != 0:
            return f"conv {out.name} exited {code!r}"
        kind, start, got = read_signal_rows(out)
        if kind != "discrete" or start != self.lin_start:
            return f"conv {out.name}: kind={kind} start={start}, expected discrete at {self.lin_start}"
        tol = 8 * self.h.size * EPS * np.abs(self.h).sum() * _max_abs(self.x)
        error = _compare(f"conv {out.name} vs np.convolve", got, self.references["linear"], tol)
        fmt, order = key
        if error is None and order == "xh" and fmt in self.last_linear:
            # the swapped operand order must agree with the first order
            error = _compare(f"conv {out.name} vs swapped operands", got, self.last_linear[fmt], 2 * tol)
        self.last_linear[fmt] = got
        return error

    def _check_periodic(self, code, out):
        if code != 0:
            return f"periodic conv exited {code!r}"
        _, _, got = read_signal_rows(out)
        tol = 8 * self.pa.size * EPS * np.abs(self.pa).sum() * _max_abs(self.pb)
        return _compare("periodic conv vs ifft(fft*fft)", got, self.references["periodic"], tol)

    def _check_dft(self, code, out):
        if code != 0:
            return f"dft exited {code!r}"
        _, _, got = read_signal_rows(out)
        tol = 8 * self.pa.size * EPS * np.abs(self.pa).sum()
        return _compare("dft vs np.fft.fft", got, self.references["dft"], tol)

    def _check_idft(self, code, out):
        if code != 0:
            return f"idft exited {code!r}"
        _, _, got = read_signal_rows(out)
        tol = 8 * EPS * np.abs(self.references["dft"]).sum()
        return _compare("idft round trip", got, self.pa, tol)

    def _check_series(self, code, out):
        if code != 0:
            return f"series exited {code!r}"
        meta, rows = read_table(out)
        nmax, n, ts = self.sizes["nmax"], self.wave.size, self.sizes["ts"]
        period_t = n * ts
        if int(meta["n_max"]) != nmax or not math.isclose(float(meta["t"]), period_t, rel_tol=1e-12):
            return f"series header {meta} does not match nmax={nmax} T={period_t}"
        harmonics = np.arange(-nmax, nmax + 1)
        if not np.array_equal(rows[:, 0], harmonics):
            return "series rows do not cover -nmax..nmax in order"
        want = self.references["series"][harmonics % n]
        # phase error grows with the exponent n*omega0*t, up to 2*pi*nmax
        tol = 8 * EPS * (n + 2 * math.pi * nmax) * np.abs(self.wave).sum() / n
        return (_compare("series C_n vs np.fft slice", rows[:, 1] + 1j * rows[:, 2], want, tol)
                or _compare("series T*C_n column", rows[:, 3] + 1j * rows[:, 4], period_t * want,
                            period_t * tol * 2))

    def _check_ft(self, code, out):
        if code != 0:
            return f"ft exited {code!r}"
        _, rows = read_table(out)
        if rows.shape[0] != self.omegas.size or not np.allclose(rows[:, 0], self.omegas, rtol=0, atol=1e-9):
            return "ft frequency grid differs from the requested one"
        w = self.omegas
        ts, half_width = self.sizes["ts"], self.sizes["half_width"]
        t0 = self.shift * ts

        def gaussian_spectrum(omega):
            return self.amp * math.sqrt(math.pi) * np.exp(-omega * omega / 4.0)

        want = gaussian_spectrum(w) * np.exp(-1j * w * t0)
        # Riemann-sum budget: the sampled sum equals the sum of spectral
        # replicas at spacing 2*pi/ts (Poisson), minus the tails cut at
        # |t - t0| > half_width, plus rounding of L terms whose phase
        # w*t reaches max|w|*max|t|.
        replicas = sum(gaussian_spectrum(np.abs(w) - m * 2 * math.pi / ts) for m in (1, 2))
        tails = self.amp * (math.sqrt(math.pi) * math.erfc(half_width) + 2 * ts * math.exp(-half_width**2))
        t_max = float(np.abs(self.gauss_k).max()) * ts
        rounding = 8 * EPS * ts * self.gauss.sum() * (self.gauss.size + float(np.abs(w).max()) * t_max)
        budget = replicas + tails + rounding
        err = np.abs(rows[:, 1] + 1j * rows[:, 2] - want)
        worst = int(np.argmax(err - budget))
        if err[worst] > budget[worst]:
            return f"ft at omega={w[worst]:.4g}: error {err[worst]:.3g} exceeds budget {budget[worst]:.3g}"
        return None
