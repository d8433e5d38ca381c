"""Command-line interface: convolve signal files, run transforms, verify identities.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 grid or
period mismatch, 4 alias-window or precondition violation, a result
beyond the float64 range, or a request beyond its command's work budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import convolution as conv
from . import fourier as four
from . import generators as gen
from .harness import GridParams, run_all
from .io import (
    SignalFormatError,
    read_signal,
    series_table_text,
    signal_kind,
    signal_text,
    transform_table_text,
)
from .signals import AliasingError, GridMismatchError, PeriodicDiscreteSignal

_GENERATORS = ("pulse", "cos", "square")

# Work budget of every command, checked before any array is built.  At each
# limit, on a 2-vCPU Xeon: `ft` and `series` (one L-term Riemann sum per
# output point) take about 60 s for 2^30 terms, linear `conv` (np.convolve)
# 4.4 s for 2^33 multiply-adds, `verify` 20-32 s at n*(2*nmax+1) = 2^24, and
# a 2^24-sample `--gen` signal about 1 GiB of memory.
_GEN_MAX_SAMPLES = 2**24
_FT_MAX_FREQUENCIES = 2**22
_MAX_TERMS = 2**30
_CONV_MAX_MACS = 2**33
_VERIFY_MAX_N = 2**16
_VERIFY_MAX_WORK = 2**24


def _check_budget(command: str, sizes: str, *bounds):
    """Raise OverflowError (exit 4) when a (name, value, limit) bound is exceeded."""
    if any(value > limit for _, value, limit in bounds):
        limits = ", ".join(f"{name} <= {limit}" for name, _, limit in bounds)
        raise OverflowError(f"{command} work budget exceeded: {sizes}; the limit is {limits}")


def _finite(what: str, compute, *args):
    """compute(*args), with a result beyond the float64 range raised as OverflowError.

    NumPy's overflow warnings are silenced; a signal constructor rejects a
    non-finite sample with ValueError, and a spectrum with a non-finite
    number, metadata included, is rejected here.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = compute(*args)
    except (GridMismatchError, AliasingError, SignalFormatError):
        raise
    except ValueError as exc:
        raise OverflowError(f"{what} overflows float64: {exc}") from None
    numbers = [v for v in vars(result).values() if isinstance(v, (float, np.ndarray))]
    if not all(np.isfinite(v).all() for v in numbers):
        raise OverflowError(f"{what} overflows float64: the result is not finite")
    return result


def _write_output(text: str, path: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _generate(args):
    if args.ts is None:
        raise SignalFormatError("--gen requires --ts")
    if not (math.isfinite(args.ts) and args.ts > 0):
        raise SignalFormatError(f"--ts must be finite and > 0, got {args.ts}")
    if args.gen != "pulse" and args.n is None:
        raise SignalFormatError(f"--gen {args.gen} requires --n")
    if args.gen == "pulse" and not math.isfinite(args.width):
        raise SignalFormatError(f"--gen pulse: width must be finite, got {args.width}")
    samples = args.width / args.ts if args.gen == "pulse" else args.n
    _check_budget(f"--gen {args.gen}", f"{samples} samples", ("samples", samples, _GEN_MAX_SAMPLES))
    try:
        if args.gen == "pulse":
            return gen.pulse(args.ts, width=args.width)
        if args.gen == "cos":
            return gen.cosine(args.n, args.ts)
        return gen.square(args.n, args.ts)
    except (ValueError, OverflowError) as exc:
        # a generator's precondition on --n or --width
        raise SignalFormatError(f"--gen {args.gen}: {exc}") from None


def _single_input(args):
    if getattr(args, "gen", None):
        return _generate(args)
    if args.input is None:
        raise SignalFormatError("provide an input file or --gen NAME")
    return read_signal(args.input)


_CONV_OPS = {
    "discrete": conv.discrete_convolve,
    "analog": conv.approx_analog_convolve,
    "periodic-discrete": conv.periodic_convolve_discrete,
    "periodic-analog": conv.periodic_convolve_analog,
}


def _cmd_conv(args) -> int:
    f = read_signal(args.first)
    g = read_signal(args.second)
    kind_f, kind_g = signal_kind(f), signal_kind(g)
    mode = args.mode or kind_f
    if kind_f != mode or kind_g != mode:
        raise GridMismatchError(
            f"mode={mode} but inputs have kind={kind_f} and kind={kind_g}"
        )
    if mode in ("discrete", "analog"):
        _check_budget(
            "conv", f"{len(f)} x {len(g)} samples",
            ("len(f)*len(g)", len(f) * len(g), _CONV_MAX_MACS),
        )
    result = _finite(f"{mode} convolution", _CONV_OPS[mode], f, g)
    _write_output(signal_text(result, args.format), args.out)
    return 0


def _require_kind(signal, wanted: str, what: str):
    kind = signal_kind(signal)
    if kind != wanted:
        raise SignalFormatError(f"{what} must be a {wanted} signal, got kind={kind}")


def _cmd_dft(args) -> int:
    f = _single_input(args)
    _require_kind(f, "periodic-discrete", "dft input")
    spectrum = _finite("dft", four.dft, f)
    _write_output(signal_text(PeriodicDiscreteSignal(spectrum.values), args.format), args.out)
    return 0


def _cmd_idft(args) -> int:
    f = _single_input(args)
    _require_kind(f, "periodic-discrete", "idft input")
    result = _finite("idft", four.idft, four.DftSpectrum(values=f.samples))
    _write_output(signal_text(result, args.format), args.out)
    return 0


def _cmd_series(args) -> int:
    f = _single_input(args)
    _require_kind(f, "periodic-analog", "series input")
    if args.nmax < 0:
        raise SignalFormatError(f"--nmax must be >= 0, got {args.nmax}")
    length, harmonics = f.samples.size, 2 * args.nmax + 1
    _check_budget(
        "series", f"L={length} samples x {harmonics} harmonics",
        ("L*(2*nmax+1)", length * harmonics, _MAX_TERMS),
    )
    spectrum = _finite("series", four.fourier_coefficients, f, args.nmax)
    _write_output(series_table_text(spectrum, args.format), args.out)
    return 0


def _cmd_ft(args) -> int:
    f = _single_input(args)
    _require_kind(f, "analog", "ft input")
    if not all(map(math.isfinite, (args.omega_min, args.omega_max, args.omega_step))):
        raise SignalFormatError("--omega-min, --omega-max and --omega-step must be finite")
    if args.omega_step <= 0:
        raise SignalFormatError(f"--omega-step must be > 0, got {args.omega_step}")
    if args.omega_max < args.omega_min:
        raise SignalFormatError("--omega-max must be >= --omega-min")
    count = int(round((args.omega_max - args.omega_min) / args.omega_step)) + 1
    length = f.samples.size
    _check_budget(
        "ft", f"M={count} frequencies x L={length} samples",
        ("M", count, _FT_MAX_FREQUENCIES), ("L*M", count * length, _MAX_TERMS),
    )
    omegas = args.omega_min + np.arange(count) * args.omega_step
    try:
        four._check_uniform_grid(omegas)
    except ValueError as exc:
        raise SignalFormatError(
            f"--omega-step {args.omega_step} is not resolved in float64 near "
            f"--omega-min {args.omega_min}: {exc}"
        ) from None
    spectrum = _finite("ft", four.fourier_transform, f, omegas)
    _write_output(transform_table_text(spectrum, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        grid = GridParams(n=args.n, ts=args.ts, n_max=args.nmax)
        _check_budget(
            "verify", f"n={grid.n}, nmax={grid.n_max}",
            ("n", grid.n, _VERIFY_MAX_N),
            ("n*(2*nmax+1)", grid.n * (2 * grid.n_max + 1), _VERIFY_MAX_WORK),
        )
        report = run_all(grid=grid, seed=args.seed, tol_scale=args.tol_scale)
    except AliasingError:
        raise
    except ValueError as exc:
        # a bad --n, --ts, --nmax or --tol-scale; run_all records each check's own errors
        raise SignalFormatError(str(exc)) from None
    _write_output(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    if args.out != "-":
        for c in report.checks:
            status = "skip" if c.skipped else ("pass" if c.passed else "FAIL")
            print(f"{status}  {c.id}", file=sys.stderr)
    if report.passed:
        return 0
    failing = ", ".join(c.id for c in report.checks if not c.passed and not c.skipped)
    print(f"verification failed: {failing}", file=sys.stderr)
    return 1


def _add_io_flags(p, with_gen: bool):
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    if with_gen:
        p.add_argument("--gen", choices=_GENERATORS, help="use a built-in test signal as input")
        p.add_argument("--ts", type=float, help="grid spacing for --gen")
        p.add_argument("--n", type=int, help="samples per period for --gen cos/square")
        p.add_argument("--width", type=float, default=1.0, help="pulse width for --gen pulse")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convfourier",
        description="Convolution, Fourier series, DFT and Fourier transform on signal files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conv", help="convolve two signal files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--mode",
        choices=tuple(_CONV_OPS),
        help="convolution flavour; defaults to the kind of the inputs",
    )
    _add_io_flags(p, with_gen=False)
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("dft", help="discrete Fourier transform of a periodic-discrete file")
    p.add_argument("input")
    _add_io_flags(p, with_gen=False)
    p.set_defaults(func=_cmd_dft)

    p = sub.add_parser("idft", help="inverse DFT of a periodic-discrete spectrum file")
    p.add_argument("input")
    _add_io_flags(p, with_gen=False)
    p.set_defaults(func=_cmd_idft)

    p = sub.add_parser("series", help="Fourier series coefficients of a periodic-analog file")
    p.add_argument("input", nargs="?")
    p.add_argument("--nmax", type=int, required=True, help="largest harmonic |n| to compute")
    _add_io_flags(p, with_gen=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("ft", help="Fourier transform of a finite analog file")
    p.add_argument("input", nargs="?")
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--omega-step", type=float, required=True)
    _add_io_flags(p, with_gen=True)
    p.set_defaults(func=_cmd_ft)

    p = sub.add_parser("verify", help="run the full identity catalog and emit a JSON report")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=64, help="samples per period")
    p.add_argument("--ts", type=float, default=1.0 / 64.0, help="grid spacing (seconds)")
    p.add_argument("--nmax", type=int, default=8, help="harmonic window for random signals")
    p.add_argument("--tol-scale", type=float, default=1.0, help="multiply every tolerance")
    p.add_argument("--out", default="-", help="report path ('-' for stdout)")
    p.set_defaults(func=_cmd_verify)

    return parser


# exception type -> exit code; 1 is kept for a failed verification
_EXIT_CODES = {SignalFormatError: 2, GridMismatchError: 3, AliasingError: 4, OverflowError: 4}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[t] for t in type(exc).__mro__ if t in _EXIT_CODES)


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
