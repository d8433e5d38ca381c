"""Command-line interface: convolve signal files, run transforms, verify identities.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 grid or
period mismatch, 4 alias-window or precondition violation, a result
beyond the float64 range, or a request beyond its command's work budget.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import convolution as conv
from . import fourier as four
from . import generators as gen
from .harness import GridParams, run_all
from .io import (
    SignalFormatError,
    _TYPES,
    _is_plain,
    _write_text,
    read_signal,
    series_table_text,
    signal_kind,
    signal_text,
    transform_table_text,
)
from .signals import AliasingError, GridMismatchError
from .signals import _check_ts, _finite_number, _index

# the flags each built-in signal reads; any other of --ts, --n and --width is
# an error, never dropped
_GEN_FLAGS = {"pulse": ("ts", "width"), "cos": ("ts", "n"), "square": ("ts", "n")}

# Work budget of every command, checked before any array is built.  At each
# limit, on a 2-vCPU Xeon: `ft` and `series` (one batched Riemann sum over
# all output points) take 2.3-10 s for 2^30 terms (10 s for 2^22 frequencies
# of a 256-sample signal, where the exps dominate), linear `conv`
# (np.convolve) 4.4 s for 2^33 multiply-adds, and `verify` about 7 s at
# n*(2*nmax+1) = 2^24.  The `--gen` limit bounds memory, not time: the
# samples, their copies, their times and the Riemann sum's zero-padded copy
# are full-length arrays, so `series` of a 2^22-sample cosine or square wave,
# or `ft` of a 2^22-sample pulse, peaks at 191 MiB resident (ru_maxrss; 32 MiB
# of it is the interpreter and NumPy).  On the output side, io formats a
# table in row blocks but hands it over as one string, so writing an output
# peaks near 2.7x its CSV text or 2.4x its JSON text (traced; 129 and 197 MiB
# for `ft` at 2^20 frequencies), about 0.5 and 0.8 GiB at the 2^22-frequency
# limit.  Linear `conv` holds a copy of both inputs besides them: NumPy
# 2.4.6's np.convolve copies a read-only operand before it sums, and every
# signal's samples are read-only (convolution._direct_sum).
_GEN_MAX_SAMPLES = 2**22
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


def _generate(args):
    if args.ts is None:
        raise SignalFormatError("--gen requires --ts")
    if args.gen != "pulse" and args.n is None:
        raise SignalFormatError(f"--gen {args.gen} requires --n")
    width = 1.0 if args.width is None else args.width
    samples = width / args.ts if args.gen == "pulse" else args.n
    _check_budget(f"--gen {args.gen}", f"{samples} samples", ("samples", samples, _GEN_MAX_SAMPLES))
    try:
        if args.gen == "pulse":
            return gen.pulse(args.ts, width=width)
        if args.gen == "cos":
            return gen.cosine(args.n, args.ts)
        return gen.square(args.n, args.ts)
    except (ValueError, OverflowError) as exc:
        # a generator's precondition on the one flag it reads besides --ts,
        # which is read with its bound at parse time
        flag = "--width" if args.gen == "pulse" else "--n"
        raise SignalFormatError(f"argument {flag}: {exc}") from None


def _single_input(args, kind: str):
    name = getattr(args, "gen", None)
    if name is None and args.input is None:
        raise SignalFormatError("provide an input file or --gen NAME")
    if name is not None and args.input is not None:
        raise SignalFormatError(f"--gen {name} takes no input file, got {args.input}")
    for flag in ("ts", "n", "width"):
        if getattr(args, flag, None) is not None and flag not in _GEN_FLAGS.get(name, ()):
            source = f"--gen {name}" if name else "an input file"
            raise SignalFormatError(f"--{flag} is not used with {source}")
    signal = read_signal(args.input) if name is None else _generate(args)
    got = signal_kind(signal)
    if got != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise SignalFormatError(f"{args.command} input must be {article} {kind} signal, got kind={got}")
    return signal


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
    # main names a result beyond the float64 range by this label, not "conv"
    args.label = f"{mode} convolution"
    result = conv._convolve(f, g)
    _write_text((signal_text(result, args.format),), args.out)
    return 0


def _cmd_dft(args) -> int:
    f = _single_input(args, "periodic-discrete")
    _write_text((signal_text(four.dft(f), args.format),), args.out)
    return 0


def _cmd_idft(args) -> int:
    f = _single_input(args, "periodic-discrete")
    _write_text((signal_text(four.idft(f), args.format),), args.out)
    return 0


def _cmd_series(args) -> int:
    f = _single_input(args, "periodic-analog")
    length, harmonics = f.samples.size, 2 * args.nmax + 1
    _check_budget(
        "series", f"L={length} samples x {harmonics} harmonics",
        ("L*(2*nmax+1)", length * harmonics, _MAX_TERMS),
    )
    spectrum = four.fourier_coefficients(f, args.nmax)
    _write_text((series_table_text(spectrum, args.format),), args.out)
    return 0


def _cmd_ft(args) -> int:
    f = _single_input(args, "analog")
    if args.omega_max < args.omega_min:
        raise SignalFormatError("--omega-max must be >= --omega-min")
    # omega = min + k step for every k with omega <= max; a span within 1e-9
    # of a whole number of steps keeps its last frequency, and a span beyond
    # the float64 range in steps counts inf frequencies; a count from 2^53 on,
    # where float64 no longer holds every whole number, is shown to 6 digits
    # (M=2e+300), not as the hundreds of digits of math.floor
    span = (args.omega_max - args.omega_min) / args.omega_step + 1e-9
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    shown = count if count < 2**53 else f"{count:g}"
    length = f.samples.size
    _check_budget(
        "ft", f"M={shown} frequencies x L={length} samples",
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
    spectrum = four.fourier_transform(f, omegas)
    _write_text((transform_table_text(spectrum, args.format),), args.out)
    return 0


def _cmd_verify(args) -> int:
    grid = GridParams(n=args.n, ts=args.ts, n_max=args.nmax)
    _check_budget(
        "verify", f"n={grid.n}, nmax={grid.n_max}",
        ("n", grid.n, _VERIFY_MAX_N),
        ("n*(2*nmax+1)", grid.n * (2 * grid.n_max + 1), _VERIFY_MAX_WORK),
    )
    report = run_all(grid=grid, seed=args.seed)
    _write_text((json.dumps(report.to_dict(), indent=2) + "\n",), args.out)
    if args.out != "-":
        for c in report.checks:
            print(f"{'pass' if c.passed else 'FAIL'}  {c.id}", file=sys.stderr)
    if report.passed:
        return 0
    failing = ", ".join(c.id for c in report.checks if not c.passed)
    print(f"verification failed: {failing}", file=sys.stderr)
    return 1


def _plain(parse, bound):
    """An argparse type that reads a number as io reads a file cell and bounds
    it with ``bound``, a ``signals`` reader.  A text that is not plain
    (``io._is_plain``: no '_', only ASCII) is rejected before parse; the type
    keeps parse's name, so argparse reports "invalid int value: '4_2'".  The
    reader's ValueError is argparse's "argument --FLAG: ..." line."""

    def read(text):
        if not _is_plain(text):
            raise ValueError(text)
        value = parse(text)
        try:
            return bound(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    read.__name__ = parse.__name__
    return read


# one type per numeric flag, bounded by the reader that states its range
_SEED = _plain(int, lambda value: _index(value, "seed", minimum=0))
_N = _plain(int, lambda value: _index(value, "n", minimum=1))
_NMAX = _plain(int, lambda value: _index(value, "nmax", minimum=0))
_TS = _plain(float, _check_ts)
_WIDTH = _plain(float, lambda value: _finite_number(value, "width"))
_OMEGA = _plain(float, lambda value: _finite_number(value, "omega"))
_OMEGA_STEP = _plain(float, lambda value: _finite_number(value, "omega step", positive=True))


def _add_io_flags(p, with_gen: bool):
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    if with_gen:
        p.add_argument("--gen", choices=tuple(_GEN_FLAGS), help="use a built-in test signal as input")
        p.add_argument("--ts", type=_TS, help="grid spacing for --gen")
        p.add_argument("--n", type=_N, help="samples per period for --gen cos/square")
        p.add_argument("--width", type=_WIDTH, help="pulse width for --gen pulse (default 1)")


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise SignalFormatError, so that ``main``
    returns 2 with one ``error:`` line instead of argparse printing its usage
    and exiting; ``--help`` still prints and exits 0."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads only -1 and -1.5 as negative numbers
        # and takes -1e-3 or -inf for a flag; every float text is a value
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise SignalFormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convfourier",
        description="Convolution, Fourier series, DFT and Fourier transform on signal files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conv", help="convolve two signal files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--mode",
        choices=tuple(_TYPES),
        help="the kind both inputs must have, else exit 3; it selects nothing, "
        "as the inputs' kind sets the convolution",
    )
    _add_io_flags(p, with_gen=False)

    p = sub.add_parser("dft", help="discrete Fourier transform of a periodic-discrete file")
    p.add_argument("input")
    _add_io_flags(p, with_gen=False)

    p = sub.add_parser("idft", help="inverse DFT of a periodic-discrete spectrum file")
    p.add_argument("input")
    _add_io_flags(p, with_gen=False)

    p = sub.add_parser("series", help="Fourier series coefficients of a periodic-analog file")
    p.add_argument("input", nargs="?")
    p.add_argument("--nmax", type=_NMAX, required=True, help="largest harmonic |n| to compute")
    _add_io_flags(p, with_gen=True)

    p = sub.add_parser("ft", help="Fourier transform of a finite analog file")
    p.add_argument("input", nargs="?")
    p.add_argument("--omega-min", type=_OMEGA, required=True)
    p.add_argument("--omega-max", type=_OMEGA, required=True)
    p.add_argument("--omega-step", type=_OMEGA_STEP, required=True)
    _add_io_flags(p, with_gen=True)

    p = sub.add_parser("verify", help="run the full identity catalog and emit a JSON report")
    p.add_argument("--seed", type=_SEED, default=42)
    p.add_argument("--n", type=_N, default=GridParams.n, help="samples per period")
    p.add_argument("--ts", type=_TS, default=GridParams.ts, help="grid spacing (seconds)")
    p.add_argument(
        "--nmax", type=_NMAX, default=GridParams.n_max, help="harmonic window for random signals"
    )
    p.add_argument("--out", default="-", help="report path ('-' for stdout)")

    return parser


# Built once per process: argparse's formatters, sections and actions form
# reference cycles, so a parser built per call left about 350 objects to the
# cyclic collector.  It holds flags, type readers and help text, never a
# library result; main looks each command up by name at call time, so a
# patch of a _cmd_* function still reaches it.
_PARSER = build_parser()


# exception type -> exit code, read at the first type of the error's MRO that
# is a key; 1 is kept for a failed verification.  Every signal and spectrum
# type rejects a non-finite number with ValueError when it is built, so that
# error, and any other precondition ValueError of a computation, is a result
# beyond the float64 range; a grid, alias or file error keeps its own code.
_EXIT_CODES = {
    SignalFormatError: 2,
    GridMismatchError: 3,
    AliasingError: 4,
    OverflowError: 4,
    ValueError: 4,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # NumPy's overflow warnings are silenced: a non-finite result is the
        # ValueError of the type that holds it
        with np.errstate(over="ignore", invalid="ignore"):
            return globals()[f"_cmd_{args.command}"](args)
    except tuple(_EXIT_CODES) as exc:
        kind = next(t for t in type(exc).__mro__ if t in _EXIT_CODES)
        message = str(exc)
        if kind is ValueError:
            message = f"{getattr(args, 'label', args.command)} overflows float64: {message}"
        print(f"error: {message}", file=sys.stderr)
        return _EXIT_CODES[kind]


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
