"""Signal containers and exponential evaluation.

All signals are immutable containers of double-precision complex samples on
an integer index grid.  Aperiodic signals have finite support and are zero
everywhere else; periodic signals store exactly one period and wrap by
Euclidean modulo.  Analog signals are represented by their samples on a
uniform time grid with spacing ``ts`` (seconds), so the value of sample
``i`` lives at ``t = (start + i) * ts``.

``_as_complex_array`` reads every stored complex array, here and in the
spectra of ``fourier``, and ``_finite_number`` every stored scalar such as
``ts``: a non-finite number, a str or a bool is a ValueError, never parsed
or read as 0 or 1.  ``_of_kind`` reads every signal or spectrum operand of a
public call: a value of another kind is a TypeError naming the call.

An exponential signal is its complex parameter ``a`` and its family: e^(a t)
for ``convolution.exp_factor_analog``, a^k for
``convolution.exp_factor_discrete``.
``_exp_param`` is the one check of a parameter: a str, a bool, a non-finite
value or the discrete base 0 is a ValueError; the analog a = 0 is 1.  Callers
evaluate every exponential signal through this module, by ``_analog_exp``,
``_discrete_exp`` or ``_unit_roots``; a non-finite scalar is an OverflowError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridMismatchError",
    "AliasingError",
    "DiscreteSignal",
    "PeriodicDiscreteSignal",
    "SampledSignal",
    "PeriodicSampledSignal",
    "delta_signal",
    "delta_approx",
    "periodize",
]


# the one statement of 2 pi; every fundamental omega0 = 2 pi / T is read from
# a periodic signal or its spectrum
_TWO_PI = 2.0 * math.pi


class GridMismatchError(ValueError):
    """Two signals live on incompatible grids (ts, period or start)."""


class AliasingError(ValueError):
    """A harmonic/frequency request exceeds what the grid can represent."""


def _as_complex_array(values, *, what: str = "samples", minimum: int = 0) -> np.ndarray:
    # the one reader of every stored complex array, of at least ``minimum``
    # entries: one copy, so a later write to the caller's array cannot reach
    # the value that stores it
    arr = np.array(_numbers(values, what), dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size < minimum:
        raise ValueError(f"{what} must have size >= {minimum}, got size {arr.size}")
    # a complex value is finite only when both parts are
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contain non-finite values")
    arr.setflags(write=False)
    return arr


def _numbers(values, what: str) -> np.ndarray:
    # a str or bool array is a ValueError, never parsed or read as 0 and 1
    arr = np.asarray(values)
    if arr.dtype.kind in "USb":
        raise ValueError(f"{what} must be numbers, got a {arr.dtype} array")
    return arr


def _index(value, name: str, minimum: int | None = None) -> int:
    """An integer index as an int, never below ``minimum`` when one is given;
    a bool, a float, any other value or one below the bound is a ValueError,
    never truncated (int(1.7) would read index 1).  Every period, count,
    harmonic window and seed is read, and its bound checked, here."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _finite_number(value, name: str, kind=float, *, positive: bool = False):
    """value as a finite float (or complex, for kind=complex), > 0 if positive;
    a str, a bool or a non-finite value is a ValueError, never parsed or read as 0 or 1."""
    if isinstance(value, (str, bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = kind(value)
    if not (cmath.isfinite(value) and (not positive or value > 0)):
        raise ValueError(f"{name} must be finite{' and > 0' if positive else ''}, got {value}")
    return value


def _of_kind(what: str, kinds, *values):
    """The first of values, each an instance of kinds (a class or a tuple of classes)."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    for value in values:
        if not isinstance(value, kinds):
            names = " or ".join(kind.__name__ for kind in kinds)
            raise TypeError(f"{what} needs a {names}, got {type(value).__name__}")
    return values[0]


def _exp_param(a, *, discrete: bool) -> complex:
    """The parameter of e^(a t), or of a^k when discrete, as a complex."""
    a = _finite_number(a, "exponential parameter", complex)
    if discrete and a == 0:
        raise ValueError("discrete base must be nonzero")
    return a


def _check_ts(ts) -> float:
    return _finite_number(ts, "ts", positive=True)


def _integral(value, name: str) -> int:
    """An integer, or a float holding an integral value, as an int; a str, a
    bool, a complex or a fractional or non-finite float is a ValueError.
    Every discrete lag and integer scale factor is read here."""
    if isinstance(value, (str, bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, (float, np.floating)):
        return _index(value, name)
    # inf and nan are not integral
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _grid_steps(length, step, name: str, error=ValueError, minimum: int | None = None) -> int:
    """length as a whole number of steps, never below ``minimum``; a count
    beyond float64, 1e-12 (relative) off the grid or below the bound is an
    ``error`` naming the argument, never rounded.  Every grid length is read here."""
    ratio = length / step
    if not math.isfinite(ratio):
        raise error(f"{name} {length} is beyond the float64 range in steps of {step}")
    steps = round(ratio)
    if abs(steps * step - length) > 1e-12 * abs(length) + 1e-15 * step:
        raise error(f"{name} {length} is not a whole number of steps of {step}")
    if minimum is not None and steps < minimum:
        raise error(f"{name} must be >= {minimum} steps of {step}, got {length}")
    return steps


def _float_indices(start: int, count: int) -> np.ndarray:
    """start + k as float64 for k < count; every index is made a float here.
    float64 holds every integer only up to 2^53, so |start| + count > 2^53 is
    an OverflowError, never indices rounded onto one another."""
    if abs(start) + count > 2**53:
        raise OverflowError(
            f"{count} samples from index {start} reach past 2^53, where float64 skips integers"
        )
    return start + np.arange(count, dtype=np.float64)


class _Finite:
    """The accessors of a finite-support signal, sample ``i`` at index
    ``start + i`` and zero elsewhere; the subclass holds the fields."""

    def __len__(self) -> int:
        return self.samples.size

    @property
    def end(self) -> int:
        """One past the last stored index."""
        return self.start + self.samples.size

    def value(self, k: int) -> complex:
        i = _index(k, "k") - self.start
        if 0 <= i < self.samples.size:
            return complex(self.samples[i])
        return 0j


class _Periodic:
    """The accessor of a periodic signal that stores one period."""

    def value(self, k: int) -> complex:
        return complex(self.samples[_index(k, "k") % self.samples.size])


@dataclass(frozen=True, eq=False)
class DiscreteSignal(_Finite):
    """Finite-support complex sequence; sample ``i`` sits at index ``start + i``.

    Evaluation outside the stored support returns exactly zero.
    """

    start: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "start", _index(self.start, "start"))
        object.__setattr__(self, "samples", _as_complex_array(self.samples))


@dataclass(frozen=True, eq=False)
class PeriodicDiscreteSignal(_Periodic):
    """Period-N complex sequence storing the window k = 0 .. N-1."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_complex_array(self.samples, minimum=1))

    @property
    def period(self) -> int:
        return self.samples.size

    @property
    def values(self) -> np.ndarray:
        """``samples``, kept only for perfbench's ``TERMS["fourier.idft"]`` read of
        ``idft``'s argument until ROADMAP item 1a; no library code reads it."""
        return self.samples


@dataclass(frozen=True, eq=False)
class SampledSignal(_Finite):
    """Finite-support samples of an analog signal on a uniform grid.

    Sample ``i`` holds f((start + i) * ts); the signal is zero off support.
    """

    ts: float
    start: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ts", _check_ts(self.ts))
        object.__setattr__(self, "start", _index(self.start, "start"))
        object.__setattr__(self, "samples", _as_complex_array(self.samples))

    def times(self) -> np.ndarray:
        """Time coordinate of every stored sample."""
        return _float_indices(self.start, self.samples.size) * self.ts


@dataclass(frozen=True, eq=False)
class PeriodicSampledSignal(_Periodic):
    """One period (N samples, period T = N*ts) of a sampled analog signal."""

    ts: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ts", _check_ts(self.ts))
        object.__setattr__(self, "samples", _as_complex_array(self.samples, minimum=1))

    @property
    def period_samples(self) -> int:
        return self.samples.size

    @property
    def period_t(self) -> float:
        """Period in seconds; always the pair N*ts, never stored separately."""
        return self.samples.size * self.ts

    @property
    def omega0(self) -> float:
        """The fundamental 2*pi / period_t (rad/s) of the harmonics e^(j n omega0 t)."""
        return _TWO_PI / self.period_t

    def times(self) -> np.ndarray:
        return _float_indices(0, self.samples.size) * self.ts


def _analog_exp(a, step):
    """k -> e^(a k step), as np.exp(a * k * step): a * (k * step) rounds differently."""
    return lambda k: np.exp(a * k * step)


def _discrete_exp(a):
    """k -> a^k for a complex base a, as one np.power."""
    return lambda k: np.power(a, k)


def _unit_roots(n, period: int):
    """k -> e^(j 2 pi n k / period), n an int or a (rows, 1) column; n k is reduced
    mod period (no int64 wrap) into a one-period table, as callers take a period."""
    table = np.exp(1j * _TWO_PI * np.arange(period) / period)
    return lambda k: table[((n % period) * k) % period]


def delta_signal() -> DiscreteSignal:
    """Identity of discrete convolution: 1 at k = 0, zero elsewhere."""
    return DiscreteSignal(start=0, samples=np.ones(1, dtype=np.complex128))


def delta_approx(ts: float) -> SampledSignal:
    """Sampled narrow-pulse identity of approximated analog convolution.

    A single sample of height 1/ts at t = 0; the sampled form of the unit-area
    pulse of width ts centred on the origin.
    """
    ts = _check_ts(ts)
    return SampledSignal(ts=ts, start=0, samples=np.asarray([1.0 / ts], dtype=np.complex128))


def periodize(f, period_samples: int):
    """Fold a finite-support signal onto one period, wrapping by index modulo.

    The result at index k is the sum of f over all indices congruent to k;
    when f's support fits in one period this is plain relocation, otherwise
    overlapping wraps add up (time-domain aliasing).
    """
    f = _of_kind("periodize", (DiscreteSignal, SampledSignal), f)
    n = _index(period_samples, "period", minimum=1)
    folded = np.zeros(n, dtype=np.complex128)
    idx = (f.start % n + np.arange(len(f))) % n
    np.add.at(folded, idx, f.samples)
    if isinstance(f, SampledSignal):
        return PeriodicSampledSignal(ts=f.ts, samples=folded)
    return PeriodicDiscreteSignal(samples=folded)
