"""Signal containers and exponential evaluation.

All signals are immutable containers of double-precision complex samples on
an integer index grid.  Aperiodic signals have finite support and are zero
everywhere else; periodic signals store exactly one period and wrap by
Euclidean modulo.  Analog signals are represented by their samples on a
uniform time grid with spacing ``ts`` (seconds), so the value of sample
``i`` lives at ``t = (start + i) * ts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "GridMismatchError",
    "AliasingError",
    "ExpKind",
    "ExpParam",
    "analog_exponent",
    "discrete_base",
    "DiscreteSignal",
    "PeriodicDiscreteSignal",
    "SampledSignal",
    "PeriodicSampledSignal",
    "eval_analog_exponential",
    "eval_discrete_exponential",
    "sample_function",
    "delta_signal",
    "delta_approx",
    "periodic_delta",
    "periodize",
]


class GridMismatchError(ValueError):
    """Two signals live on incompatible grids (ts, period or start)."""


class AliasingError(ValueError):
    """A harmonic/frequency request exceeds what the grid can represent."""


def _as_complex_array(values, *, what: str = "samples") -> np.ndarray:
    # one copy, so a later write to the caller's array cannot reach the
    # signal; a complex value is finite only when both parts are
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contain non-finite values")
    arr.setflags(write=False)
    return arr


def _index(value, name: str) -> int:
    """An integer index as an int; a bool, a float or any other value is a
    ValueError, never truncated (int(1.7) would read index 1)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_ts(ts: float) -> float:
    ts = float(ts)
    if not math.isfinite(ts) or ts <= 0.0:
        raise ValueError(f"ts must be finite and > 0, got {ts}")
    return ts


class ExpKind(Enum):
    """Flavour of exponential signal a parameter belongs to."""

    ANALOG_EXPONENT = "analog-exponent"   # g(t) = e^(a t)
    DISCRETE_BASE = "discrete-base"       # g(k) = a^k


@dataclass(frozen=True)
class ExpParam:
    """Nonzero complex parameter of an exponential signal."""

    kind: ExpKind
    a: complex

    def __post_init__(self):
        a = complex(self.a)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("exponential parameter must be finite")
        if a == 0:
            raise ValueError("exponential parameter must be nonzero")
        object.__setattr__(self, "a", a)


def analog_exponent(a) -> ExpParam:
    """Parameter for the analog exponential g(t) = e^(a t)."""
    return ExpParam(ExpKind.ANALOG_EXPONENT, a)


def discrete_base(a) -> ExpParam:
    """Parameter for the discrete exponential g(k) = a^k."""
    return ExpParam(ExpKind.DISCRETE_BASE, a)


@dataclass(frozen=True, eq=False)
class DiscreteSignal:
    """Finite-support complex sequence; sample ``i`` sits at index ``start + i``.

    Evaluation outside the stored support returns exactly zero.
    """

    start: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "samples", _as_complex_array(self.samples))

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


@dataclass(frozen=True, eq=False)
class PeriodicDiscreteSignal:
    """Period-N complex sequence storing the window k = 0 .. N-1."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_complex_array(self.samples)
        if arr.size < 1:
            raise ValueError("periodic signal needs at least one sample")
        object.__setattr__(self, "samples", arr)

    @property
    def period(self) -> int:
        return self.samples.size

    def value(self, k: int) -> complex:
        return complex(self.samples[_index(k, "k") % self.period])


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Finite-support samples of an analog signal on a uniform grid.

    Sample ``i`` holds f((start + i) * ts); the signal is zero off support.
    """

    ts: float
    start: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ts", _check_ts(self.ts))
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "samples", _as_complex_array(self.samples))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def end(self) -> int:
        return self.start + self.samples.size

    def times(self) -> np.ndarray:
        """Time coordinate of every stored sample."""
        return (self.start + np.arange(self.samples.size)) * self.ts

    def value(self, k: int) -> complex:
        i = _index(k, "k") - self.start
        if 0 <= i < self.samples.size:
            return complex(self.samples[i])
        return 0j


@dataclass(frozen=True, eq=False)
class PeriodicSampledSignal:
    """One period (N samples, period T = N*ts) of a sampled analog signal."""

    ts: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ts", _check_ts(self.ts))
        arr = _as_complex_array(self.samples)
        if arr.size < 1:
            raise ValueError("periodic signal needs at least one sample")
        object.__setattr__(self, "samples", arr)

    @property
    def period_samples(self) -> int:
        return self.samples.size

    @property
    def period_t(self) -> float:
        """Period in seconds; always the pair N*ts, never stored separately."""
        return self.samples.size * self.ts

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.ts

    def value(self, k: int) -> complex:
        return complex(self.samples[_index(k, "k") % self.samples.size])


def eval_analog_exponential(p: ExpParam, t: float) -> complex:
    """Value of e^(a t), split into exp(Re a * t) * (cos + j sin)(Im a * t)."""
    if p.kind is not ExpKind.ANALOG_EXPONENT:
        raise ValueError(f"expected an analog-exponent parameter, got {p.kind.value}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    mag = math.exp(p.a.real * t)
    ang = p.a.imag * t
    return complex(mag * math.cos(ang), mag * math.sin(ang))


def eval_discrete_exponential(p: ExpParam, k: int) -> complex:
    """Value of a^k for integer k; negative k uses 1 / a^(-k)."""
    if p.kind is not ExpKind.DISCRETE_BASE:
        raise ValueError(f"expected a discrete-base parameter, got {p.kind.value}")
    k = _index(k, "k")
    if k >= 0:
        return p.a ** k
    return 1.0 / (p.a ** (-k))


def sample_function(
    f: Callable[[float], complex], ts: float, start: int, count: int
) -> SampledSignal:
    """Sample an analog signal on the grid t = (start + i) * ts, i < count."""
    ts = _check_ts(ts)
    start = int(start)
    count = int(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    values = np.asarray(
        [complex(f((start + i) * ts)) for i in range(count)], dtype=np.complex128
    )
    return SampledSignal(ts=ts, start=start, samples=values)


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


def periodic_delta(n: int) -> PeriodicDiscreteSignal:
    """Identity of period-n circular convolution: 1 at k = 0 within the period."""
    n = int(n)
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    samples = np.zeros(n, dtype=np.complex128)
    samples[0] = 1.0
    return PeriodicDiscreteSignal(samples=samples)


def periodize(f, period_samples: int):
    """Fold a finite-support signal onto one period, wrapping by index modulo.

    The result at index k is the sum of f over all indices congruent to k;
    when f's support fits in one period this is plain relocation, otherwise
    overlapping wraps add up (time-domain aliasing).
    """
    n = int(period_samples)
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    folded = np.zeros(n, dtype=np.complex128)
    idx = (f.start + np.arange(len(f))) % n
    np.add.at(folded, idx, f.samples)
    if isinstance(f, SampledSignal):
        return PeriodicSampledSignal(ts=f.ts, samples=folded)
    if isinstance(f, DiscreteSignal):
        return PeriodicDiscreteSignal(samples=folded)
    raise TypeError(f"cannot periodize {type(f).__name__}")
