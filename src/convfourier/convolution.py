"""Convolution variants and their exponential eigenfactors.

Four convolutions are provided: plain discrete, approximated analog
(discrete convolution of the sample sequences scaled by ts), and the
circular versions of both for periodic signals.  Convolving any of them
with an exponential signal multiplies the exponential by a constant
factor; the ``exp_factor_*`` functions compute that factor directly.

Linear convolutions are direct sums (``np.convolve``); circular ones go
through the FFT (``ifft(fft(a) * fft(b))``).  Outputs are deterministic
for identical inputs.  The ``exp_factor_*`` power and Riemann sums are
computed term by term and serve as the independent reference.
A periodic signal's factor is the sum over its stored period, so one
factor function serves each exponential family, periodic or not.
``fourier``, ``harness`` and ``cli`` import this module, never a name from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .signals import (
    DiscreteSignal,
    ExpKind,
    ExpParam,
    GridMismatchError,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    periodize,
)

__all__ = [
    "EigenFactor",
    "discrete_convolve",
    "approx_analog_convolve",
    "periodic_convolve_discrete",
    "periodic_convolve_analog",
    "mixed_convolve",
    "exp_factor_discrete",
    "exp_factor_analog",
    "shift",
    "scale_time",
    "derivative",
]


@dataclass(frozen=True)
class EigenFactor:
    """Constant factor picked up by an exponential under convolution."""

    param: ExpParam
    value: complex

    def __post_init__(self):
        value = complex(self.value)
        if not (np.isfinite(value.real) and np.isfinite(value.imag)):
            raise ValueError(
                "eigenfactor is not finite; the convolution is ill-defined for this parameter"
            )
        object.__setattr__(self, "value", value)


def _require_same_ts(f, g):
    if f.ts != g.ts:
        raise GridMismatchError(f"ts mismatch: {f.ts} != {g.ts}")


def _circular_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wrap-around convolution of two period-N sample arrays (convolution theorem)."""
    return np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))


def discrete_convolve(f: DiscreteSignal, g: DiscreteSignal) -> DiscreteSignal:
    """(f*g)(k) = sum_n f(n) g(k-n); exact finite sum over the supports."""
    start = f.start + g.start
    if len(f) == 0 or len(g) == 0:
        return DiscreteSignal(start=start, samples=np.empty(0, dtype=np.complex128))
    return DiscreteSignal(start=start, samples=np.convolve(f.samples, g.samples))


def approx_analog_convolve(f: SampledSignal, g: SampledSignal) -> SampledSignal:
    """Approximated analog convolution: ts times the discrete convolution.

    Both signals must share the same ts; there is no silent resampling.
    As ts shrinks this is the Riemann approximation of the convolution
    integral.
    """
    _require_same_ts(f, g)
    start = f.start + g.start
    if len(f) == 0 or len(g) == 0:
        return SampledSignal(ts=f.ts, start=start, samples=np.empty(0, dtype=np.complex128))
    return SampledSignal(ts=f.ts, start=start, samples=f.ts * np.convolve(f.samples, g.samples))


def periodic_convolve_discrete(
    f: PeriodicDiscreteSignal, g: PeriodicDiscreteSignal
) -> PeriodicDiscreteSignal:
    """Circular convolution over one period: sum_{n=0}^{N-1} f(n) g(k-n)."""
    if f.period != g.period:
        raise GridMismatchError(f"period mismatch: {f.period} != {g.period}")
    return PeriodicDiscreteSignal(samples=_circular_convolve(f.samples, g.samples))


def periodic_convolve_analog(
    f: PeriodicSampledSignal, g: PeriodicSampledSignal
) -> PeriodicSampledSignal:
    """Circular approximated analog convolution: ts times the wrap-around sum."""
    _require_same_ts(f, g)
    if f.period_samples != g.period_samples:
        raise GridMismatchError(
            f"period mismatch: {f.period_samples} != {g.period_samples} samples"
        )
    return PeriodicSampledSignal(ts=f.ts, samples=f.ts * _circular_convolve(f.samples, g.samples))


def mixed_convolve(h, f):
    """Convolve a finite-support signal with a periodic one.

    The result is periodic with f's period: h's support is folded onto the
    period, so output k is sum_m h(m) f(k-m) with f evaluated periodically
    (scaled by ts in the analog case).
    """
    if isinstance(h, SampledSignal) and isinstance(f, PeriodicSampledSignal):
        return periodic_convolve_analog(periodize(h, f.period_samples), f)
    if isinstance(h, DiscreteSignal) and isinstance(f, PeriodicDiscreteSignal):
        return periodic_convolve_discrete(periodize(h, f.period), f)
    raise TypeError(
        f"mixed_convolve needs (SampledSignal, PeriodicSampledSignal) or "
        f"(DiscreteSignal, PeriodicDiscreteSignal), got "
        f"({type(h).__name__}, {type(f).__name__})"
    )


def _require_kind(p: ExpParam, kind: ExpKind):
    if p.kind is not kind:
        raise ValueError(f"expected a {kind.value} parameter, got {p.kind.value}")


def _power_sum(samples: np.ndarray, indices: np.ndarray, a: complex) -> complex:
    """sum_n samples[n] * a^(-indices[n]) with a fixed summation order."""
    if samples.size == 0:
        return 0j
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        # non-finite results are caught by the EigenFactor finiteness check
        return complex(np.add.reduce(samples * np.power(a, -indices.astype(np.float64))))


def _riemann_sum(samples: np.ndarray, times: np.ndarray, ts: float, a: complex) -> complex:
    """ts * sum_k samples[k] * e^(-a t_k); accepts a = 0 (unit weight)."""
    if samples.size == 0:
        return 0j
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return complex(ts * np.add.reduce(samples * np.exp(-a * times)))


def exp_factor_discrete(f: DiscreteSignal | PeriodicDiscreteSignal, p: ExpParam) -> EigenFactor:
    """Factor F(a) = sum_n f(n) a^(-n) over f's support (n = 0..N-1 if periodic).

    Convolving f with g(k) = a^k yields F(a) * g; a non-finite sum is
    rejected because the convolution is then ill-defined.
    """
    _require_kind(p, ExpKind.DISCRETE_BASE)
    indices = getattr(f, "start", 0) + np.arange(f.samples.size)
    return EigenFactor(param=p, value=_power_sum(f.samples, indices, p.a))


def exp_factor_analog(f: SampledSignal | PeriodicSampledSignal, p: ExpParam) -> EigenFactor:
    """Riemann factor F(a) = ts * sum_k f(k ts) e^(-a k ts) over f's support,
    the stored window [0, T) for a periodic signal."""
    _require_kind(p, ExpKind.ANALOG_EXPONENT)
    return EigenFactor(param=p, value=_riemann_sum(f.samples, f.times(), f.ts, p.a))


def _on_grid_lag(t0: float, ts: float) -> int:
    lag = round(t0 / ts)
    if not np.isclose(lag * ts, t0, rtol=1e-12, atol=1e-15 * ts):
        raise GridMismatchError(
            f"shift {t0} is not an integer multiple of ts={ts}; resampling is not performed"
        )
    return lag


def _int_lag(a) -> int:
    if isinstance(a, float):
        if not a.is_integer():
            raise ValueError(f"discrete shift must be an integer lag, got {a}")
        a = int(a)
    return int(a)


def shift(f, a):
    """Shifted signal [f]_a(t) = f(t - a).

    Discrete signals take an integer lag; sampled signals take a time shift
    in seconds that must land on the grid.  Aperiodic signals move their
    start index, periodic ones rotate their sample window.
    """
    if isinstance(f, DiscreteSignal):
        return DiscreteSignal(start=f.start + _int_lag(a), samples=f.samples)
    if isinstance(f, PeriodicDiscreteSignal):
        return PeriodicDiscreteSignal(samples=np.roll(f.samples, _int_lag(a)))
    if isinstance(f, SampledSignal):
        return SampledSignal(ts=f.ts, start=f.start + _on_grid_lag(float(a), f.ts), samples=f.samples)
    if isinstance(f, PeriodicSampledSignal):
        return PeriodicSampledSignal(ts=f.ts, samples=np.roll(f.samples, _on_grid_lag(float(a), f.ts)))
    raise TypeError(f"cannot shift {type(f).__name__}")


def scale_time(f: SampledSignal, a) -> SampledSignal:
    """Time-scaled signal t -> f(a t) for a nonzero rational a = p/q.

    Only exact re-indexings are performed: the result lives on the grid
    ts' = q * ts, where sample k picks f's stored sample at index p*k.
    Integer a keeps ts and decimates; a = 1/m re-grids every sample onto
    spacing m*ts; no interpolation ever happens.  Non-rational (or
    non-integral float) factors are rejected.
    """
    if isinstance(a, float):
        if not a.is_integer():
            raise ValueError(
                f"scale factor {a} is not grid-exact; pass an int or Fraction"
            )
        a = int(a)
    a = Fraction(a)
    if a == 0:
        raise ValueError("scale factor must be nonzero")
    p, q = a.numerator, a.denominator
    new_ts = q * f.ts
    if len(f) == 0:
        return SampledSignal(ts=new_ts, start=0, samples=f.samples)
    # output index k is valid when p*k falls inside [start, end)
    lo, hi = f.start, f.end - 1
    if p < 0:
        lo, hi = hi, lo
    k_min = -(-lo // p)  # ceil(lo / p)
    k_max = hi // p
    k = np.arange(k_min, k_max + 1)
    return SampledSignal(ts=new_ts, start=int(k_min), samples=f.samples[k * p - f.start])


def derivative(f: SampledSignal) -> SampledSignal:
    """Central finite difference (f(t+ts) - f(t-ts)) / (2 ts) on interior points.

    The support shrinks by one sample at each end; needs at least 3 samples.
    """
    if len(f) < 3:
        raise ValueError(f"derivative needs at least 3 samples, got {len(f)}")
    diff = (f.samples[2:] - f.samples[:-2]) / (2.0 * f.ts)
    return SampledSignal(ts=f.ts, start=f.start + 1, samples=diff)
