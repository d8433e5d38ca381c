"""Convolution variants and their exponential eigenfactors.

Four convolutions are provided: plain discrete, approximated analog
(discrete convolution of the sample sequences scaled by ts), and the
circular versions of both for periodic signals.  Convolving any of them
with an exponential signal multiplies the exponential by a constant
factor; the ``exp_factor_*`` functions compute that factor directly.

Linear convolutions are direct sums (``np.convolve``, in ``_direct_sum``);
with ``valid=True`` they return only the complete overlaps, the outputs
where the shorter operand lies wholly inside the longer one, each the same
dot product as the full result's output at that index.  Circular ones go
through the FFT (``ifft(fft(a) * fft(b))``), with one ``fft`` call on the
stacked pair.  Outputs are deterministic
for identical inputs.  The ``exp_factor_*`` sums serve as the independent
reference.  A periodic signal's factor is the sum over its stored period,
so one factor function serves each exponential family, periodic or not.

``_riemann_sum`` is the one kernel behind every factor and every transform
in ``fourier``: ts * sum_k s_k e^(-a_m t_k) for a whole array of exponents
a_m in one call.  It assumes the times form an arithmetic progression
t_k = t_0 + k h and splits each exponential into a two-level table,
e^(-a t_(jb+i)) = e^(-a t_(jb)) e^(-a (t_i - t_0)) with b = ceil(sqrt(L)),
so M exponents over L samples take O(M sqrt(L)) exps, O(M L) multiply-adds
and O(L + block) memory.  A call whose largest |Re a| (b - 1) h would
exceed 700 takes a narrower table for every exponent, each contracted on
its own, never through BLAS: the Fourier transform at omega is the
eigenfactor at a = j omega bit for bit.  A discrete factor is the same sum
at unit step in the exponents Log a, since a^(-n) = e^(-n Log a) for every
integer n (``_power_sum``).
``fourier``, ``harness`` and ``cli`` import this module, never a name from it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .signals import (
    DiscreteSignal,
    GridMismatchError,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    _exp_param,
    _finite_number,
    _float_indices,
    _grid_steps,
    _integral,
    _of_kind,
    periodize,
)

__all__ = [
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


def _require_same_ts(f, g):
    if f.ts != g.ts:
        raise GridMismatchError(f"ts mismatch: {f.ts} != {g.ts}")


def _circular_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wrap-around convolution of two period-N sample arrays (convolution theorem).

    One ``fft`` call transforms the stacked pair; each row equals its own
    ``fft`` bit for bit.
    """
    fa, fb = np.fft.fft(np.array((a, b)))
    return np.fft.ifft(fa * fb)


def _direct_sum(f, g, valid: bool):
    """(start, samples) of the direct sum f * g: every output, or with valid
    only the complete overlaps, from f.start + g.start + min(len f, len g) - 1.
    An empty operand gives no output.

    NumPy 2.4.6's ``np.convolve`` copies a read-only operand before it sums,
    and every signal's samples are read-only, so the sum holds a second copy
    of both inputs: a 100,000 x 16 complex sum peaks at 3,126 KiB traced,
    against 1,563 KiB with writeable inputs.  A writeable alias of a value's
    samples would break its immutability, so the copy stays."""
    start = f.start + g.start
    if len(f) == 0 or len(g) == 0:
        return start, np.empty(0, dtype=np.complex128)
    if not valid:
        return start, np.convolve(f.samples, g.samples)
    return start + min(f.samples.size, g.samples.size) - 1, np.convolve(f.samples, g.samples, "valid")


def discrete_convolve(
    f: DiscreteSignal, g: DiscreteSignal, *, valid: bool = False
) -> DiscreteSignal:
    """(f*g)(k) = sum_n f(n) g(k-n); exact finite sum over the supports.

    With ``valid=True`` only the outputs where the shorter operand lies
    wholly inside the longer one, bit for bit those of the full result.
    """
    _of_kind("discrete_convolve", DiscreteSignal, f, g)
    start, samples = _direct_sum(f, g, valid)
    return DiscreteSignal(start=start, samples=samples)


def approx_analog_convolve(
    f: SampledSignal, g: SampledSignal, *, valid: bool = False
) -> SampledSignal:
    """Approximated analog convolution: ts times the discrete convolution.

    Both signals must share the same ts; there is no silent resampling.
    As ts shrinks this is the Riemann approximation of the convolution
    integral.  ``valid=True`` keeps only the complete overlaps, as in
    ``discrete_convolve``.
    """
    _of_kind("approx_analog_convolve", SampledSignal, f, g)
    _require_same_ts(f, g)
    start, samples = _direct_sum(f, g, valid)
    return SampledSignal(ts=f.ts, start=start, samples=f.ts * samples)


def periodic_convolve_discrete(
    f: PeriodicDiscreteSignal, g: PeriodicDiscreteSignal
) -> PeriodicDiscreteSignal:
    """Circular convolution over one period: sum_{n=0}^{N-1} f(n) g(k-n)."""
    _of_kind("periodic_convolve_discrete", PeriodicDiscreteSignal, f, g)
    if f.period != g.period:
        raise GridMismatchError(f"period mismatch: {f.period} != {g.period}")
    return PeriodicDiscreteSignal(samples=_circular_convolve(f.samples, g.samples))


def periodic_convolve_analog(
    f: PeriodicSampledSignal, g: PeriodicSampledSignal
) -> PeriodicSampledSignal:
    """Circular approximated analog convolution: ts times the wrap-around sum."""
    _of_kind("periodic_convolve_analog", PeriodicSampledSignal, f, g)
    _require_same_ts(f, g)
    if f.period_samples != g.period_samples:
        raise GridMismatchError(
            f"period mismatch: {f.period_samples} != {g.period_samples} samples"
        )
    return PeriodicSampledSignal(ts=f.ts, samples=f.ts * _circular_convolve(f.samples, g.samples))


def _convolve(f, g, *, valid: bool = False):
    """f * g by the convolution of the operands' kind, read from f's type; each
    variant is called by its module name, so a patch here reaches every caller.
    ``valid`` goes to a linear variant; every circular output is complete."""
    if isinstance(f, DiscreteSignal):
        return discrete_convolve(f, g, valid=valid)
    if isinstance(f, SampledSignal):
        return approx_analog_convolve(f, g, valid=valid)
    if isinstance(f, PeriodicDiscreteSignal):
        return periodic_convolve_discrete(f, g)
    return periodic_convolve_analog(f, g)


def mixed_convolve(h, f):
    """Convolve a finite-support signal with a periodic one.

    The result is periodic with f's period: h's support is folded onto the
    period, so output k is sum_m h(m) f(k-m) with f evaluated periodically
    (scaled by ts in the analog case).
    """
    h = _of_kind("mixed_convolve", (DiscreteSignal, SampledSignal), h)
    periodic = PeriodicSampledSignal if isinstance(h, SampledSignal) else PeriodicDiscreteSignal
    f = _of_kind("mixed_convolve", periodic, f)
    return _convolve(periodize(h, f.samples.size), f)


# Each row block of ``_riemann_sum`` holds at most this many entries per
# table, so a call's temporaries stay near three such tables (48 KiB) for any
# number of exponents; at 2^11 the ft.* checks raised verify's peak by 30 KiB.
_RIEMANN_BLOCK = 2**10
# The largest |Re a| * (t_i - t_0) of a fine-table entry: e^700 is finite in
# float64 (which overflows above e^709.78).
_EXP_REACH = 700.0


def _power_sum(samples: np.ndarray, indices: np.ndarray, a) -> np.ndarray:
    """sum_n samples[n] a_m^(-indices[n]) for each base a_m of the 1-d array a,
    the indices as floats (``signals._float_indices``): the Riemann sum at
    unit step in the exponents Log a.  perfbench/spans.py reads this name."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        # a non-finite factor is rejected by exp_factor_*'s finiteness check
        return _riemann_sum(samples, indices, 1.0, np.log(np.asarray(a, dtype=np.complex128)))


def _riemann_sum(samples: np.ndarray, times: np.ndarray, ts: float, a) -> np.ndarray:
    """ts * sum_k samples[k] e^(-a_m t_k) for each exponent a_m of the 1-d array a.

    ``times`` must be an arithmetic progression t_k = t_0 + k h.  With
    b = ceil(sqrt(L)) the samples are zero-padded into nb = ceil(L / b) rows
    of b, and term jb + i is weighted by coarse[j] * fine[i], where
    coarse[j] = e^(-a t_(jb)) and fine[i] = e^(-a (t_i - t_0)).  A call whose
    largest |Re a| (b - 1) |h| exceeds 700 takes the largest b that keeps
    every fine entry finite; b = 1 is the direct sum.  a = 0 is a unit
    weight.  Rows go in blocks of _RIEMANN_BLOCK table entries, each one
    _contract call, so a block's tables are freed before the next.
    """
    a = np.asarray(a, dtype=np.complex128)
    if samples.size == 0:
        return np.zeros(a.size, dtype=np.complex128)
    b = math.isqrt(samples.size - 1) + 1
    step = abs(float(times[1] - times[0])) if samples.size > 1 else 0.0
    out = np.empty(a.size, dtype=np.complex128)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        # a non-finite factor is rejected by exp_factor_*'s finiteness check
        reach = np.abs(a.real).max(initial=0.0) * step
        if not reach * (b - 1) <= _EXP_REACH:
            # a NaN reach gives b = 1
            b = int(np.fmax(1.0, 1.0 + np.floor(_EXP_REACH / reach)))
        count = -(-samples.size // b)
        blocks = np.zeros(count * b, dtype=np.complex128)
        blocks[: samples.size] = samples
        blocks = blocks.reshape(count, b)
        # complex here, so that einsum casts no copy of them per block
        offsets = (times[:b] - times[0]).astype(np.complex128)
        starts = times[::b].astype(np.complex128)
        rows = max(1, _RIEMANN_BLOCK // max(b, count))
        for lo in range(0, a.size, rows):
            out[lo : lo + rows] = _contract(blocks, offsets, starts, -a[lo : lo + rows])
        return ts * out


def _contract(blocks, offsets, starts, na) -> np.ndarray:
    """sum_j e^(na starts[j]) sum_i blocks[j, i] e^(na offsets[i]) for each na.

    Every product goes through einsum, which builds the tables without the
    broadcast buffers of a ufunc and contracts each row on its own.  A plain
    einsum also stays out of BLAS: after one complex BLAS call (`@`, `dot`,
    einsum with optimize=...), every later complex np.exp in the process,
    the cost that bounds this function, runs 12-19x slower with NumPy 2.4's
    OpenBLAS.  tests/test_structure.py keeps BLAS calls out of the package.
    """
    fine = np.einsum("m,i->mi", na, offsets)
    coarse = np.einsum("m,j->mj", na, starts)
    np.exp(fine, out=fine)
    np.exp(coarse, out=coarse)
    return np.einsum("mj,mj->m", coarse, np.einsum("ji,mi->mj", blocks, fine))


def _finite(factor) -> complex:
    """The eigenfactor as a complex; a non-finite one is a ValueError."""
    factor = complex(factor)
    if not (math.isfinite(factor.real) and math.isfinite(factor.imag)):
        raise ValueError(
            "eigenfactor is not finite; the convolution is ill-defined for this parameter"
        )
    return factor


def exp_factor_discrete(f: DiscreteSignal | PeriodicDiscreteSignal, a) -> complex:
    """Factor F(a) = sum_n f(n) a^(-n) over f's support (n = 0..N-1 if periodic).

    Convolving f with g(k) = a^k yields F(a) * g; a non-finite sum is
    rejected because the convolution is then ill-defined.
    """
    f = _of_kind("exp_factor_discrete", (DiscreteSignal, PeriodicDiscreteSignal), f)
    a = _exp_param(a, discrete=True)
    indices = _float_indices(getattr(f, "start", 0), f.samples.size)
    return _finite(_power_sum(f.samples, indices, np.array([a]))[0])


def exp_factor_analog(f: SampledSignal | PeriodicSampledSignal, a) -> complex:
    """Riemann factor F(a) = ts * sum_k f(k ts) e^(-a k ts) over f's support,
    the stored window [0, T) for a periodic signal; a non-finite sum is rejected.
    F(0) is the Riemann sum of f itself, the factor of the DC harmonic."""
    f = _of_kind("exp_factor_analog", (SampledSignal, PeriodicSampledSignal), f)
    a = _exp_param(a, discrete=False)
    return _finite(_riemann_sum(f.samples, f.times(), f.ts, np.array([a]))[0])


def shift(f, a):
    """Shifted signal [f]_a(t) = f(t - a).

    Discrete signals take an integer lag; sampled signals take a time shift
    in seconds that must be a whole number of steps of ts.  Aperiodic
    signals move their start index, periodic ones rotate their sample window.
    """
    f = _of_kind("shift", (DiscreteSignal, SampledSignal, PeriodicDiscreteSignal, PeriodicSampledSignal), f)
    if isinstance(f, (DiscreteSignal, PeriodicDiscreteSignal)):
        lag = _integral(a, "discrete shift")
    else:
        lag = _grid_steps(_finite_number(a, "time shift"), f.ts, "time shift", GridMismatchError)
    if isinstance(f, (DiscreteSignal, SampledSignal)):
        return replace(f, start=f.start + lag)
    return replace(f, samples=np.roll(f.samples, lag))


def scale_time(f: SampledSignal, a) -> SampledSignal:
    """Time-scaled signal t -> f(a t) for a nonzero rational a = p/q.

    Only exact re-indexings are performed: the result lives on the grid
    ts' = q * ts, where sample k picks f's stored sample at index p*k.
    Integer a keeps ts and decimates; a = 1/m re-grids every sample onto
    spacing m*ts; no interpolation ever happens.  Any factor other than a
    Fraction is read by ``_integral``: a fractional float is rejected, and
    so are a str and a bool.
    """
    f = _of_kind("scale_time", SampledSignal, f)
    a = a if isinstance(a, Fraction) else Fraction(_integral(a, "scale factor"))
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
    count = max(0, hi // p - k_min + 1)
    # a slice from the first picked sample, not an index array: a start or a
    # factor beyond int64 never reaches NumPy's index arithmetic
    samples = f.samples[k_min * p - f.start :: p][:count]
    return SampledSignal(ts=new_ts, start=k_min, samples=samples)


def derivative(f: SampledSignal) -> SampledSignal:
    """Central finite difference (f(t+ts) - f(t-ts)) / (2 ts) on interior points.

    The support shrinks by one sample at each end; needs at least 3 samples.
    """
    if len(_of_kind("derivative", SampledSignal, f)) < 3:
        raise ValueError(f"derivative needs at least 3 samples, got {len(f)}")
    diff = (f.samples[2:] - f.samples[:-2]) / (2.0 * f.ts)
    return SampledSignal(ts=f.ts, start=f.start + 1, samples=diff)
