"""Fourier series, DFT and Fourier transform built on convolution eigenfactors.

Each transform is the eigenfactor of convolution with the matching
exponential family: Fourier series coefficients come from the one-period
Riemann factor at a = j n omega0 (divided by T), the DFT is the exact
N-term factor at the N-th roots of unity, and the Fourier transform is the
Riemann factor at a = j omega on a uniform frequency grid.  ``dft`` and
``idft`` run on ``np.fft``; the direct N-term power sum
``convolution.exp_factor_discrete`` is the independent reference they are
checked against.

Every other transform here is one call of the batched Riemann sum
``convolution._riemann_sum``, with one exponent per output point: a = j omega
per frequency for the coefficients and the Fourier transform, a = -j t per
output time for the series synthesis and the inverse transform, whose
"times" are the frequencies.  Its two-level exponential table takes
O(M sqrt(L)) exps, O(M L) multiply-adds and O(L + block) memory for M outputs
of an L-term sum, and no M x L kernel matrix is built.  It needs the times,
or the frequencies, to be an arithmetic progression, and each output is
computed on its own, so ``fourier_transform(f, ws).values[i]`` is the
eigenfactor ``exp_factor_analog(f, 1j * ws[i])`` bit for bit; a single
eigenfactor goes through ``exp_factor_analog``, never a one-exponent
``_riemann_sum``.  The library's one alias-window test (2|n| < N) is
``_check_alias_window``, its one max-norm comparison is ``_compare``, and
its one eigenrelation f * e = factor * e, for all four convolutions, is
``_eigenrelation``.  Its circular branch also takes a row stack of discrete
periods, one circular convolution for the whole stack, so the harness checks
blocks of harmonic pairs x_m (*) x_n in one call each.  A harmonic index is
an integer, never truncated: 1.7 is rejected, not read as harmonic 1.

The three spectrum types hold numbers by the rule of ``signals``, and a
spectrum's omegas are checked before its values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import convolution as conv
from . import signals as sig
from .signals import (
    AliasingError,
    GridMismatchError,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    _as_complex_array,
    _check_ts,
    _finite_number,
    _grid_steps,
    _index,
    _numbers,
)

__all__ = [
    "SeriesSpectrum",
    "DftSpectrum",
    "TransformSpectrum",
    "ResidualReport",
    "harmonic_signal",
    "sampled_harmonic",
    "fourier_coefficients",
    "series_synthesize",
    "fs_eigencheck",
    "dft",
    "idft",
    "fourier_transform",
    "inverse_fourier_transform",
    "periodize_spectrum",
]

@dataclass(frozen=True, eq=False)
class SeriesSpectrum:
    """Fourier series coefficients C_n on the window |n| <= n_max.

    ``coeffs[n_max + n]`` holds C_n.  The factor picked up by the harmonic
    e^(j n w0 t) under one-period convolution is T * C_n.
    """

    period_t: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        period_t = _finite_number(self.period_t, "period", positive=True)
        coeffs = _as_complex_array(self.coeffs, what="coefficients")
        if coeffs.size % 2 != 1:
            raise ValueError("coefficients must cover a symmetric window -n_max..n_max")
        object.__setattr__(self, "period_t", period_t)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def omega0(self) -> float:
        """The fundamental 2*pi / period_t (rad/s); never stored separately."""
        return sig._TWO_PI / self.period_t

    @property
    def n_max(self) -> int:
        return (self.coeffs.size - 1) // 2

    def harmonics(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    def coefficient(self, n: int) -> complex:
        n = _index(n, "n")
        if abs(n) > self.n_max:
            return 0j
        return complex(self.coeffs[self.n_max + n])


@dataclass(frozen=True, eq=False)
class DftSpectrum:
    """DFT values F(n), n = 0..N-1, with implied period-N extension."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_array(self.values, what="values", minimum=1))

    @property
    def period(self) -> int:
        return self.values.size

    def value(self, n: int) -> complex:
        return complex(self.values[_index(n, "n") % self.period])


@dataclass(frozen=True, eq=False)
class TransformSpectrum:
    """Fourier transform samples F(omega) on a uniform frequency grid."""

    omegas: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        # omegas before values: a frequency grid beyond the float64 range is
        # reported as such, not as the non-finite values it produces
        omegas = _real_grid(self.omegas).copy()
        if omegas.ndim != 1 or np.shape(self.values) != omegas.shape:
            raise ValueError("omegas and values must be matching 1-d arrays")
        if omegas.size == 0:
            raise ValueError("spectrum needs at least one frequency")
        _check_uniform_grid(omegas)
        values = _as_complex_array(self.values, what="values")
        omegas.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)

    @property
    def delta_omega(self) -> float:
        if self.omegas.size < 2:
            raise ValueError("grid spacing undefined for a single-frequency spectrum")
        return float(self.omegas[1] - self.omegas[0])

    def value(self, omega: float) -> complex:
        """Value at the stored frequency within rtol 1e-9, atol 1e-12 of omega: a lookup,
        not a grid read, so offset grids and frequencies typed to 12 digits are found."""
        omega = _finite_number(omega, "omega")
        i = int(np.argmin(np.abs(self.omegas - omega)))
        if not np.isclose(self.omegas[i], omega, rtol=1e-9, atol=1e-12):
            raise KeyError(f"omega={omega} is not on the stored grid")
        return complex(self.values[i])


def _real_grid(omegas) -> np.ndarray:
    # a complex grid is a ValueError, never cast to its real part
    omegas = _numbers(omegas, "omegas")
    if omegas.dtype.kind == "c":
        raise ValueError(f"omegas must be real, got a {omegas.dtype} array")
    return np.asarray(omegas, dtype=np.float64)


def _check_uniform_grid(omegas: np.ndarray):
    """Reject a frequency grid that is not finite, strictly increasing and uniform."""
    if not np.isfinite(omegas).all():
        raise ValueError("omegas must be finite")
    if omegas.size > 1:
        steps = np.diff(omegas)
        if np.any(steps <= 0):
            raise ValueError("omegas must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise ValueError("omegas must be uniformly spaced")


class ResidualReport(NamedTuple):
    """Max-norm deviation max |lhs - rhs| between the two sides of an identity,
    and the scale max |rhs| a tolerance is relative to; unpacks as a pair."""

    residual: float
    scale: float


def _compare(lhs, rhs) -> ResidualReport:
    """Max-norm residual of two arrays or scalars, scaled by the right side;
    an empty side counts as 0, and a NaN is kept."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    return ResidualReport(
        residual=float(np.abs(lhs - rhs).max()) if lhs.size else 0.0,
        scale=float(np.abs(rhs).max()) if rhs.size else 0.0,
    )


def _eigenrelation(f, expo, factor, ks=None) -> ResidualReport:
    """Residual of f * e = factor * e, e(k) = expo(k), by ``conv._convolve``:
    circular over one period when ``ks`` is None (f periodic), else linear at
    the sorted indices ``ks``, with e on exactly the indices that overlap f
    from some k, so every overlap is complete.

    f may also be a (rows, N) array of discrete periods, with expo giving a
    (rows, N) array and factor a (rows, 1) column: one circular convolution
    for the stack, and the worst residual and scale of its rows."""
    if isinstance(f, np.ndarray):
        e = expo(np.arange(f.shape[-1]))
        return _compare(conv._circular_convolve(f, e), factor * e)
    if ks is None:
        e = expo(np.arange(f.samples.size))
        return _compare(conv._convolve(f, replace(f, samples=e)).samples, factor * e)
    e_start = int(ks[0]) - (f.end - 1)
    e_idx = np.arange(e_start, int(ks[-1]) - f.start + 1)
    out = conv._convolve(f, replace(f, start=e_start, samples=expo(e_idx)))
    return _compare(out.samples[ks - out.start], factor * expo(ks))


def harmonic_signal(n: int, period: int) -> PeriodicDiscreteSignal:
    """Periodic discrete exponential x_n(k) = e^(j n (2 pi / N) k)."""
    n, period = _index(n, "n"), _index(period, "period", minimum=1)
    return PeriodicDiscreteSignal(samples=sig._unit_roots(n, period)(np.arange(period)))


def sampled_harmonic(n: int, period: int, ts: float) -> PeriodicSampledSignal:
    """One period of the analog harmonic e^(j n omega0 t) sampled at spacing ts:
    the paper's eigensignal, built for callers and tests; the library's own
    checks take the harmonic as an index function (``signals._unit_roots``)."""
    return PeriodicSampledSignal(ts=ts, samples=harmonic_signal(n, period).samples)


def _check_alias_window(n_max: int, period: int):
    """Reject a harmonic window |n| <= n_max, n_max >= 0, outside 2 n_max < period."""
    if 2 * n_max >= period:
        raise AliasingError(
            f"harmonic window |n| <= {n_max} exceeds the alias-free range for "
            f"{period} samples per period (need |n| < N/2)"
        )


def fourier_coefficients(f: PeriodicSampledSignal, n_max: int) -> SeriesSpectrum:
    """Series coefficients C_n = F(n)/T from the one-period Riemann factor.

    F(n) is the eigenfactor of f at a = j n omega0; harmonics are limited to
    |n| <= n_max < N/2 so the sampled grid resolves them without aliasing.
    """
    f = sig._of_kind("fourier_coefficients", PeriodicSampledSignal, f)
    n_max = _index(n_max, "n_max", minimum=0)
    _check_alias_window(n_max, f.period_samples)
    a = 1j * np.arange(-n_max, n_max + 1) * f.omega0
    factors = conv._riemann_sum(f.samples, f.times(), f.ts, a)
    return SeriesSpectrum(period_t=f.period_t, coeffs=factors / f.period_t)


def _synthesize(values, freqs, weight, ts, start: int, count: int) -> SampledSignal:
    """weight * sum_m values[m] e^(j freqs[m] t) at t = (start + k) ts, k < count:
    the Riemann sum with "times" freqs and one exponent a = -j t per output time."""
    start, count = _index(start, "start"), _index(count, "count", minimum=0)
    ts = _check_ts(ts)
    t = sig._float_indices(start, count) * ts
    samples = conv._riemann_sum(values, freqs, weight, -1j * t)
    return SampledSignal(ts=ts, start=start, samples=samples)


def series_synthesize(
    spectrum: SeriesSpectrum, ts: float, start: int, count: int
) -> SampledSignal:
    """Truncated synthesis sum_{|n| <= n_max} C_n e^(j n omega0 t) on a grid.

    Each output sample is the Riemann sum over the harmonics with unit
    weight, "times" n omega0 and a = -j t.  The library has no caller yet:
    its fs.inverse leg waits for the next golden regeneration (ROADMAP.md, item 12).
    """
    freqs = sig._of_kind("series_synthesize", SeriesSpectrum, spectrum).harmonics() * spectrum.omega0
    return _synthesize(spectrum.coeffs, freqs, 1.0, ts, start, count)


def fs_eigencheck(f: PeriodicSampledSignal, n: int) -> ResidualReport:
    """Residual of the series eigenrelation (f (*) x_n)(t) = F(n) x_n(t).

    The left side goes through the circular convolution, the right side
    through the one-period Riemann factor; both are evaluated on f's grid.
    """
    f = sig._of_kind("fs_eigencheck", PeriodicSampledSignal, f)
    n = _index(n, "n")
    _check_alias_window(abs(n), f.period_samples)
    factor = conv.exp_factor_analog(f, 1j * n * f.omega0)
    return _eigenrelation(f, sig._unit_roots(n, f.period_samples), factor)


def dft(f: PeriodicDiscreteSignal) -> DftSpectrum:
    """DFT F(n) = sum_m f(m) e^(-j m (2 pi / N) n), computed by FFT."""
    return DftSpectrum(values=np.fft.fft(sig._of_kind("dft", PeriodicDiscreteSignal, f).samples))


def idft(spectrum: DftSpectrum) -> PeriodicDiscreteSignal:
    """Inverse DFT f(k) = (1/N) sum_m F(m) e^(j m (2 pi / N) k), computed by FFT."""
    return PeriodicDiscreteSignal(samples=np.fft.ifft(sig._of_kind("idft", DftSpectrum, spectrum).values))


def fourier_transform(f: SampledSignal, omegas) -> TransformSpectrum:
    """Riemann-sum Fourier transform of a finite-support signal.

    F(omega) = ts * sum_k f(k ts) e^(-j omega k ts) is the eigenfactor of f
    at a = j omega, for every frequency of the (uniform) grid in one Riemann sum.
    """
    f = sig._of_kind("fourier_transform", SampledSignal, f)
    omegas = np.atleast_1d(_real_grid(omegas))
    values = conv._riemann_sum(f.samples, f.times(), f.ts, 1j * omegas)
    return TransformSpectrum(omegas=omegas, values=values)


def inverse_fourier_transform(
    spectrum: TransformSpectrum, ts: float, start: int, count: int
) -> SampledSignal:
    """Band-and-grid-truncated inverse: (1/2pi) * dw * sum F(w) e^(j w t).

    Each output sample is the Riemann sum over the frequency grid with
    weight dw / 2pi and a = -j t.
    """
    spectrum = sig._of_kind("inverse_fourier_transform", TransformSpectrum, spectrum)
    weight = spectrum.delta_omega / sig._TWO_PI
    return _synthesize(spectrum.values, spectrum.omegas, weight, ts, start, count)


def periodize_spectrum(
    spectrum: TransformSpectrum, omega_s: float, replicas: int
) -> TransformSpectrum:
    """Sum shifted replicas F(omega - r * omega_s) for |r| <= replicas.

    omega_s must be a whole number (at least 1) of grid steps so the replicas
    land on the stored grid; values outside the grid count as zero.
    """
    spectrum = sig._of_kind("periodize_spectrum", TransformSpectrum, spectrum)
    replicas = _index(replicas, "replicas", minimum=1)
    omega_s = _finite_number(omega_s, "omega_s", positive=True)
    step = _grid_steps(omega_s, spectrum.delta_omega, "omega_s", GridMismatchError, minimum=1)
    size = spectrum.values.size
    out = np.zeros(size, dtype=np.complex128)
    # a replica shifted by size or more grid steps adds nothing
    reach = min(replicas, (size - 1) // step)
    for r in range(-reach, reach + 1):
        lo = max(0, r * step)
        hi = min(size, size + r * step)
        if lo < hi:
            out[lo:hi] += spectrum.values[lo - r * step : hi - r * step]
    return TransformSpectrum(omegas=spectrum.omegas, values=out)

