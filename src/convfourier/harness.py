"""Runnable catalog of convolution and transform identities.

Every identity the library is built on is registered here as a named check
that computes both sides through independent code paths and reports the
max-norm residual, the magnitude of the reference side, and a declared
tolerance.  ``run_all`` executes the whole catalog deterministically under
a fixed seed: randomized inputs are trigonometric polynomials with
harmonics below the alias limit and coefficients in the complex unit disk,
so every identity is exactly representable on the grid and residuals
measure implementation error only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import convolution as conv
from . import fourier as four
from . import generators as gen
from . import signals as sig

__all__ = [
    "GridParams",
    "IdentityCheck",
    "Report",
    "CheckSpec",
    "REGISTRY",
    "registry_ids",
    "run_all",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridParams:
    """Grid of the randomized checks: n samples per period at spacing ts,
    harmonics |n| <= n_max.

    ft.forward, ft.discretize and ft.sampling follow ts, because their
    identities are about the grid.  The seven ft.* property checks
    (inverse, conv_time, conv_freq, derivative, time_shift, duality,
    time_scale) ignore it and run on fixed oracle inputs at ts = 1/64.
    """

    n: int = 64
    ts: float = 1.0 / 64.0
    n_max: int = 8

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "ts", float(self.ts))
        object.__setattr__(self, "n_max", int(self.n_max))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        sig._check_ts(self.ts)
        four._check_alias_window(self.n_max, self.n)

    @property
    def t(self) -> float:
        return self.n * self.ts

    @property
    def omega0(self) -> float:
        return _TWO_PI / self.t


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one identity check.

    ``skipped`` is always False: every check runs on every grid.  The field
    stays so that report files keep their layout and their readers work.
    """

    id: str
    description: str
    residual: float
    scale: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class Report:
    """Results of a full catalog run."""

    checks: tuple
    seed: int
    grid_params: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "grid_params": dict(self.grid_params),
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _finish(spec, residual, scale, note="") -> IdentityCheck:
    """The verdict on one runner result: it passes when residual <= tolerance
    * max(1, scale), with the registry's declared tolerance.  A NaN residual
    or a non-finite scale fails with residual inf and a note: ``max(1.0, nan)``
    is 1.0, and an infinite scale would pass any finite residual."""
    residual = float(residual)
    scale = float(scale)
    tolerance = float(spec.tolerance)
    passed = residual <= tolerance * max(1.0, scale)
    if math.isnan(residual) or not math.isfinite(scale):
        fault = f"failed: non-finite residual {residual!r}, scale {scale!r}"
        note = f"{note}; {fault}" if note else fault
        residual, passed = math.inf, False
    return IdentityCheck(
        id=spec.id,
        description=spec.description,
        residual=residual,
        scale=scale,
        tolerance=tolerance,
        passed=bool(passed),
        note=note,
    )


# --------------------------------------------------------------------------
# randomized inputs
# --------------------------------------------------------------------------

def _unit_disk(rng, size):
    """Uniform draws from the complex unit disk."""
    return np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))


def _trig_poly(grid: GridParams, coeffs) -> sig.PeriodicSampledSignal:
    """One period of sum_n c_n e^(j n omega0 t); coeffs hold c_n for n = -n_max..n_max.

    The sum is N times the inverse DFT of the c_n placed at n mod N.
    """
    n_max = (len(coeffs) - 1) // 2
    spectrum = np.zeros(grid.n, dtype=np.complex128)
    spectrum[np.arange(-n_max, n_max + 1) % grid.n] = coeffs
    return sig.PeriodicSampledSignal(ts=grid.ts, samples=grid.n * np.fft.ifft(spectrum))


def _random_trig_poly(rng, grid: GridParams) -> sig.PeriodicSampledSignal:
    """Band-limited periodic signal: harmonics |n| <= n_max, unit-disk coefficients."""
    return _trig_poly(grid, _unit_disk(rng, 2 * grid.n_max + 1))


def _bump(ts, half_width, rate) -> sig.SampledSignal:
    """e^(-rate t^2) sampled on |t| <= half_width, at least one step each side."""
    half = max(1, round(half_width / ts))
    t = np.arange(-half, half + 1) * ts
    return sig.SampledSignal(ts, -half, np.exp(-rate * t * t))


def _random_discrete(rng, max_len=16, start_lo=-8, start_hi=8) -> sig.DiscreteSignal:
    length = int(rng.integers(1, max_len + 1))
    start = int(rng.integers(start_lo, start_hi + 1))
    return sig.DiscreteSignal(start, _unit_disk(rng, length))


def _random_sampled(rng, ts, max_len=16) -> sig.SampledSignal:
    """_random_discrete's samples on the grid of spacing ts."""
    f = _random_discrete(rng, max_len)
    return sig.SampledSignal(ts, f.start, f.samples)


# --------------------------------------------------------------------------
# comparison helpers; every max-norm residual is fourier._compare, and every
# eigenrelation f * e = factor * e is fourier._eigenrelation
# --------------------------------------------------------------------------

def _same_signal(out, want):
    """Max-norm error of out against want; a start mismatch counts as residual 1."""
    residual, scale = four._compare(out.samples, want.samples)
    if out.start != want.start:
        residual = max(residual, 1.0)
    return residual, scale


def _worst_of(reports):
    """The largest residual and the largest scale of (residual, scale) pairs,
    by np.max, so that a NaN is kept (``max(0.0, nan)`` is 0.0)."""
    return tuple(np.max(list(reports), axis=0).tolist())


def _worst_over(trials: int, trial):
    """The worst residual and scale of ``trials`` calls of trial()."""
    return _worst_of(trial() for _ in range(trials))


def _halving_ratios(residual_at, steps):
    """Order-of-convergence gate: each halving of the step must quarter the
    residual, so the runner reports the worst |ratio - 4| against scale 1."""
    residuals = [residual_at(ts) for ts in steps]
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    note = "halving ratios " + ", ".join(f"{q:.3f}" for q in ratios) + " (want 4)"
    return float(np.max([abs(q - 4.0) for q in ratios])), 1.0, note


def _dexp(p: sig.ExpParam):
    """Index function k -> a^k of the discrete exponential with parameter p."""
    return lambda ks: np.array([sig.eval_discrete_exponential(p, int(k)) for k in ks])


# --------------------------------------------------------------------------
# registry runners: each takes (grid, rng) and returns (residual, scale) or
# (residual, scale, note)
# --------------------------------------------------------------------------

def _harmonic_product(convolve, f, g, n):
    """Residual and scale of (convolve(f, g) (*) x_n) against F(n) G(n) x_n on
    g's period grid, where F and G are the one-period Riemann factors at
    a = j n omega0."""
    period = g.period_samples
    four._check_alias_window(abs(int(n)), period)
    a = np.array([1j * n * (_TWO_PI / g.period_t)])
    fn = conv._riemann_sum(f.samples, f.times(), f.ts, a)[0]
    gn = conv._riemann_sum(g.samples, g.times(), g.ts, a)[0]
    return four._eigenrelation(convolve(f, g), four._unit_roots(n, period), fn * gn)


def _fs_conv_freq(f, g, t_index, n_max):
    """Residual and scale of the discrete convolution of two coefficient
    spectra, which synthesizes T^2 f(t) g(t).

    Both inputs must be band-limited; if a resolvable coefficient just
    outside the window is not negligible the window is reported as too
    small.
    """
    period = f.period_samples
    period_t = f.period_t
    four._check_alias_window(n_max, period)
    # the edge probe, one harmonic past the window while that is alias-free
    probe = min(n_max + 1, (period - 1) // 2)
    spec_f = four.fourier_coefficients(f, probe)
    spec_g = four.fourier_coefficients(g, probe)
    if probe > n_max:
        peak = max(np.abs(spec_f.coeffs).max(), np.abs(spec_g.coeffs).max(), 1.0)
        for s in (spec_f, spec_g):
            edge = max(abs(s.coefficient(probe)), abs(s.coefficient(-probe)))
            if edge > 1e-8 * peak:
                raise sig.AliasingError(
                    f"coefficient window |n| <= {n_max} is too small: energy at |n| = {probe}"
                )
    lo = probe - n_max
    hi = probe + n_max + 1
    f_sig = sig.DiscreteSignal(-n_max, period_t * spec_f.coeffs[lo:hi])
    g_sig = sig.DiscreteSignal(-n_max, period_t * spec_g.coeffs[lo:hi])
    fg = conv.discrete_convolve(f_sig, g_sig)
    t = t_index * f.ts
    p = sig.discrete_base(complex(np.exp(-1j * (_TWO_PI / period_t) * t)))
    product = period_t * (period_t * g.value(t_index) * f.value(t_index))
    return four._eigenrelation(fg, _dexp(p), product, np.arange(-8, 9))


_FT_TS = 1.0 / 64.0
_FT_GRID_STEP = math.pi / 8
_FT_GRID_HALF = 128  # |omega| <= 16 pi


def _ft_grid():
    return np.arange(-_FT_GRID_HALF, _FT_GRID_HALF + 1) * _FT_GRID_STEP


def _ft_signal() -> sig.SampledSignal:
    """Input of the ft.* property checks: e^(-t^2) on |t| <= 6 at ts = 1/64.

    Its spectrum lies inside the fixed frequency grid |omega| <= 16 pi, and
    it is the same whatever grid the caller runs, so these checks never mix
    the caller's ts with a frequency grid calibrated for another one.
    ft.derivative runs on its own fixed ladder of steps, ft.duality on a pulse
    at this ts.
    """
    return gen.gaussian(_FT_TS, 6.0)


def _run_ft_conv_time(grid, rng):
    f = _ft_signal()
    ts = f.ts
    g = _bump(ts, 3.0, 2.0)
    fg = conv.approx_analog_convolve(f, g)
    ks = np.arange(-4, 5)

    def trial():
        w = float(rng.uniform(-12.0, 12.0))
        fw = four.fourier_transform(f, [w]).values[0]
        gw = four.fourier_transform(g, [w]).values[0]
        return four._eigenrelation(fg, lambda k: np.exp(1j * w * k * ts), gw * fw, ks)

    return _worst_over(3, trial)


def _run_ft_conv_freq(grid, rng):
    f = _ft_signal()
    ts = f.ts
    g = _bump(ts, 4.0, 2.0)
    dw = _FT_GRID_STEP
    omegas = _ft_grid()
    f_spec = four.fourier_transform(f, omegas)
    g_spec = four.fourier_transform(g, omegas)
    f_w = sig.SampledSignal(dw, -_FT_GRID_HALF, f_spec.values)
    g_w = sig.SampledSignal(dw, -_FT_GRID_HALF, g_spec.values)
    fg_w = conv.approx_analog_convolve(f_w, g_w)
    t0_index = int(rng.integers(-8, 9))
    t0 = t0_index * ts
    fhat = four.inverse_fourier_transform(f_spec, ts, t0_index, 1).samples[0]
    ghat = four.inverse_fourier_transform(g_spec, ts, t0_index, 1).samples[0]
    factor = _TWO_PI * (_TWO_PI * fhat * ghat)
    ks = np.arange(-8, 9)
    return four._eigenrelation(fg_w, lambda k: np.exp(-1j * (k * dw) * t0), factor, ks)


def _ft_derivative_residual(ts: float) -> float:
    f = gen.gaussian(ts, 4.0)
    omegas = _ft_grid()
    lhs = four.fourier_transform(conv.derivative(f), omegas).values
    rhs = 1j * omegas * four.fourier_transform(f, omegas).values
    return float(np.abs(lhs - rhs).max())


def _run_ft_derivative(grid, rng):
    # the central difference has symbol sin(w ts)/ts = w - w^3 ts^2/6 + ...;
    # the ladder is fixed so the gate does not depend on the caller's grid
    return _halving_ratios(_ft_derivative_residual, (1 / 16, 1 / 32, 1 / 64))


def _run_ft_time_shift(grid, rng):
    f = _ft_signal()
    omegas = _ft_grid()
    lag = int(rng.integers(-16, 17)) * f.ts
    lhs = four.fourier_transform(conv.shift(f, lag), omegas).values
    rhs = np.exp(-1j * omegas * lag) * four.fourier_transform(f, omegas).values
    return four._compare(lhs, rhs)


def _run_ft_duality(grid, rng):
    # oracle-calibrated fixed grid: pulse at _FT_TS, spectrum on |w| <= 32 pi
    p = gen.pulse(_FT_TS)
    dw = _FT_GRID_STEP
    k_half = 256
    omegas = np.arange(-k_half, k_half + 1) * dw
    spec = four.fourier_transform(p, omegas)
    spectrum_as_signal = sig.SampledSignal(dw, -k_half, spec.values)
    w_prime = np.arange(-8, 9) * 0.25
    second = four.fourier_transform(spectrum_as_signal, w_prime).values
    want = _TWO_PI * np.where(np.abs(w_prime) < 0.5, 1.0, 0.0)
    mask = np.abs(np.abs(w_prime) - 0.5) > 0.2
    residual = float(np.abs(second - want)[mask].max())
    scale = float(np.abs(want).max())
    note = "fixed oracle grid; residual dominated by band truncation of the pulse spectrum"
    return residual, scale, note


def _run_ft_time_scale(grid, rng):
    f = _ft_signal()
    omegas = _ft_grid()
    # a = -1: time reversal flips the frequency axis exactly
    lhs = four.fourier_transform(conv.scale_time(f, -1), omegas).values
    rhs = four.fourier_transform(f, omegas).values[::-1]
    # a = 2: f(2t) has the transform 1/2 F(w/2), with F taken on f's own grid
    lhs2 = four.fourier_transform(conv.scale_time(f, 2), omegas).values
    rhs2 = 0.5 * four.fourier_transform(f, omegas / 2.0).values
    return _worst_of((four._compare(lhs, rhs), four._compare(lhs2, rhs2)))


def _run_commutativity(grid, rng):
    def trial():
        f = _random_discrete(rng)
        g = _random_discrete(rng)
        fg, gf = conv.discrete_convolve(f, g), conv.discrete_convolve(g, f)
        return four._compare(fg.samples, gf.samples)

    return _worst_over(20, trial)


def _run_associativity(grid, rng):
    def trial():
        f = _random_discrete(rng)
        g = _random_discrete(rng)
        h = _random_discrete(rng)
        a = conv.discrete_convolve(conv.discrete_convolve(f, g), h)
        b = conv.discrete_convolve(f, conv.discrete_convolve(g, h))
        return four._compare(a.samples, b.samples)

    return _worst_over(20, trial)


def _run_identity_discrete(grid, rng):
    d = sig.delta_signal()

    def trial():
        f = _random_discrete(rng)
        return _same_signal(conv.discrete_convolve(d, f), f)

    return _worst_over(20, trial)


def _run_identity_analog(grid, rng):
    d = sig.delta_approx(grid.ts)

    def trial():
        f = _random_sampled(rng, grid.ts)
        return four._compare(conv.approx_analog_convolve(d, f).samples, f.samples)

    return _worst_over(20, trial)


def _run_mixed_associativity(grid, rng):
    n = max(2, grid.n // 8)

    def trial():
        # one fold onto a sampled period, then one onto a discrete period
        h = _random_sampled(rng, grid.ts)
        f = _random_trig_poly(rng, grid)
        g = _random_trig_poly(rng, grid)
        a = conv.periodic_convolve_analog(conv.mixed_convolve(h, f), g)
        b = conv.mixed_convolve(h, conv.periodic_convolve_analog(f, g))
        sampled = four._compare(a.samples, b.samples)
        h = _random_discrete(rng)
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, n))
        g = sig.PeriodicDiscreteSignal(_unit_disk(rng, n))
        a = conv.periodic_convolve_discrete(conv.mixed_convolve(h, f), g)
        b = conv.mixed_convolve(h, conv.periodic_convolve_discrete(f, g))
        return _worst_of((sampled, four._compare(a.samples, b.samples)))

    return _worst_over(5, trial)


def _derivative_residual(ts: float) -> float:
    f = gen.gaussian(ts, 6.0)
    g = _bump(ts, 3.0, 4.0)
    f_times = f.times()
    fdot = sig.SampledSignal(ts, f.start, -2.0 * f_times * np.exp(-f_times * f_times))
    lhs = conv.approx_analog_convolve(fdot, g)
    rhs = conv.derivative(conv.approx_analog_convolve(f, g))
    return float(np.abs(lhs.samples[1:-1] - rhs.samples).max())


def _run_derivative(grid, rng):
    return _halving_ratios(_derivative_residual, (0.1, 0.05, 0.025))


def _run_time_shift(grid, rng):
    def trial():
        f = _random_discrete(rng)
        g = _random_discrete(rng)
        lag = int(rng.integers(-6, 7))
        base = conv.shift(conv.discrete_convolve(f, g), lag)
        lhs_f = conv.discrete_convolve(conv.shift(f, lag), g)
        lhs_g = conv.discrete_convolve(f, conv.shift(g, lag))
        return _worst_of((_same_signal(lhs_f, base), _same_signal(lhs_g, base)))

    return _worst_over(10, trial)


def _run_time_scale(grid, rng):
    def trial():
        f = _random_sampled(rng, grid.ts)
        g = _random_sampled(rng, grid.ts)
        # reversal case is grid-exact: f(-t) * g == reverse(f * reverse(g))
        lhs = conv.approx_analog_convolve(conv.scale_time(f, -1), g)
        rhs = conv.scale_time(conv.approx_analog_convolve(f, conv.scale_time(g, -1)), -1)
        return _same_signal(lhs, rhs)

    return _worst_over(10, trial)


def _run_eigen_analog(grid, rng):
    ts = grid.ts

    def trial():
        f = _random_sampled(rng, ts)
        a = complex(rng.uniform(-1.0, 1.0), rng.uniform(-8.0, 8.0))
        if a == 0:
            a = 1j
        ks = np.arange(f.start - 4, f.end + 4)
        factor = conv._riemann_sum(f.samples, f.times(), ts, np.array([a]))[0]
        return four._eigenrelation(f, lambda k: np.exp(a * k * ts), factor, ks)

    return _worst_over(10, trial)


def _run_eigen_discrete(grid, rng):
    def trial():
        f = _random_discrete(rng, start_lo=-8, start_hi=0)
        mag = rng.uniform(0.5, 2.0)
        p = sig.discrete_base(mag * np.exp(2j * np.pi * rng.uniform()))
        ks = np.arange(f.start - 4, f.end + 4)
        return four._eigenrelation(f, _dexp(p), conv.exp_factor_discrete(f, p), ks)

    return _worst_over(20, trial)


def _run_eigen_periodic_analog(grid, rng):
    def trial():
        f = _random_trig_poly(rng, grid)
        n = int(rng.integers(-grid.n_max, grid.n_max + 1))
        return four.fs_eigencheck(f, n)

    return _worst_over(10, trial)


def _run_eigen_periodic_discrete(grid, rng):
    def trial():
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, grid.n))
        n = int(rng.integers(0, grid.n))
        p = sig.discrete_base(complex(np.exp(2j * np.pi * n / grid.n)))
        factor = conv.exp_factor_discrete(f, p)
        return four._eigenrelation(f, four._unit_roots(n, grid.n), factor)

    return _worst_over(10, trial)


def _run_fs_forward(grid, rng):
    def trial():
        coeffs = _unit_disk(rng, 2 * grid.n_max + 1)
        spectrum = four.fourier_coefficients(_trig_poly(grid, coeffs), grid.n_max)
        return four._compare(spectrum.coeffs, coeffs)

    return _worst_over(10, trial)


def _run_fs_inverse(grid, rng):
    period_t = grid.t
    ks = np.arange(-8, 9)

    def trial():
        f = _random_trig_poly(rng, grid)
        spectrum = four.fourier_coefficients(f, grid.n_max)
        f_sig = sig.DiscreteSignal(-grid.n_max, period_t * spectrum.coeffs)
        k0 = int(rng.integers(0, grid.n))
        p = sig.discrete_base(complex(np.exp(-1j * grid.omega0 * (k0 * grid.ts))))
        return four._eigenrelation(f_sig, _dexp(p), period_t * f.value(k0), ks)

    return _worst_over(5, trial)


def _run_dft_forward(grid, rng):
    def trial():
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, grid.n))
        spectrum = four.dft(f)
        n = int(rng.integers(0, grid.n))
        eigen = four._eigenrelation(f, four._unit_roots(n, grid.n), spectrum.values[n])
        # the direct N-term power sum keeps an independent side: both of the
        # above run on the FFT
        p = sig.discrete_base(complex(np.exp(2j * np.pi * n / grid.n)))
        power_sum = conv.exp_factor_discrete(f, p)
        return _worst_of((eigen, four._compare(spectrum.values[n], power_sum)))

    return _worst_over(10, trial)


def _run_dft_inverse(grid, rng):
    def trial():
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, grid.n))
        spectrum = four.dft(f)
        spec_signal = sig.PeriodicDiscreteSignal(spectrum.values)
        k = int(rng.integers(0, grid.n))
        xk = four._unit_roots(k, grid.n)
        eigen = four._eigenrelation(spec_signal, lambda i: np.conj(xk(i)), grid.n * f.value(k))
        return _worst_of((eigen, four._compare(four.idft(spectrum).samples, f.samples)))

    return _worst_over(10, trial)


def _run_dft_orthogonality(grid, rng):
    n = grid.n
    if n <= 16:
        m, k = np.divmod(np.arange(n * n), n)
    else:
        # the same pairs as 200 scalar draws of m, then k
        m, k = rng.integers(0, n, size=(200, 2)).T
        diagonal = np.arange(0, n, max(1, n // 16))
        m, k = np.concatenate((m, diagonal)), np.concatenate((k, diagonal))
    residual, scale = four.dft_orthogonality(m, k, n)
    return residual, scale, f"{m.size} pairs"


def _run_ft_forward(grid, rng):
    ts = grid.ts

    def trial():
        f = _random_sampled(rng, ts)
        w = float(rng.uniform(-0.5, 0.5) * math.pi / ts)
        ks = np.arange(f.start - 4, f.end + 4)
        fw = four.fourier_transform(f, [w]).values[0]
        return four._eigenrelation(f, lambda k: np.exp(1j * w * k * ts), fw, ks)

    return _worst_over(10, trial)


def _run_ft_inverse(grid, rng):
    f = _ft_signal()
    ts = f.ts
    dw = _FT_GRID_STEP
    spectrum = four.fourier_transform(f, _ft_grid())
    spec_signal = sig.SampledSignal(dw, -_FT_GRID_HALF, spectrum.values)
    ks = np.arange(-8, 9)

    def trial():
        t0_index = int(rng.integers(-round(2.0 / ts), round(2.0 / ts) + 1))
        t0 = t0_index * ts
        fhat = four.inverse_fourier_transform(spectrum, ts, t0_index, 1).samples[0]
        return four._eigenrelation(
            spec_signal, lambda k: np.exp(-1j * (k * dw) * t0), _TWO_PI * fhat, ks
        )

    return _worst_over(5, trial)


def _run_fs_conv_time(grid, rng):
    def trial():
        f = _random_trig_poly(rng, grid)
        g = _random_trig_poly(rng, grid)
        n = int(rng.integers(-grid.n_max, grid.n_max + 1))
        return _harmonic_product(conv.periodic_convolve_analog, f, g, n)

    return _worst_over(5, trial)


def _run_fs_conv_freq(grid, rng):
    def trial():
        f = _random_trig_poly(rng, grid)
        g = _random_trig_poly(rng, grid)
        return _fs_conv_freq(f, g, int(rng.integers(0, grid.n)), grid.n_max)

    return _worst_over(5, trial)


def _run_fs_lti_mixed(grid, rng):
    # periodic input through a finite impulse response: each harmonic is
    # scaled by the response's own factor, ((h*u) (*) x_n) = U(n) H(n) x_n
    def trial():
        h = _random_sampled(rng, grid.ts, max_len=min(16, grid.n))
        u = _random_trig_poly(rng, grid)
        n = int(rng.integers(-grid.n_max, grid.n_max + 1))
        return _harmonic_product(conv.mixed_convolve, h, u, n)

    return _worst_over(5, trial)


def _run_ft_discretize(grid, rng):
    # pulse of width T centred in a window of 4 T
    n_window = 4 * grid.n
    f = gen.pulse(grid.ts, width=grid.t)
    folded = sig.periodize(f, n_window)
    period_t = n_window * grid.ts
    omega0 = _TWO_PI / period_t
    n_max = min(max(grid.n_max, 1), (n_window - 1) // 2)
    omegas = np.arange(-n_max, n_max + 1) * omega0
    return four.ft_discretize(four.fourier_transform(f, omegas), folded, f)


def _run_ft_sampling(grid, rng):
    # a fixed 64-sample pulse at the grid's ts: the identity is about ts, and
    # a fixed length keeps the work the same at every ts
    ts = grid.ts
    f = sig.SampledSignal(ts, -32, np.ones(64))
    omega_s = _TWO_PI / ts
    per_period = 64
    dw = omega_s / per_period
    k = np.arange(-(3 * per_period) // 2, (3 * per_period) // 2 + 1)
    omegas = k * dw
    spectrum = four.fourier_transform(f, omegas)
    vals = spectrum.values
    scale = float(np.abs(vals).max())
    # sampling makes the spectrum periodic with period omega_s
    periodic = float(np.abs(vals[per_period:] - vals[:-per_period]).max())
    # base-band restriction plus replica summation rebuilds the spectrum
    rep = (k + per_period // 2) % per_period - per_period // 2
    masked = four.TransformSpectrum(omegas=omegas, values=np.where(rep == k, vals, 0.0))
    rebuilt = four.periodize_spectrum(masked, omega_s, 2)
    replicas = float(np.abs(rebuilt.values - vals).max())
    # the reversed sample sequence carries the periodized spectrum as its factor
    reversed_f = conv.scale_time(f, -1)
    indices = reversed_f.start + np.arange(len(reversed_f))
    lhs = ts * conv._power_sum(reversed_f.samples, indices, np.exp(-1j * omegas * ts))
    reversal = float(np.abs(lhs - rebuilt.values).max())
    return float(np.max([periodic, replicas, reversal])), scale


def _run_dft_vs_series(grid, rng):
    def trial():
        f = _random_trig_poly(rng, grid)
        spectrum = four.fourier_coefficients(f, grid.n_max)
        return four.dft_vs_series(sig.PeriodicDiscreteSignal(f.samples), spectrum)

    return _worst_over(5, trial)


@dataclass(frozen=True)
class CheckSpec:
    """Registry entry: stable id, declared tolerance and its justification."""

    id: str
    description: str
    tolerance: float
    justification: str
    runner: Callable


REGISTRY: tuple = (
    CheckSpec(
        "conv.commutativity",
        "discrete convolution commutes",
        1e-12,
        "identical finite sums accumulated in different orders; roundoff only",
        _run_commutativity,
    ),
    CheckSpec(
        "conv.associativity",
        "discrete convolution associates",
        1e-10,
        "double summation of <=16-tap signals; roundoff only",
        _run_associativity,
    ),
    CheckSpec(
        "conv.identity_discrete",
        "the unit impulse is the identity of discrete convolution",
        0.0,
        "single-tap accumulation is exact in floating point",
        _run_identity_discrete,
    ),
    CheckSpec(
        "conv.identity_analog",
        "the 1/ts narrow pulse is the identity of approximated analog convolution",
        1e-15,
        "two roundings in ts * (1/ts); exact when ts is a power of two",
        _run_identity_analog,
    ),
    CheckSpec(
        "conv.mixed_associativity",
        "folding a finite signal onto a period commutes with circular convolution",
        1e-9,
        "full-period reindexing is a bijection; roundoff only",
        _run_mixed_associativity,
    ),
    CheckSpec(
        "conv.derivative",
        "derivative transfers across convolution at second-order grid accuracy",
        0.5,
        "central difference is second order: halving ts must quarter the residual (ratio 4 +- 0.5)",
        _run_derivative,
    ),
    CheckSpec(
        "conv.time_shift",
        "shifting either factor shifts the convolution",
        1e-12,
        "start-index arithmetic; sample values are reused bitwise",
        _run_time_shift,
    ),
    CheckSpec(
        "conv.time_scale",
        "time reversal distributes over convolution with the scaling rule",
        1e-12,
        "a = -1 is a grid-exact reindexing; identical sums in reversed order",
        _run_time_scale,
    ),
    CheckSpec(
        "eigen.analog",
        "convolving with e^(a t) returns the exponential times its Riemann factor",
        1e-12,
        "both sides are the same finite sum split differently; roundoff only",
        _run_eigen_analog,
    ),
    CheckSpec(
        "eigen.discrete",
        "convolving with a^k returns the exponential times its power-series factor",
        1e-10,
        "geometric factors up to 2^24 amplify roundoff; relative to the window max",
        _run_eigen_discrete,
    ),
    CheckSpec(
        "eigen.periodic_analog",
        "circular convolution with a sampled harmonic scales it by the one-period factor",
        1e-9,
        "FFT circular convolution against the one-period Riemann sum; roundoff only",
        _run_eigen_periodic_analog,
    ),
    CheckSpec(
        "eigen.periodic_discrete",
        "circular convolution with a root-of-unity exponential scales it by the N-term factor",
        1e-10,
        "FFT circular convolution against the direct N-term power sum; roundoff only",
        _run_eigen_periodic_discrete,
    ),
    CheckSpec(
        "fs.forward",
        "series analysis: the one-period factors recover a trig polynomial's coefficients",
        1e-9,
        "band-limited input, exact root-of-unity sums; roundoff only",
        _run_fs_forward,
    ),
    CheckSpec(
        "fs.inverse",
        "series synthesis: the coefficient sequence convolved with the conjugate "
        "exponential returns T times the signal value",
        1e-9,
        "finite coefficient window of a band-limited signal; roundoff only",
        _run_fs_inverse,
    ),
    CheckSpec(
        "dft.forward",
        "periodic discrete exponentials are eigensignals of circular convolution",
        1e-10,
        "FFT spectrum against FFT circular convolution and the direct N-term power sum; "
        "roundoff only",
        _run_dft_forward,
    ),
    CheckSpec(
        "dft.inverse",
        "the spectrum convolved with the conjugate exponential returns N times the sample",
        1e-10,
        "FFT circular convolution plus the fft/ifft round trip; roundoff only",
        _run_dft_inverse,
    ),
    CheckSpec(
        "dft.orthogonality",
        "distinct harmonics annihilate; equal harmonics give N times the harmonic",
        1e-9,
        "root-of-unity geometric sums cancel to roundoff; scale is N",
        _run_dft_orthogonality,
    ),
    CheckSpec(
        "ft.forward",
        "finite signals convolved with e^(j w t) return the exponential times F(w)",
        1e-10,
        "same finite sum split two ways; roundoff only",
        _run_ft_forward,
    ),
    CheckSpec(
        "ft.inverse",
        "the spectrum convolved on the frequency grid returns 2*pi times the reconstruction",
        1e-10,
        "identity is exact for the grid-truncated reconstruction; roundoff only",
        _run_ft_inverse,
    ),
    CheckSpec(
        "fs.conv_time",
        "time-domain circular convolution multiplies one-period harmonic factors",
        1e-9,
        "convolution theorem over a full period; FFT roundoff only",
        _run_fs_conv_time,
    ),
    CheckSpec(
        "fs.conv_freq",
        "convolving coefficient spectra matches the pointwise product of the signals",
        1e-8,
        "finite spectra of band-limited signals make the convolution a finite sum",
        _run_fs_conv_freq,
    ),
    CheckSpec(
        "fs.lti_mixed",
        "finite impulse response on periodic input scales harmonics by the response factor",
        1e-8,
        "mixed fold plus circular convolution are exact finite sums",
        _run_fs_lti_mixed,
    ),
    CheckSpec(
        "ft.conv_time",
        "spectrum of a time-domain convolution is the product of the spectra",
        1e-10,
        "Riemann factors of the scaled convolution factor exactly",
        _run_ft_conv_time,
    ),
    CheckSpec(
        "ft.conv_freq",
        "convolving two spectra synthesizes 2*pi times the product signal",
        1e-8,
        "identity is exact against the grid-truncated reconstructions",
        _run_ft_conv_freq,
    ),
    CheckSpec(
        "ft.derivative",
        "spectrum of the grid derivative converges to j*omega times the spectrum at second order",
        0.5,
        "central-difference symbol error is w^3 ts^2/6: halving ts must quarter the residual "
        "(ratio 4 +- 0.5) on a fixed Gaussian ladder ts = 1/16, 1/32, 1/64",
        _run_ft_derivative,
    ),
    CheckSpec(
        "ft.time_shift",
        "an on-grid time shift multiplies the spectrum by a linear phase",
        1e-10,
        "phase factors of shifted grid times; roundoff only",
        _run_ft_time_shift,
    ),
    CheckSpec(
        "ft.duality",
        "transforming a spectrum again returns 2*pi times the time-reversed signal",
        0.05,
        "fixed oracle-calibrated grid; residual dominated by band truncation (measured 0.014)",
        _run_ft_duality,
    ),
    CheckSpec(
        "ft.time_scale",
        "grid-exact rescaling maps the spectrum to (1/|a|) F(omega/a)",
        1e-10,
        "reversal is an exact reindexing of the Riemann sum; the a = 2 leg sums the "
        "Gaussian at steps 2 ts and ts, whose spectral replicas (Poisson) are below "
        "e^-7000 on |omega| <= 16 pi, so roundoff only (3.3e-16 at scale 0.886)",
        _run_ft_time_scale,
    ),
    CheckSpec(
        "ft.discretize",
        "spectrum samples on the omega0 lattice equal T times the folded signal's coefficients",
        1e-9,
        "identical Riemann sums up to full-period phase wrap; roundoff only",
        _run_ft_discretize,
    ),
    CheckSpec(
        "ft.sampling",
        "sampling periodizes the spectrum; the reversed samples carry it as their factor",
        1e-9,
        "the Riemann spectrum of a sampled signal is exactly 2*pi/ts periodic",
        _run_ft_sampling,
    ),
    CheckSpec(
        "dft.vs_series",
        "the DFT of one period of samples equals N times the series coefficients",
        1e-10,
        "both sides reduce to the same root-of-unity sums via independent code paths",
        _run_dft_vs_series,
    ),
)


def registry_ids() -> tuple:
    return tuple(spec.id for spec in REGISTRY)


def run_all(grid: GridParams | None = None, seed: int = 42) -> Report:
    """Execute every registered check; deterministic under a fixed seed.

    Each check is judged by ``_finish`` against its declared tolerance, which
    no argument rescales.  Individual failures are recorded in the report,
    never raised.  Every check runs on every grid (at n_max = 0 the periodic
    checks run on harmonic 0), and a check whose runner raises fails with an
    infinite residual; no check is ever skipped.
    """
    grid = GridParams() if grid is None else grid
    streams = np.random.SeedSequence(int(seed)).spawn(len(REGISTRY))
    checks = []
    for spec, stream in zip(REGISTRY, streams):
        rng = np.random.default_rng(stream)
        try:
            # a grid beyond the float64 range (e^(a t) at a large ts, an
            # infinite omega at a subnormal ts) gives non-finite values, which
            # a constructor rejects or _finish fails; NumPy need not warn
            with np.errstate(over="ignore", invalid="ignore"):
                result = spec.runner(grid, rng)
        except Exception as exc:
            # a check that cannot be computed is a failure, never a skip
            result = math.inf, 0.0, f"failed: {type(exc).__name__}: {exc}"
        checks.append(_finish(spec, *result))
    return Report(
        checks=tuple(checks),
        seed=int(seed),
        grid_params={"n": grid.n, "ts": grid.ts, "t": grid.t, "n_max": grid.n_max},
    )
