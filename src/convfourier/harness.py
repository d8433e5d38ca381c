"""Runnable catalog of convolution and transform identities.

Every identity the library is built on is registered here as a named check
that computes both sides through independent code paths and reports the
max-norm residual, the magnitude of the reference side, and a declared
tolerance.  ``run_all`` executes the whole catalog deterministically under
a fixed seed: randomized inputs are trigonometric polynomials with
harmonics below the alias limit and coefficients in the complex unit disk,
so every identity is exactly representable on the grid and residuals
measure implementation error only.

Each check draws from its own standard-library ``random.Random``, seeded
with the seed and the check's id (``_stream``), and builds every draw from
``random()``.  So a check's inputs do not depend on its position in the
catalog or on the NumPy version, and a run never imports ``numpy.random``.
"""

from __future__ import annotations

import math
import random
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
        # ts first: GridParams(n=0, ts=-1) names ts
        object.__setattr__(self, "ts", sig._check_ts(self.ts))
        object.__setattr__(self, "n", sig._index(self.n, "n", minimum=1))
        object.__setattr__(self, "n_max", sig._index(self.n_max, "n_max", minimum=0))
        four._check_alias_window(self.n_max, self.n)

    @property
    def t(self) -> float:
        return self.n * self.ts


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


@dataclass(frozen=True)
class CheckSpec:
    """Registry entry: stable id, declared tolerance and its justification."""

    id: str
    description: str
    tolerance: float
    justification: str
    runner: Callable


REGISTRY: tuple = ()


def _spec(id: str, description: str, tolerance: float, justification: str):
    """Declare the decorated runner as the check ``id``: append its CheckSpec
    to REGISTRY and return the runner unchanged.  The report lists the checks
    in the order their runners are defined."""

    def declare(runner):
        global REGISTRY
        REGISTRY += (CheckSpec(id, description, tolerance, justification, runner),)
        return runner

    return declare


# --------------------------------------------------------------------------
# randomized inputs
# --------------------------------------------------------------------------

def _integer(rng, lo, hi):
    """An integer in lo..hi-1 from one ``rng.random()``; (hi - lo) * random()
    rounds below hi - lo for every span below 2^53."""
    return lo + int((hi - lo) * rng.random())


def _nonzero(rng, reach):
    """An integer in -reach..-1 or 1..reach: a sign, then a magnitude."""
    return (1 - 2 * _integer(rng, 0, 2)) * _integer(rng, 1, reach + 1)


def _uniform(rng, lo, hi):
    """A float in [lo, hi) from one ``rng.random()``."""
    return lo + (hi - lo) * rng.random()


def _unit_disk(rng, size):
    """Uniform draws from the complex unit disk: 2 size ``rng.random()`` calls,
    size radii, then size angles (random() never returns the sentinel 2.0)."""
    radii, angles = np.fromiter(iter(rng.random, 2.0), float, 2 * size).reshape(2, size)
    return np.sqrt(radii) * np.exp(1j * sig._TWO_PI * angles)


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


def _random_discrete(rng, max_len=16, start_hi=8) -> sig.DiscreteSignal:
    length = _integer(rng, 1, max_len + 1)
    start = _integer(rng, -8, start_hi + 1)
    return sig.DiscreteSignal(start, _unit_disk(rng, length))


def _random_sampled(rng, ts, max_len=16) -> sig.SampledSignal:
    """_random_discrete's samples on the grid of spacing ts."""
    f = _random_discrete(rng, max_len)
    return sig.SampledSignal(ts, f.start, f.samples)


# --------------------------------------------------------------------------
# comparison helpers; every max-norm residual is fourier._compare, the legs of
# a check are folded once, by _worst_of in _check, and every eigenrelation
# f * e = factor * e is fourier._eigenrelation, with e a family of signals
# (_analog_exp, _discrete_exp or _unit_roots)
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


def _halving_ratios(residual_at, steps, legs):
    """Order-of-convergence gate: each halving of the step must quarter the
    residual, so the leg is the worst |ratio - 4| against scale 1.  Returns
    the note that lists the ratios."""
    residuals = [residual_at(ts) for ts in steps]
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    legs.append((four._compare(ratios, 4.0).residual, 1.0))
    return "halving ratios " + ", ".join(f"{q:.3f}" for q in ratios) + " (want 4)"


# --------------------------------------------------------------------------
# registry runners, in report order, each declared by the _spec above it:
# each takes (grid, rng, legs), appends one (residual, scale) pair per leg
# per trial to legs, in the order it computes them, and returns its note or
# None; trials are a `for _ in range(<literal>)` loop
# --------------------------------------------------------------------------

def _harmonic_product(convolve, f, g, n):
    """Residual and scale of (convolve(f, g) (*) x_n) against F(n) G(n) x_n on
    g's period grid, where F and G are the one-period Riemann factors at
    a = j n omega0."""
    n = sig._index(n, "n")
    period = g.period_samples
    a = 1j * n * g.omega0
    fn = conv.exp_factor_analog(f, a)
    gn = conv.exp_factor_analog(g, a)
    return four._eigenrelation(convolve(f, g), sig._unit_roots(n, period), fn * gn)


def _fs_conv_freq(f, g, t_index, n_max):
    """Residual and scale of the discrete convolution of two coefficient
    spectra, which synthesizes T^2 f(t) g(t) when f and g hold no harmonic
    beyond |n| <= n_max."""
    period_t = f.period_t
    f_sig = sig.DiscreteSignal(-n_max, period_t * four.fourier_coefficients(f, n_max).coeffs)
    g_sig = sig.DiscreteSignal(-n_max, period_t * four.fourier_coefficients(g, n_max).coeffs)
    fg = conv.discrete_convolve(f_sig, g_sig)
    a = np.exp(-1j * f.omega0 * (t_index * f.ts))
    product = period_t * (period_t * g.value(t_index) * f.value(t_index))
    return four._eigenrelation(fg, sig._discrete_exp(a), product, np.arange(-8, 9))


_FT_TS = 1.0 / 64.0
_FT_GRID_STEP = math.pi / 8
_FT_GRID_HALF = 128  # |omega| <= 16 pi


def _ft_grid():
    return np.arange(-_FT_GRID_HALF, _FT_GRID_HALF + 1) * _FT_GRID_STEP


def _ft_signal() -> sig.SampledSignal:
    """Input of the ft.* property checks: e^(-(t - 7 ts)^2) on |t - 7 ts| <= 6
    at ts = 1/64.

    Off centre, so F(-omega) != F(omega): a conjugated exponential, or a
    reversal that returns the signal unchanged, fails the checks that use it.
    Its spectrum lies inside the fixed frequency grid |omega| <= 16 pi, and
    it is the same whatever grid the caller runs, so these checks never mix
    the caller's ts with a frequency grid calibrated for another one.
    ft.derivative runs on its own fixed ladder of steps, ft.duality on a pulse
    at this ts.
    """
    f = gen.gaussian(_FT_TS, 6.0)
    return sig.SampledSignal(f.ts, f.start + 7, f.samples)


@_spec(
    "conv.commutativity",
    "discrete convolution commutes",
    1e-12,
    "identical finite sums accumulated in different orders; roundoff only",
)
def _run_commutativity(grid, rng, legs):
    for _ in range(20):
        f = _random_discrete(rng)
        g = _random_discrete(rng)
        legs.append(_same_signal(conv.discrete_convolve(f, g), conv.discrete_convolve(g, f)))


@_spec(
    "conv.associativity",
    "discrete convolution associates",
    1e-10,
    "double summation of <=16-tap signals; roundoff only",
)
def _run_associativity(grid, rng, legs):
    for _ in range(20):
        f = _random_discrete(rng)
        g = _random_discrete(rng)
        h = _random_discrete(rng)
        a = conv.discrete_convolve(conv.discrete_convolve(f, g), h)
        b = conv.discrete_convolve(f, conv.discrete_convolve(g, h))
        legs.append(_same_signal(a, b))


@_spec(
    "conv.identity_discrete",
    "the unit impulse is the identity of discrete convolution",
    0.0,
    "single-tap accumulation is exact in floating point",
)
def _run_identity_discrete(grid, rng, legs):
    d = sig.delta_signal()
    for _ in range(20):
        f = _random_discrete(rng)
        legs.append(_same_signal(conv.discrete_convolve(d, f), f))


@_spec(
    "conv.identity_analog",
    "the 1/ts narrow pulse is the identity of approximated analog convolution",
    1e-15,
    "two roundings in ts * (1/ts); exact when ts is a power of two",
)
def _run_identity_analog(grid, rng, legs):
    d = sig.delta_approx(grid.ts)
    for _ in range(20):
        f = _random_sampled(rng, grid.ts)
        legs.append(_same_signal(conv.approx_analog_convolve(d, f), f))


@_spec(
    "conv.mixed_associativity",
    "folding a finite signal onto a period commutes with circular convolution",
    1e-9,
    "full-period reindexing is a bijection; roundoff only",
)
def _run_mixed_associativity(grid, rng, legs):
    n = max(2, grid.n // 8)
    for _ in range(5):
        # one fold onto a sampled period, then one onto a discrete period
        h = _random_sampled(rng, grid.ts)
        f = _random_trig_poly(rng, grid)
        g = _random_trig_poly(rng, grid)
        a = conv.periodic_convolve_analog(conv.mixed_convolve(h, f), g)
        b = conv.mixed_convolve(h, conv.periodic_convolve_analog(f, g))
        legs.append(four._compare(a.samples, b.samples))
        h = _random_discrete(rng)
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, n))
        g = sig.PeriodicDiscreteSignal(_unit_disk(rng, n))
        a = conv.periodic_convolve_discrete(conv.mixed_convolve(h, f), g)
        b = conv.mixed_convolve(h, conv.periodic_convolve_discrete(f, g))
        legs.append(four._compare(a.samples, b.samples))


def _derivative_residual(ts: float) -> float:
    f = gen.gaussian(ts, 6.0)
    g = gen.gaussian(ts, 3.0, rate=4.0)
    f_times = f.times()
    fdot = sig.SampledSignal(ts, f.start, -2.0 * f_times * np.exp(-f_times * f_times))
    lhs = conv.approx_analog_convolve(fdot, g)
    rhs = conv.derivative(conv.approx_analog_convolve(f, g))
    return four._compare(lhs.samples[1:-1], rhs.samples).residual


@_spec(
    "conv.derivative",
    "derivative transfers across convolution at second-order grid accuracy",
    0.5,
    "central difference is second order: halving ts must quarter the residual (ratio 4 +- 0.5)",
)
def _run_derivative(grid, rng, legs):
    return _halving_ratios(_derivative_residual, (0.1, 0.05, 0.025), legs)


@_spec(
    "conv.time_shift",
    "shifting either factor shifts the convolution",
    1e-12,
    "start-index arithmetic; sample values are reused bitwise",
)
def _run_time_shift(grid, rng, legs):
    for _ in range(10):
        f = _random_discrete(rng)
        g = _random_discrete(rng)
        lag = _integer(rng, -6, 7)
        base = conv.shift(conv.discrete_convolve(f, g), lag)
        lhs_f = conv.discrete_convolve(conv.shift(f, lag), g)
        lhs_g = conv.discrete_convolve(f, conv.shift(g, lag))
        legs.append(_same_signal(lhs_f, base))
        legs.append(_same_signal(lhs_g, base))


@_spec(
    "conv.time_scale",
    "time reversal distributes over convolution with the scaling rule",
    1e-12,
    "a = -1 is a grid-exact reindexing; identical sums in reversed order",
)
def _run_time_scale(grid, rng, legs):
    for _ in range(10):
        f = _random_sampled(rng, grid.ts)
        g = _random_sampled(rng, grid.ts)
        # reversal case is grid-exact: f(-t) * g == reverse(f * reverse(g))
        lhs = conv.approx_analog_convolve(conv.scale_time(f, -1), g)
        rhs = conv.scale_time(conv.approx_analog_convolve(f, conv.scale_time(g, -1)), -1)
        legs.append(_same_signal(lhs, rhs))


@_spec(
    "eigen.analog",
    "convolving with e^(a t) returns the exponential times its Riemann factor",
    1e-12,
    "both sides are the same finite sum split differently; roundoff only",
)
def _run_eigen_analog(grid, rng, legs):
    ts = grid.ts
    # the 1/ts pulse at the fixed oracle step has the factor 1 exactly, so a
    # relative fault eps in the factor reads eps at a scale of at least 1,
    # where the random inputs' factors of about 0.05 hide it under the floor
    # of 1; at the grid's ts the pulse's height overflows at ts = 5e-324
    pulse, pulse_ks = sig.delta_approx(_FT_TS), np.arange(-4, 5)
    for _ in range(10):
        f = _random_sampled(rng, ts)
        a = complex(_uniform(rng, -1.0, 1.0), _uniform(rng, -8.0, 8.0))
        ks = np.arange(f.start - 4, f.end + 4)
        factor = conv.exp_factor_analog(f, a)
        legs.append(four._eigenrelation(f, sig._analog_exp(a, ts), factor, ks))
        pulse_factor = conv.exp_factor_analog(pulse, a)
        legs.append(four._eigenrelation(pulse, sig._analog_exp(a, _FT_TS), pulse_factor, pulse_ks))


@_spec(
    "eigen.discrete",
    "convolving with a^k returns the exponential times its power-series factor",
    1e-10,
    "geometric factors up to 2^24 amplify roundoff; relative to the window max",
)
def _run_eigen_discrete(grid, rng, legs):
    for _ in range(20):
        f = _random_discrete(rng, start_hi=0)
        mag = _uniform(rng, 0.5, 2.0)
        a = mag * np.exp(1j * sig._TWO_PI * rng.random())
        ks = np.arange(f.start - 4, f.end + 4)
        factor = conv.exp_factor_discrete(f, a)
        legs.append(four._eigenrelation(f, sig._discrete_exp(a), factor, ks))


@_spec(
    "eigen.periodic_analog",
    "circular convolution with a sampled harmonic scales it by the one-period factor",
    1e-9,
    "FFT circular convolution against the one-period Riemann sum; roundoff only",
)
def _run_eigen_periodic_analog(grid, rng, legs):
    for _ in range(10):
        f = _random_trig_poly(rng, grid)
        n = _integer(rng, -grid.n_max, grid.n_max + 1)
        legs.append(four.fs_eigencheck(f, n))


@_spec(
    "eigen.periodic_discrete",
    "circular convolution with a root-of-unity exponential scales it by the N-term factor",
    1e-10,
    "FFT circular convolution against the direct N-term factor at the rounded base "
    "e^(2 pi j n / N); roundoff, plus the base's rounding, which its powers up to N - 1 "
    "grow by O(N u)",
)
def _run_eigen_periodic_discrete(grid, rng, legs):
    for _ in range(10):
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, grid.n))
        n = _integer(rng, 0, grid.n)
        factor = conv.exp_factor_discrete(f, np.exp(1j * sig._TWO_PI * n / grid.n))
        legs.append(four._eigenrelation(f, sig._unit_roots(n, grid.n), factor))


@_spec(
    "fs.forward",
    "series analysis: the one-period factors recover a trig polynomial's coefficients",
    1e-9,
    "band-limited input, exact root-of-unity sums; roundoff only",
)
def _run_fs_forward(grid, rng, legs):
    for _ in range(10):
        coeffs = _unit_disk(rng, 2 * grid.n_max + 1)
        spectrum = four.fourier_coefficients(_trig_poly(grid, coeffs), grid.n_max)
        legs.append(four._compare(spectrum.coeffs, coeffs))


@_spec(
    "fs.inverse",
    "series synthesis: the coefficient sequence convolved with the conjugate "
    "exponential returns T times the signal value",
    1e-9,
    "finite coefficient window of a band-limited signal; roundoff only",
)
def _run_fs_inverse(grid, rng, legs):
    ks = np.arange(-8, 9)
    for _ in range(5):
        f = _random_trig_poly(rng, grid)
        spectrum = four.fourier_coefficients(f, grid.n_max)
        f_sig = sig.DiscreteSignal(-grid.n_max, f.period_t * spectrum.coeffs)
        k0 = _integer(rng, 0, grid.n)
        a = np.exp(-1j * f.omega0 * (k0 * f.ts))
        want = f.period_t * f.value(k0)
        legs.append(four._eigenrelation(f_sig, sig._discrete_exp(a), want, ks))
        # the synthesis sum at t = k0 ts, by its own Riemann path
        synthesized = four.series_synthesize(spectrum, f.ts, k0, 1).samples
        legs.append(four._compare(f.period_t * synthesized, want))


@_spec(
    "dft.forward",
    "periodic discrete exponentials are eigensignals of circular convolution",
    1e-10,
    "FFT spectrum against FFT circular convolution and the direct N-term sum, each "
    "phase reduced mod N before its exp; roundoff only",
)
def _run_dft_forward(grid, rng, legs):
    for _ in range(10):
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, grid.n))
        spectrum = four.dft(f)
        n = _integer(rng, 0, grid.n)
        legs.append(four._eigenrelation(f, sig._unit_roots(n, grid.n), spectrum.samples[n]))
        # the direct N-term sum keeps an independent side: both of the above
        # run on the FFT.  Each phase n m is reduced mod N before its exp, so
        # the sum does not carry a rounded base's error into its N-th power
        phases = sig._analog_exp(-1j * sig._TWO_PI / grid.n, 1.0)((n * np.arange(grid.n)) % grid.n)
        legs.append(four._compare(spectrum.samples[n], np.sum(f.samples * phases)))


@_spec(
    "dft.inverse",
    "the spectrum convolved with the conjugate exponential returns N times the sample",
    1e-10,
    "FFT circular convolution plus the fft/ifft round trip; roundoff only",
)
def _run_dft_inverse(grid, rng, legs):
    for _ in range(10):
        f = sig.PeriodicDiscreteSignal(_unit_disk(rng, grid.n))
        spectrum = four.dft(f)
        k = _integer(rng, 0, grid.n)
        xk = sig._unit_roots(k, grid.n)
        legs.append(four._eigenrelation(spectrum, lambda i: np.conj(xk(i)), grid.n * f.value(k)))
        legs.append(four._compare(four.idft(spectrum).samples, f.samples))


@_spec(
    "dft.orthogonality",
    "distinct harmonics annihilate; equal harmonics give N times the harmonic",
    1e-9,
    "root-of-unity geometric sums cancel to roundoff; scale is N",
)
def _run_dft_orthogonality(grid, rng, legs):
    n = grid.n
    if n <= 16:
        m, k = np.divmod(np.arange(n * n), n)
    else:
        # 184 drawn pairs, m then k, then every max(1, n // 16)-th diagonal
        # pair and its antipode k = m + n/2, where x_2m and x_2k meet: a
        # harmonic doubled by a fault shows on no other distinct pair
        m, k = np.array([(_integer(rng, 0, n), _integer(rng, 0, n)) for _ in range(184)]).T
        diagonal = np.arange(0, n, max(1, n // 16))
        m = np.concatenate((m, diagonal, diagonal))
        k = np.concatenate((k, diagonal, (diagonal + n // 2) % n))
    # x_m (*) x_k = N delta(m - k) x_k against scale N, one circular
    # convolution per block of _RIEMANN_BLOCK // (2 N) pairs; each pair's
    # residual is the one it has alone, bit for bit.  Every x_m and x_k is
    # gathered from one root table, x_m(i) = roots(m i)
    m, k = m[:, None], k[:, None]
    roots = sig._unit_roots(1, n)
    rows = max(1, conv._RIEMANN_BLOCK // (2 * n))
    for lo in range(0, m.shape[0], rows):
        ms, ks = m[lo : lo + rows], k[lo : lo + rows]
        x_m = roots(ms * np.arange(n))
        factor = np.where(ms == ks, float(n), 0.0)
        legs.append((four._eigenrelation(x_m, lambda j: roots(ks * j), factor).residual, float(n)))
    return f"{m.shape[0]} pairs"


@_spec(
    "ft.forward",
    "finite signals convolved with e^(j w t) return the exponential times F(w)",
    1e-10,
    "same finite sum split two ways; roundoff only",
)
def _run_ft_forward(grid, rng, legs):
    ts = grid.ts
    for _ in range(10):
        f = _random_sampled(rng, ts)
        w = _uniform(rng, -0.5, 0.5) * math.pi / ts
        ks = np.arange(f.start - 4, f.end + 4)
        fw = four.fourier_transform(f, [w]).values[0]
        legs.append(four._eigenrelation(f, sig._analog_exp(1j * w, ts), fw, ks))


@_spec(
    "ft.inverse",
    "the spectrum convolved on the frequency grid returns 2*pi times the reconstruction",
    1e-10,
    "identity is exact for the grid-truncated reconstruction; roundoff only",
)
def _run_ft_inverse(grid, rng, legs):
    f = _ft_signal()
    ts = f.ts
    dw = _FT_GRID_STEP
    spectrum = four.fourier_transform(f, _ft_grid())
    spec_signal = sig.SampledSignal(dw, -_FT_GRID_HALF, spectrum.values)
    ks = np.arange(-8, 9)
    reach = sig._grid_steps(2.0, ts, "t0 window")
    for _ in range(5):
        t0_index = _integer(rng, -reach, reach + 1)
        fhat = four.inverse_fourier_transform(spectrum, ts, t0_index, 1).samples[0]
        e = sig._analog_exp(-1j * (t0_index * ts), dw)
        legs.append(four._eigenrelation(spec_signal, e, sig._TWO_PI * fhat, ks))


@_spec(
    "fs.conv_time",
    "time-domain circular convolution multiplies one-period harmonic factors",
    1e-9,
    "convolution theorem over a full period; FFT roundoff only",
)
def _run_fs_conv_time(grid, rng, legs):
    for _ in range(5):
        f = _random_trig_poly(rng, grid)
        g = _random_trig_poly(rng, grid)
        n = _integer(rng, -grid.n_max, grid.n_max + 1)
        legs.append(_harmonic_product(conv.periodic_convolve_analog, f, g, n))


@_spec(
    "fs.conv_freq",
    "convolving coefficient spectra matches the pointwise product of the signals",
    1e-8,
    "finite spectra of band-limited signals make the convolution a finite sum",
)
def _run_fs_conv_freq(grid, rng, legs):
    for _ in range(5):
        f = _random_trig_poly(rng, grid)
        g = _random_trig_poly(rng, grid)
        legs.append(_fs_conv_freq(f, g, _integer(rng, 0, grid.n), grid.n_max))


@_spec(
    "fs.lti_mixed",
    "finite impulse response on periodic input scales harmonics by the response factor",
    1e-8,
    "mixed fold plus circular convolution are exact finite sums",
)
def _run_fs_lti_mixed(grid, rng, legs):
    # periodic input through a finite impulse response: each harmonic is
    # scaled by the response's own factor, ((h*u) (*) x_n) = U(n) H(n) x_n
    for _ in range(5):
        h = _random_sampled(rng, grid.ts, max_len=min(16, grid.n))
        u = _random_trig_poly(rng, grid)
        n = _integer(rng, -grid.n_max, grid.n_max + 1)
        legs.append(_harmonic_product(conv.mixed_convolve, h, u, n))


@_spec(
    "ft.conv_time",
    "spectrum of a time-domain convolution is the product of the spectra",
    1e-10,
    "Riemann factors of the scaled convolution factor exactly",
)
def _run_ft_conv_time(grid, rng, legs):
    f = _ft_signal()
    ts = f.ts
    g = gen.gaussian(ts, 3.0, rate=2.0)
    fg = conv.approx_analog_convolve(f, g)
    ks = np.arange(-4, 5)
    for _ in range(3):
        # |w| <= 6 keeps the product spectrum, pi e^(-w^2 / 4) for these
        # Gaussians, far above roundoff, where a conjugated exponential shows
        w = _uniform(rng, -6.0, 6.0)
        fw = four.fourier_transform(f, [w]).values[0]
        gw = four.fourier_transform(g, [w]).values[0]
        legs.append(four._eigenrelation(fg, sig._analog_exp(1j * w, ts), gw * fw, ks))


@_spec(
    "ft.conv_freq",
    "convolving two spectra synthesizes 2*pi times the product signal",
    1e-8,
    "identity is exact against the grid-truncated reconstructions",
)
def _run_ft_conv_freq(grid, rng, legs):
    f = _ft_signal()
    ts = f.ts
    g = gen.gaussian(ts, 4.0, rate=2.0)
    dw = _FT_GRID_STEP
    omegas = _ft_grid()
    f_spec = four.fourier_transform(f, omegas)
    g_spec = four.fourier_transform(g, omegas)
    f_w = sig.SampledSignal(dw, -_FT_GRID_HALF, f_spec.values)
    g_w = sig.SampledSignal(dw, -_FT_GRID_HALF, g_spec.values)
    fg_w = conv.approx_analog_convolve(f_w, g_w)
    # t0 = 0 would make the test exponential 1, which no start or phase fault changes
    t0_index = _nonzero(rng, 8)
    fhat = four.inverse_fourier_transform(f_spec, ts, t0_index, 1).samples[0]
    ghat = four.inverse_fourier_transform(g_spec, ts, t0_index, 1).samples[0]
    factor = sig._TWO_PI * (sig._TWO_PI * fhat * ghat)
    ks = np.arange(-8, 9)
    legs.append(four._eigenrelation(fg_w, sig._analog_exp(-1j * (t0_index * ts), dw), factor, ks))


def _ft_derivative_residual(ts: float) -> float:
    f = gen.gaussian(ts, 4.0)
    omegas = _ft_grid()
    lhs = four.fourier_transform(conv.derivative(f), omegas).values
    rhs = 1j * omegas * four.fourier_transform(f, omegas).values
    return four._compare(lhs, rhs).residual


@_spec(
    "ft.derivative",
    "spectrum of the grid derivative converges to j*omega times the spectrum at second order",
    0.5,
    "central-difference symbol error is w^3 ts^2/6: halving ts must quarter the residual "
    "(ratio 4 +- 0.5) on a fixed Gaussian ladder ts = 1/16, 1/32, 1/64",
)
def _run_ft_derivative(grid, rng, legs):
    # the central difference has symbol sin(w ts)/ts = w - w^3 ts^2/6 + ...;
    # the ladder is fixed so the gate does not depend on the caller's grid
    return _halving_ratios(_ft_derivative_residual, (1 / 16, 1 / 32, 1 / 64), legs)


@_spec(
    "ft.time_shift",
    "an on-grid time shift multiplies the spectrum by a linear phase",
    1e-10,
    "phase factors of shifted grid times; roundoff only",
)
def _run_ft_time_shift(grid, rng, legs):
    f = _ft_signal()
    omegas = _ft_grid()
    # lag 0 would leave both sides the same transform
    lag = _nonzero(rng, 16) * f.ts
    lhs = four.fourier_transform(conv.shift(f, lag), omegas).values
    rhs = np.exp(-1j * omegas * lag) * four.fourier_transform(f, omegas).values
    legs.append(four._compare(lhs, rhs))


@_spec(
    "ft.duality",
    "transforming a spectrum again returns 2*pi times the time-reversed signal",
    0.05,
    "fixed oracle-calibrated grid; residual dominated by band truncation (measured "
    "residual 0.0829 at scale 2*pi: 0.0132 relative, margin 0.26)",
)
def _run_ft_duality(grid, rng, legs):
    # oracle-calibrated fixed grid: pulse at _FT_TS, spectrum on |w| <= 32 pi
    p = gen.pulse(_FT_TS)
    dw = _FT_GRID_STEP
    k_half = 256
    omegas = np.arange(-k_half, k_half + 1) * dw
    spec = four.fourier_transform(p, omegas)
    spectrum_as_signal = sig.SampledSignal(dw, -k_half, spec.values)
    w_prime = np.arange(-8, 9) * 0.25
    second = four.fourier_transform(spectrum_as_signal, w_prime).values
    want = sig._TWO_PI * np.where(np.abs(w_prime) < 0.5, 1.0, 0.0)
    mask = np.abs(np.abs(w_prime) - 0.5) > 0.2
    legs.append(four._compare(second[mask], want[mask]))
    return "fixed oracle grid; residual dominated by band truncation of the pulse spectrum"


@_spec(
    "ft.time_scale",
    "grid-exact rescaling maps the spectrum to (1/|a|) F(omega/a)",
    1e-10,
    "reversal is an exact reindexing of the Riemann sum; the a = 2 leg sums the "
    "Gaussian at steps 2 ts and ts, whose spectral replicas (Poisson) are below "
    "e^-7000 on |omega| <= 16 pi, so roundoff only (3.3e-16 at scale 0.886)",
)
def _run_ft_time_scale(grid, rng, legs):
    f = _ft_signal()
    omegas = _ft_grid()
    # a = -1: time reversal flips the frequency axis exactly
    lhs = four.fourier_transform(conv.scale_time(f, -1), omegas).values
    rhs = four.fourier_transform(f, omegas).values[::-1]
    legs.append(four._compare(lhs, rhs))
    # a = 2: f(2t) has the transform 1/2 F(w/2), with F taken on f's own grid
    lhs = four.fourier_transform(conv.scale_time(f, 2), omegas).values
    rhs = 0.5 * four.fourier_transform(f, omegas / 2.0).values
    legs.append(four._compare(lhs, rhs))


@_spec(
    "ft.discretize",
    "spectrum samples on the omega0 lattice equal T times the folded signal's coefficients",
    1e-9,
    "identical Riemann sums up to full-period phase wrap; roundoff only",
)
def _run_ft_discretize(grid, rng, legs):
    # F(n omega0) against T C_n of f folded into one period T.  A pulse of
    # width T fits the 4 T window, so the fold does not alias in time, and
    # the frequencies sit on the omega0 lattice of T by construction.  The
    # transform runs before the coefficients, so a grid on which both fail
    # notes the transform's error.
    n_window = 4 * grid.n
    f = gen.pulse(grid.ts, width=grid.t)
    folded = sig.periodize(f, n_window)
    n_max = min(max(grid.n_max, 1), (n_window - 1) // 2)
    spectrum = four.fourier_transform(f, np.arange(-n_max, n_max + 1) * folded.omega0)
    coeffs = four.fourier_coefficients(folded, n_max).coeffs
    legs.append(four._compare(spectrum.values, folded.period_t * coeffs))


@_spec(
    "ft.sampling",
    "sampling periodizes the spectrum; the reversed samples carry it as their factor",
    1e-9,
    "the Riemann spectrum of a sampled signal is exactly 2*pi/ts periodic",
)
def _run_ft_sampling(grid, rng, legs):
    # a fixed 37-sample pulse at the grid's ts: the identity is about ts, and
    # a fixed length keeps the work the same at every ts.  Off-centre, and of
    # a length that does not divide the 64 frequencies per omega_s, so its
    # spectrum vanishes at no grid frequency and the reversal leg sees a
    # shifted or unreversed pulse
    ts = grid.ts
    f = sig.SampledSignal(ts, -20, np.ones(37))
    omega_s = sig._TWO_PI / ts
    per_period = 64
    dw = omega_s / per_period
    k = np.arange(-(3 * per_period) // 2, (3 * per_period) // 2 + 1)
    omegas = k * dw
    vals = four.fourier_transform(f, omegas).values
    # sampling makes the spectrum periodic with period omega_s
    legs.append(four._compare(vals[per_period:], vals[:-per_period]))
    # base-band restriction plus replica summation rebuilds the spectrum
    rep = (k + per_period // 2) % per_period - per_period // 2
    masked = four.TransformSpectrum(omegas=omegas, values=np.where(rep == k, vals, 0.0))
    rebuilt = four.periodize_spectrum(masked, omega_s, 2)
    legs.append(four._compare(rebuilt.values, vals))
    # the reversed sample sequence carries the periodized spectrum as its factor
    reversed_f = conv.scale_time(f, -1)
    indices = sig._float_indices(reversed_f.start, len(reversed_f))
    lhs = ts * conv._power_sum(reversed_f.samples, indices, np.exp(-1j * omegas * ts))
    legs.append(four._compare(lhs, rebuilt.values))


@_spec(
    "dft.vs_series",
    "the DFT of one period of samples equals N times the series coefficients",
    1e-10,
    "both sides reduce to the same root-of-unity sums via independent code paths",
)
def _run_dft_vs_series(grid, rng, legs):
    for _ in range(5):
        f = _random_trig_poly(rng, grid)
        # the DFT of one period of samples at harmonic n (mod N) is N C_n
        spectrum = four.fourier_coefficients(f, grid.n_max)
        values = four.dft(sig.PeriodicDiscreteSignal(f.samples)).samples
        legs.append(four._compare(values[spectrum.harmonics() % grid.n], grid.n * spectrum.coeffs))


def registry_ids() -> tuple:
    return tuple(spec.id for spec in REGISTRY)


def _stream(seed: int, spec) -> random.Random:
    """The draws of one check at ``seed``: a ``random.Random`` seeded with the
    text "<seed>:<check id>", whatever the check's place in REGISTRY."""
    return random.Random(f"{seed}:{spec.id}")


def _check(spec, grid: GridParams, rng) -> IdentityCheck:
    """Run one registry entry and judge it at one return: the worst residual
    and scale over its legs pass when residual <= tolerance * max(1, scale).
    A runner that raises or records no leg fails with residual inf, and so
    does a NaN residual or a non-finite scale, with a note: ``max(1.0, nan)``
    is 1.0, and an infinite scale would pass any finite residual."""
    legs = []
    try:
        # a grid beyond the float64 range (e^(a t) at a large ts, an infinite
        # omega at a subnormal ts) gives non-finite values, which a
        # constructor rejects or the verdict fails; NumPy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            note = spec.runner(grid, rng, legs) or ""
        # a check that compares nothing is a gate that cannot fail
        if not legs:
            note = "failed: the runner recorded no leg"
    except Exception as exc:
        # a check that cannot be computed is a failure, never a skip
        legs, note = [], f"failed: {type(exc).__name__}: {exc}"
    residual, scale = map(float, _worst_of(legs) if legs else (math.inf, 0.0))
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


def run_all(grid: GridParams | None = None, seed: int = 42) -> Report:
    """Execute every registered check; deterministic under a fixed seed.

    Each check is judged by ``_check`` against its declared tolerance, which
    no argument rescales.  Individual failures are recorded in the report,
    never raised.  Every check runs on every grid (at n_max = 0 the periodic
    checks run on harmonic 0), and a check whose runner raises fails with an
    infinite residual; no check is ever skipped.
    """
    grid = GridParams() if grid is None else grid
    seed = sig._index(seed, "seed", minimum=0)
    checks = tuple(_check(spec, grid, _stream(seed, spec)) for spec in REGISTRY)
    return Report(
        checks=checks,
        seed=seed,
        grid_params={"n": grid.n, "ts": grid.ts, "t": grid.t, "n_max": grid.n_max},
    )
