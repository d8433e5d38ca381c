"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and enforces the stated tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np

from convfourier.cli import main
from convfourier.convolution import (
    derivative,
    exp_factor_analog,
    exp_factor_discrete,
    mixed_convolve,
    periodic_convolve_analog,
    periodic_convolve_discrete,
)
from convfourier.fourier import (
    dft,
    fourier_coefficients,
    fourier_transform,
    fs_eigencheck,
    harmonic_signal,
    idft,
    series_synthesize,
)
from convfourier.generators import cosine, gaussian, pulse
from convfourier.signals import (
    DiscreteSignal,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
)

from oracles import eval_discrete_exponential, riemann_factor_brute


def _report(num, label, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num}: {label}  ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.2f}s)"


def rand_values(rng, n):
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


def band_limited(rng, n_samples, ts, n_max):
    k = np.arange(n_samples)
    samples = np.zeros(n_samples, dtype=complex)
    for n in range(-n_max, n_max + 1):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        samples += c * np.exp(2j * np.pi * ((n * k) % n_samples) / n_samples)
    return PeriodicSampledSignal(ts=ts, samples=samples)


def test_criterion_1_dft_round_trip():
    # idft(dft(f)) returns f to 1e-12 * max(1, |f|inf) for N = 1..64
    start = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for n in range(1, 65):
        for _ in range(20):
            f = rand_values(rng, n)
            back = idft(dft(PeriodicDiscreteSignal(f))).samples
            err = np.max(np.abs(back - f))
            ok &= err <= 1e-12 * max(1.0, np.max(np.abs(f)))
    _report(1, "DFT/IDFT round trip, N = 1..64", ok, time.time() - start, 5.0)


def test_criterion_2_orthogonality():
    # |x_m (*) x_n - N delta(m-n) x_n|inf <= 1e-9 N for all pairs, N <= 32
    start = time.time()
    ok = True
    for n in range(1, 33):
        for m in range(n):
            for k in range(n):
                x_k = harmonic_signal(k, n)
                out = periodic_convolve_discrete(harmonic_signal(m, n), x_k).samples
                ok &= np.max(np.abs(out - (n if m == k else 0) * x_k.samples)) <= 1e-9 * n
    _report(2, "harmonic orthogonality, all pairs for N <= 32", ok, time.time() - start, 10.0)


def test_criterion_3_discrete_eigenrelation():
    # direct-sum convolution against F(a) a^k on an 8-wide window
    start = time.time()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(200):
        length = int(rng.integers(1, 17))
        f = DiscreteSignal(int(rng.integers(-8, 1)), rand_values(rng, length))
        a = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        factor = exp_factor_discrete(f, a)
        ks = range(f.start - 4, f.end + 4)
        lhs = [sum(f.value(n) * a ** (k - n) for n in range(f.start, f.end)) for k in ks]
        rhs = [factor * eval_discrete_exponential(a, k) for k in ks]
        scale = max(abs(r) for r in rhs)
        worst = max(abs(x - y) for x, y in zip(lhs, rhs))
        ok &= worst <= 1e-10 * max(1.0, scale)
    _report(3, "discrete exponential eigenrelation, 200 draws", ok, time.time() - start, 1.0)


def test_criterion_4_fourier_series_pair():
    # eigencheck residual and synthesis round trip on band-limited signals
    start = time.time()
    rng = np.random.default_rng(104)
    n_samples, ts, n_max = 64, 1.0 / 64.0, 8
    ok = True
    for _ in range(20):
        f = band_limited(rng, n_samples, ts, n_max)
        n = int(rng.integers(-n_max, n_max + 1))
        report = fs_eigencheck(f, n)
        ok &= report.residual <= 1e-9 * max(1.0, report.scale)
        spectrum = fourier_coefficients(f, n_max)
        back = series_synthesize(spectrum, ts=ts, start=0, count=n_samples)
        err = np.max(np.abs(back.samples - f.samples))
        ok &= err <= 1e-10 * max(1.0, np.max(np.abs(f.samples)))
    _report(4, "series eigenrelation and synthesis round trip", ok, time.time() - start, 5.0)


def test_criterion_5_bridge_identities():
    # one-period factor = T * C_n and DFT = N * C_n, cosine plus random cases
    start = time.time()
    ok = True
    # cosine case: C_1 = 0.5, F_d(1) = N/2
    n_samples, ts = 16, 1.0 / 16.0
    period_t = n_samples * ts
    f = cosine(n_samples, ts)
    spectrum = fourier_coefficients(f, 3)
    ok &= abs(spectrum.coefficient(1) - 0.5) <= 1e-10 * 0.5
    ok &= abs(spectrum.coefficient(-1) - 0.5) <= 1e-10 * 0.5
    values = dft(PeriodicDiscreteSignal(f.samples)).samples
    ok &= abs(values[1] - n_samples / 2) <= 1e-10 * (n_samples / 2)
    factor = exp_factor_analog(f, 1j * 2 * math.pi / period_t)
    ok &= abs(factor - period_t * spectrum.coefficient(1)) <= 1e-10 * abs(factor)
    # random band-limited cases, coefficients cross-checked against a brute oracle
    rng = np.random.default_rng(105)
    n_samples, ts, n_max = 64, 1.0 / 64.0, 8
    period_t = n_samples * ts
    omega0 = 2 * math.pi / period_t
    for _ in range(20):
        f = band_limited(rng, n_samples, ts, n_max)
        spectrum = fourier_coefficients(f, n_max)
        values = dft(PeriodicDiscreteSignal(f.samples)).samples
        for n in range(-n_max, n_max + 1):
            c_n = spectrum.coefficient(n)
            oracle = riemann_factor_brute(list(f.samples), 0, ts, 1j * n * omega0) / period_t
            ok &= abs(c_n - oracle) <= 1e-10 * max(1.0, abs(oracle))
            f_d_n = values[n % n_samples]
            ok &= abs(f_d_n - n_samples * c_n) <= 1e-10 * max(1.0, abs(f_d_n))
            if n != 0:
                factor = exp_factor_analog(f, 1j * n * omega0)
                ok &= abs(factor - period_t * c_n) <= 1e-10 * max(1.0, abs(factor))
    _report(5, "bridge identities: factor = T C_n and DFT = N C_n", ok, time.time() - start, 2.0)


def test_criterion_6_pulse_spectrum():
    # pulse transform at pi within the first-order Riemann budget, halving ts
    start = time.time()
    errs = []
    for ts in (1.0 / 512.0, 1.0 / 1024.0):
        value = fourier_transform(pulse(ts), [math.pi]).values[0]
        errs.append(abs(value - 2.0 / math.pi))
    ok = errs[0] <= 5e-3 and 1.7 <= errs[0] / errs[1] <= 2.3
    _report(6, "pulse spectrum error and first-order decay", ok, time.time() - start, 2.0)


def test_criterion_7_derivative_order():
    # spectrum of the grid derivative converges to j w F at order >= 1.8
    start = time.time()
    omegas = np.arange(-32, 33) * 0.25
    residuals = []
    for ts in (0.02, 0.01, 0.005):
        f = gaussian(ts, 6.0)
        lhs = fourier_transform(derivative(f), omegas).values
        rhs = 1j * omegas * fourier_transform(f, omegas).values
        residuals.append(np.max(np.abs(lhs - rhs)))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = all(order >= 1.8 for order in orders)
    _report(7, f"derivative order {orders[0]:.2f}, {orders[1]:.2f} >= 1.8", ok, time.time() - start, 5.0)


def test_criterion_8_full_harness(tmp_path):
    # the verify command with default parameters passes every check
    start = time.time()
    out = str(tmp_path / "report.json")
    code = main(["verify", "--out", out])
    report = json.loads(open(out).read())
    checks = report["checks"]
    ok = code == 0 and report["passed"] and len(checks) == 31
    ok &= all(c["residual"] <= c["tolerance"] * max(1.0, c["scale"]) for c in checks)
    _report(8, "full identity harness at default parameters", ok, time.time() - start, 60.0)


def test_criterion_9_mixed_associativity():
    # (h * f) (*) g equals h * (f (*) g) on 50 random instances
    start = time.time()
    rng = np.random.default_rng(109)
    ok = True
    for trial in range(50):
        if trial % 2 == 0:
            ts = 1.0 / 32.0
            h = SampledSignal(ts, int(rng.integers(-8, 9)), rand_values(rng, int(rng.integers(1, 17))))
            f = PeriodicSampledSignal(ts, rand_values(rng, 32))
            g = PeriodicSampledSignal(ts, rand_values(rng, 32))
            a = periodic_convolve_analog(mixed_convolve(h, f), g)
            b = mixed_convolve(h, periodic_convolve_analog(f, g))
        else:
            h = DiscreteSignal(int(rng.integers(-8, 9)), rand_values(rng, int(rng.integers(1, 17))))
            f = PeriodicDiscreteSignal(rand_values(rng, 24))
            g = PeriodicDiscreteSignal(rand_values(rng, 24))
            a = periodic_convolve_discrete(mixed_convolve(h, f), g)
            b = mixed_convolve(h, periodic_convolve_discrete(f, g))
        scale = max(1.0, np.max(np.abs(b.samples)))
        ok &= np.max(np.abs(a.samples - b.samples)) <= 1e-9 * scale
    _report(9, "mixed associativity, 50 instances", ok, time.time() - start, 1.0)
