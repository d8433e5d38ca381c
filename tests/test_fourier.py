import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from convfourier import convolution as conv
from convfourier import fourier, signals
from convfourier.convolution import (
    exp_factor_analog,
    exp_factor_discrete,
    periodic_convolve_discrete,
)
from convfourier.fourier import (
    SeriesSpectrum,
    TransformSpectrum,
    dft,
    fourier_coefficients,
    fourier_transform,
    fs_eigencheck,
    harmonic_signal,
    idft,
    inverse_fourier_transform,
    periodize_spectrum,
    sampled_harmonic,
    series_synthesize,
)
from convfourier.generators import cosine, gaussian, pulse, square
from convfourier.harness import _ft_grid, _ft_signal
from convfourier.signals import (
    AliasingError,
    DiscreteSignal,
    GridMismatchError,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    periodize,
)

from oracles import (
    conv_brute,
    dft_brute,
    power_factor_brute,
    riemann_factor_brute,
    riemann_sum_fsum,
)
from test_convolution import riemann_bound


def rand_values(rng, n):
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


def band_limited(rng, n_samples, ts, n_max):
    k = np.arange(n_samples)
    samples = np.zeros(n_samples, dtype=complex)
    coeffs = {}
    for n in range(-n_max, n_max + 1):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs[n] = c
        samples += c * np.exp(2j * np.pi * ((n * k) % n_samples) / n_samples)
    return PeriodicSampledSignal(ts=ts, samples=samples), coeffs


class TestSpectrumTypes:
    def test_series_coefficient_lookup(self):
        s = SeriesSpectrum(period_t=1.0, coeffs=np.array([1j, 2.0, 3.0]))
        assert s.n_max == 1
        assert s.coefficient(-1) == 1j
        assert s.coefficient(0) == 2.0
        assert s.coefficient(5) == 0j

    @pytest.mark.parametrize("period_t", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_series_rejects_a_period_that_is_not_finite_and_positive(self, period_t):
        with pytest.raises(ValueError, match="period must be finite and > 0"):
            SeriesSpectrum(period_t=period_t, coeffs=[1.0])

    def test_series_needs_an_odd_coefficient_count(self):
        with pytest.raises(ValueError, match=r"^coefficients must cover a symmetric window -n_max\.\.n_max$"):
            SeriesSpectrum(period_t=1.0, coeffs=[1.0, 2.0])

    @pytest.mark.parametrize(
        "omegas, values, message",
        [
            ([0.0, 1.0], [1.0], "omegas and values must be matching 1-d arrays"),
            ([[0.0, 1.0]], [[1.0, 2.0]], "omegas and values must be matching 1-d arrays"),
            ([], [], "spectrum needs at least one frequency"),
        ],
        ids=["lengths", "2-d", "empty"],
    )
    def test_transform_spectrum_shapes(self, omegas, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransformSpectrum(omegas=omegas, values=values)

    def test_dft_spectrum_periodic_evaluation(self):
        s = dft(PeriodicDiscreteSignal([1.0, 2.0, 3.0]))
        for n in range(-9, 9):
            assert s.value(n + 3) == s.value(n)

    @pytest.mark.parametrize("n", [1.7, 1.0, True, "1"], ids=repr)
    def test_dft_spectrum_index_is_never_truncated(self, n):
        s = dft(PeriodicDiscreteSignal([0.0, 1.0, 0.0]))
        assert s.value(np.int64(4)) == s.samples[1]
        # the spectrum's index is the signal's, k
        with pytest.raises(ValueError, match="^k must be an integer"):
            s.value(n)

    @pytest.mark.parametrize("transform", [dft, idft], ids=lambda t: t.__name__)
    def test_dft_spectrum_beyond_float64_is_refused(self, transform):
        # either direction builds its result with the signal's constructor
        f = PeriodicDiscreteSignal([1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^samples contain non-finite values$"):
            transform(f)

    @pytest.mark.parametrize("n", [1.7, 1.0, True, "1"], ids=repr)
    def test_series_coefficient_index_is_never_truncated(self, n):
        s = SeriesSpectrum(period_t=1.0, coeffs=np.array([1.0, 2.0, 3.0]))
        assert s.coefficient(np.int64(1)) == 3.0
        with pytest.raises(ValueError, match="n must be an integer"):
            s.coefficient(n)

    def test_transform_spectrum_needs_uniform_grid(self):
        with pytest.raises(ValueError):
            TransformSpectrum(omegas=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))
        with pytest.raises(ValueError):
            TransformSpectrum(omegas=np.array([1.0, 0.0]), values=np.zeros(2))

    @pytest.mark.parametrize(
        "omegas", [[math.nan], [math.inf], [-math.inf], [0.0, math.inf], [0.0, 1.0, math.nan]]
    )
    def test_transform_spectrum_rejects_a_frequency_that_is_not_finite(self, omegas):
        with pytest.raises(ValueError, match="omegas must be finite"):
            TransformSpectrum(omegas=omegas, values=np.zeros(len(omegas)))

    @pytest.mark.parametrize("omegas", [[0.0, 1 + 5j, 2 + 1j], np.arange(3) + 0j], ids=repr)
    def test_transform_spectrum_rejects_a_complex_grid(self, omegas):
        # a float64 cast would drop the imaginary parts with only a ComplexWarning
        with pytest.raises(ValueError, match="omegas must be real"):
            TransformSpectrum(omegas, np.ones(3))
        with pytest.raises(ValueError, match="omegas must be real"):
            fourier_transform(SampledSignal(0.5, 0, [1.0]), omegas)

    def test_transform_spectrum_lookup(self):
        s = TransformSpectrum(omegas=np.array([-1.0, 0.0, 1.0]), values=np.array([1, 2, 3.0]))
        assert s.value(0.0) == 2.0
        with pytest.raises(KeyError):
            s.value(0.5)

    @pytest.mark.parametrize("omega", [True, np.bool_(True), "1", math.nan, math.inf], ids=repr)
    def test_transform_spectrum_lookup_reads_a_finite_number(self, omega):
        # True was read as omega 1 and "1" raised NumPy's UFuncTypeError
        s = TransformSpectrum(omegas=np.array([-1.0, 0.0, 1.0]), values=np.array([1, 2, 3.0]))
        with pytest.raises(ValueError, match="^omega must be"):
            s.value(omega)
        assert s.value(np.float64(1.0)) == s.value(1) == 3.0

    @pytest.mark.parametrize("omegas", [
        100 + 0.001 * np.arange(200),
        np.arange(257) * (math.pi / 8),
        -16 * math.pi + np.arange(257) * (math.pi / 8),
    ], ids=["100 + 0.001k", "k pi/8", "-16 pi + k pi/8"])
    def test_transform_spectrum_lookup_finds_stored_and_typed_frequencies(self, omegas):
        # a lookup is no grid read: whole steps from omegas[0] would reject 198
        # of the 200 stored frequencies of 100 + 0.001k, and a 1e-12 relative
        # tolerance 45 and 86 of the 257 typed to 12 digits on the pi/8 grids
        s = TransformSpectrum(omegas=omegas, values=np.arange(omegas.size) + 0j)
        for i, omega in enumerate(s.omegas):
            assert s.value(omega) == i
            assert s.value(float(f"{omega:.12g}")) == i


class TestFourierCoefficients:
    def test_cosine_halves(self):
        spectrum = fourier_coefficients(cosine(16, 1.0 / 16.0), 3)
        assert abs(spectrum.coefficient(1) - 0.5) <= 1e-12
        assert abs(spectrum.coefficient(-1) - 0.5) <= 1e-12
        for n in (-3, -2, 0, 2, 3):
            assert abs(spectrum.coefficient(n)) <= 1e-12

    def test_constant(self):
        f = PeriodicSampledSignal(0.125, (2.5 - 1j) * np.ones(8))
        spectrum = fourier_coefficients(f, 3)
        assert abs(spectrum.coefficient(0) - (2.5 - 1j)) <= 1e-12
        for n in (-3, -2, -1, 1, 2, 3):
            assert abs(spectrum.coefficient(n)) <= 1e-12

    def test_square_wave_fundamental(self):
        spectrum = fourier_coefficients(square(256, 1.0 / 256.0), 3)
        assert abs(abs(spectrum.coefficient(1)) - 2.0 / math.pi) <= 0.01

    def test_harmonic_exactness(self):
        # sampled harmonics give C_n = delta(n - m) to root-of-unity accuracy
        n_samples, ts = 64, 1.0 / 64.0
        for m in (0, 1, -5, 8):
            x = sampled_harmonic(m, n_samples, ts)
            spectrum = fourier_coefficients(x, 8)
            for n in range(-8, 9):
                want = 1.0 if n == m else 0.0
                assert abs(spectrum.coefficient(n) - want) <= 1e-12

    def test_conjugate_symmetry_for_real_signals(self):
        rng = np.random.default_rng(21)
        f = PeriodicSampledSignal(1.0 / 32.0, rng.uniform(-1, 1, 32).astype(complex))
        spectrum = fourier_coefficients(f, 10)
        for n in range(1, 11):
            assert abs(spectrum.coefficient(-n) - spectrum.coefficient(n).conjugate()) <= 1e-10

    def test_alias_window_rejected(self):
        f = PeriodicSampledSignal(0.125, np.ones(8))
        with pytest.raises(AliasingError):
            fourier_coefficients(f, 4)

    def test_matches_periodic_factor(self):
        # C_n must equal the one-period factor divided by T
        rng = np.random.default_rng(22)
        f = PeriodicSampledSignal(1.0 / 16.0, rand_values(rng, 16))
        spectrum = fourier_coefficients(f, 5)
        period_t = f.period_t
        for n in range(-5, 6):
            if n == 0:
                factor = riemann_factor_brute(list(f.samples), 0, f.ts, 0j)
            else:
                factor = exp_factor_analog(f, 1j * n * spectrum.omega0)
            assert abs(spectrum.coefficient(n) - factor / period_t) <= 1e-12


class TestSeriesSynthesize:
    def test_dc_only(self):
        s = SeriesSpectrum(period_t=2.0, coeffs=np.array([0, 3.5 + 1j, 0]))
        out = series_synthesize(s, ts=0.25, start=0, count=8)
        assert np.allclose(out.samples, 3.5 + 1j, atol=1e-14)

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(23)
        n_samples, ts = 32, 1.0 / 32.0
        f, _ = band_limited(rng, n_samples, ts, 3)
        spectrum = fourier_coefficients(f, 3)
        out = series_synthesize(spectrum, ts=ts, start=0, count=n_samples)
        err = np.max(np.abs(out.samples - f.samples))
        assert err <= 1e-10 * max(1.0, np.max(np.abs(f.samples)))

    def test_gibbs_overshoot(self):
        # truncated square-wave synthesis overshoots by about 9% of the jump
        spectrum = fourier_coefficients(square(2048, 1.0 / 2048.0), 101)
        dense = series_synthesize(spectrum, ts=1.0 / 32768.0, start=0, count=1024)
        overshoot = (dense.samples.real.max() - 1.0) / 2.0  # jump has size 2
        assert 0.08 <= overshoot <= 0.10


class TestFsEigencheck:
    def test_self_pairing(self):
        n_samples, ts = 64, 1.0 / 64.0
        x = sampled_harmonic(3, n_samples, ts)
        report = fs_eigencheck(x, 3)
        period_t = n_samples * ts
        assert report.scale == pytest.approx(period_t, rel=1e-12)
        assert report.residual <= 1e-12 * period_t

    def test_random_band_limited(self):
        rng = np.random.default_rng(24)
        n_samples, ts = 64, 1.0 / 64.0
        for _ in range(10):
            f, _ = band_limited(rng, n_samples, ts, n_samples // 4)
            n = int(rng.integers(-n_samples // 4, n_samples // 4 + 1))
            report = fs_eigencheck(f, n)
            assert report.residual <= 1e-9 * max(1.0, report.scale)

    def test_arbitrary_periodic_signals(self):
        # the eigenrelation holds for any periodic f, not just band-limited ones
        rng = np.random.default_rng(240)
        for n_samples in (3, 8, 33, 64):
            f = PeriodicSampledSignal(1.0 / n_samples, rand_values(rng, n_samples))
            for _ in range(5):
                n = int(rng.integers(-(n_samples - 1) // 2, (n_samples - 1) // 2 + 1))
                report = fs_eigencheck(f, n)
                assert report.residual <= 1e-9 * max(1.0, report.scale)

    def test_constant_orthogonal_to_harmonics(self):
        f = PeriodicSampledSignal(1.0 / 16.0, np.ones(16))
        report = fs_eigencheck(f, 3)
        assert report.scale <= 1e-12
        assert report.residual <= 1e-12

    def test_alias_rejected(self):
        f = PeriodicSampledSignal(0.25, np.ones(4))
        with pytest.raises(AliasingError):
            fs_eigencheck(f, 2)


class TestDft:
    def test_delta_to_ones(self):
        out = dft(PeriodicDiscreteSignal([1, 0, 0, 0]))
        assert np.allclose(out.samples, 1.0, atol=1e-15)

    def test_ones_to_scaled_delta(self):
        out = dft(PeriodicDiscreteSignal([1, 1, 1, 1]))
        assert np.allclose(out.samples, [4, 0, 0, 0], atol=1e-14)

    def test_two_point(self):
        out = dft(PeriodicDiscreteSignal([1, 1j]))
        assert np.allclose(out.samples, [1 + 1j, 1 - 1j], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(25)
        for n in (1, 2, 3, 7, 16, 96, 257):
            vals = rand_values(rng, n)
            got = dft(PeriodicDiscreteSignal(vals)).samples
            want = dft_brute(list(vals))
            assert np.max(np.abs(got - np.asarray(want))) <= 1e-11 * max(1.0, np.abs(got).max())

    def test_linearity(self):
        rng = np.random.default_rng(26)
        f = rand_values(rng, 24)
        g = rand_values(rng, 24)
        alpha, beta = 1.5 - 0.5j, -0.25 + 2j
        lhs = dft(PeriodicDiscreteSignal(alpha * f + beta * g)).samples
        rhs = alpha * dft(PeriodicDiscreteSignal(f)).samples + beta * dft(PeriodicDiscreteSignal(g)).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_real_signal_symmetry(self):
        rng = np.random.default_rng(27)
        f = rng.uniform(-1, 1, 20).astype(complex)
        values = dft(PeriodicDiscreteSignal(f)).samples
        for n in range(1, 20):
            assert abs(values[20 - n] - values[n].conjugate()) <= 1e-12 * max(1.0, abs(values[n]))

    def test_consistency_with_periodic_factor(self):
        # the FFT-based DFT and the direct power-series factor must agree
        rng = np.random.default_rng(28)
        for n_samples in (2, 7, 16, 64):
            f = PeriodicDiscreteSignal(rand_values(rng, n_samples))
            values = dft(f).samples
            scale = max(1.0, np.abs(values).max())
            for n in range(n_samples):
                a = complex(np.exp(2j * np.pi * n / n_samples))
                factor = exp_factor_discrete(f, a)
                assert abs(factor - values[n]) <= 1e-13 * scale


class TestIdft:
    def test_inverse_of_examples(self):
        out = idft(PeriodicDiscreteSignal([4.0, 0, 0, 0]))
        assert np.allclose(out.samples, 1.0, atol=1e-15)
        out = idft(PeriodicDiscreteSignal(np.ones(4)))
        assert np.allclose(out.samples, [1, 0, 0, 0], atol=1e-15)

    def test_round_trip_small(self):
        rng = np.random.default_rng(29)
        f = rand_values(rng, 7)
        out = idft(dft(PeriodicDiscreteSignal(f)))
        assert np.max(np.abs(out.samples - f)) <= 1e-12

    def test_round_trip_all_periods(self):
        rng = np.random.default_rng(30)
        for n in range(1, 65):
            f = rand_values(rng, n)
            out = idft(dft(PeriodicDiscreteSignal(f)))
            assert np.max(np.abs(out.samples - f)) <= 1e-12 * max(1.0, np.abs(f).max())

    def test_round_trip_large_period(self):
        rng = np.random.default_rng(300)
        f = rand_values(rng, 1024)
        out = idft(dft(PeriodicDiscreteSignal(f)))
        assert np.max(np.abs(out.samples - f)) <= 1e-12 * max(1.0, np.abs(f).max())


def assert_peak_under_8_mib(kernels):
    for name, kernel in kernels.items():
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (name, peak)


def test_kernels_at_2048_stay_linear_in_memory():
    # an N x N complex matrix at N = 2048 alone takes 64 MiB
    rng = np.random.default_rng(32)
    f = PeriodicDiscreteSignal(rand_values(rng, 2048))
    spectrum = dft(f)
    assert_peak_under_8_mib({
        "dft": lambda: dft(f),
        "idft": lambda: idft(spectrum),
        "periodic_convolve_discrete": lambda: periodic_convolve_discrete(f, f),
    })


def test_transforms_stay_linear_in_memory():
    # a 401 x 12289 complex kernel matrix alone takes 75 MiB, a 2048 x 401 one 12.5 MiB
    f = gaussian(1.0 / 1024.0, 6.0)
    omegas = 0.125 + 0.25 * np.arange(-200, 201)
    spectrum = fourier_transform(f, omegas)
    assert_peak_under_8_mib({
        "fourier_transform": lambda: fourier_transform(f, omegas),
        "inverse_fourier_transform": lambda: inverse_fourier_transform(spectrum, f.ts, -1024, 2048),
    })


def orthogonality_residual(m, k, n):
    """max |x_m (*) x_k - N delta(m - k) x_k| through the public circular convolution."""
    out = periodic_convolve_discrete(harmonic_signal(m, n), harmonic_signal(k, n)).samples
    return np.max(np.abs(out - (n if m == k else 0) * harmonic_signal(k, n).samples))


class TestDftOrthogonality:
    def test_dc_pair(self):
        assert orthogonality_residual(0, 0, 4) <= 1e-12
        out = harmonic_signal(0, 4).samples * 4
        assert np.allclose(out, 4.0, atol=0)

    def test_cross_pair_cancels(self):
        assert orthogonality_residual(1, 2, 8) <= 1e-12 * 8

    def test_self_pair(self):
        assert orthogonality_residual(3, 3, 8) <= 1e-12 * 8

    def test_all_pairs_small(self):
        for n in range(1, 13):
            for m in range(n):
                for k in range(n):
                    assert orthogonality_residual(m, k, n) <= 1e-9 * n

    @pytest.mark.parametrize("n", [1.7, 2.0, True, np.float64(1.0), np.array([1, 2])])
    def test_harmonics_reject_an_index_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            harmonic_signal(n, 4)
        with pytest.raises(ValueError, match="n must be an integer"):
            sampled_harmonic(n, 4, 0.25)

    def test_harmonics_accept_numpy_integers(self):
        assert np.array_equal(harmonic_signal(np.int32(3), 8).samples, harmonic_signal(3, 8).samples)
        assert np.array_equal(
            sampled_harmonic(np.uint8(3), 8, 0.25).samples, sampled_harmonic(3, 8, 0.25).samples
        )

    @pytest.mark.parametrize("period", [3, 8])
    @pytest.mark.parametrize("n", [2**62, 2**63 - 1, 10**30, -(2**62) - 1, -7], ids=repr)
    def test_harmonic_is_reduced_mod_the_period(self, n, period):
        # n * k wrapped in int64 (2^62 gave errors of 1.73 at period 3), and
        # 10^30 was an OverflowError
        want = harmonic_signal(n % period, period).samples
        assert harmonic_signal(n, period).samples.tobytes() == want.tobytes()
        assert sampled_harmonic(n, period, 0.25).samples.tobytes() == want.tobytes()
        if abs(n) < 2**63:
            column = signals._unit_roots(np.array([[n]], dtype=np.int64), period)(np.arange(period))
            assert column.tobytes() == want.tobytes()


def test_row_stacked_eigenrelation_is_its_rows_bit_for_bit():
    # f a (rows, N) stack of periods, expo a (rows, 1) column of harmonics and
    # factor a (rows, 1) column: the stack's report is the worst of its rows
    rng = np.random.default_rng(11)
    for period in (1, 5, 64, 300):
        rows = 6
        f = rand_values(rng, (rows, period))
        n = rng.integers(0, period, (rows, 1))
        factor = rand_values(rng, (rows, 1))
        stacked = fourier._eigenrelation(f, signals._unit_roots(n, period), factor)
        alone = [
            fourier._eigenrelation(
                PeriodicDiscreteSignal(f[i]), signals._unit_roots(int(n[i, 0]), period), factor[i, 0]
            )
            for i in range(rows)
        ]
        assert stacked.residual == max(r.residual for r in alone)
        assert stacked.scale == max(r.scale for r in alone)


def test_residual_report_is_a_pair():
    # the one comparison: max |lhs - rhs| against max |rhs|, an empty side counting as 0
    residual, scale = report = fourier._compare(np.array([1.0, 3.0]), np.array([1.0, -1.0]))
    assert (residual, scale) == (report.residual, report.scale) == (4.0, 1.0)
    assert tuple(fourier._compare(np.empty(0), np.empty(0))) == (0.0, 0.0)
    report = fs_eigencheck(sampled_harmonic(1, 8, 0.25), 2)
    assert tuple(report) == (report.residual, report.scale)


# The four convolutions of the eigenrelation f * e = factor * e: each case
# gives (f, e as an index function, its factor from a brute oracle, ks).
def linear_discrete(rng):
    f = DiscreteSignal(-3, rand_values(rng, 9))
    a = 1.05 * np.exp(0.7j)
    factor = power_factor_brute(list(f.samples), f.start, a)
    return f, lambda k: np.array([a ** int(i) for i in k]), factor, np.arange(-7, 10)


def linear_analog(rng):
    f = SampledSignal(0.125, -4, rand_values(rng, 9))
    a = 0.3 + 2j
    factor = riemann_factor_brute(list(f.samples), f.start, f.ts, a)
    return f, lambda k: np.exp(a * k * f.ts), factor, np.arange(-8, 9)


def circular_discrete(rng):
    f = PeriodicDiscreteSignal(rand_values(rng, 12))
    factor = power_factor_brute(list(f.samples), 0, np.exp(2j * np.pi * 5 / 12))
    return f, lambda k: np.exp(2j * np.pi * 5 * k / 12), factor, None


def circular_analog(rng):
    f = PeriodicSampledSignal(1.0 / 16.0, rand_values(rng, 16))
    factor = riemann_factor_brute(list(f.samples), 0, f.ts, 3j * 2 * np.pi / f.period_t)
    return f, lambda k: np.exp(2j * np.pi * 3 * k / 16), factor, None


@pytest.mark.parametrize(
    "family", [linear_discrete, linear_analog, circular_discrete, circular_analog],
    ids=lambda family: family.__name__,
)
def test_eigenrelation_of_every_convolution(monkeypatch, family):
    f, expo, factor, ks = family(np.random.default_rng(31))
    residual, scale = fourier._eigenrelation(f, expo, factor, ks)
    assert residual <= 1e-12 * max(1.0, scale)
    residual, scale = fourier._eigenrelation(f, expo, factor * (1 + 1e-6), ks)
    assert residual >= 1e-7 * scale
    if ks is None:
        return
    # the left side is the kernel's output, checked at every k against a
    # double loop over an exponential wider than the overlapping indices
    name = "approx_analog_convolve" if isinstance(f, SampledSignal) else "discrete_convolve"
    kernel, outs = getattr(conv, name), []
    monkeypatch.setattr(conv, name, lambda x, y, **window: outs.append(kernel(x, y, **window)) or outs[-1])
    fourier._eigenrelation(f, expo, factor, ks)
    (out,) = outs
    lo = int(ks[0]) - f.end - 2
    start, want = conv_brute(
        list(f.samples), f.start, list(expo(np.arange(lo, int(ks[-1]) - f.start + 3))), lo
    )
    for k in ks:
        want_k = getattr(f, "ts", 1.0) * want[k - start]
        assert abs(out.value(k) - want_k) <= 1e-12 * max(1.0, abs(want_k))


@pytest.mark.parametrize("shift", [1, -1, 8, -40, 10**6])
@pytest.mark.parametrize("family", [linear_discrete, linear_analog], ids=lambda family: family.__name__)
def test_eigenrelation_at_a_shifted_output_fails_by_its_residual(monkeypatch, family, shift):
    # the linear branch reads the output as a signal at ks, so an output start
    # off by any amount reads zero off the support: a residual, not an IndexError
    f, expo, factor, ks = family(np.random.default_rng(31))
    name = "approx_analog_convolve" if isinstance(f, SampledSignal) else "discrete_convolve"
    kernel = getattr(conv, name)

    def shifted(x, y, **window):
        out = kernel(x, y, **window)
        return replace(out, start=out.start + shift)

    monkeypatch.setattr(conv, name, shifted)
    residual, scale = fourier._eigenrelation(f, expo, factor, ks)
    assert math.isfinite(residual) and residual > 1e-3 * max(1.0, scale)


class TestFourierTransform:
    def test_pulse_at_pi(self):
        spectrum = fourier_transform(pulse(1.0 / 512.0), [math.pi])
        assert abs(spectrum.values[0] - 2.0 / math.pi) <= 5e-3

    def test_narrow_pulse_is_flat(self):
        # the sampled identity pulse has unit spectrum well below 2 pi / ts
        ts = 1.0 / 128.0
        d = SampledSignal(ts, 0, [1.0 / ts])
        spectrum = fourier_transform(d, np.linspace(-10, 10, 41))
        assert np.max(np.abs(spectrum.values - 1.0)) <= 1e-12

    def test_real_even_signal_gives_real_even_spectrum(self):
        f = gaussian(1.0 / 32.0, 4.0)
        omegas = np.arange(-32, 33) * 0.25
        spectrum = fourier_transform(f, omegas)
        assert np.max(np.abs(spectrum.values.imag)) <= 1e-10
        assert np.max(np.abs(spectrum.values - spectrum.values[::-1])) <= 1e-10

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        vals = rand_values(rng, 11)
        f = SampledSignal(0.125, -5, vals)
        for w in (-3.0, 0.0, 1.7):
            got = fourier_transform(f, [w]).values[0]
            want = riemann_factor_brute(list(vals), -5, 0.125, 1j * w)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_transform_is_the_eigenfactor(self):
        # F(omega) is f's eigenfactor at a = j omega, bit for bit; the grid avoids omega = 0
        rng = np.random.default_rng(36)
        omegas = 0.125 + 0.25 * np.arange(-160, 160)
        signals = [
            gaussian(1.0 / 32.0, 4.0),
            SampledSignal(0.125, -5, rand_values(rng, 11)),
            SampledSignal(0.0625, 40, rand_values(rng, 300)),
            gaussian(1.0 / 1024.0, 6.0),
        ]
        for f in signals:
            got = fourier_transform(f, omegas).values
            want = np.array([exp_factor_analog(f, 1j * w) for w in omegas])
            assert got.tobytes() == want.tobytes()

    def test_empty_signal(self):
        spectrum = fourier_transform(SampledSignal(0.5, 0, []), [0.0, 1.0])
        assert np.array_equal(spectrum.values, np.zeros(2, dtype=complex))


def test_transform_of_the_ft_oracle_stays_under_0_17_mib():
    # the batched Riemann sum works in row blocks; all 257 rows of one
    # 769-sample table would hold about 0.33 MiB
    f, omegas = _ft_signal(), _ft_grid()
    tracemalloc.start()
    try:
        fourier_transform(f, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.17 * 2**20, peak


class TestInverseFourierTransform:
    def test_linspace_grid_matches_compensated_sum(self):
        # np.linspace steps are uniform only to rounding, which the table's
        # split t_(jb + i) = t_(jb) + (t_i - t_0) must absorb
        rng = np.random.default_rng(37)
        omegas = np.linspace(-37.0, 41.0, 613)
        spectrum = TransformSpectrum(omegas=omegas, values=rand_values(rng, omegas.size))
        weight = spectrum.delta_omega / (2 * math.pi)
        out = inverse_fourier_transform(spectrum, ts=0.05, start=-40, count=81)
        for t, got in zip(out.times(), out.samples):
            want, mass = riemann_sum_fsum(spectrum.values, omegas, weight, -1j * t)
            assert abs(got - want) <= riemann_bound(omegas, omegas, -1j * t, mass), (t, got, want)

    def test_zero_spectrum(self):
        spectrum = TransformSpectrum(omegas=np.linspace(-4, 4, 17), values=np.zeros(17))
        out = inverse_fourier_transform(spectrum, ts=0.25, start=-4, count=9)
        assert np.array_equal(out.samples, np.zeros(9, dtype=complex))

    def test_pulse_round_trip(self):
        # alias-free band |w| <= 40 pi needs ts below 1/40; interior error
        # away from the jumps is bounded by the spectrum tail truncation
        ts = 0.0125
        p = pulse(ts)
        dw = 2 * math.pi / 40
        omegas = np.arange(-800, 801) * dw
        spectrum = fourier_transform(p, omegas)
        out = inverse_fourier_transform(spectrum, ts=ts, start=p.start, count=len(p))
        err = np.abs(out.samples - p.samples)
        interior = np.abs(np.abs(out.times()) - 0.5) > 0.15
        assert err[interior].max() <= 0.02

    def test_shifted_pulse_round_trip(self):
        # inverse of e^{-j w t0} F reproduces the shifted pulse
        ts = 0.0125
        p = pulse(ts)
        lag = 16
        t0 = lag * ts
        dw = 2 * math.pi / 40
        omegas = np.arange(-800, 801) * dw
        spectrum = fourier_transform(p, omegas)
        shifted = TransformSpectrum(
            omegas=omegas, values=np.exp(-1j * omegas * t0) * spectrum.values
        )
        out = inverse_fourier_transform(shifted, ts=ts, start=p.start + lag, count=len(p))
        err = np.abs(out.samples - p.samples)
        interior = np.abs(np.abs(out.times() - t0) - 0.5) > 0.15
        assert err[interior].max() <= 0.02

    def test_single_frequency_rejected(self):
        spectrum = TransformSpectrum(omegas=np.array([1.0]), values=np.array([1.0]))
        with pytest.raises(ValueError):
            inverse_fourier_transform(spectrum, ts=0.5, start=0, count=1)


class TestFtDiscretize:
    # the transform of a signal that fits in one period T, at n omega0, is
    # T C_n of the signal folded into that period
    def test_pulse_inside_period(self):
        ts = 1.0 / 64.0
        f = pulse(ts)  # width 1 inside T = 4
        folded = periodize(f, 256)
        omega0 = 2 * math.pi / (256 * ts)
        spectrum = fourier_transform(f, np.arange(-8, 9) * omega0)
        coeffs = fourier_coefficients(folded, 8).coeffs
        report = fourier._compare(spectrum.values, folded.period_t * coeffs)
        assert report.residual <= 1e-9 * max(1.0, report.scale)

    def test_zero_signal(self):
        ts = 0.125
        f = SampledSignal(ts, 0, np.zeros(4))
        folded = periodize(f, 16)
        omega0 = 2 * math.pi / (16 * ts)
        spectrum = fourier_transform(f, np.arange(-2, 3) * omega0)
        coeffs = fourier_coefficients(folded, 2).coeffs
        report = fourier._compare(spectrum.values, folded.period_t * coeffs)
        assert report.residual == 0.0
        assert report.scale == 0.0


class TestPeriodizeSpectrum:
    def test_compact_base_band_untouched(self):
        dw = 0.25
        omegas = np.arange(-40, 41) * dw
        values = np.where(np.abs(omegas) < 2.0, 1.0 - np.abs(omegas) / 2.0, 0.0).astype(complex)
        spectrum = TransformSpectrum(omegas=omegas, values=values)
        for replicas in (1, 2, 3):
            out = periodize_spectrum(spectrum, omega_s=8.0, replicas=replicas)
            base = np.abs(omegas) < 2.0
            assert np.array_equal(out.values[base], values[base])

    def test_replica_difference_bounded_by_tail(self):
        # dropping the |r| = 4 replicas changes the base band by at most the
        # max of the analytic tail over the dropped bands
        dw = math.pi / 8
        omega_s = 4 * math.pi
        omegas = np.arange(-144, 145) * dw  # |w| <= 18 pi
        with np.errstate(invalid="ignore"):
            values = np.where(omegas == 0, 1.0, 2 * np.sin(omegas / 2) / omegas).astype(complex)
        spectrum = TransformSpectrum(omegas=omegas, values=values)
        r3 = periodize_spectrum(spectrum, omega_s, 3)
        r4 = periodize_spectrum(spectrum, omega_s, 4)
        base = np.abs(omegas) <= 2 * math.pi
        diff = np.abs(r4.values - r3.values)[base].max()
        # tail-bound oracle over the two dropped shifted bands
        tail = 0.0
        for r in (-4, 4):
            band = np.abs(omegas - r * omega_s) <= 2 * math.pi
            tail += np.abs(values[band]).max() if band.any() else 0.0
        assert 0.0 < diff <= tail

    def test_off_grid_shift_rejected(self):
        spectrum = TransformSpectrum(omegas=np.arange(-4, 5) * 0.5, values=np.ones(9))
        with pytest.raises(GridMismatchError):
            periodize_spectrum(spectrum, omega_s=0.75, replicas=1)

    def test_bad_args_rejected(self):
        spectrum = TransformSpectrum(omegas=np.arange(-4, 5) * 0.5, values=np.ones(9))
        with pytest.raises(ValueError):
            periodize_spectrum(spectrum, omega_s=1.0, replicas=0)
        with pytest.raises(ValueError):
            periodize_spectrum(spectrum, omega_s=-1.0, replicas=1)

    @pytest.mark.parametrize("omega_s", [math.inf, math.nan, "1.0", True], ids=repr)
    def test_omega_s_is_a_finite_number(self, omega_s):
        # inf overflowed in round(); "1.0" was parsed and True read as 1
        spectrum = TransformSpectrum(omegas=np.arange(-4, 5) * 0.5, values=np.ones(9))
        with pytest.raises(ValueError, match="omega_s must be"):
            periodize_spectrum(spectrum, omega_s, 1)

    @pytest.mark.parametrize("omega_s", [0.0, -1.0, -0.0])
    def test_omega_s_is_positive(self, omega_s):
        spectrum = TransformSpectrum(omegas=np.arange(-4, 5) * 0.5, values=np.ones(9))
        with pytest.raises(ValueError, match=f"^omega_s must be finite and > 0, got {omega_s}$"):
            periodize_spectrum(spectrum, omega_s, 1)

    def test_replicas_beyond_the_grid_cost_nothing(self):
        # only shifts with |r| * step < size reach the grid; the rest cost nothing
        spectrum = TransformSpectrum(omegas=np.arange(5) * 0.5, values=np.arange(1, 6) + 1j)
        want = periodize_spectrum(spectrum, 0.5, 4)
        start = time.perf_counter()
        got = periodize_spectrum(spectrum, 0.5, 10**7)
        assert time.perf_counter() - start < 1.0
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.tobytes() != periodize_spectrum(spectrum, 0.5, 3).values.tobytes()

    def test_replica_step_beyond_float64_in_grid_steps(self):
        # 1e10 / 1e-300 is inf, which round() cannot take
        spectrum = TransformSpectrum(omegas=np.arange(3) * 1e-300, values=np.ones(3))
        with pytest.raises(GridMismatchError, match="omega_s .* beyond the float64 range"):
            periodize_spectrum(spectrum, 1e10, 1)


class TestDftVsSeries:
    # the DFT of one period of N samples at harmonic n (mod N) is N C_n
    def test_cosine_case(self):
        n_samples = 8
        f = cosine(n_samples, 1.0 / 8.0)
        f_d = PeriodicDiscreteSignal(f.samples)
        values = dft(f_d).samples
        assert abs(values[1] - 4.0) <= 1e-12 * 4
        assert abs(values[7] - 4.0) <= 1e-12 * 4
        spectrum = fourier_coefficients(f, 2)
        report = fourier._compare(values[spectrum.harmonics() % n_samples], n_samples * spectrum.coeffs)
        assert report.residual <= 1e-10 * max(1.0, report.scale)

    def test_constant(self):
        n_samples = 16
        f = PeriodicSampledSignal(0.25, 2.5 * np.ones(n_samples))
        spectrum = fourier_coefficients(f, 3)
        values = dft(PeriodicDiscreteSignal(f.samples)).samples
        report = fourier._compare(values[spectrum.harmonics() % n_samples], n_samples * spectrum.coeffs)
        assert report.residual <= 1e-10 * max(1.0, report.scale)
        assert abs(spectrum.coefficient(0) - 2.5) <= 1e-12

    def test_random_band_limited(self):
        rng = np.random.default_rng(32)
        n_samples, ts = 32, 1.0 / 32.0
        for _ in range(10):
            f, _ = band_limited(rng, n_samples, ts, 8)
            spectrum = fourier_coefficients(f, 8)
            values = dft(PeriodicDiscreteSignal(f.samples)).samples
            report = fourier._compare(values[spectrum.harmonics() % n_samples], n_samples * spectrum.coeffs)
            assert report.residual <= 1e-10 * max(1.0, report.scale)
