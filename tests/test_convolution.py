import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfourier import convolution
from convfourier.convolution import (
    approx_analog_convolve,
    derivative,
    discrete_convolve,
    exp_factor_analog,
    exp_factor_discrete,
    mixed_convolve,
    periodic_convolve_analog,
    periodic_convolve_discrete,
    scale_time,
    shift,
)
from convfourier.fourier import harmonic_signal, sampled_harmonic
from convfourier.generators import gaussian, pulse
from convfourier.harness import GridParams, _ft_grid, _ft_signal, run_all
from convfourier.signals import (
    DiscreteSignal,
    GridMismatchError,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    delta_approx,
    delta_signal,
)

from oracles import (
    conv_brute,
    eval_discrete_exponential,
    mixed_conv_brute,
    periodic_conv_brute,
    power_factor_brute,
    riemann_factor_brute,
    riemann_sum_fsum,
)

finite_complex = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)
signal_values = st.lists(finite_complex, min_size=1, max_size=8)
starts = st.integers(-8, 8)


def rand_values(rng, n):
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestDiscreteConvolve:
    def test_basic_example(self):
        out = discrete_convolve(DiscreteSignal(0, [1, 2, 3]), DiscreteSignal(0, [1, 1]))
        assert out.start == 0
        assert np.allclose(out.samples, [1, 3, 5, 3], atol=0)

    def test_sign_cancellation(self):
        out = discrete_convolve(DiscreteSignal(0, [1, -1]), DiscreteSignal(0, [1, 1]))
        assert np.allclose(out.samples, [1, 0, -1], atol=0)

    def test_delta_identity_exact(self):
        rng = np.random.default_rng(1)
        f = DiscreteSignal(-3, rand_values(rng, 7))
        out = discrete_convolve(f, delta_signal())
        assert out.start == f.start
        assert np.array_equal(out.samples, f.samples)
        out = discrete_convolve(delta_signal(), f)
        assert np.array_equal(out.samples, f.samples)

    def test_empty_input(self):
        out = discrete_convolve(DiscreteSignal(2, []), DiscreteSignal(-1, [1, 2]))
        assert len(out) == 0
        assert out.start == 1

    def test_start_offsets(self):
        f = DiscreteSignal(-2, [1, 2])
        g = DiscreteSignal(3, [4])
        out = discrete_convolve(f, g)
        assert out.start == 1
        assert np.allclose(out.samples, [4, 8], atol=0)

    @settings(max_examples=100, deadline=None)
    @given(fv=signal_values, fs=starts, gv=signal_values, gs=starts)
    def test_matches_brute_force(self, fv, fs, gv, gs):
        out = discrete_convolve(DiscreteSignal(fs, fv), DiscreteSignal(gs, gv))
        start, want = conv_brute(fv, fs, gv, gs)
        assert out.start == start
        assert np.allclose(out.samples, want, atol=1e-12, rtol=0)

    @settings(max_examples=100, deadline=None)
    @given(fv=signal_values, fs=starts, gv=signal_values, gs=starts)
    def test_commutative(self, fv, fs, gv, gs):
        a = discrete_convolve(DiscreteSignal(fs, fv), DiscreteSignal(gs, gv))
        b = discrete_convolve(DiscreteSignal(gs, gv), DiscreteSignal(fs, fv))
        assert a.start == b.start
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-12

    def test_associative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = DiscreteSignal(int(rng.integers(-8, 9)), rand_values(rng, int(rng.integers(1, 17))))
            g = DiscreteSignal(int(rng.integers(-8, 9)), rand_values(rng, int(rng.integers(1, 17))))
            h = DiscreteSignal(int(rng.integers(-8, 9)), rand_values(rng, int(rng.integers(1, 17))))
            a = discrete_convolve(discrete_convolve(f, g), h)
            b = discrete_convolve(f, discrete_convolve(g, h))
            scale = max(1.0, np.abs(a.samples).max())
            assert np.max(np.abs(a.samples - b.samples)) <= 1e-10 * scale


class TestApproxAnalogConvolve:
    def test_pulse_triangle(self):
        # unit pulse of width 1 at ts=0.25: peak of the triangle is 1 at lag 3
        p = SampledSignal(0.25, 0, np.ones(4))
        out = approx_analog_convolve(p, p)
        assert np.allclose(out.samples.real, [0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25], atol=0)
        assert out.samples[3] == 1.0

    def test_delta_approx_identity_exact(self):
        rng = np.random.default_rng(2)
        f = SampledSignal(0.25, -2, rand_values(rng, 5))
        out = approx_analog_convolve(f, delta_approx(0.25))
        assert np.array_equal(out.samples, f.samples)

    def test_empty(self):
        f = SampledSignal(0.5, 0, [])
        g = SampledSignal(0.5, 0, [1, 2])
        assert len(approx_analog_convolve(f, g)) == 0

    def test_ts_mismatch_rejected(self):
        f = SampledSignal(0.5, 0, [1])
        g = SampledSignal(0.25, 0, [1])
        with pytest.raises(GridMismatchError):
            approx_analog_convolve(f, g)

    def test_is_scaled_discrete_convolution(self):
        rng = np.random.default_rng(3)
        f = SampledSignal(0.125, -1, rand_values(rng, 6))
        g = SampledSignal(0.125, 2, rand_values(rng, 4))
        out = approx_analog_convolve(f, g)
        _, want = conv_brute(list(f.samples), f.start, list(g.samples), g.start)
        assert np.allclose(out.samples, 0.125 * np.asarray(want), atol=1e-15)


class TestPeriodicConvolveDiscrete:
    def test_small_example(self):
        out = periodic_convolve_discrete(
            PeriodicDiscreteSignal([1, 2]), PeriodicDiscreteSignal([3, 4])
        )
        assert np.allclose(out.samples, [11, 10], atol=0)

    def test_periodic_delta_identity(self):
        rng = np.random.default_rng(4)
        f = PeriodicDiscreteSignal(rand_values(rng, 5))
        d = np.zeros(5, dtype=complex)
        d[0] = 1
        out = periodic_convolve_discrete(f, PeriodicDiscreteSignal(d))
        assert np.allclose(out.samples, f.samples, atol=1e-15)

    def test_harmonic_orthogonality(self):
        # x_m (*) x_n = N delta(m-n) x_n
        n_samples = 8
        for m in range(n_samples):
            for n in range(n_samples):
                out = periodic_convolve_discrete(
                    harmonic_signal(m, n_samples), harmonic_signal(n, n_samples)
                )
                want = (n_samples if m == n else 0) * harmonic_signal(n, n_samples).samples
                assert np.max(np.abs(out.samples - want)) <= 1e-12 * n_samples

    def test_period_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            periodic_convolve_discrete(
                PeriodicDiscreteSignal([1, 2]), PeriodicDiscreteSignal([1, 2, 3])
            )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9, 96, 257):
            f = rand_values(rng, n)
            g = rand_values(rng, n)
            out = periodic_convolve_discrete(
                PeriodicDiscreteSignal(f), PeriodicDiscreteSignal(g)
            )
            assert np.allclose(out.samples, periodic_conv_brute(list(f), list(g)), atol=1e-12)


class TestPeriodicConvolveAnalog:
    def test_delta_identity(self):
        rng = np.random.default_rng(6)
        ts = 0.25
        f = PeriodicSampledSignal(ts, rand_values(rng, 6))
        d = np.zeros(6, dtype=complex)
        d[0] = 1.0 / ts
        out = periodic_convolve_analog(f, PeriodicSampledSignal(ts, d))
        assert np.allclose(out.samples, f.samples, atol=1e-15)

    def test_constants_give_period(self):
        ts = 0.125
        ones = PeriodicSampledSignal(ts, np.ones(16))
        out = periodic_convolve_analog(ones, ones)
        assert np.allclose(out.samples, 16 * ts, atol=1e-15)

    def test_eigenrelation_square_wave(self):
        # circular convolution with a sampled harmonic scales it by its factor
        n_samples, ts = 32, 1.0 / 32.0
        samples = np.where(np.arange(n_samples) < 16, 1.0, -1.0).astype(complex)
        f = PeriodicSampledSignal(ts, samples)
        x1 = sampled_harmonic(1, n_samples, ts)
        out = periodic_convolve_analog(f, x1)
        factor = exp_factor_analog(f, 2j * math.pi)
        assert np.max(np.abs(out.samples - factor * x1.samples)) <= 1e-12 * abs(factor)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            periodic_convolve_analog(
                PeriodicSampledSignal(0.5, [1, 2]), PeriodicSampledSignal(0.25, [1, 2])
            )
        with pytest.raises(GridMismatchError):
            periodic_convolve_analog(
                PeriodicSampledSignal(0.5, [1, 2]), PeriodicSampledSignal(0.5, [1, 2, 3])
            )


class TestMixedConvolve:
    def test_delta_identity(self):
        rng = np.random.default_rng(8)
        f = PeriodicDiscreteSignal(rand_values(rng, 4))
        out = mixed_convolve(delta_signal(), f)
        assert np.allclose(out.samples, f.samples, atol=0)
        fa = PeriodicSampledSignal(0.25, rand_values(rng, 4))
        out = mixed_convolve(delta_approx(0.25), fa)
        assert np.allclose(out.samples, fa.samples, atol=1e-15)

    def test_small_example(self):
        out = mixed_convolve(DiscreteSignal(0, [1, 1]), PeriodicDiscreteSignal([1, 0]))
        assert np.allclose(out.samples, [1, 1], atol=0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        h_vals = rand_values(rng, 7)
        h = DiscreteSignal(-3, h_vals)
        f_vals = rand_values(rng, 5)
        out = mixed_convolve(h, PeriodicDiscreteSignal(f_vals))
        want = mixed_conv_brute(list(h_vals), -3, list(f_vals))
        assert np.allclose(out.samples, want, atol=1e-12)

    def test_mixed_associativity(self):
        # (h * f) (*) g == h * (f (*) g) on random instances
        rng = np.random.default_rng(10)
        ts = 1.0 / 16.0
        for _ in range(50):
            h = SampledSignal(ts, int(rng.integers(-4, 5)), rand_values(rng, int(rng.integers(1, 9))))
            f = PeriodicSampledSignal(ts, rand_values(rng, 12))
            g = PeriodicSampledSignal(ts, rand_values(rng, 12))
            a = periodic_convolve_analog(mixed_convolve(h, f), g)
            b = mixed_convolve(h, periodic_convolve_analog(f, g))
            scale = max(1.0, np.abs(b.samples).max())
            assert np.max(np.abs(a.samples - b.samples)) <= 1e-9 * scale

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            mixed_convolve(DiscreteSignal(0, [1]), PeriodicSampledSignal(0.5, [1]))

    def test_ts_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            mixed_convolve(SampledSignal(0.5, 0, [1]), PeriodicSampledSignal(0.25, [1]))


# variant name -> a random operand of the kind it convolves, for a ts and a period
_OPERANDS = {
    "discrete_convolve": lambda rng, ts, n: DiscreteSignal(
        int(rng.integers(-6, 7)), rand_values(rng, int(rng.integers(0, 9)))),
    "approx_analog_convolve": lambda rng, ts, n: SampledSignal(
        ts, int(rng.integers(-6, 7)), rand_values(rng, int(rng.integers(0, 9)))),
    "periodic_convolve_discrete": lambda rng, ts, n: PeriodicDiscreteSignal(rand_values(rng, n)),
    "periodic_convolve_analog": lambda rng, ts, n: PeriodicSampledSignal(ts, rand_values(rng, n)),
}


_LINEAR = ("discrete_convolve", "approx_analog_convolve")


def _operand(variant, start, samples):
    """An operand of a linear variant, at ts = 0.125 for the analog one."""
    if variant == "discrete_convolve":
        return DiscreteSignal(start, samples)
    return SampledSignal(0.125, start, samples)


class TestValidWindow:
    """valid=True keeps the outputs where the shorter operand lies wholly
    inside the longer one, each bit for bit the full result's output there."""

    @pytest.mark.parametrize("variant", _LINEAR)
    @pytest.mark.parametrize("len_f, len_g", [
        (1, 1), (1, 7), (3, 7), (7, 7), (7, 3), (7, 1), (5, 64), (1153, 1161),
    ])
    def test_is_the_full_results_complete_overlaps(self, variant, len_f, len_g):
        rng = np.random.default_rng(len_f * 10_000 + len_g)
        f, g = _operand(variant, -3, rand_values(rng, len_f)), _operand(variant, 5, rand_values(rng, len_g))
        convolve = getattr(convolution, variant)
        full, window = convolve(f, g), convolve(f, g, valid=True)
        assert type(window) is type(full)
        assert window.start == f.start + g.start + min(len_f, len_g) - 1
        assert len(window) == abs(len_f - len_g) + 1
        lo = window.start - full.start
        assert np.array_equal(window.samples, full.samples[lo : lo + len(window)])

    @pytest.mark.parametrize("variant", _LINEAR)
    def test_empty_operand_gives_empty_result(self, variant):
        convolve = getattr(convolution, variant)
        for f, g in (
            (_operand(variant, 2, []), _operand(variant, -1, [1, 2])),
            (_operand(variant, 2, [1, 2]), _operand(variant, -1, [])),
        ):
            out = convolve(f, g, valid=True)
            assert len(out) == 0 and out.start == 1
            assert out.samples.dtype == np.complex128

    @pytest.mark.parametrize("variant", _LINEAR)
    def test_window_is_keyword_only(self, variant):
        f = _OPERANDS[variant](np.random.default_rng(17), 0.25, 4)
        with pytest.raises(TypeError):
            getattr(convolution, variant)(f, f, True)


class TestConvolveByKind:
    @pytest.mark.parametrize("variant", _OPERANDS)
    def test_is_its_kinds_variant_bit_for_bit(self, variant):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ts, n = 0.125 * int(rng.integers(1, 9)), int(rng.integers(1, 9))
            f, g = (_OPERANDS[variant](rng, ts, n) for _ in "fg")
            got, want = convolution._convolve(f, g), getattr(convolution, variant)(f, g)
            assert type(got) is type(want)
            assert got.samples.tobytes() == want.samples.tobytes()
            fields = {k: v for k, v in vars(want).items() if k != "samples"}
            assert {k: v for k, v in vars(got).items() if k != "samples"} == fields

    @pytest.mark.parametrize("variant", _OPERANDS)
    def test_follows_a_patch_of_its_variant(self, monkeypatch, variant):
        rng = np.random.default_rng(13)
        f, g = (_OPERANDS[variant](rng, 0.25, 4) for _ in "fg")
        monkeypatch.setattr(convolution, variant, lambda *args, **window: args)
        got = convolution._convolve(f, g)
        assert len(got) == 2 and got[0] is f and got[1] is g

    @pytest.mark.parametrize("valid", [False, True])
    @pytest.mark.parametrize("variant", _LINEAR)
    def test_forwards_the_window(self, monkeypatch, variant, valid):
        rng = np.random.default_rng(15)
        f, g = (_OPERANDS[variant](rng, 0.25, 4) for _ in "fg")
        monkeypatch.setattr(convolution, variant, lambda *args, **window: window)
        assert convolution._convolve(f, g, valid=valid) == {"valid": valid}

    @pytest.mark.parametrize("variant", ["periodic_convolve_discrete", "periodic_convolve_analog"])
    def test_circular_output_is_complete_under_the_window(self, variant):
        rng = np.random.default_rng(16)
        f, g = (_OPERANDS[variant](rng, 0.25, 6) for _ in "fg")
        got = convolution._convolve(f, g, valid=True)
        assert got.samples.tobytes() == getattr(convolution, variant)(f, g).samples.tobytes()

    @pytest.mark.parametrize("variant, other", [(v, o) for v in _OPERANDS for o in _OPERANDS if v != o])
    def test_the_variant_of_f_rejects_g(self, variant, other):
        # each variant's own operands are pinned in tests/test_signals.py's
        # table of kind errors
        rng = np.random.default_rng(14)
        own, foreign = _OPERANDS[variant](rng, 0.25, 4), _OPERANDS[other](rng, 0.25, 4)
        with pytest.raises(TypeError) as caught:
            convolution._convolve(own, foreign)
        assert str(caught.value) == f"{variant} needs a {type(own).__name__}, got {type(foreign).__name__}"


class TestExpFactorDiscrete:
    def test_delta_gives_one(self):
        for a in (2, -1, 1j, 0.5 + 0.5j):
            assert exp_factor_discrete(delta_signal(), a) == 1 + 0j

    def test_two_tap_half(self):
        factor = exp_factor_discrete(DiscreteSignal(0, [1, 1]), 2)
        assert factor == pytest.approx(1.5)

    def test_two_tap_cancellation(self):
        factor = exp_factor_discrete(DiscreteSignal(0, [1, 1]), -1)
        assert abs(factor) <= 1e-15

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            vals = rand_values(rng, int(rng.integers(1, 10)))
            start = int(rng.integers(-6, 7))
            a = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
            got = exp_factor_discrete(DiscreteSignal(start, vals), a)
            want = power_factor_brute(list(vals), start, a)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_overflow_reported(self):
        # a^(-n) overflows for a far-right tap and a tiny base
        f = DiscreteSignal(400, [1.0])
        with pytest.raises(ValueError, match="ill-defined"):
            exp_factor_discrete(f, 1e-3)

    @pytest.mark.parametrize("a", [1e-300, 5e-324])
    def test_a_tiny_base_is_a_value_error_without_a_warning(self, a):
        # a^(-5) overflows and a^3 underflows: NumPy must stay silent, and the
        # factor's own check reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^eigenfactor is not finite"):
                exp_factor_discrete(DiscreteSignal(-3, np.ones(9)), a)

    def test_eigenrelation_window(self):
        # direct-sum convolution equals F(a) a^k on a window around the support
        rng = np.random.default_rng(12)
        for _ in range(200):
            length = int(rng.integers(1, 17))
            f = DiscreteSignal(int(rng.integers(-8, 1)), rand_values(rng, length))
            a = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
            factor = exp_factor_discrete(f, a)
            ks = range(f.start - 4, f.end + 4)
            lhs = [
                sum(f.value(n) * a ** (k - n) for n in range(f.start, f.end)) for k in ks
            ]
            rhs = [factor * eval_discrete_exponential(a, k) for k in ks]
            scale = max(1.0, max(abs(r) for r in rhs))
            worst = max(abs(l - r) for l, r in zip(lhs, rhs))
            assert worst <= 1e-10 * scale


class TestExpFactorAnalog:
    def test_pulse_at_pi(self):
        # analytic value of the width-1 pulse transform at pi: 2 sin(pi/2)/pi
        p = pulse(1.0 / 512.0)
        factor = exp_factor_analog(p, 1j * math.pi)
        assert abs(factor - 2.0 / math.pi) <= 5e-3

    def test_delta_approx_is_one(self):
        factor = exp_factor_analog(delta_approx(0.25), 1j * 3.0)
        assert factor == 1.0 + 0j

    def test_empty_is_zero(self):
        factor = exp_factor_analog(SampledSignal(0.5, 0, []), 1j)
        assert factor == 0j

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        vals = rand_values(rng, 9)
        f = SampledSignal(0.125, -4, vals)
        a = 0.3 - 1.7j
        got = exp_factor_analog(f, a)
        want = riemann_factor_brute(list(vals), -4, 0.125, a)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("a", [0, 0.0, 0j], ids=repr)
    def test_zero_exponent_is_the_riemann_sum(self, a):
        # e^(0 t) = 1, the DC harmonic: its factor is f's own Riemann sum
        f = SampledSignal(0.125, -4, rand_values(np.random.default_rng(19), 9))
        want = convolution._riemann_sum(f.samples, f.times(), f.ts, np.array([0j]))[0]
        assert exp_factor_analog(f, a) == want
        assert abs(want - f.ts * f.samples.sum()) <= 1e-14


def riemann_bound(samples, times, a, mass):
    """Rounding bound of the two-level Riemann sum against the compensated oracle:
    u * mass * (2 b + 2 nb + |Im a| max|t| + 8), b = ceil(sqrt(L)), nb = ceil(L / b)."""
    b = math.isqrt(len(samples) - 1) + 1
    nb = -(-len(samples) // b)
    return 2.0**-53 * mass * (2 * b + 2 * nb + abs(a.imag) * np.abs(times).max() + 8)


def assert_matches_fsum(samples, times, ts, a):
    got = convolution._riemann_sum(samples, times, ts, a)
    for am, value in zip(a, got):
        want, mass = riemann_sum_fsum(samples, times, ts, am)
        assert abs(value - want) <= riemann_bound(samples, times, am, mass), (am, value, want)


class TestRiemannSum:
    """The batched two-level-table kernel behind every analog factor and transform."""

    def test_ft_oracle_769_by_257(self):
        f = _ft_signal()
        assert_matches_fsum(f.samples, f.times(), f.ts, 1j * _ft_grid())

    def test_cli_files_ft_12289_by_9(self):
        # the cli-files benchmark's ft input: a shifted Gaussian at ts = 1/1024, |t - t0| <= 6
        f = gaussian(1.0 / 1024.0, 6.0)
        assert f.samples.size == 12289
        times = f.times() + 0.25
        omegas = -17.875 + 0.25 * np.arange(0, 401, 50)
        assert_matches_fsum(1.5 * f.samples, times, f.ts, 1j * omegas)

    def test_random_signal_at_ts_0_3(self):
        rng = np.random.default_rng(71)
        f = SampledSignal(0.3, -120, rand_values(rng, 300))
        omegas = np.linspace(-math.pi / 0.3, math.pi / 0.3, 33)
        assert_matches_fsum(f.samples, f.times(), f.ts, 1j * omegas - 0.05)

    def test_complex_exponents_on_16_samples(self):
        rng = np.random.default_rng(72)
        f = SampledSignal(0.125, -4, rand_values(rng, 16))
        a = rng.uniform(-2.0, 2.0, 12) + 1j * rng.uniform(-8.0, 8.0, 12)
        assert_matches_fsum(f.samples, f.times(), f.ts, a)

    @pytest.mark.parametrize("length", [16, 769, 8200, 12289])
    def test_batch_equals_one_at_a_time(self, length):
        # bit for bit, over more rows than one row block holds; a call takes
        # one table width, set by its widest-reaching exponent
        rng = np.random.default_rng(length)
        samples = rand_values(rng, length)
        times = (np.arange(length) - length // 2) * 0.01
        b = math.isqrt(length - 1) + 1
        per_block = convolution._RIEMANN_BLOCK // b
        imaginary = 1j * rng.uniform(-60.0, 60.0, per_block + 7)
        cap = 700.0 / (0.01 * (b - 1))
        capped = imaginary + 1.5 * cap * rng.choice([-1.0, 1.0], imaginary.size)
        direct = imaginary - 1e9

        def one_at_a_time(a, widest=()):
            rows = [convolution._riemann_sum(samples, times, 0.01, [x, *widest])[0] for x in a]
            return np.array(rows).tobytes()

        # one shared reach: the full width, a capped width, and b = 1
        for a in (imaginary, capped, direct):
            assert convolution._riemann_sum(samples, times, 0.01, a).tobytes() == one_at_a_time(a)
        # a mixed batch: each row as if computed with the widest-reaching exponent
        mixed = imaginary.copy()
        mixed[::5] = capped[::5]
        for widest in (mixed[0], direct[0]):
            batch = np.append(mixed, widest)
            got = convolution._riemann_sum(samples, times, 0.01, batch).tobytes()
            assert got == one_at_a_time(batch, [widest])
            # the width is the call's, not the row's
            assert got != one_at_a_time(batch)

    @pytest.mark.parametrize("grid", [GridParams(), GridParams(n=16, n_max=0), GridParams(ts=500.0)])
    def test_no_library_batch_needs_a_narrower_table(self, monkeypatch, grid):
        # a batch shares its widest-reaching exponent's table width, so every
        # batch the library makes must fit the full width
        batches = []
        kernel = convolution._riemann_sum

        def recording(samples, times, ts, a):
            a = np.asarray(a, dtype=np.complex128)
            if a.size > 1:
                batches.append((samples.size, times, a))
            return kernel(samples, times, ts, a)

        monkeypatch.setattr(convolution, "_riemann_sum", recording)
        run_all(grid, seed=1)
        assert batches
        for length, times, a in batches:
            step = abs(float(times[1] - times[0])) if length > 1 else 0.0
            reach = float(np.abs(a.real).max()) * step * math.isqrt(length - 1)
            assert reach <= convolution._EXP_REACH, (length, reach)

    def test_capped_table_keeps_underflow_at_zero(self):
        # e^(100 t) underflows on t in [-1000, -901]; uncapped, a 10-wide fine
        # table would reach e^900 = inf and turn 0 * inf into NaN
        f = SampledSignal(1.0, -1000, np.ones(100))
        assert exp_factor_analog(f, -100.0) == 0j
        with pytest.raises(ValueError, match="not finite"):
            exp_factor_analog(f, 100.0)

    def test_empty_samples_and_no_exponents(self):
        empty = convolution._riemann_sum(np.empty(0, complex), np.empty(0), 0.5, [1j, 2j])
        assert empty.tobytes() == np.zeros(2, complex).tobytes()
        assert convolution._riemann_sum(np.ones(3, complex), np.arange(3.0), 1.0, []).size == 0


class TestPowerSum:
    """The batched power sum behind every discrete factor: the Riemann sum at
    unit step in the exponents Log a, since a^(-n) = e^(-n Log a)."""

    @staticmethod
    def draw(length):
        rng = np.random.default_rng(length)
        samples = rand_values(rng, length)
        start = -(length // 3)
        indices = start + np.arange(length, dtype=np.float64)
        # more bases than one row block holds, on and near the unit circle
        rows = max(1, convolution._RIEMANN_BLOCK // length)
        bases = rng.uniform(0.99, 1.01, rows + 5) * np.exp(1j * rng.uniform(-np.pi, np.pi, rows + 5))
        return samples, start, indices, bases

    @pytest.mark.parametrize("length", [1, 7, 64, 129, 1500])
    def test_is_the_riemann_sum_in_log_a(self, length):
        samples, _, indices, bases = self.draw(length)
        got = convolution._power_sum(samples, indices, bases)
        want = convolution._riemann_sum(samples, indices, 1.0, np.log(bases))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", [1, 7, 64, 129, 1500])
    def test_matches_the_term_by_term_powers(self, length):
        # e^(-n Log a) carries |n| <= L times the rounding of Log a in its
        # phase, and the sum one rounding per term: within 2 L eps of the
        # absolute sum (the worst seen is 0.17 L eps)
        samples, start, indices, bases = self.draw(length)
        got = convolution._power_sum(samples, indices, bases)
        eps = np.finfo(np.float64).eps
        for a, value in zip(bases[:40], got):
            want = power_factor_brute(list(samples), start, complex(a))
            bound = 2 * length * eps * np.sum(np.abs(samples) * np.abs(a) ** -indices)
            assert abs(value - want) <= bound

    def test_empty_samples(self):
        empty = convolution._power_sum(np.empty(0, complex), np.empty(0, np.int64), [2.0, 1j])
        assert empty.tobytes() == np.zeros(2, complex).tobytes()

    def test_exp_factor_discrete_is_one_base(self):
        f = DiscreteSignal(-3, rand_values(np.random.default_rng(74), 9))
        a = 0.8 + 0.6j
        want = convolution._riemann_sum(f.samples, np.arange(-3.0, 6.0), 1.0, np.log([a]))[0]
        assert exp_factor_discrete(f, a) == want

    def test_transient_stays_near_three_blocks(self):
        # 193 bases (ft.sampling's count) x 64 samples is a 193 KiB power
        # matrix if built at once
        samples = np.ones(64, complex)
        indices = np.arange(-31, 33)
        bases = np.exp(-1j * np.linspace(-np.pi, np.pi, 193))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            convolution._power_sum(samples, indices, bases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, peak


class TestCircularConvolve:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257, 2048])
    def test_stacked_fft_equals_separate_calls(self, n):
        rng = np.random.default_rng(n)
        a, b = rand_values(rng, n), rand_values(rng, n)
        want = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
        assert convolution._circular_convolve(a, b).tobytes() == want.tobytes()


class TestExpFactorPeriodic:
    def test_self_pairing_gives_period(self):
        n_samples, ts = 64, 1.0 / 64.0
        period_t = n_samples * ts
        for n in (1, 5, -8):
            x = sampled_harmonic(n, n_samples, ts)
            factor = exp_factor_analog(x, 1j * n * 2 * math.pi / period_t)
            assert abs(factor - period_t) <= 1e-12 * period_t

    def test_cross_pairing_cancels(self):
        n_samples, ts = 64, 1.0 / 64.0
        omega0 = 2 * math.pi / (n_samples * ts)
        for m, n in ((0, 3), (2, 5), (-7, 7)):
            x = sampled_harmonic(m, n_samples, ts)
            factor = exp_factor_analog(x, 1j * n * omega0)
            assert abs(factor) <= 1e-12

    def test_constant_against_fundamental(self):
        ts = 1.0 / 32.0
        f = PeriodicSampledSignal(ts, 3.5 * np.ones(32))
        factor = exp_factor_analog(f, 2j * math.pi)
        assert abs(factor) <= 1e-12

    def test_periodic_discrete_delta(self):
        d = np.zeros(6, dtype=complex)
        d[0] = 1
        factor = exp_factor_discrete(PeriodicDiscreteSignal(d), 0.7j)
        assert factor == 1 + 0j

    def test_fourth_roots_cancel(self):
        f = PeriodicDiscreteSignal([1, 1, 1, 1])
        factor = exp_factor_discrete(f, 1j)
        assert abs(factor) <= 1e-15

    def test_ones_at_base_one(self):
        f = PeriodicDiscreteSignal([1, 1, 1, 1])
        assert exp_factor_discrete(f, 1) == 4 + 0j

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        vals = rand_values(rng, 8)
        f = PeriodicDiscreteSignal(vals)
        a = 1.3 - 0.4j
        got = exp_factor_discrete(f, a)
        want = power_factor_brute(list(vals), 0, a)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestEigenFactor:
    def test_is_a_complex(self):
        # the factor is a plain complex, never a wrapper around one
        discrete = exp_factor_discrete(DiscreteSignal(-1, [1, 2]), 2)
        analog = exp_factor_analog(SampledSignal(0.5, 0, [1, 2]), 1j)
        assert type(discrete) is complex and discrete == pytest.approx(4)
        assert type(analog) is complex


class TestShift:
    def test_zero_shift_identity(self):
        f = DiscreteSignal(1, [1, 2])
        out = shift(f, 0)
        assert out.start == f.start
        assert np.array_equal(out.samples, f.samples)

    def test_periodic_rotation(self):
        out = shift(PeriodicDiscreteSignal([1, 2, 3]), 1)
        assert np.allclose(out.samples, [3, 1, 2], atol=0)

    def test_sampled_on_grid(self):
        f = SampledSignal(0.25, 0, [1, 2])
        out = shift(f, 0.75)
        assert out.start == 3
        assert np.array_equal(out.samples, f.samples)

    def test_periodic_sampled_rotation(self):
        f = PeriodicSampledSignal(0.25, [1, 2, 3, 4])
        out = shift(f, 0.5)
        assert np.allclose(out.samples, [3, 4, 1, 2], atol=0)
        assert out.ts == f.ts

    def test_off_grid_rejected(self):
        with pytest.raises(GridMismatchError):
            shift(SampledSignal(0.25, 0, [1, 2]), 0.3)

    def test_non_integer_discrete_rejected(self):
        with pytest.raises(ValueError):
            shift(DiscreteSignal(0, [1]), 1.5)

    @pytest.mark.parametrize(
        "f", [SampledSignal(0.25, 0, [1, 2]), PeriodicSampledSignal(0.25, [1, 2])], ids=["sampled", "periodic"]
    )
    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan, "0.25", True, np.True_], ids=repr)
    def test_time_shift_is_a_finite_number(self, f, a):
        # inf overflowed in round(); "0.25" was parsed and True read as 1 second
        with pytest.raises(ValueError, match="time shift must be"):
            shift(f, a)

    @pytest.mark.parametrize(
        "f", [SampledSignal(1e-300, 0, [1]), PeriodicSampledSignal(1e-300, [1])], ids=["sampled", "periodic"]
    )
    def test_time_shift_beyond_float64_in_grid_steps(self, f):
        # 1e10 / 1e-300 is inf, which round() cannot take
        with pytest.raises(GridMismatchError, match="time shift .* beyond the float64 range"):
            shift(f, 1e10)

    @pytest.mark.parametrize(
        "a, start", [(1, 4), (0.75, 3), (np.float64(0.75), 3), (Fraction(3, 4), 3)], ids=repr
    )
    def test_time_shift_takes_any_real_on_the_grid(self, a, start):
        assert shift(SampledSignal(0.25, 0, [1, 2]), a).start == start

    def test_shift_convolve_commute(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            f = DiscreteSignal(int(rng.integers(-5, 6)), rand_values(rng, int(rng.integers(1, 9))))
            g = DiscreteSignal(int(rng.integers(-5, 6)), rand_values(rng, int(rng.integers(1, 9))))
            lag = int(rng.integers(-6, 7))
            base = shift(discrete_convolve(f, g), lag)
            left = discrete_convolve(shift(f, lag), g)
            right = discrete_convolve(f, shift(g, lag))
            for other in (left, right):
                assert other.start == base.start
                assert np.max(np.abs(other.samples - base.samples)) <= 1e-12


class TestScaleTime:
    def test_identity(self):
        f = SampledSignal(0.5, -1, [1, 2, 3])
        out = scale_time(f, 1)
        assert out.start == f.start and out.ts == f.ts
        assert np.array_equal(out.samples, f.samples)

    def test_reversal(self):
        f = SampledSignal(0.5, -1, [10, 20, 30, 40])
        out = scale_time(f, -1)
        # g(k) = f(-k): indices -2..1 hold f at 2..-1 reversed
        assert out.start == -2
        assert np.allclose(out.samples, [40, 30, 20, 10], atol=0)
        assert out.ts == 0.5

    def test_decimation(self):
        f = SampledSignal(0.5, -2, [1, 2, 3, 4, 5])
        out = scale_time(f, 2)
        # g(k) = f(2k): valid k = -1, 0, 1 picking indices -2, 0, 2
        assert out.start == -1
        assert np.allclose(out.samples, [1, 3, 5], atol=0)
        assert out.ts == 0.5

    def test_regrid_reciprocal(self):
        f = SampledSignal(0.5, -1, [1, 2, 3])
        out = scale_time(f, Fraction(1, 2))
        # g(t) = f(t/2) carries the same samples on the doubled grid
        assert out.ts == 1.0
        assert out.start == -1
        assert np.array_equal(out.samples, f.samples)

    def test_reind_oracle(self):
        # g(k ts') must equal f evaluated at a * (k ts')
        rng = np.random.default_rng(16)
        f = SampledSignal(0.25, -6, rand_values(rng, 13))
        for a in (2, 3, -2, Fraction(1, 3), Fraction(-2, 3)):
            out = scale_time(f, a)
            frac = Fraction(a)
            for i in range(len(out)):
                k = out.start + i
                src = k * frac.numerator
                assert out.samples[i] == f.value(src)

    def test_empty_signal(self):
        out = scale_time(SampledSignal(0.5, 3, []), 2)
        assert len(out) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            scale_time(SampledSignal(0.5, 0, [1]), 0)

    def test_non_integral_float_rejected(self):
        with pytest.raises(ValueError):
            scale_time(SampledSignal(0.5, 0, [1]), 0.5)

    @pytest.mark.parametrize("a", ["2", "1/2", True, np.True_], ids=repr)
    def test_text_and_bool_rejected(self, a):
        # Fraction("1/2") would parse the string, Fraction(True) read it as 1
        with pytest.raises(ValueError, match="scale factor must be a number"):
            scale_time(SampledSignal(0.5, 0, [1, 2, 3]), a)

    @pytest.mark.parametrize("a", [2, 2.0, np.int64(2), Fraction(2)], ids=repr)
    def test_integer_forms_agree(self, a):
        out = scale_time(SampledSignal(0.5, -2, [1, 2, 3, 4, 5]), a)
        assert out.start == -1 and np.array_equal(out.samples, [1, 3, 5])

    def test_reversal_scaling_rule(self):
        # f(-t) * g == time-reverse of f * g(-t), the |a|=1 scaling rule
        rng = np.random.default_rng(17)
        ts = 0.25
        for _ in range(20):
            f = SampledSignal(ts, int(rng.integers(-4, 5)), rand_values(rng, int(rng.integers(1, 9))))
            g = SampledSignal(ts, int(rng.integers(-4, 5)), rand_values(rng, int(rng.integers(1, 9))))
            lhs = approx_analog_convolve(scale_time(f, -1), g)
            rhs = scale_time(approx_analog_convolve(f, scale_time(g, -1)), -1)
            assert lhs.start == rhs.start
            assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12


class TestDerivative:
    def test_constant_gives_zero(self):
        f = SampledSignal(0.1, 0, np.ones(10))
        out = derivative(f)
        assert np.max(np.abs(out.samples)) == 0.0
        assert out.start == 1
        assert len(out) == 8

    def test_linear_exact(self):
        ts = 0.125
        k = np.arange(-4, 5)
        f = SampledSignal(ts, -4, (k * ts).astype(complex))
        out = derivative(f)
        assert np.allclose(out.samples, 1.0, atol=1e-12)

    def test_exponential_second_order(self):
        # derivative of e^{j w t} approaches j w f at second order in ts
        w = 2.0
        errs = []
        for ts in (0.1, 0.05, 0.025):
            k = np.arange(-round(2 / ts), round(2 / ts) + 1)
            t = k * ts
            f = SampledSignal(ts, k[0], np.exp(1j * w * t))
            out = derivative(f)
            want = 1j * w * np.exp(1j * w * out.times())
            errs.append(np.max(np.abs(out.samples - want)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            derivative(SampledSignal(0.5, 0, [1, 2]))

    def test_transfers_across_convolution(self):
        # sampled analytic derivative convolved with g matches the grid
        # derivative of the convolution at second order when ts halves
        def residual(ts):
            k = np.arange(-round(6 / ts), round(6 / ts) + 1)
            t = k * ts
            f = SampledSignal(ts, k[0], np.exp(-t * t))
            fdot = SampledSignal(ts, k[0], -2 * t * np.exp(-t * t))
            kg = np.arange(-round(3 / ts), round(3 / ts) + 1)
            tg = kg * ts
            g = SampledSignal(ts, kg[0], np.exp(-4 * tg * tg))
            lhs = approx_analog_convolve(fdot, g)
            rhs = derivative(approx_analog_convolve(f, g))
            return np.max(np.abs(lhs.samples[1:-1] - rhs.samples))

        r1, r2, r3 = residual(0.1), residual(0.05), residual(0.025)
        assert 3.5 <= r1 / r2 <= 4.5
        assert 3.5 <= r2 / r3 <= 4.5
