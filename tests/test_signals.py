import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfourier.signals import (
    DiscreteSignal,
    ExpKind,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    analog_exponent,
    delta_approx,
    delta_signal,
    discrete_base,
    eval_analog_exponential,
    eval_discrete_exponential,
    periodic_delta,
    periodize,
    sample_function,
)


class TestExpParam:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            analog_exponent(0)
        with pytest.raises(ValueError):
            discrete_base(0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            analog_exponent(complex(float("inf"), 0))
        with pytest.raises(ValueError):
            discrete_base(complex(0, float("nan")))

    def test_kinds(self):
        assert analog_exponent(1j).kind is ExpKind.ANALOG_EXPONENT
        assert discrete_base(2).kind is ExpKind.DISCRETE_BASE


class TestEvalAnalogExponential:
    def test_euler_identity(self):
        # e^{j pi} = -1
        value = eval_analog_exponential(analog_exponent(1j * math.pi), 1.0)
        assert value.real == pytest.approx(-1.0, abs=1e-15)
        assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_at_zero(self):
        assert eval_analog_exponential(analog_exponent(1.0), 0.0) == 1.0 + 0j

    def test_three_quarter_turn(self):
        # cos(3 pi / 2) + j sin(3 pi / 2) = -j
        value = eval_analog_exponential(analog_exponent(1j * math.pi / 2), 3.0)
        assert abs(value - (0 - 1j)) < 1e-15

    def test_rejects_nonfinite_t(self):
        with pytest.raises(ValueError):
            eval_analog_exponential(analog_exponent(1.0), float("inf"))

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            eval_analog_exponential(discrete_base(2), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        re=st.floats(-2, 2),
        im=st.floats(-2, 2),
        t1=st.floats(-50, 50),
        t2=st.floats(-50, 50),
    )
    def test_multiplicative(self, re, im, t1, t2):
        # e^{a(t1+t2)} = e^{a t1} e^{a t2} within 1e-12 relative for |t| <= 100
        a = complex(re, im)
        if a == 0:
            a = 1.0 + 0j
        p = analog_exponent(a)
        whole = eval_analog_exponential(p, t1 + t2)
        split = eval_analog_exponential(p, t1) * eval_analog_exponential(p, t2)
        assert abs(whole - split) <= 1e-12 * max(abs(whole), abs(split), 1e-300)


class TestEvalDiscreteExponential:
    def test_j_squared(self):
        assert eval_discrete_exponential(discrete_base(1j), 2) == -1 + 0j

    def test_reciprocal(self):
        assert eval_discrete_exponential(discrete_base(2), -1) == 0.5 + 0j

    def test_fourth_root_cubed(self):
        # (e^{j 2 pi / 4})^3 = -j
        a = complex(math.cos(math.pi / 2), math.sin(math.pi / 2))
        value = eval_discrete_exponential(discrete_base(a), 3)
        assert abs(value - (0 - 1j)) < 1e-15

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            eval_discrete_exponential(analog_exponent(1.0), 1)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2"], ids=repr)
    def test_index_is_never_truncated(self, k):
        assert eval_discrete_exponential(discrete_base(2), np.int64(2)) == 4 + 0j
        with pytest.raises(ValueError, match="k must be an integer"):
            eval_discrete_exponential(discrete_base(2), k)


class TestSampleFunction:
    def test_constant(self):
        out = sample_function(lambda t: 1.0, ts=0.5, start=0, count=3)
        assert np.array_equal(out.samples, np.ones(3, dtype=complex))
        assert np.array_equal(out.times(), [0.0, 0.5, 1.0])

    def test_cosine_quarters(self):
        out = sample_function(lambda t: math.cos(math.pi * t / 2), ts=1.0, start=0, count=4)
        assert np.allclose(out.samples, [1, 0, -1, 0], atol=1e-15)

    def test_empty(self):
        out = sample_function(lambda t: 1.0, ts=0.5, start=0, count=0)
        assert len(out) == 0

    def test_rejects_bad_ts(self):
        with pytest.raises(ValueError):
            sample_function(lambda t: 1.0, ts=0.0, start=0, count=1)

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValueError):
            sample_function(lambda t: float("nan"), ts=1.0, start=0, count=1)

    def test_grid_reproduction_is_exact(self):
        # sampling then point evaluation reproduces f on the grid exactly
        f = lambda t: complex(math.sin(t), math.cos(3 * t))
        out = sample_function(f, ts=0.25, start=-5, count=11)
        for i in range(11):
            k = -5 + i
            assert out.value(k) == complex(f(k * 0.25))


class TestDiscreteSignal:
    def test_zero_off_support(self):
        f = DiscreteSignal(2, [1, 2, 3])
        assert f.value(1) == 0j
        assert f.value(2) == 1 + 0j
        assert f.value(4) == 3 + 0j
        assert f.value(5) == 0j

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiscreteSignal(0, [1.0, float("inf")])

    def test_immutable(self):
        f = DiscreteSignal(0, [1, 2])
        with pytest.raises(ValueError):
            f.samples[0] = 5.0


_SIGNAL_MAKERS = {
    "discrete": lambda x: DiscreteSignal(0, x),
    "periodic-discrete": PeriodicDiscreteSignal,
    "sampled": lambda x: SampledSignal(0.5, -1, x),
    "periodic-sampled": lambda x: PeriodicSampledSignal(0.5, x),
}


@pytest.mark.parametrize("make", _SIGNAL_MAKERS.values(), ids=_SIGNAL_MAKERS.keys())
class TestSampleValidation:
    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0), complex(0, -math.inf)]
    )
    def test_rejects_nonfinite_in_either_part(self, make, bad):
        with pytest.raises(ValueError, match="non-finite"):
            make(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_rejects_other_than_one_dimension(self, make, shape):
        with pytest.raises(ValueError, match="one-dimensional"):
            make(np.ones(shape))

    def test_owns_a_read_only_copy(self, make):
        values = np.array([1.0, 2.0 - 1j, 3.0j])
        f = make(values)
        values[0] = 99.0
        assert f.samples[0] == 1.0
        assert not f.samples.flags.writeable
        with pytest.raises(ValueError):
            f.samples[1] = 0.0


class TestValueIndex:
    """value(k) reads an integer index; 1.7 or True is rejected, not read as 1."""

    SIGNALS = {
        "discrete": DiscreteSignal(0, [1, 2, 3]),
        "periodic-discrete": PeriodicDiscreteSignal([1, 2, 3]),
        "sampled": SampledSignal(0.5, 0, [1, 2, 3]),
        "periodic-sampled": PeriodicSampledSignal(0.5, [1, 2, 3]),
    }

    @pytest.mark.parametrize("kind", SIGNALS)
    @pytest.mark.parametrize("k", [1.7, 1.0, True, "1", None], ids=repr)
    def test_rejects_a_non_integer(self, kind, k):
        f = self.SIGNALS[kind]
        assert f.value(np.int64(1)) == f.value(1) == 2 + 0j
        with pytest.raises(ValueError, match="k must be an integer"):
            f.value(k)


class TestPeriodicSignals:
    def test_euclidean_wrap(self):
        f = PeriodicDiscreteSignal([10, 20, 30])
        assert f.value(-1) == 30
        assert f.value(-3) == 10
        assert f.value(4) == 20

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_periodicity_bit_identical(self, n):
        rng = np.random.default_rng(n)
        f = PeriodicDiscreteSignal(rng.normal(size=n) + 1j * rng.normal(size=n))
        for k in range(-3 * n, 3 * n):
            assert f.value(k + n) == f.value(k)

    def test_needs_one_sample(self):
        with pytest.raises(ValueError):
            PeriodicDiscreteSignal([])

    def test_period_t_is_derived(self):
        f = PeriodicSampledSignal(ts=0.25, samples=[1, 2, 3, 4])
        assert f.period_t == 4 * 0.25
        assert f.period_samples == 4

    def test_sampled_wrap(self):
        f = PeriodicSampledSignal(ts=0.5, samples=[1, 2])
        assert f.value(2) == 1
        assert f.value(-1) == 2


class TestIdentitySignals:
    def test_delta_signal(self):
        d = delta_signal()
        assert d.value(0) == 1
        assert d.value(1) == 0
        assert d.value(-1) == 0

    def test_delta_approx_height(self):
        d = delta_approx(0.25)
        assert d.value(0) == 4.0
        assert len(d) == 1

    def test_periodic_delta(self):
        d = periodic_delta(4)
        assert list(d.samples.real) == [1, 0, 0, 0]


class TestPeriodize:
    def test_plain_relocation(self):
        f = SampledSignal(0.5, 2, [1, 2, 3])
        folded = periodize(f, 8)
        assert list(folded.samples.real) == [0, 0, 1, 2, 3, 0, 0, 0]
        assert folded.ts == 0.5

    def test_negative_start_wraps(self):
        f = DiscreteSignal(-1, [5, 6])
        folded = periodize(f, 4)
        assert list(folded.samples.real) == [6, 0, 0, 5]

    def test_overlap_accumulates(self):
        f = DiscreteSignal(0, [1, 1, 1, 1])
        folded = periodize(f, 2)
        assert list(folded.samples.real) == [2, 2]
