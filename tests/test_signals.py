import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfourier import convolution as conv
from convfourier import fourier as four
from convfourier import io, signals
from convfourier.convolution import (
    approx_analog_convolve,
    derivative,
    discrete_convolve,
    exp_factor_analog,
    exp_factor_discrete,
    scale_time,
    shift,
)
from convfourier.fourier import (
    DftSpectrum,
    SeriesSpectrum,
    TransformSpectrum,
    inverse_fourier_transform,
)
from convfourier.harness import GridParams
from convfourier.signals import (
    DiscreteSignal,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    delta_approx,
    delta_signal,
    periodize,
)

from oracles import eval_discrete_exponential


# the three functions that take an exponential's complex parameter, each
# called with a valid signal or point and the parameter last
_ANALOG_PARAM = [
    pytest.param(lambda a: exp_factor_analog(SampledSignal(0.5, 0, [1, 2]), a), id="factor_analog"),
]
_DISCRETE_PARAM = [
    pytest.param(lambda a: eval_discrete_exponential(a, 1), id="eval_discrete"),
    pytest.param(lambda a: exp_factor_discrete(DiscreteSignal(0, [1, 2]), a), id="factor_discrete"),
]


class TestExpParam:
    @pytest.mark.parametrize("call", _DISCRETE_PARAM)
    def test_rejects_zero(self, call):
        with pytest.raises(ValueError):
            call(0)

    @pytest.mark.parametrize("call", _ANALOG_PARAM + _DISCRETE_PARAM)
    def test_rejects_nonfinite(self, call):
        with pytest.raises(ValueError):
            call(complex(float("inf"), 0))
        with pytest.raises(ValueError):
            call(complex(0, float("nan")))

    @pytest.mark.parametrize("call", _ANALOG_PARAM + _DISCRETE_PARAM)
    @pytest.mark.parametrize("a", ["2", True, np.True_], ids=repr)
    def test_rejects_text_and_bool(self, call, a):
        # complex("2") would parse the string, complex(True) read it as 1
        with pytest.raises(ValueError, match="exponential parameter must be a number"):
            call(a)


class TestEvalDiscreteExponential:
    def test_j_squared(self):
        assert eval_discrete_exponential(1j, 2) == -1 + 0j

    def test_reciprocal(self):
        assert eval_discrete_exponential(2, -1) == 0.5 + 0j

    def test_fourth_root_cubed(self):
        # (e^{j 2 pi / 4})^3 = -j
        a = complex(math.cos(math.pi / 2), math.sin(math.pi / 2))
        value = eval_discrete_exponential(a, 3)
        assert abs(value - (0 - 1j)) < 1e-15

    @pytest.mark.parametrize("a, k", [(1e-200, -5), (1e-310, -1), (1e200, 2)], ids=repr)
    def test_power_beyond_float64_is_overflow(self, a, k):
        # a^5 underflows to 0 before its reciprocal; 1 / 1e-310 is inf
        with pytest.raises(OverflowError):
            eval_discrete_exponential(a, k)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2"], ids=repr)
    def test_index_is_never_truncated(self, k):
        assert eval_discrete_exponential(2, np.int64(2)) == 4 + 0j
        with pytest.raises(ValueError, match="k must be an integer"):
            eval_discrete_exponential(2, k)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


def _direct_roots(n, period, k):
    # the expression the table gather replaces: one np.exp per entry
    return np.exp(2j * np.pi * (((n % period) * k) % period) / period)


class TestExponentialFamilies:
    @pytest.mark.parametrize("period", [1, 2, 7, 64, 257, 1024, 4096])
    @pytest.mark.parametrize("n", [0, 1, 5, -1, -3, 2**62, 2**63 - 1])
    def test_unit_roots_gather_is_the_direct_exp(self, n, period):
        k = np.arange(-period, 2 * period)
        assert _bits(signals._unit_roots(n, period)(k)) == _bits(_direct_roots(n, period, k))

    @pytest.mark.parametrize("period", [7, 64, 4096])
    def test_unit_roots_column_is_the_direct_exp(self, period):
        n = np.array([[0], [3], [-2], [2**62], [2**63 - 1]], dtype=np.int64)
        k = np.arange(period)
        rows = signals._unit_roots(n, period)(k)
        assert rows.shape == (5, period)
        assert _bits(rows) == _bits(_direct_roots(n, period, k))

    @pytest.mark.parametrize("a", [0.5 + 0.3j, -1.7 + 0.2j, 1.01 * np.exp(0.3j), 2 + 0j, -0.9j, 1 + 1e-3j])
    def test_discrete_exp_is_the_power(self, a):
        k = np.arange(-40, 41)
        want = np.array([complex(a) ** int(i) for i in k])
        got = signals._discrete_exp(a)(k)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("a", [1 + 0j, -1 + 0j, 1j, -1j], ids=repr)
    def test_discrete_exp_is_exact_on_the_unit_axes(self, a):
        k = np.arange(-40, 41)
        cycle = np.array([1, a, a * a, a * a * a], dtype=np.complex128)
        assert np.array_equal(signals._discrete_exp(a)(k), cycle[k % 4])

    @pytest.mark.parametrize("a, step", [(0.3 - 2j, 1 / 64), (5.5j, 0.3), (-0.75j, math.pi / 8)])
    def test_analog_exp_keeps_its_order(self, a, step):
        # in this order: at a step that is not a power of two, a * (k * step)
        # rounds differently
        k = np.arange(-50, 51)
        assert _bits(signals._analog_exp(a, step)(k)) == _bits(np.exp(a * k * step))

    def test_analog_exp_euler_identity(self):
        # e^(j pi) = -1, and e^(j pi / 2 * 3) = -j
        assert abs(signals._analog_exp(1j * math.pi, 1.0)(1) - (-1)) <= 1e-15
        assert abs(signals._analog_exp(1j * math.pi / 2, 1.0)(3) - (-1j)) <= 1e-15

    @pytest.mark.parametrize("a", [0, 0j, 1.0, -2 + 3j], ids=repr)
    def test_analog_exp_is_one_at_zero(self, a):
        # t = 0 for any parameter; every t for the parameter 0
        assert signals._analog_exp(a, 0.25)(0) == 1
        if a == 0:
            assert np.array_equal(signals._analog_exp(a, 0.25)(np.arange(-5, 6)), np.ones(11))

    @settings(max_examples=200, deadline=None)
    @given(
        re=st.floats(-2, 2),
        im=st.floats(-2, 2),
        k1=st.integers(-200, 200),
        k2=st.integers(-200, 200),
    )
    def test_analog_exp_is_multiplicative(self, re, im, k1, k2):
        # e^(a (t1 + t2)) = e^(a t1) e^(a t2) within 1e-12 relative for |t| <= 100
        e = signals._analog_exp(complex(re, im), 0.25)
        whole, split = e(k1 + k2), e(k1) * e(k2)
        assert abs(whole - split) <= 1e-12 * max(abs(whole), abs(split), 1e-300)


class TestDiscreteSignal:
    def test_zero_off_support(self):
        f = DiscreteSignal(2, [1, 2, 3])
        assert f.value(1) == 0j
        assert f.value(2) == 1 + 0j
        assert f.value(4) == 3 + 0j
        assert f.value(5) == 0j

    def test_sampled_zero_off_support(self):
        f = SampledSignal(0.5, 2, [1, 2])
        assert (f.value(1), f.value(2), f.value(3), f.value(4)) == (0j, 1 + 0j, 2 + 0j, 0j)

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


# One rule for every number a value holds: each value type stores a finite
# copy of its numbers, and each stored scalar is a finite number > 0; a str or
# a bool is rejected, never parsed or read as 0 and 1.
_VALUE_TYPES = {
    "DiscreteSignal": lambda v: DiscreteSignal(0, v),
    "PeriodicDiscreteSignal": PeriodicDiscreteSignal,
    "SampledSignal": lambda v: SampledSignal(0.5, 0, v),
    "PeriodicSampledSignal": lambda v: PeriodicSampledSignal(0.5, v),
    "SeriesSpectrum": lambda v: SeriesSpectrum(1.0, v),
    "DftSpectrum": DftSpectrum,
    "TransformSpectrum": lambda v: TransformSpectrum([0.0], v),
}
_SCALARS = {
    "SampledSignal.ts": lambda x: SampledSignal(x, 0, [1.0]),
    "PeriodicSampledSignal.ts": lambda x: PeriodicSampledSignal(x, [1.0]),
    "delta_approx.ts": delta_approx,
    "inverse_fourier_transform.ts": lambda x: inverse_fourier_transform(
        TransformSpectrum([0.0, 1.0], [1.0, 1.0]), x, 0, 1
    ),
    "GridParams.ts": lambda x: GridParams(ts=x),
    "SeriesSpectrum.period_t": lambda x: SeriesSpectrum(x, [1.0]),
    "series_synthesize.ts": lambda x: four.series_synthesize(SeriesSpectrum(1.0, [1.0]), x, 0, 1),
    "sampled_harmonic.ts": lambda x: four.sampled_harmonic(1, 4, x),
    "cosine.ts": lambda x: cosine(4, x),
    "square.ts": lambda x: square(4, x),
    "periodize_spectrum.omega_s": lambda x: four.periodize_spectrum(
        TransformSpectrum([0.0, 0.5], [1.0, 1.0]), x, 1
    ),
}
_BAD_ARRAYS = [[math.nan], [math.inf], [-math.inf], np.array(["1"]), np.array([b"1"]), np.array([True])]
_BAD_SCALARS = ["0.5", True, math.inf, math.nan]
_ONE_RULE = [
    pytest.param(build, bad, id=f"{name}-{bad!r}")
    for table, bads in ((_VALUE_TYPES, _BAD_ARRAYS), (_SCALARS, _BAD_SCALARS))
    for name, build in table.items()
    for bad in bads
]


@pytest.mark.parametrize("build, bad", _ONE_RULE)
def test_a_value_holds_only_finite_numbers(build, bad):
    with pytest.raises(ValueError, match="must be (a number|numbers|finite)|non-finite"):
        build(bad)


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
        assert f.omega0 == 2 * math.pi / f.period_t

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

    def test_periodized_delta(self):
        # the identity of circular convolution is the delta folded onto one period
        d = periodize(delta_signal(), 4)
        assert d.samples.tolist() == [1, 0, 0, 0]

    def test_delta_approx_height(self):
        d = delta_approx(0.25)
        assert d.value(0) == 4.0
        assert len(d) == 1


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


# ---------------------------------------------------------------------------
# Every signal or spectrum operand of a public call is read by
# signals._of_kind, before any other argument: a value of another kind (one of
# the four signals, the three spectra or a plain array) is a TypeError naming
# the call and the kinds it takes.
# ---------------------------------------------------------------------------
_OF_EACH_KIND = {
    DiscreteSignal: DiscreteSignal(0, [1, 2, 3, 4]),
    SampledSignal: SampledSignal(0.5, 0, [1, 2, 3, 4]),
    PeriodicDiscreteSignal: PeriodicDiscreteSignal([1, 2, 3, 4]),
    PeriodicSampledSignal: PeriodicSampledSignal(0.5, [1, 2, 3, 4]),
    SeriesSpectrum: SeriesSpectrum(2.0, [1, 2, 3]),
    DftSpectrum: DftSpectrum([1, 2, 3, 4]),
    TransformSpectrum: TransformSpectrum([0.0, 0.5], [1, 2]),
    np.ndarray: np.arange(4.0),
}
_SIGNALS = (DiscreteSignal, SampledSignal, PeriodicDiscreteSignal, PeriodicSampledSignal)
_D, _S, _PD, _PS = (_OF_EACH_KIND[kind] for kind in _SIGNALS)
# (the call with its operand x, the kinds x takes, the call on x); the other
# operands are of their own kind, and every argument that is not an operand
# is invalid, so a call that read one before x would raise a ValueError
_OPERANDS = [
    ("discrete_convolve(x, g)", (DiscreteSignal,), lambda x: conv.discrete_convolve(x, _D)),
    ("discrete_convolve(f, x)", (DiscreteSignal,), lambda x: conv.discrete_convolve(_D, x)),
    ("approx_analog_convolve(x, g)", (SampledSignal,), lambda x: conv.approx_analog_convolve(x, _S)),
    ("approx_analog_convolve(f, x)", (SampledSignal,), lambda x: conv.approx_analog_convolve(_S, x)),
    ("periodic_convolve_discrete(x, g)", (PeriodicDiscreteSignal,),
     lambda x: conv.periodic_convolve_discrete(x, _PD)),
    ("periodic_convolve_discrete(f, x)", (PeriodicDiscreteSignal,),
     lambda x: conv.periodic_convolve_discrete(_PD, x)),
    ("periodic_convolve_analog(x, g)", (PeriodicSampledSignal,),
     lambda x: conv.periodic_convolve_analog(x, _PS)),
    ("periodic_convolve_analog(f, x)", (PeriodicSampledSignal,),
     lambda x: conv.periodic_convolve_analog(_PS, x)),
    ("mixed_convolve(x, f)", (DiscreteSignal, SampledSignal), lambda x: conv.mixed_convolve(x, _PD)),
    ("mixed_convolve(discrete h, x)", (PeriodicDiscreteSignal,), lambda x: conv.mixed_convolve(_D, x)),
    ("mixed_convolve(sampled h, x)", (PeriodicSampledSignal,), lambda x: conv.mixed_convolve(_S, x)),
    ("exp_factor_discrete(x, 0)", (DiscreteSignal, PeriodicDiscreteSignal),
     lambda x: conv.exp_factor_discrete(x, 0)),
    ("exp_factor_analog(x, nan)", (SampledSignal, PeriodicSampledSignal),
     lambda x: conv.exp_factor_analog(x, math.nan)),
    ("shift(x, 0.5)", _SIGNALS, lambda x: conv.shift(x, 0.5)),
    ("scale_time(x, 0)", (SampledSignal,), lambda x: conv.scale_time(x, 0)),
    ("derivative(x)", (SampledSignal,), conv.derivative),
    ("periodize(x, 0)", (DiscreteSignal, SampledSignal), lambda x: periodize(x, 0)),
    ("fourier_coefficients(x, -1)", (PeriodicSampledSignal,), lambda x: four.fourier_coefficients(x, -1)),
    ("series_synthesize(x, 0, 0, -1)", (SeriesSpectrum,), lambda x: four.series_synthesize(x, 0.0, 0, -1)),
    ("fs_eigencheck(x, 0.5)", (PeriodicSampledSignal,), lambda x: four.fs_eigencheck(x, 0.5)),
    ("dft(x)", (PeriodicDiscreteSignal,), four.dft),
    ("idft(x)", (DftSpectrum,), four.idft),
    ("fourier_transform(x, [1j])", (SampledSignal,), lambda x: four.fourier_transform(x, [1j])),
    ("inverse_fourier_transform(x, 0, 0, -1)", (TransformSpectrum,),
     lambda x: four.inverse_fourier_transform(x, 0.0, 0, -1)),
    ("periodize_spectrum(x, 0, 0)", (TransformSpectrum,), lambda x: four.periodize_spectrum(x, 0.0, 0)),
    ("signal_kind(x)", _SIGNALS, io.signal_kind),
    ("signal_text(x, 'xml')", _SIGNALS, lambda x: io.signal_text(x, "xml")),
    ("write_signal(x, devnull, 'xml')", _SIGNALS, lambda x: io.write_signal(x, os.devnull, "xml")),
    ("series_table_text(x, 'xml')", (SeriesSpectrum,), lambda x: io.series_table_text(x, "xml")),
    ("transform_table_text(x, 'xml')", (TransformSpectrum,), lambda x: io.transform_table_text(x, "xml")),
]
# the signal writers read their signal's kind through signal_kind
_NAMED_BY = {"signal_text": "signal_kind", "write_signal": "signal_kind"}


def _kind_error(label, kinds, got) -> str:
    name = label.partition("(")[0]
    return f"{_NAMED_BY.get(name, name)} needs a {' or '.join(k.__name__ for k in kinds)}, got {got.__name__}"


_FOREIGN_OPERANDS = [
    pytest.param(call, value, _kind_error(label, kinds, kind), id=f"{label}-{kind.__name__}")
    for label, kinds, call in _OPERANDS
    for kind, value in _OF_EACH_KIND.items()
    if kind not in kinds
]


@pytest.mark.parametrize("call, x, message", _FOREIGN_OPERANDS)
def test_an_operand_of_another_kind_is_a_type_error(call, x, message):
    with pytest.raises(TypeError) as caught:
        call(x)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# Start, count, period and window arguments are read through signals._index:
# a float, a bool or a string is a ValueError, never truncated by int().
# ---------------------------------------------------------------------------

from convfourier.generators import cosine, square  # noqa: E402
from convfourier.harness import GridParams  # noqa: E402

_SPECTRUM = four.TransformSpectrum(omegas=np.arange(8) * 0.5, values=np.ones(8, dtype=complex))
_SERIES = four.SeriesSpectrum(period_t=1.0, coeffs=np.ones(3, dtype=complex))

# site -> (call with the argument, a good value, what the call returns for it)
INTEGER_ARGUMENTS = {
    "DiscreteSignal.start": (lambda v: DiscreteSignal(v, [1]).start, 2, 2),
    "SampledSignal.start": (lambda v: SampledSignal(0.5, v, [1]).start, 2, 2),
    "periodize": (lambda v: periodize(DiscreteSignal(0, [1, 2, 3]), v).period, 2, 2),
    "cosine": (lambda v: cosine(v, 1 / 16).samples.size, 16, 16),
    "square": (lambda v: square(v, 0.1).samples.size, 4, 4),
    "GridParams.n": (lambda v: GridParams(n=v).n, 32, 32),
    "GridParams.n_max": (lambda v: GridParams(n_max=v).n_max, 3, 3),
    "fourier_coefficients": (lambda v: four.fourier_coefficients(cosine(16, 1 / 16), v).n_max, 3, 3),
    "_synthesize.start": (lambda v: four.series_synthesize(_SERIES, 0.25, v, 2).start, 3, 3),
    "_synthesize.count": (lambda v: len(four.inverse_fourier_transform(_SPECTRUM, 0.25, 0, v)), 5, 5),
    "periodize_spectrum": (lambda v: four.periodize_spectrum(_SPECTRUM, 1.0, v).omegas.size, 1, 8),
    "shift": (lambda v: shift(DiscreteSignal(0, [1]), v).start, 3, 3),
    "harmonic_signal.period": (lambda v: four.harmonic_signal(1, v).period, 4, 4),
    "sampled_harmonic.period": (lambda v: four.sampled_harmonic(1, v, 0.5).period_samples, 4, 4),
}


@pytest.mark.parametrize("site", INTEGER_ARGUMENTS)
def test_integer_argument_is_never_truncated(site):
    call, good, result = INTEGER_ARGUMENTS[site]
    # good + 0.5 is a float that int() would truncate to the good value
    for bad in (1.7, True, "3", good + 0.5):
        with pytest.raises(ValueError):
            call(bad)
    got = call(np.int64(good))
    assert got == result and type(got) is int


def test_discrete_shift_keeps_its_integral_float_rule():
    assert shift(DiscreteSignal(0, [1]), 3.0).start == 3
    assert shift(PeriodicDiscreteSignal([1, 0, 0]), -1.0).samples.tolist() == [0, 0, 1]


# ---------------------------------------------------------------------------
# io reads an index beyond int64 as a Python int, and every site that does
# arithmetic on a start keeps it out of NumPy's int64: each of these raised
# OverflowError ("Python int too large to convert to C long") or IndexError.
# A site that makes an index a float (`signals._float_indices`) raises
# OverflowError instead: float64 holds no step of 1 near 1e23, so every time
# would round to BIG * ts.
# ---------------------------------------------------------------------------

BIG = 10**23
_BIG_SIGNAL = SampledSignal(0.5, BIG, [1, 2, 3, 4])

# site -> (call, what it returns)
BEYOND_INT64 = {
    "SampledSignal.times": (lambda: _BIG_SIGNAL.times().tolist(), OverflowError),
    "scale_time.decimate": (lambda: _started(scale_time(_BIG_SIGNAL, 2)), (BIG // 2, [1, 3])),
    "scale_time.reverse": (lambda: _started(scale_time(_BIG_SIGNAL, -1)), (-BIG - 3, [4, 3, 2, 1])),
    "scale_time.big_factor": (
        lambda: _started(scale_time(SampledSignal(0.5, 0, [1, 2]), BIG)), (0, [1]),
    ),
    "exp_factor_discrete": (lambda: exp_factor_discrete(DiscreteSignal(BIG, [1, 2]), 1.0), OverflowError),
    "_synthesize": (
        lambda: four.inverse_fourier_transform(four.TransformSpectrum([0.0, 1.0], [1, 0]), 0.5, BIG, 2),
        OverflowError,
    ),
    "periodize": (lambda: periodize(DiscreteSignal(BIG + 1, [1, 2]), 4).samples.tolist(), [0, 1, 2, 0]),
    "periodize.sampled": (lambda: periodize(_BIG_SIGNAL, 4).samples.tolist(), [1, 2, 3, 4]),
    "value": (lambda: [_BIG_SIGNAL.value(BIG + i) for i in (-1, 0, 3, 4)], [0, 1, 4, 0]),
    "end": (lambda: DiscreteSignal(BIG, [1, 2]).end, BIG + 2),
    "shift.discrete": (lambda: _started(shift(DiscreteSignal(BIG, [1, 2]), 5)), (BIG + 5, [1, 2])),
    "shift.analog": (lambda: _started(shift(_BIG_SIGNAL, 1.0)), (BIG + 2, [1, 2, 3, 4])),
    "discrete_convolve": (
        lambda: _started(discrete_convolve(DiscreteSignal(BIG, [1, 2]), DiscreteSignal(-BIG, [1, 1]))),
        (0, [1, 3, 2]),
    ),
    "approx_analog_convolve": (
        lambda: _started(approx_analog_convolve(_BIG_SIGNAL, SampledSignal(0.5, BIG, [1, 1]))),
        (2 * BIG, [0.5, 1.5, 2.5, 3.5, 2]),
    ),
    "derivative": (lambda: _started(derivative(_BIG_SIGNAL)), (BIG + 1, [2, 2])),
    "exp_factor_analog": (lambda: exp_factor_analog(_BIG_SIGNAL, 0), OverflowError),
    "fourier_transform": (lambda: four.fourier_transform(_BIG_SIGNAL, [0.0]), OverflowError),
    "series_synthesize": (
        lambda: four.series_synthesize(SeriesSpectrum(1.0, [1.0]), 0.5, BIG, 2), OverflowError,
    ),
}


def _started(signal):
    return signal.start, signal.samples.tolist()


@pytest.mark.parametrize("site", BEYOND_INT64)
def test_start_beyond_int64(site):
    call, want = BEYOND_INT64[site]
    if want is OverflowError:
        with pytest.raises(OverflowError, match=rf"samples from index {BIG} reach past 2\^53"):
            call()
    else:
        assert call() == want


# The three sites that make an index a float, each with (start, count):
# |start| + count = 2^53 is the last span float64 holds exactly.
FLOAT_INDEX_SITES = {
    "SampledSignal.times": lambda start, count: SampledSignal(1.0, start, np.ones(count)).times(),
    "exp_factor_discrete": lambda start, count: exp_factor_discrete(
        DiscreteSignal(start, np.ones(count)), 1.0
    ),
    "_synthesize": lambda start, count: four.inverse_fourier_transform(
        four.TransformSpectrum([0.0, 1.0], [1, 0]), 1.0, start, count
    ).samples,
}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("site", FLOAT_INDEX_SITES)
def test_float_indices_end_at_2_53(site, sign):
    call = FLOAT_INDEX_SITES[site]
    call(sign * (2**53 - 2), 2)
    with pytest.raises(OverflowError, match=rf"^2 samples from index {sign * (2**53 - 1)} reach past 2\^53"):
        call(sign * (2**53 - 1), 2)


@pytest.mark.parametrize("start", [2**53 - 2, -(2**53 - 2)])
def test_float_indices_are_exact_up_to_2_53(start):
    assert SampledSignal(1.0, start, [1, 1]).times().tolist() == [start, start + 1]


# ---------------------------------------------------------------------------
# Every lower bound on an integer argument is checked by the reader itself,
# `_index(value, name, minimum)`, with one message; the periodic types and
# DftSpectrum take at least one entry through `_as_complex_array`.
# ---------------------------------------------------------------------------

from convfourier.harness import run_all  # noqa: E402

# site -> (call with the argument, the argument's name, its minimum)
BOUNDED_ARGUMENTS = {
    "harmonic_signal.period": (lambda v: four.harmonic_signal(1, v), "period", 1),
    "periodize": (lambda v: periodize(DiscreteSignal(0, [1, 2, 3]), v), "period", 1),
    "cosine": (lambda v: cosine(v, 1 / 16), "n_samples", 1),
    "square": (lambda v: square(v, 1 / 16), "n_samples", 2),
    "sampled_harmonic.period": (lambda v: four.sampled_harmonic(1, v, 0.5), "period", 1),
    "GridParams.n": (lambda v: GridParams(n=v, n_max=0), "n", 1),
    "GridParams.n_max": (lambda v: GridParams(n_max=v), "n_max", 0),
    "fourier_coefficients": (lambda v: four.fourier_coefficients(cosine(16, 1 / 16), v), "n_max", 0),
    "series_synthesize.count": (lambda v: four.series_synthesize(_SERIES, 0.25, 0, v), "count", 0),
    "inverse_fourier_transform.count": (
        lambda v: four.inverse_fourier_transform(_SPECTRUM, 0.25, 0, v), "count", 0
    ),
    "periodize_spectrum": (lambda v: four.periodize_spectrum(_SPECTRUM, 1.0, v), "replicas", 1),
    "run_all": (lambda v: run_all(GridParams(n=8, n_max=1), seed=v), "seed", 0),
}


@pytest.mark.parametrize("site", BOUNDED_ARGUMENTS)
def test_bound_is_checked_by_the_reader(site):
    call, name, minimum = BOUNDED_ARGUMENTS[site]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {minimum + 0.5}$"):
        call(minimum + 0.5)
    for below in (minimum - 1, np.int64(minimum - 5)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {below}$"):
            call(below)
    call(minimum)
    call(np.int64(minimum))


# type -> (constructor from a sample array, the array's name)
NON_EMPTY_ARRAYS = {
    "PeriodicDiscreteSignal": (PeriodicDiscreteSignal, "samples"),
    "PeriodicSampledSignal": (lambda a: PeriodicSampledSignal(0.5, a), "samples"),
    "DftSpectrum": (DftSpectrum, "values"),
}


@pytest.mark.parametrize("kind", NON_EMPTY_ARRAYS)
def test_periodic_types_need_one_entry(kind):
    make, name = NON_EMPTY_ARRAYS[kind]
    for empty in ([], np.zeros(0, dtype=complex)):
        with pytest.raises(ValueError, match=f"^{name} must have size >= 1, got size 0$"):
            make(empty)
    assert make([2j]).value(3) == 2j


# ---------------------------------------------------------------------------
# Every length on a grid is a whole number of steps, read by
# `signals._grid_steps(length, step, name, error, minimum)`; every lag and
# scale factor is an integer, read by `signals._integral`.
# ---------------------------------------------------------------------------

import re  # noqa: E402

from convfourier.generators import gaussian, pulse  # noqa: E402
from convfourier.signals import GridMismatchError  # noqa: E402

# site -> (call with the length, the step, the length's name, its error,
# a length below the minimum or None when there is no minimum)
GRID_LENGTHS = {
    "shift.sampled": (
        lambda v: shift(SampledSignal(0.25, 0, [1]), v), 0.25, "time shift", GridMismatchError, None
    ),
    "shift.periodic": (
        lambda v: shift(PeriodicSampledSignal(0.25, [1, 2]), v), 0.25, "time shift", GridMismatchError, None
    ),
    "pulse": (lambda v: pulse(0.25, v), 0.25, "pulse width", ValueError, 0.0),
    "gaussian": (lambda v: gaussian(0.25, v), 0.25, "half_width", ValueError, 0.0),
    # a positive omega_s under 1e-15 steps counts as 0 steps
    "periodize_spectrum": (
        lambda v: four.periodize_spectrum(_SPECTRUM, v, 1), 0.5, "omega_s", GridMismatchError, 1e-17
    ),
}


@pytest.mark.parametrize("site", GRID_LENGTHS)
def test_grid_length_is_a_whole_number_of_steps(site):
    call, step, name, error, below = GRID_LENGTHS[site]
    call(3 * step)
    # pulse, gaussian and periodize_spectrum rounded this to 3 steps
    off = 3 * step * (1 + 1e-10)
    message = f"{name} {off} is not a whole number of steps of {step}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(off)
    if below is None:
        call(-3 * step)
    else:
        with pytest.raises(error, match=f"^{name} must be >= 1 steps of {step}, got {below}$"):
            call(below)
    with pytest.raises(error, match=f"^{name} 1e\\+308 is beyond the float64 range in steps of {step}$"):
        call(1e308)


# site -> (call with the integer, the integer's name)
INTEGRAL_SCALARS = {
    "shift.discrete": (lambda v: shift(DiscreteSignal(0, [1]), v).start, "discrete shift"),
    "shift.periodic": (
        lambda v: shift(PeriodicDiscreteSignal([1, 0, 0, 0]), v).samples.argmax(), "discrete shift"
    ),
    "scale_time": (lambda v: len(scale_time(SampledSignal(0.5, 0, [1, 2, 3, 4, 5]), v)), "scale factor"),
}


@pytest.mark.parametrize("site", INTEGRAL_SCALARS)
def test_integral_scalar_is_read_once(site):
    call, name = INTEGRAL_SCALARS[site]
    want = call(2)
    # np.float32(2.0) was "must be an integer"; 1j was scale_time's TypeError
    for good in (2.0, np.float64(2.0), np.float32(2.0), np.int8(2)):
        assert call(good) == want
    for bad in (1.5, np.float32(1.5), math.inf, math.nan, 1j, 2 + 0j):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(bad)
    for bad in ("2", True, np.True_):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            call(bad)
