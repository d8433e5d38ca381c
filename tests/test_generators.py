import math
import re
import tracemalloc

import numpy as np
import pytest

from convfourier.generators import cosine, gaussian, pulse, square


@pytest.mark.parametrize("make", [pulse, gaussian], ids=["pulse", "gaussian"])
@pytest.mark.parametrize("ts", [0.0, -0.25, math.inf, math.nan], ids=repr)
def test_grid_spacing_is_checked_before_use(make, ts):
    # 0 divided the width by zero; -0.25 blamed the half-width
    with pytest.raises(ValueError, match="ts must be finite and > 0"):
        make(ts)


@pytest.mark.parametrize(
    "make, name, value, match",
    [
        (pulse, "width", math.inf, "width must be finite"),
        (gaussian, "half_width", math.inf, "half_width must be finite"),
        (pulse, "width", "1", "width must be a number"),
        (pulse, "width", math.nan, "width must be finite"),
        (gaussian, "half_width", True, "half_width must be a number"),
    ],
    ids=["pulse-inf", "gaussian-inf", "pulse-str", "pulse-nan", "gaussian-bool"],
)
def test_length_is_a_finite_number(make, name, value, match):
    # inf reached round() as an OverflowError, "1" a TypeError, nan NumPy's
    # integer conversion, and True was read as a half-width of 1
    with pytest.raises(ValueError, match=match):
        make(0.25, **{name: value})


@pytest.mark.parametrize("make, name", [(pulse, "width"), (gaussian, "half_width")])
def test_length_beyond_float64_in_grid_steps(make, name):
    # the default length over ts = 1e-320 is inf, which round() cannot take
    with pytest.raises(ValueError, match=f"{name} .* beyond the float64 range"):
        make(1e-320)


def test_half_width_is_a_whole_number_of_steps():
    # 1.1 / 0.3 rounded to 4 steps put samples at |t| = 1.2, past the half-width
    with pytest.raises(ValueError, match="^half_width 1.1 is not a whole number of steps of 0.3$"):
        gaussian(0.3, 1.1)
    assert np.abs(gaussian(0.3, 1.2).times()).max() <= 1.2 * (1 + 1e-12)


@pytest.mark.parametrize(
    "rate, message",
    [
        (0, "rate must be finite and > 0, got 0.0"),
        (-1, "rate must be finite and > 0, got -1.0"),
        (math.nan, "rate must be finite and > 0, got nan"),
        ("2", "rate must be a number, got '2'"),
        (True, "rate must be a number, got True"),
    ],
    ids=["zero", "negative", "nan", "str", "bool"],
)
def test_gaussian_rate_is_a_positive_number(rate, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gaussian(0.25, 1.0, rate=rate)


def test_gaussian_rate_scales_the_exponent():
    t = np.arange(-4, 5) * 0.25
    assert np.array_equal(gaussian(0.25, 1.0).samples, np.exp(-t * t))
    assert np.array_equal(gaussian(0.25, 1.0, rate=2.0).samples, np.exp(-2.0 * t * t))


_N = 2**16


@pytest.mark.parametrize(
    "make",
    [lambda: pulse(1.0 / _N), lambda: cosine(_N, 1.0 / _N), lambda: square(_N, 1.0 / _N)],
    ids=["pulse", "cosine", "square"],
)
def test_generator_makes_one_complex_copy(make):
    # the constructor makes the one complex copy (1 MiB at 2^16 samples) of a
    # real 0.5 MiB array; a complex array handed to it is a second 1 MiB copy
    make()
    tracemalloc.start()
    try:
        make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * 2**20
