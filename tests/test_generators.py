import math

import numpy as np
import pytest

from convfourier.generators import cosine, gaussian, pulse


@pytest.mark.parametrize("make", [pulse, gaussian], ids=["pulse", "gaussian"])
@pytest.mark.parametrize("ts", [0.0, -0.25, math.inf, math.nan], ids=repr)
def test_grid_spacing_is_checked_before_use(make, ts):
    # 0 divided the width by zero; -0.25 blamed the half-width
    with pytest.raises(ValueError, match="ts must be finite and > 0"):
        make(ts)


@pytest.mark.parametrize("harmonic", [1.5, 2.0, True, "1"], ids=repr)
def test_cosine_harmonic_is_an_integer(harmonic):
    # harmonic 1.5 gave a "periodic" signal that does not repeat over its samples
    with pytest.raises(ValueError, match="harmonic must be an integer"):
        cosine(8, 0.1, harmonic=harmonic)


def test_cosine_harmonic_repeats_over_the_period():
    f = cosine(8, 0.1, harmonic=np.int64(3))
    assert np.allclose(f.samples, np.cos(2 * np.pi * 3 * np.arange(8) / 8), atol=0)


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
