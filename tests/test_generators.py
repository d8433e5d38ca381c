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
