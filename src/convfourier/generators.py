"""Built-in test signals used by the CLI and the verification harness."""

from __future__ import annotations

import numpy as np

from .signals import (
    _TWO_PI, PeriodicSampledSignal, SampledSignal, _check_ts, _finite_number, _float_indices,
    _grid_steps, _index,
)

__all__ = ["pulse", "cosine", "square", "gaussian"]


def pulse(ts: float, width: float = 1.0) -> SampledSignal:
    """Unit-height pulse on [-width/2, width/2), sampled at spacing ts.

    width must be a whole number (at least 1) of grid steps.
    """
    ts = _check_ts(ts)
    steps = _grid_steps(_finite_number(width, "width"), ts, "pulse width", minimum=1)
    return SampledSignal(ts=ts, start=-(steps // 2), samples=np.ones(steps, dtype=np.complex128))


def cosine(n_samples: int, ts: float) -> PeriodicSampledSignal:
    """One period of cos(omega0 * t) on an N-sample grid.  Harmonic n is
    ``fourier.sampled_harmonic(n, N, ts).samples.real``."""
    n_samples = _index(n_samples, "n_samples", minimum=1)
    k = np.arange(n_samples)
    return PeriodicSampledSignal(
        ts=ts, samples=np.cos(_TWO_PI * k / n_samples).astype(np.complex128)
    )


def square(n_samples: int, ts: float) -> PeriodicSampledSignal:
    """Square wave: +1 on the first half-period, -1 on the second."""
    n_samples = _index(n_samples, "n_samples", minimum=2)
    if n_samples % 2:
        raise ValueError(f"square wave needs an even sample count, got {n_samples}")
    samples = np.ones(n_samples, dtype=np.complex128)
    samples[n_samples // 2 :] = -1.0
    return PeriodicSampledSignal(ts=ts, samples=samples)


def gaussian(ts: float, half_width: float = 6.0, rate: float = 1.0) -> SampledSignal:
    """Samples of e^(-rate t^2) on the symmetric grid |t| <= half_width.

    half_width must be a whole number (at least 1) of grid steps, and rate a
    finite number > 0.
    """
    ts = _check_ts(ts)
    k_max = _grid_steps(_finite_number(half_width, "half_width"), ts, "half_width", minimum=1)
    rate = _finite_number(rate, "rate", positive=True)
    t = _float_indices(-k_max, 2 * k_max + 1) * ts
    # at rate 1.0, -rate * t is -t exactly
    return SampledSignal(ts=ts, start=-k_max, samples=np.exp(-rate * t * t))
