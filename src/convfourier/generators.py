"""Built-in test signals used by the CLI and the verification harness."""

from __future__ import annotations

import numpy as np

from .signals import (
    PeriodicSampledSignal, SampledSignal, _check_ts, _finite_number, _grid_steps, _index,
)

__all__ = ["pulse", "cosine", "square", "gaussian"]


def pulse(ts: float, width: float = 1.0) -> SampledSignal:
    """Unit-height pulse on [-width/2, width/2), sampled at spacing ts.

    width must be an integer number of grid steps.
    """
    ts = _check_ts(ts)
    width = _finite_number(width, "width")
    steps = _grid_steps(width, ts, "pulse width")
    if steps < 1 or not np.isclose(steps * ts, width, rtol=1e-9, atol=0):
        raise ValueError(f"pulse width {width} is not a multiple of ts={ts}")
    return SampledSignal(ts=ts, start=-(steps // 2), samples=np.ones(steps, dtype=np.complex128))


def cosine(n_samples: int, ts: float, harmonic: int = 1) -> PeriodicSampledSignal:
    """One period of cos(harmonic * omega0 * t) on an N-sample grid."""
    n_samples = _index(n_samples, "n_samples", minimum=1)
    harmonic = _index(harmonic, "harmonic")
    k = np.arange(n_samples)
    return PeriodicSampledSignal(
        ts=ts, samples=np.cos(2.0 * np.pi * harmonic * k / n_samples).astype(np.complex128)
    )


def square(n_samples: int, ts: float) -> PeriodicSampledSignal:
    """Square wave: +1 on the first half-period, -1 on the second."""
    n_samples = _index(n_samples, "n_samples")
    if n_samples < 2 or n_samples % 2:
        raise ValueError(f"square wave needs an even sample count, got {n_samples}")
    samples = np.ones(n_samples, dtype=np.complex128)
    samples[n_samples // 2 :] = -1.0
    return PeriodicSampledSignal(ts=ts, samples=samples)


def gaussian(ts: float, half_width: float = 6.0) -> SampledSignal:
    """Samples of e^(-t^2) on the symmetric grid |t| <= half_width."""
    ts = _check_ts(ts)
    half_width = _finite_number(half_width, "half_width")
    k_max = _grid_steps(half_width, ts, "half_width")
    if k_max < 1:
        raise ValueError(f"half_width {half_width} shorter than one grid step {ts}")
    k = np.arange(-k_max, k_max + 1)
    t = k * ts
    return SampledSignal(ts=ts, start=-k_max, samples=np.exp(-t * t).astype(np.complex128))
