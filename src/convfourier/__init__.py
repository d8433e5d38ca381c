"""Convolution calculus with exponential eigensignals.

Convolving any signal with an exponential returns the same exponential
scaled by a constant factor; this package builds the Fourier series, the
DFT and the Fourier transform out of that single fact, and ships a
harness that re-derives every identity numerically.
"""

from .convolution import (
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
from .fourier import (
    ResidualReport,
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
from .generators import cosine, gaussian, pulse, square
from .harness import GridParams, IdentityCheck, Report, run_all
from .io import SignalFormatError, read_signal, read_signal_text, signal_text, write_signal
from .signals import (
    AliasingError,
    DiscreteSignal,
    GridMismatchError,
    PeriodicDiscreteSignal,
    PeriodicSampledSignal,
    SampledSignal,
    delta_approx,
    delta_signal,
    periodize,
)

__version__ = "0.1.0"
