"""Span and peak-memory recorders wrapped around convfourier from outside the library.

Nothing under ``src/`` is edited.  ``bind`` replaces every place a wrapped
function is reachable at call time: module attributes, by-name imports in
other modules (``fourier``'s ``periodic_convolve_analog``, ``harness``'s
``_riemann_sum``), function tables such as ``cli._CONV_OPS``, and the
runners of ``harness.REGISTRY``, swapped in with ``dataclasses.replace``.
Signal construction is caught at each signal class's ``__post_init__``.
The returned callable puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import tracemalloc

import numpy as np

import convfourier
from convfourier import cli, convolution, fourier, generators, harness, io, signals

MODULES = {
    "cli": cli,
    "io": io,
    "harness": harness,
    "fourier": fourier,
    "convolution": convolution,
    "signals": signals,
    "generators": generators,
}

# Functions wrapped besides each module's public (``__all__``) functions.
_EXTRA = {"cli": ("main",), "convolution": ("_riemann_sum", "_power_sum")}

_SIGNAL_CLASSES = (
    signals.DiscreteSignal,
    signals.PeriodicDiscreteSignal,
    signals.SampledSignal,
    signals.PeriodicSampledSignal,
)

# Spans that share one metric; every other span is reported under its own name.
GROUPS = {
    "cli.main": "cli",
    "convolution.exp_factor_discrete": "convolution.exp_factor",
    "convolution.exp_factor_analog": "convolution.exp_factor",
    "convolution.exp_factor_periodic_analog": "convolution.exp_factor",
    "convolution.exp_factor_periodic_discrete": "convolution.exp_factor",
    "convolution._riemann_sum": "convolution.exp_factor",
    "convolution._power_sum": "convolution.exp_factor",
    "fourier.idft": "fourier.dft",
    "fourier.fs_eigencheck": "fourier.eigencheck",
    "fourier.dft_orthogonality": "fourier.eigencheck",
    "io.read_signal": "io.read",
    "io.read_signal_text": "io.read",
    "io.signal_text": "io.write",
    "io.write_signal": "io.write",
    "io.series_table_text": "io.write",
    "io.transform_table_text": "io.write",
}


def group_of(span_name: str) -> str:
    return GROUPS.get(span_name, span_name)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _linear_macs(args, kwargs):
    return len(_arg(args, kwargs, 0, "f")) * len(_arg(args, kwargs, 1, "g"))


def _circular_macs(args, kwargs):
    return _arg(args, kwargs, 0, "f").samples.size ** 2


# Nominal work counted from argument sizes at the boundary: multiply-adds for
# the convolutions (len*len linear, N^2 circular) and terms for the transforms
# (N^2 DFT, M*L transform, (2*nmax+1)*N coefficients).
MACS = {
    "convolution.discrete_convolve": _linear_macs,
    "convolution.approx_analog_convolve": _linear_macs,
    "convolution.periodic_convolve_discrete": _circular_macs,
    "convolution.periodic_convolve_analog": _circular_macs,
    "convolution.mixed_convolve": lambda a, k: len(_arg(a, k, 0, "h")) * _arg(a, k, 1, "f").samples.size,
}

TERMS = {
    "fourier.dft": lambda a, k: _arg(a, k, 0, "f").samples.size ** 2,
    "fourier.idft": lambda a, k: _arg(a, k, 0, "spectrum").values.size ** 2,
    "fourier.fourier_transform": lambda a, k: (
        len(_arg(a, k, 0, "f")) * np.atleast_1d(_arg(a, k, 1, "omegas")).size
    ),
    "fourier.inverse_fourier_transform": lambda a, k: (
        int(_arg(a, k, 3, "count")) * _arg(a, k, 0, "spectrum").omegas.size
    ),
    "fourier.fourier_coefficients": lambda a, k: (
        (2 * int(_arg(a, k, 1, "n_max")) + 1) * _arg(a, k, 0, "f").samples.size
    ),
    "fourier.series_synthesize": lambda a, k: (
        _arg(a, k, 0, "spectrum").coeffs.size * int(_arg(a, k, 3, "count"))
    ),
}

IO_WRITE_ROWS = {
    "io.signal_text": lambda a, k: _arg(a, k, 0, "signal").samples.size,
    "io.series_table_text": lambda a, k: _arg(a, k, 0, "spectrum").coeffs.size,
    "io.transform_table_text": lambda a, k: _arg(a, k, 0, "spectrum").omegas.size,
}


def targets():
    """(span name, function) for each module's public functions and the extras."""
    out = []
    for mod_name, mod in MODULES.items():
        names = list(getattr(mod, "__all__", ())) + list(_EXTRA.get(mod_name, ()))
        for name in names:
            fn = getattr(mod, name)
            if callable(fn) and not isinstance(fn, type):
                out.append((f"{mod_name}.{name}", fn))
    return out


def bind(make_wrapper):
    """Replace every binding of each target with ``make_wrapper(span_name, fn)``.

    ``make_wrapper`` may return ``fn`` itself to leave a function alone.
    Returns a function that restores the originals.
    """
    by_id = {}
    for span_name, fn in targets():
        wrapped = make_wrapper(span_name, fn)
        if wrapped is not fn:
            by_id[id(fn)] = wrapped
    undo = []

    def swap(container, key, value, setter):
        undo.append((setter, container, key, value))
        setter(container, key, by_id[id(value)])

    namespaces = [convfourier] + list(MODULES.values())
    for mod in namespaces:
        for name, value in list(vars(mod).items()):
            if id(value) in by_id:
                swap(mod, name, value, setattr)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in by_id:
                        swap(value, key, item, dict.__setitem__)

    registry = harness.REGISTRY
    harness.REGISTRY = tuple(
        dataclasses.replace(spec, runner=make_wrapper(f"harness.check.{spec.id}", spec.runner))
        for spec in registry
    )
    undo.append((setattr, harness, "REGISTRY", registry))

    for cls in _SIGNAL_CLASSES:
        original = cls.__dict__["__post_init__"]
        cls.__post_init__ = make_wrapper("signals.construct", original)
        undo.append((setattr, cls, "__post_init__", original))

    def restore():
        for setter, container, key, value in reversed(undo):
            setter(container, key, value)

    return restore


class Tracer:
    """Keeps spans in memory: (op, parent index, name, start, end).

    Work counts are taken at the same boundaries, from argument and result
    sizes, after the span has closed.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.worst_margin = 0.0
        self.op = -1
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrapper(self, span_name, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (tracer.op, parent, span_name, start, end)
            tracer.count(span_name, args, kwargs, result)
            return result

        return traced

    def count(self, span_name, args, kwargs, result):
        if span_name in MACS:
            self.add("convolution.nominal_macs", MACS[span_name](args, kwargs))
        elif span_name in TERMS:
            self.add("fourier.nominal_terms", TERMS[span_name](args, kwargs))
        elif span_name == "io.read_signal_text":
            self.add("io.rows_read", result.samples.size)
            self.add("io.bytes_read", len(_arg(args, kwargs, 0, "text")))
        elif span_name in IO_WRITE_ROWS:
            self.add("io.rows_written", IO_WRITE_ROWS[span_name](args, kwargs))
            self.add("io.bytes_written", len(result))
        elif span_name == "harness.run_all":
            for check in result.checks:
                if check.skipped:
                    self.add("harness.skipped", 1)
                    continue
                self.add("harness.checks", 1)
                self.worst_margin = max(self.worst_margin,
                                        margin(check.residual, check.tolerance, check.scale))

    def summary(self, op_wall):
        """Per-operation layer figures from the recorded spans.

        ``op_wall`` holds the benchmark's own wall time for each traced op.
        Coverage is the share of that time spent in spans below the entry
        point ``cli.main``; code that no span wraps, or that only the CLI
        module runs itself, lowers it.
        """
        n_ops = len(op_wall)
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls, outer_s = {}, {}, {}
        below_root = 0.0
        for i, (_, parent, name, start, end) in enumerate(self.spans):
            group = group_of(name)
            dur = end - start
            self_s[group] = self_s.get(group, 0.0) + dur - child[i]
            calls[group] = calls.get(group, 0) + 1
            if parent < 0:
                below_root += child[i]
            # inclusive time of the outermost span of a group, for rates
            if parent < 0 or group_of(self.spans[parent][2]) != group:
                outer_s[group] = outer_s.get(group, 0.0) + dur
        return {
            "self_s": {g: v / n_ops for g, v in self_s.items()},
            "calls": {g: v / n_ops for g, v in calls.items()},
            "outer_s": outer_s,
            "coverage": below_root / sum(op_wall),
            "n_spans": len(self.spans),
        }


def margin(residual, tolerance, scale) -> float:
    """residual / (tolerance * max(1, scale)); 0 for an exact match at tolerance 0."""
    limit = tolerance * max(1.0, scale)
    if limit == 0.0:
        return 0.0 if residual == 0.0 else math.inf
    return residual / limit


class PeakMeter:
    """Nested tracemalloc peaks: each open frame sees the peak above its own entry.

    ``tracemalloc.reset_peak`` forgets the peak so far, so every reset first
    folds it into all open frames.
    """

    def __init__(self):
        self._frames = []
        self.layer_peaks = {}

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._frames:
            frame[1] = max(frame[1], peak)

    def enter(self):
        self._fold()
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._frames.append([current, current])

    def exit(self) -> int:
        self._fold()
        base, peak = self._frames.pop()
        return peak - base

    def wrapper(self, span_name, fn):
        """Peak recorder for the convolution and fourier layers; other spans pass through."""
        layer = span_name.split(".", 1)[0]
        if layer not in ("convolution", "fourier"):
            return fn
        meter = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            meter.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                used = meter.exit()
                meter.layer_peaks[layer] = max(meter.layer_peaks.get(layer, 0), used)

        return measured
