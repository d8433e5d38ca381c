import dataclasses
import functools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfourier import convolution, fourier, harness, signals
from convfourier.fourier import harmonic_signal, sampled_harmonic
from convfourier.harness import REGISTRY, GridParams, IdentityCheck, registry_ids, run_all
from convfourier.signals import AliasingError, PeriodicSampledSignal, SampledSignal, delta_approx

# one id per identity in the catalog
EXPECTED_IDS = (
    "conv.commutativity",
    "conv.associativity",
    "conv.identity_discrete",
    "conv.identity_analog",
    "conv.mixed_associativity",
    "conv.derivative",
    "conv.time_shift",
    "conv.time_scale",
    "eigen.analog",
    "eigen.discrete",
    "eigen.periodic_analog",
    "eigen.periodic_discrete",
    "fs.forward",
    "fs.inverse",
    "dft.forward",
    "dft.inverse",
    "dft.orthogonality",
    "ft.forward",
    "ft.inverse",
    "fs.conv_time",
    "fs.conv_freq",
    "fs.lti_mixed",
    "ft.conv_time",
    "ft.conv_freq",
    "ft.derivative",
    "ft.time_shift",
    "ft.duality",
    "ft.time_scale",
    "ft.discretize",
    "ft.sampling",
    "dft.vs_series",
)

SPECS = {spec.id: spec for spec in REGISTRY}

# the grids of the seed-42 golden reports in tests/data
GOLDEN_GRIDS = {
    "default": GridParams(),
    "n16_nmax2": GridParams(n=16, n_max=2),
    "n256_nmax32": GridParams(n=256, ts=1 / 256, n_max=32),
}


def verdict(check_id, result):
    """The harness verdict on a helper's (residual, scale) pair, recorded as
    the one leg of a stub runner."""
    spec = dataclasses.replace(SPECS[check_id], runner=lambda grid, rng, legs: legs.append(result))
    return harness._check(spec, GridParams(), None)


def evaluate(check_id, grid, seed=42):
    """The verdict of one registry entry, run as run_all runs it at ``seed``."""
    spec = SPECS[check_id]
    return harness._check(spec, grid, harness._stream(seed, spec))


# Mutation adequacy (DeMillo, Lipton & Sayward, "Hints on test data selection",
# IEEE Computer 11(4):34, 1978): each named fault is a plausible slip in the
# library, patched at every binding of the faulted name, and listed with the
# checks that must fail under it.  A check that no fault can fail is a gate
# that cannot fail.
_exact_coefficients = fourier.fourier_coefficients
_exact_fft = np.fft.fft
_exact_discrete = convolution.discrete_convolve
_exact_analog = convolution.approx_analog_convolve
_exact_circular = convolution._circular_convolve
_exact_riemann = convolution._riemann_sum
_exact_power_sum = convolution._power_sum
_exact_dft = fourier.dft
_exact_scale_time = convolution.scale_time
_exact_transform = fourier.fourier_transform
_exact_synthesize = fourier.series_synthesize
_exact_analog_exp = signals._analog_exp
_exact_discrete_exp = signals._discrete_exp
_exact_unit_roots = signals._unit_roots


def all_nan_transform(f, omegas):
    omegas = np.asarray(omegas, dtype=float)
    return fourier.TransformSpectrum(omegas=omegas, values=np.full(omegas.size, np.nan + 0j))


def late_transform(f, omegas):
    """fourier_transform reading f one sample late: sample k at time (k + 1) ts."""
    return _exact_transform(dataclasses.replace(f, start=f.start + 1), omegas)


def conjugated_coefficients(f, n_max):
    spectrum = _exact_coefficients(f, n_max)
    return dataclasses.replace(spectrum, coeffs=np.conj(spectrum.coeffs))


def mirrored_synthesis(spectrum, ts, start, count):
    """series_synthesize at e^(-j n omega0 t): C_n read as C_-n."""
    return _exact_synthesize(dataclasses.replace(spectrum, coeffs=spectrum.coeffs[::-1]), ts, start, count)


def forward_difference(f):
    diff = (f.samples[2:] - f.samples[1:-1]) / f.ts
    return SampledSignal(ts=f.ts, start=f.start + 1, samples=diff)


# The convolution faults take the kernels' ``valid`` window and fault the
# windowed result as they fault the full one.
def _started_at(convolve, offset_of):
    """convolve, with the output's start index moved by offset_of(f, g)."""
    def started(f, g, *, valid=False):
        out = convolve(f, g, valid=valid)
        return dataclasses.replace(out, start=out.start + offset_of(f, g))

    return started


def _discrete_conjugating(f, g, *, valid=False):
    return _exact_discrete(f, signals.DiscreteSignal(g.start, np.conj(g.samples)), valid=valid)


def _analog_without_ts(f, g, *, valid=False):
    out = _exact_analog(f, g, valid=valid)
    return dataclasses.replace(out, samples=out.samples / f.ts)


def _riemann_flipped(samples, times, ts, a):
    return _exact_riemann(samples, times, ts, -a)


def _odd_phase_scale_time(f, a):
    """scale_time, but a = 2 keeps f's odd-indexed samples, one sample off."""
    if a == 2:
        f = SampledSignal(f.ts, f.start - 1, f.samples)
    return _exact_scale_time(f, a)


FAULTS = {
    "all-nan fourier_transform": (
        [(fourier, "fourier_transform", all_nan_transform)],
        {"ft.forward", "ft.inverse", "ft.conv_time", "ft.conv_freq", "ft.derivative",
         "ft.time_shift", "ft.duality", "ft.time_scale", "ft.discretize", "ft.sampling"},
    ),
    "fourier_transform one sample late": (
        [(fourier, "fourier_transform", late_transform)],
        {"ft.forward", "ft.conv_time", "ft.discretize", "ft.duality", "ft.time_scale",
         "ft.sampling"},
    ),
    "series_synthesize with the harmonic sign flipped": (
        [(fourier, "series_synthesize", mirrored_synthesis)],
        {"fs.inverse"},
    ),
    "conjugated fourier_coefficients": (
        [(fourier, "fourier_coefficients", conjugated_coefficients)],
        {"fs.forward", "fs.inverse", "fs.conv_freq", "ft.discretize", "dft.vs_series"},
    ),
    "fft scaled by 1+1e-6": (
        [(np.fft, "fft", lambda a: _exact_fft(a) * (1 + 1e-6))],
        {"eigen.periodic_analog", "eigen.periodic_discrete", "dft.forward", "dft.inverse",
         "dft.orthogonality", "fs.conv_time", "fs.lti_mixed", "dft.vs_series"},
    ),
    "discrete_convolve start +1": (
        [(convolution, "discrete_convolve", _started_at(_exact_discrete, lambda f, g: 1))],
        {"conv.identity_discrete", "eigen.discrete", "fs.inverse", "fs.conv_freq"},
    ),
    "discrete_convolve start f.start - g.start": (
        [(convolution, "discrete_convolve", _started_at(_exact_discrete, lambda f, g: -2 * g.start))],
        {"conv.commutativity", "conv.associativity", "conv.identity_discrete", "conv.time_shift",
         "eigen.discrete", "fs.inverse", "fs.conv_freq"},
    ),
    "discrete_convolve conjugating g": (
        [(convolution, "discrete_convolve", _discrete_conjugating)],
        {"conv.commutativity", "conv.associativity", "conv.identity_discrete",
         "eigen.discrete", "fs.inverse", "fs.conv_freq"},
    ),
    "approx_analog_convolve without ts": (
        [(convolution, "approx_analog_convolve", _analog_without_ts)],
        {"conv.identity_analog", "conv.derivative", "eigen.analog", "ft.forward",
         "ft.inverse", "ft.conv_time", "ft.conv_freq"},
    ),
    "approx_analog_convolve start f.start - g.start": (
        [(convolution, "approx_analog_convolve", _started_at(_exact_analog, lambda f, g: -2 * g.start))],
        {"conv.identity_analog", "conv.time_scale", "eigen.analog", "ft.forward", "ft.inverse",
         "ft.conv_time", "ft.conv_freq"},
    ),
    "_circular_convolve conjugating b": (
        [(convolution, "_circular_convolve", lambda a, b: _exact_circular(a, np.conj(b)))],
        {"conv.mixed_associativity", "eigen.periodic_analog", "eigen.periodic_discrete",
         "dft.forward", "dft.inverse", "dft.orthogonality", "fs.conv_time", "fs.lti_mixed"},
    ),
    "_riemann_sum exponent sign flipped": (
        # one binding: fourier and harness call it through the convolution module
        [(convolution, "_riemann_sum", _riemann_flipped)],
        {"eigen.analog", "eigen.periodic_analog", "fs.forward", "fs.inverse", "ft.forward",
         "fs.conv_time", "fs.conv_freq", "fs.lti_mixed", "ft.derivative", "ft.time_shift",
         "dft.vs_series"},
    ),
    "scale_time decimates from the odd phase": (
        [(convolution, "scale_time", _odd_phase_scale_time)],
        {"ft.time_scale"},
    ),
    "scale_time ignores a = -1": (
        [(convolution, "scale_time", lambda f, a: f if a == -1 else _exact_scale_time(f, a))],
        {"ft.time_scale", "ft.sampling"},
    ),
    "forward-difference derivative": (
        [(convolution, "derivative", forward_difference)],
        {"conv.derivative", "ft.derivative"},
    ),
    # one binding per family: fourier and harness call each through the
    # signals module
    "_analog_exp with a conjugated": (
        # the ft.* oracle input is off centre, so F(-w) != F(w)
        [(signals, "_analog_exp", lambda a, step: _exact_analog_exp(np.conj(a), step))],
        {"eigen.analog", "ft.forward", "ft.inverse", "ft.conv_time", "ft.conv_freq"},
    ),
    "_discrete_exp with the base conjugated": (
        [(signals, "_discrete_exp", lambda a: _exact_discrete_exp(np.conj(a)))],
        {"eigen.discrete", "fs.inverse", "fs.conv_freq"},
    ),
    "_unit_roots at harmonic n + 1": (
        [(signals, "_unit_roots", lambda n, period: _exact_unit_roots(n + 1, period))],
        {"eigen.periodic_analog", "eigen.periodic_discrete", "dft.forward", "dft.inverse",
         "dft.orthogonality", "fs.conv_time", "fs.lti_mixed"},
    ),
}


def _scaled(exact, eps, field=None):
    """exact, with its array output, or that output's ``field``, times (1 + eps)."""
    def scaled(*args, **kwargs):
        out = exact(*args, **kwargs)
        if field is None:
            return out * (1 + eps)
        return dataclasses.replace(out, **{field: getattr(out, field) * (1 + eps)})

    return scaled


def _riemann_exponent_scaled(eps):
    return lambda samples, times, ts, a: _exact_riemann(samples, times, ts, a * (1 + eps))


# The fault-sensitivity ladder: the smallest relative fault (1 + eps), on the
# decades 1e-15 .. 1e-6, that the catalog catches on the default grid at seed
# 42, with the checks that catch it there.  A test passes whenever the true
# threshold is at or below its pin, so a pin may only be lowered.  The pins
# in SEED_FREE_PINS also hold at seeds 1-5; the other two are roundoff
# margins, which hold at seed 42 and at most seeds, not at every one.
LADDER = {
    "discrete_convolve output": (
        convolution, "discrete_convolve", lambda eps: _scaled(_exact_discrete, eps, "samples"),
        1e-15, {"conv.identity_discrete"},
    ),
    "_riemann_sum output": (
        convolution, "_riemann_sum", lambda eps: _scaled(_exact_riemann, eps),
        1e-11, {"eigen.analog"},
    ),
    "_circular_convolve output": (
        convolution, "_circular_convolve", lambda eps: _scaled(_exact_circular, eps),
        1e-10, {"eigen.periodic_discrete", "dft.forward", "dft.inverse"},
    ),
    "dft values": (
        fourier, "dft", lambda eps: _scaled(_exact_dft, eps, "samples"),
        1e-10, {"dft.forward", "dft.inverse"},
    ),
    "_power_sum output": (
        convolution, "_power_sum", lambda eps: _scaled(_exact_power_sum, eps),
        1e-9, {"eigen.discrete", "eigen.periodic_discrete"},
    ),
    "_riemann_sum exponent": (
        convolution, "_riemann_sum", _riemann_exponent_scaled,
        1e-11, {"dft.vs_series"},
    ),
}


SEED_FREE_PINS = ("discrete_convolve output", "_riemann_sum output", "_power_sum output",
                  "_riemann_sum exponent")

# the seeds at which every FAULTS entry and SEED_FREE_PINS must hold: a check
# that catches a fault only at some draws holds by luck
SEEDS = (42, 1, 2, 3, 4, 5)


def _missed(must_fail, reports):
    """{seed: the checks of must_fail that pass at seed}, for each seed at which any does."""
    passed = {seed: {c.id for c in report.checks if c.passed} for seed, report in reports.items()}
    return {seed: sorted(must_fail & ids) for seed, ids in passed.items() if must_fail & ids}


def _reports(seeds):
    return {seed: run_all(seed=seed) for seed in seeds}


@functools.cache
def _under_fault(fault):
    """{seed: run_all's report} at each of SEEDS, with FAULTS[fault] patched in."""
    with pytest.MonkeyPatch.context() as patched:
        for module, name, replacement in FAULTS[fault][0]:
            patched.setattr(module, name, replacement)
        return _reports(SEEDS)


def _fails_by_a_number(note) -> bool:
    """Whether a check's note leaves its failure to its residual, a non-finite
    residual or a ValueError the library raised: a fault must show as a wrong
    number, not as a patch the library cannot call (a TypeError) or a read
    off an array (an IndexError)."""
    raised = note.partition("failed: ")[2]
    return not raised or raised.startswith(("non-finite residual", "ValueError: "))


class TestFaultMatrix:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_fails_its_checks(self, fault):
        missed = _missed(FAULTS[fault][1], _under_fault(fault))
        assert not missed, missed

    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_fails_by_its_residual(self, fault):
        must_fail = FAULTS[fault][1]
        raised = {
            seed: [(c.id, c.note) for c in report.checks if c.id in must_fail and not _fails_by_a_number(c.note)]
            for seed, report in _under_fault(fault).items()
        }
        raised = {seed: notes for seed, notes in raised.items() if notes}
        assert not raised, raised

    def test_failure_note_reader(self):
        for note in ("", "3 pairs", "failed: non-finite residual nan, scale 1.0",
                     "failed: ValueError: samples contain non-finite values",
                     "halving ratios 4.000 (want 4); failed: non-finite residual inf, scale inf"):
            assert _fails_by_a_number(note), note
        for note in ("failed: TypeError: f() got an unexpected keyword argument 'valid'",
                     "failed: IndexError: index 9 is out of bounds for axis 0 with size 9",
                     "failed: the runner recorded no leg",
                     "failed: OverflowError: 5 samples from index 0 reach past 2^53"):
            assert not _fails_by_a_number(note), note

    def test_every_check_can_fail(self):
        caught = set().union(*(must_fail for _, must_fail in FAULTS.values()))
        assert caught == set(EXPECTED_IDS)

    def test_every_check_can_fail_without_harmonics(self, monkeypatch):
        # at n_max = 0 the periodic checks run on harmonic 0 alone, and each
        # must still be able to fail (at n = 1, ts = 1 conv.identity_analog
        # cannot: ts * (1/ts) is exact there)
        grid = GridParams(n=16, ts=1 / 16, n_max=0)
        caught = set()
        for patches, _ in FAULTS.values():
            with monkeypatch.context() as patched:
                for module, name, replacement in patches:
                    patched.setattr(module, name, replacement)
                caught |= {c.id for c in run_all(grid).checks if not c.passed}
        assert caught == set(EXPECTED_IDS)

    @pytest.mark.parametrize("fault", LADDER)
    def test_relative_fault_is_caught_at_its_pin(self, monkeypatch, fault):
        module, name, faulty, eps, must_fail = LADDER[fault]
        monkeypatch.setattr(module, name, faulty(eps))
        missed = _missed(must_fail, _reports(SEEDS if fault in SEED_FREE_PINS else SEEDS[:1]))
        assert not missed, missed


class TestRegistry:
    def test_catalog_complete(self):
        assert registry_ids() == EXPECTED_IDS

    def test_ids_unique(self):
        ids = registry_ids()
        assert len(set(ids)) == len(ids)

    def test_tolerances_declared_with_justification(self):
        for spec in REGISTRY:
            assert isinstance(spec.justification, str) and spec.justification
            assert isinstance(spec.tolerance, float) and spec.tolerance >= 0.0

    def test_runners_are_distinct_module_functions(self):
        # profiles and per-check spans then name one function per check
        runners = [spec.runner for spec in REGISTRY]
        assert len(set(runners)) == len(runners)
        for spec in REGISTRY:
            name = spec.runner.__qualname__
            assert name.startswith("_run_"), spec.id
            assert getattr(harness, name) is spec.runner, spec.id


class TestGridParams:
    def test_defaults(self):
        grid = GridParams()
        assert grid.n == 64 and grid.n_max == 8
        assert grid.t == pytest.approx(1.0)
        # the fundamental belongs to a signal on the grid, not to the grid
        assert sampled_harmonic(1, grid.n, grid.ts).omega0 == pytest.approx(2 * math.pi)

    def test_alias_window_enforced(self):
        with pytest.raises(AliasingError):
            GridParams(n=16, ts=1.0, n_max=8)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            GridParams(n=0)
        with pytest.raises(ValueError):
            GridParams(ts=-1.0)


class TestRunAll:
    def test_default_run_passes(self):
        report = run_all()
        assert report.passed
        assert len(report.checks) == len(REGISTRY)
        assert not any(c.skipped for c in report.checks)

    def test_invariant_passed_matches_residual(self):
        report = run_all()
        for c in report.checks:
            assert c.passed == (c.residual <= c.tolerance * max(1.0, c.scale))

    def test_deterministic(self):
        a = run_all(seed=5)
        b = run_all(seed=5)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_residuals(self):
        a = run_all(seed=5)
        b = run_all(seed=6)
        assert a.to_dict() != b.to_dict()

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, "3", np.float64(2.0)], ids=repr)
    def test_seed_is_an_integer(self, seed):
        # int(seed) ran and reported seed 1 for 1.7 and True, and parsed "3"
        with pytest.raises(ValueError, match="^seed must be an integer"):
            run_all(seed=seed)

    def test_numpy_integer_seed_reports_an_int(self):
        grid = GridParams(n=8, n_max=1)
        report = run_all(grid, seed=np.int64(7))
        assert report.seed == 7 and type(report.seed) is int
        assert report.to_dict() == run_all(grid, seed=7).to_dict()

    @pytest.mark.parametrize("grid", [*GOLDEN_GRIDS.values(), GridParams(ts=0.3)],
                             ids=[*GOLDEN_GRIDS, "ts0.3"])
    def test_passes_at_seeds_1_to_10(self, grid):
        # the last bits of a residual move with the order of its roundoff
        # (the exp-log factor against np.power, one order of e^(a k step)'s
        # product against another); no verdict may move with them
        failed = {seed: [c.id for c in run_all(grid, seed).checks if not c.passed] for seed in range(1, 11)}
        assert failed == dict.fromkeys(range(1, 11), [])

    @pytest.mark.parametrize(
        "grid",
        [GridParams(n=1, ts=1.0, n_max=0), GridParams(n=2, ts=0.5, n_max=0),
         GridParams(n=16, ts=1 / 16, n_max=0)],
        ids=["n1", "n2", "n16"],
    )
    def test_every_check_runs_without_harmonics(self, grid):
        # no verdict is "skipped": at n_max = 0 the periodic checks run on harmonic 0
        report = run_all(grid)
        assert len(report.checks) == len(EXPECTED_IDS)
        assert not [c.id for c in report.checks if c.skipped]
        assert [c.id for c in report.checks if not c.passed] == []
        assert report.passed

    def test_runner_error_fails_not_skips(self):
        # e^(a t) overflows at ts=1000: the check must fail, not disappear
        report = run_all(GridParams(ts=1000.0))
        check = next(c for c in report.checks if c.id == "eigen.analog")
        assert not check.skipped and not check.passed
        assert check.residual == math.inf
        assert check.note == "failed: ValueError: samples contain non-finite values"
        assert not report.passed

    def test_overflowing_right_side_fails_without_warning(self):
        # at ts=60 and seed 38 the window stays finite but e^(a t) on the right
        # side overflows; a RuntimeWarning, raised as an error under pytest,
        # would be the note instead
        check = next(c for c in run_all(GridParams(ts=60.0), seed=38).checks if c.id == "eigen.analog")
        assert not check.passed
        assert check.note == "failed: non-finite residual inf, scale inf"

    def test_subnormal_ts_notes_the_first_failing_step(self):
        # ft.discretize transforms before it takes the series coefficients, and
        # dft.vs_series takes the coefficients before its DFT; at ts=5e-324
        # each note names the first step that fails
        notes = {c.id: c.note for c in run_all(GridParams(64, 5e-324, 8)).checks}
        assert notes["ft.discretize"] == "failed: ValueError: omegas must be finite"
        assert notes["dft.vs_series"] == "failed: ValueError: coefficients contain non-finite values"

    def test_coarse_grid_passes_ft_conv_freq(self):
        # a Gaussian sampled at ts=500 against the fixed |omega| <= 16 pi grid
        # failed on synthesis roundoff (relative 2.2e-8 against tolerance 1e-8)
        check = next(c for c in run_all(GridParams(ts=500.0)).checks if c.id == "ft.conv_freq")
        assert check.passed

    def test_first_order_derivative_fails_both_derivative_checks(self, monkeypatch):
        monkeypatch.setattr(convolution, "derivative", forward_difference)
        checks = {c.id: c for c in run_all().checks}
        for check_id in ("conv.derivative", "ft.derivative"):
            # a first-order scheme halves the residual: ratio 2, worst |ratio - 4| near 2
            assert not checks[check_id].passed, check_id
            assert checks[check_id].residual == pytest.approx(2.0, abs=0.1), check_id

    def test_fs_forward_checks_recovered_coefficients(self, monkeypatch):
        monkeypatch.setattr(fourier, "fourier_coefficients", conjugated_coefficients)
        checks = {c.id: c for c in run_all().checks}
        assert not checks["fs.forward"].passed
        assert checks["eigen.periodic_analog"].passed

    def test_dft_forward_keeps_a_direct_side(self, monkeypatch):
        # a shared FFT fault scales both FFT-based sides alike; the direct
        # power-sum leg must still catch it
        circular, dft = convolution._circular_convolve, fourier.dft
        monkeypatch.setattr(convolution, "_circular_convolve", lambda a, b: 2 * circular(a, b))
        monkeypatch.setattr(
            fourier, "dft", lambda f: signals.PeriodicDiscreteSignal(2 * dft(f).samples)
        )
        checks = {c.id: c for c in run_all().checks}
        assert not checks["dft.forward"].passed

    def test_all_nan_transform_fails_its_checks(self, monkeypatch):
        # max(0.0, nan) is 0.0: a fold that drops NaN trials reports a pass
        monkeypatch.setattr(fourier, "fourier_transform", all_nan_transform)
        checks = {c.id: c for c in run_all().checks}
        for check_id in ("ft.forward", "ft.conv_time"):
            assert not checks[check_id].passed, check_id
            assert checks[check_id].residual == math.inf, check_id
            assert "non-finite" in checks[check_id].note, check_id

    def test_nan_trial_mid_fold_fails(self, monkeypatch):
        # the fourth of 10 trials has a NaN residual, after finite residuals; a
        # spectrum cannot hold a NaN, so the NaN is planted in the comparison
        exact, calls = fourier._compare, []

        def one_nan(lhs, rhs):
            calls.append(None)
            report = exact(lhs, rhs)
            if len(calls) == 4:
                report = report._replace(residual=math.nan)
            return report

        monkeypatch.setattr(fourier, "_compare", one_nan)
        monkeypatch.setattr(harness, "REGISTRY", (SPECS["ft.forward"],))
        (check,) = run_all().checks
        assert len(calls) == 10
        assert not check.passed
        assert check.residual == math.inf

    def test_nan_last_halving_ratio_fails(self, monkeypatch):
        # the finest of three steps yields NaN: the ratios are [~4, nan]
        exact = harness._ft_derivative_residual

        def nan_at_finest(ts):
            return math.nan if ts == 1 / 64 else exact(ts)

        monkeypatch.setattr(harness, "_ft_derivative_residual", nan_at_finest)
        monkeypatch.setattr(harness, "REGISTRY", (SPECS["ft.derivative"],))
        (check,) = run_all().checks
        assert not check.passed
        assert check.residual == math.inf
        assert "nan" in check.note

    def test_nan_comparison_fails_every_check(self, monkeypatch):
        # every leg of every check is one fourier._compare, so a comparison
        # that loses its residual must reach the whole catalog
        exact = fourier._compare
        monkeypatch.setattr(
            fourier, "_compare", lambda lhs, rhs: exact(lhs, rhs)._replace(residual=math.nan)
        )
        passed = [c.id for c in run_all().checks if c.passed]
        assert not passed

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_fails(self, scale):
        # max(1.0, nan) is 1.0 and tolerance * inf passes anything
        spec = dataclasses.replace(
            SPECS["conv.commutativity"], runner=lambda grid, rng, legs: legs.append((0.0, scale))
        )
        result = harness._check(spec, GridParams(), None)
        assert not result.passed
        assert result.residual == math.inf
        assert result.note == f"failed: non-finite residual 0.0, scale {scale!r}"

    def test_runner_without_a_leg_fails(self):
        # a check that compares nothing is a gate that cannot fail
        spec = dataclasses.replace(SPECS["conv.commutativity"], runner=lambda grid, rng, legs: None)
        result = harness._check(spec, GridParams(), None)
        assert not result.passed
        assert result.residual == math.inf
        assert result.note.startswith("failed:")

    def test_report_dict_shape(self):
        d = run_all().to_dict()
        assert set(d) == {"seed", "grid_params", "passed", "checks"}
        assert set(d["grid_params"]) == {"n", "ts", "t", "n_max"}
        assert all(
            set(c) == {"id", "description", "residual", "scale", "tolerance", "passed", "skipped", "note"}
            for c in d["checks"]
        )


class _Draws:
    """A stand-in stream whose random() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# the largest value random() returns
_TOP = 1.0 - 2.0**-53


class TestDraws:
    """Every input is drawn from the check's own stream by ``random()`` alone."""

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 3), (-8, 9), (0, 65536), (-(2**51), 2**52)])
    def test_integer_spans_lo_to_hi_minus_1(self, lo, hi):
        assert harness._integer(_Draws(0.0), lo, hi) == lo
        assert harness._integer(_Draws(_TOP), lo, hi) == hi - 1

    def test_nonzero_skips_zero(self):
        # a sign, then a magnitude in 1..reach
        draws = [(sign, size) for sign in (0.0, _TOP) for size in (0.0, _TOP)]
        assert [harness._nonzero(_Draws(*pair), 8) for pair in draws] == [1, 8, -1, -8]

    def test_unit_disk_takes_size_radii_then_size_angles(self):
        stream = _Draws(0.25, 1.0 / 3.0, 0.0, 0.5, 0.125)
        z = harness._unit_disk(stream, 2)
        np.testing.assert_allclose(z, [0.5, np.sqrt(1.0 / 3.0) * -1.0], atol=1e-15)
        assert stream.values == [0.125]

    def test_a_check_draws_the_same_wherever_it_stands(self, monkeypatch):
        grid = GridParams(n=16, n_max=2)
        ahead = run_all(grid, seed=7).to_dict()["checks"]
        monkeypatch.setattr(harness, "REGISTRY", REGISTRY[::-1])
        reversed_run = run_all(grid, seed=7).to_dict()["checks"]
        assert reversed_run == ahead[::-1]


DATA = pathlib.Path(__file__).parent / "data"


class TestGoldenReports:
    """Seed-42 ``verify --out`` reports, stored as the CLI wrote them; a change
    that moves any byte of a residual, scale or note shows here.  The last bits
    of a residual also move with the NumPy build and the CPU, so
    ``verify_seed42_build.json`` records the build that wrote them."""

    @pytest.mark.parametrize("name, grid", GOLDEN_GRIDS.items())
    def test_report_is_byte_identical(self, name, grid):
        text = json.dumps(run_all(grid=grid, seed=42).to_dict(), indent=2) + "\n"
        assert text == (DATA / f"verify_seed42_{name}.json").read_text(encoding="utf-8")

    def test_build_is_recorded(self):
        build = json.loads((DATA / "verify_seed42_build.json").read_text(encoding="utf-8"))
        assert sorted(build) == ["cpu_model", "numpy", "platform", "python"]


class TestDftOrthogonalityPairs:
    @pytest.mark.parametrize("n, pairs", [(7, 49), (16, 256), (64, 216), (1024, 216)])
    def test_note_counts_the_pairs(self, n, pairs):
        grid = GridParams(n=n, ts=1 / n, n_max=min(3, (n - 1) // 2))
        result = evaluate("dft.orthogonality", grid)
        assert (result.scale, result.note) == (float(n), f"{pairs} pairs")

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 257, 1024])
    def test_residual_is_the_worst_pair_alone_bit_for_bit(self, n):
        # the runner works the pairs in row blocks of _RIEMANN_BLOCK // (2 n);
        # each pair alone goes through the signal path
        grid = GridParams(n=n, ts=1 / n, n_max=0)
        result = evaluate("dft.orthogonality", grid, seed=n)
        alone = [
            fourier._eigenrelation(harmonic_signal(m, n), signals._unit_roots(k, n), float(n * (m == k)))
            for m, k in _orthogonality_pairs(n, seed=n)
        ]
        assert (result.residual, result.scale) == (max(r.residual for r in alone), float(n))

    def test_nan_in_a_block_before_the_last_fails_the_check(self, monkeypatch):
        # the default grid's 216 pairs take 27 blocks, one _circular_convolve each
        calls = []

        def nan_first_block(a, b):
            calls.append(1)
            out = _exact_circular(a, b)
            return out * np.nan if len(calls) == 1 else out

        monkeypatch.setattr(convolution, "_circular_convolve", nan_first_block)
        result = evaluate("dft.orthogonality", GridParams())
        assert len(calls) == 27
        assert (result.passed, result.residual) == (False, math.inf)
        assert result.note == "216 pairs; failed: non-finite residual nan, scale 64.0"

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 257, 1024])
    def test_one_leg_per_row_block(self, n):
        # each block of _RIEMANN_BLOCK // (2 n) pairs is one leg at scale n,
        # whose residual is the worst of its own pairs alone
        rows = max(1, convolution._RIEMANN_BLOCK // (2 * n))
        grid, legs = GridParams(n=n, ts=1 / n, n_max=0), []
        spec = SPECS["dft.orthogonality"]
        spec.runner(grid, harness._stream(n, spec), legs)
        alone = [
            fourier._eigenrelation(
                harmonic_signal(m, n), signals._unit_roots(k, n), float(n * (m == k))
            ).residual
            for m, k in _orthogonality_pairs(n, seed=n)
        ]
        blocks = [alone[lo : lo + rows] for lo in range(0, len(alone), rows)]
        assert legs == [(max(block), float(n)) for block in blocks]

    @pytest.mark.parametrize("n", [1, 7, 64, 1024])
    def test_one_root_table_per_call(self, monkeypatch, n):
        # every x_m and x_k of every row block is gathered from one table
        grid, tables = GridParams(n=n, ts=1 / n, n_max=0), []

        def counted(harmonic, period):
            tables.append(period)
            return _exact_unit_roots(harmonic, period)

        monkeypatch.setattr(signals, "_unit_roots", counted)
        evaluate("dft.orthogonality", grid, seed=n)
        assert tables == [n]

    @pytest.mark.parametrize("block", [13, 26], ids=["middle", "last"])
    def test_nan_in_any_block_fails_the_check(self, monkeypatch, block):
        calls = []

        def nan_one_block(a, b):
            calls.append(1)
            out = _exact_circular(a, b)
            return out * np.nan if len(calls) == block + 1 else out

        monkeypatch.setattr(convolution, "_circular_convolve", nan_one_block)
        result = evaluate("dft.orthogonality", GridParams())
        assert len(calls) == 27
        assert (result.passed, result.residual) == (False, math.inf)

    def test_216_pairs_at_64_samples_stay_under_96_kib(self):
        legs, peak = _warm_peak("dft.orthogonality")
        assert len(legs) == 27 and peak < 96 * 1024, peak


def _warm_peak(check_id, seed=1):
    """(legs, traced peak in bytes) of a check's runner on the default grid at
    ``seed``, after a first call, which also fills NumPy's FFT caches (about
    140 KiB)."""
    spec = SPECS[check_id]
    spec.runner(GridParams(), harness._stream(seed, spec), [])
    grid, rng, legs = GridParams(), harness._stream(seed, spec), []
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        spec.runner(grid, rng, legs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return legs, peak


def test_ft_conv_time_stays_under_112_kib():
    # each eigenrelation leg convolves only the 9 complete overlaps it reads;
    # the full 2313-output convolution of f * g with the exponential peaked
    # at 141 KiB
    legs, peak = _warm_peak("ft.conv_time")
    assert len(legs) == 3 and peak < 112 * 1024, peak


def _orthogonality_pairs(n, seed):
    """The (m, k) pairs dft.orthogonality checks at ``seed``: every pair up to
    n = 16, else 184 pairs drawn m then k, each as int(n * random()) from the
    check's stream, then every max(1, n // 16)-th diagonal pair, then the
    antipode (m, m + n // 2 mod n) of each."""
    if n <= 16:
        return [divmod(i, n) for i in range(n * n)]
    rng = harness._stream(seed, SPECS["dft.orthogonality"])
    drawn = [(int(n * rng.random()), int(n * rng.random())) for _ in range(184)]
    diagonal = range(0, n, max(1, n // 16))
    return drawn + [(m, m) for m in diagonal] + [(m, (m + n // 2) % n) for m in diagonal]


class TestWorstOf:
    """harness._worst_of folds the legs of every check; a NaN must survive it."""

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("field", [0, 1], ids=["residual", "scale"])
    def test_nan_survives(self, position, field):
        pairs = [[1e-12, 2.0], [3e-12, 5.0], [2e-12, 4.0]]
        pairs[position][field] = math.nan
        worst = harness._worst_of(map(tuple, pairs))
        assert math.isnan(worst[field])
        assert worst[1 - field] == (3e-12, 5.0)[1 - field]

    # a runner's residual or scale: a non-negative float, inf or NaN
    _LEG = st.one_of(st.floats(min_value=0.0), st.just(math.nan))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_LEG, _LEG), min_size=1, max_size=6))
    def test_is_the_columnwise_max(self, pairs):
        residuals = [r for r, _ in pairs]
        scales = [s for _, s in pairs]
        want = (float(np.max(residuals)), float(np.max(scales)))
        # repr compares NaN and infinities exactly
        assert repr(harness._worst_of(pairs)) == repr(want)


class TestCheckFsConvTime:
    """fs.conv_time through its helper ``_harmonic_product``."""

    def test_self_pairing_harmonic(self):
        n_samples, ts = 32, 1.0 / 32.0
        x1 = sampled_harmonic(1, n_samples, ts)
        circular = convolution.periodic_convolve_analog
        check = verdict("fs.conv_time", harness._harmonic_product(circular, x1, x1, 1))
        # both sides are T^2 x_1
        assert check.passed
        assert check.scale == pytest.approx((n_samples * ts) ** 2, rel=1e-9)
        check0 = verdict("fs.conv_time", harness._harmonic_product(circular, x1, x1, 5))
        assert check0.passed
        assert check0.scale <= 1e-12

    @pytest.mark.parametrize("n", [1.5, True, np.float64(1.0)], ids=repr)
    def test_harmonic_is_an_integer(self, n):
        # abs(int(n)) read 1.5 and True as harmonic 1
        x1 = sampled_harmonic(1, 32, 1.0 / 32.0)
        with pytest.raises(ValueError, match="^n must be an integer"):
            harness._harmonic_product(convolution.periodic_convolve_analog, x1, x1, n)

    def test_zero_signal(self):
        n_samples, ts = 16, 0.125
        z = PeriodicSampledSignal(ts, np.zeros(n_samples))
        f = sampled_harmonic(2, n_samples, ts)
        residual, _ = harness._harmonic_product(convolution.periodic_convolve_analog, f, z, 1)
        assert residual == 0.0


class TestCheckFsConvFreq:
    """fs.conv_freq through its helper ``_fs_conv_freq``."""

    def test_constants(self):
        n_samples, ts = 16, 1.0 / 16.0
        ones = PeriodicSampledSignal(ts, np.ones(n_samples))
        assert verdict("fs.conv_freq", harness._fs_conv_freq(ones, ones, 3, 2)).passed

    def test_zero_partner(self):
        n_samples, ts = 16, 1.0 / 16.0
        f = sampled_harmonic(1, n_samples, ts)
        z = PeriodicSampledSignal(ts, np.zeros(n_samples))
        residual, _ = harness._fs_conv_freq(f, z, 0, 3)
        assert residual == 0.0

    def test_too_small_window_fails_by_its_residual(self):
        # harmonic 5 lies outside |n| <= 4: both spectra miss it, so their
        # convolution synthesizes 0 where T^2 x_5(0)^2 = 1 is wanted
        n_samples, ts = 32, 1.0 / 32.0
        f = sampled_harmonic(5, n_samples, ts)
        check = verdict("fs.conv_freq", harness._fs_conv_freq(f, f, 0, 4))
        assert not check.passed
        assert check.residual >= 1.0


class TestCheckFsMixed:
    """fs.lti_mixed through ``_harmonic_product`` with the mixed convolution."""

    def test_identity_response(self):
        # h = narrow identity pulse: reduces to the plain eigenrelation
        n_samples, ts = 32, 1.0 / 32.0
        u = sampled_harmonic(2, n_samples, ts)
        result = harness._harmonic_product(convolution.mixed_convolve, delta_approx(ts), u, 2)
        check = verdict("fs.lti_mixed", result)
        assert check.passed
        assert check.scale == pytest.approx(n_samples * ts, rel=1e-9)

    def test_two_tap_smoother(self):
        n_samples, ts = 32, 1.0 / 32.0
        u = sampled_harmonic(1, n_samples, ts)
        h = SampledSignal(ts, 0, [0.5 / ts, 0.5 / ts])
        check = verdict("fs.lti_mixed", harness._harmonic_product(convolution.mixed_convolve, h, u, 1))
        assert check.passed
        # U(1) = T and H(1) = (1 + e^{-j w0 ts}) / 2
        period_t = n_samples * ts
        h1 = 0.5 * (1 + np.exp(-2j * math.pi / period_t * ts))
        assert check.scale == pytest.approx(abs(period_t * h1), rel=1e-9)


class TestFtSampling:
    @pytest.mark.parametrize("ts", [1e-5, 1 / 64, 0.3])
    def test_transforms_a_fixed_pulse_at_the_grid_ts(self, monkeypatch, ts):
        # the pulse was 1/ts samples wide, so its work grew without bound as ts shrank
        exact, transformed = fourier.fourier_transform, []

        def recording(f, omegas):
            transformed.append((len(f), f.ts))
            return exact(f, omegas)

        monkeypatch.setattr(fourier, "fourier_transform", recording)
        result = evaluate("ft.sampling", GridParams(ts=ts))
        assert transformed == [(37, ts)]
        assert result.passed


class TestCheckFtProperties:
    """The ft.* runners, at a seed other than the default."""

    def test_all_selectors_pass(self):
        ft_ids = [i for i in EXPECTED_IDS if i.startswith("ft.")]
        assert all(evaluate(i, GridParams(), seed=3).passed for i in ft_ids)

    @pytest.mark.parametrize(
        "check_id",
        ["ft.inverse", "ft.conv_time", "ft.conv_freq", "ft.derivative", "ft.time_shift",
         "ft.duality", "ft.time_scale"],
    )
    def test_property_checks_run_on_a_fixed_oracle(self, check_id):
        # the caller's grid, even one as coarse as ts = 4, must not reach their inputs
        coarse = GridParams(n=16, ts=4.0, n_max=2)
        assert evaluate(check_id, coarse, seed=3) == evaluate(check_id, GridParams(), seed=3)

    def test_identity_check_invariant(self):
        result = evaluate("ft.derivative", GridParams())
        assert isinstance(result, IdentityCheck)
        assert result.passed == (result.residual <= result.tolerance * max(1.0, result.scale))
