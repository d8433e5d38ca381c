import dataclasses
import math

import numpy as np
import pytest

from convfourier import convolution, fourier
from convfourier.fourier import sampled_harmonic
from convfourier.generators import gaussian
from convfourier.harness import (
    REGISTRY,
    GridParams,
    IdentityCheck,
    check_fs_conv_freq,
    check_fs_conv_time,
    check_fs_mixed,
    check_ft_properties,
    registry_ids,
    run_all,
)
from convfourier.signals import (
    AliasingError,
    GridMismatchError,
    PeriodicSampledSignal,
    SampledSignal,
    delta_approx,
)

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


class TestGridParams:
    def test_defaults(self):
        grid = GridParams()
        assert grid.n == 64 and grid.n_max == 8
        assert grid.t == pytest.approx(1.0)
        assert grid.omega0 == pytest.approx(2 * math.pi)

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
            if not c.skipped:
                assert c.passed == (c.residual <= c.tolerance * max(1.0, c.scale))

    def test_deterministic(self):
        a = run_all(seed=5)
        b = run_all(seed=5)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_residuals(self):
        a = run_all(seed=5)
        b = run_all(seed=6)
        assert a.to_dict() != b.to_dict()

    def test_degenerate_grid_skips(self):
        report = run_all(GridParams(n=1, ts=1.0, n_max=0))
        skipped = {c.id for c in report.checks if c.skipped}
        assert "fs.forward" in skipped
        assert "dft.vs_series" in skipped
        assert "conv.commutativity" not in skipped
        for c in report.checks:
            if c.skipped:
                assert "skipped" in c.note
        assert report.passed

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_runner_error_fails_not_skips(self):
        # e^(a t) overflows at ts=1000: the check must fail, not disappear
        report = run_all(GridParams(ts=1000.0))
        check = next(c for c in report.checks if c.id == "eigen.analog")
        assert not check.skipped and not check.passed
        assert check.residual == math.inf
        assert "ValueError" in check.note
        assert not report.passed

    def test_first_order_derivative_fails_both_derivative_checks(self, monkeypatch):
        def forward_difference(f):
            diff = (f.samples[2:] - f.samples[1:-1]) / f.ts
            return SampledSignal(ts=f.ts, start=f.start + 1, samples=diff)

        monkeypatch.setattr(convolution, "derivative", forward_difference)
        checks = {c.id: c for c in run_all().checks}
        for check_id in ("conv.derivative", "ft.derivative"):
            # a first-order scheme halves the residual: ratio 2, worst |ratio - 4| near 2
            assert not checks[check_id].passed, check_id
            assert checks[check_id].residual == pytest.approx(2.0, abs=0.1), check_id

    def test_fs_forward_checks_recovered_coefficients(self, monkeypatch):
        exact = fourier.fourier_coefficients

        def conjugated(f, n_max):
            spectrum = exact(f, n_max)
            return dataclasses.replace(spectrum, coeffs=np.conj(spectrum.coeffs))

        monkeypatch.setattr(fourier, "fourier_coefficients", conjugated)
        checks = {c.id: c for c in run_all().checks}
        assert not checks["fs.forward"].passed
        assert checks["eigen.periodic_analog"].passed

    def test_dft_forward_keeps_a_direct_side(self, monkeypatch):
        # a shared FFT fault scales both FFT-based sides alike; the direct
        # power-sum leg must still catch it
        circular, dft = convolution._circular_convolve, fourier.dft
        monkeypatch.setattr(convolution, "_circular_convolve", lambda a, b: 2 * circular(a, b))
        monkeypatch.setattr(
            fourier, "dft", lambda f: fourier.DftSpectrum(values=2 * dft(f).values)
        )
        checks = {c.id: c for c in run_all().checks}
        assert not checks["dft.forward"].passed

    def test_tol_scale_tightens(self):
        report = run_all(tol_scale=1e-9)
        assert not report.passed

    def test_report_dict_shape(self):
        d = run_all().to_dict()
        assert set(d) == {"seed", "grid_params", "passed", "checks"}
        assert set(d["grid_params"]) == {"n", "ts", "t", "n_max"}
        assert all(
            set(c) == {"id", "description", "residual", "scale", "tolerance", "passed", "skipped", "note"}
            for c in d["checks"]
        )


class TestCheckFsConvTime:
    def test_self_pairing_harmonic(self):
        n_samples, ts = 32, 1.0 / 32.0
        x1 = sampled_harmonic(1, n_samples, ts)
        check = check_fs_conv_time(x1, x1, 1)
        # both sides are T^2 x_1
        assert check.passed
        assert check.scale == pytest.approx((n_samples * ts) ** 2, rel=1e-9)
        check0 = check_fs_conv_time(x1, x1, 5)
        assert check0.passed
        assert check0.scale <= 1e-12

    def test_zero_signal(self):
        n_samples, ts = 16, 0.125
        z = PeriodicSampledSignal(ts, np.zeros(n_samples))
        f = sampled_harmonic(2, n_samples, ts)
        check = check_fs_conv_time(f, z, 1)
        assert check.residual == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            check_fs_conv_time(
                PeriodicSampledSignal(0.5, np.ones(4)),
                PeriodicSampledSignal(0.25, np.ones(4)),
                1,
            )


class TestCheckFsConvFreq:
    def test_constants(self):
        n_samples, ts = 16, 1.0 / 16.0
        ones = PeriodicSampledSignal(ts, np.ones(n_samples))
        check = check_fs_conv_freq(ones, ones, t_index=3, n_max=2)
        assert check.passed

    def test_zero_partner(self):
        n_samples, ts = 16, 1.0 / 16.0
        f = sampled_harmonic(1, n_samples, ts)
        z = PeriodicSampledSignal(ts, np.zeros(n_samples))
        check = check_fs_conv_freq(f, z, t_index=0, n_max=3)
        assert check.residual == 0.0

    def test_window_too_small_reported(self):
        n_samples, ts = 32, 1.0 / 32.0
        f = sampled_harmonic(5, n_samples, ts)
        with pytest.raises(AliasingError):
            check_fs_conv_freq(f, f, t_index=0, n_max=4)


class TestCheckFsMixed:
    def test_identity_response(self):
        # h = narrow identity pulse: reduces to the plain eigenrelation
        n_samples, ts = 32, 1.0 / 32.0
        u = sampled_harmonic(2, n_samples, ts)
        check = check_fs_mixed(delta_approx(ts), u, 2)
        assert check.passed
        assert check.scale == pytest.approx(n_samples * ts, rel=1e-9)

    def test_two_tap_smoother(self):
        n_samples, ts = 32, 1.0 / 32.0
        u = sampled_harmonic(1, n_samples, ts)
        h = SampledSignal(ts, 0, [0.5 / ts, 0.5 / ts])
        check = check_fs_mixed(h, u, 1)
        assert check.passed
        # U(1) = T and H(1) = (1 + e^{-j w0 ts}) / 2
        period_t = n_samples * ts
        h1 = 0.5 * (1 + np.exp(-2j * math.pi / period_t * ts))
        assert check.scale == pytest.approx(abs(period_t * h1), rel=1e-9)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            check_fs_mixed(SampledSignal(0.5, 0, [1.0]), PeriodicSampledSignal(0.25, np.ones(4)), 0)


@pytest.fixture(scope="module")
def smooth():
    return gaussian(1.0 / 64.0, 6.0)


class TestCheckFtProperties:
    def test_all_selectors_pass(self, smooth):
        checks = check_ft_properties(smooth, selector="abcdef", rng=np.random.default_rng(3))
        assert [c.id for c in checks] == [
            "ft.conv_time",
            "ft.conv_freq",
            "ft.derivative",
            "ft.time_shift",
            "ft.duality",
            "ft.time_scale",
        ]
        assert all(c.passed for c in checks)

    def test_zero_shift_gives_zero_residual(self, smooth):
        check = check_ft_properties(smooth, selector="d", t0=0.0)[0]
        assert check.residual == 0.0

    def test_identity_partner_reduces_to_eigenrelation(self, smooth):
        check = check_ft_properties(smooth, selector="a", g=delta_approx(smooth.ts))[0]
        assert check.passed

    def test_unknown_selector(self, smooth):
        with pytest.raises(ValueError):
            check_ft_properties(smooth, selector="z")

    def test_identity_check_invariant(self, smooth):
        check = check_ft_properties(smooth, selector="c")[0]
        assert isinstance(check, IdentityCheck)
        assert check.passed == (check.residual <= check.tolerance * max(1.0, check.scale))
