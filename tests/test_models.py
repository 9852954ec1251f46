"""Model validation, distortion constant, drift matrix, variance curves."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import make_degenerate_pair, make_rough_heston, make_wishart
from volterra_merton.kernels import Kernel, TimeGrid, mittag_leffler
from volterra_merton.models import (
    VectorModel,
    distortion_constant,
    expected_variance_curve,
    lambda_matrix,
    validate,
)


class TestValidate:
    def test_calibrated_wishart_with_identity_sigma0(self):
        assert validate(make_wishart(sigma0_scale=1.0)) == []

    def test_negative_offdiagonal_drift(self):
        m = VectorModel(theta=[1.0, 1.0], nu=[0.3, 0.3], drift=[[-1.0, -0.1], [0.0, -1.0]],
                        rho=[0.0, 0.0], v0=[0.04, 0.04], gamma=0.5,
                        kernel=[Kernel.constant(1.0)] * 2)
        assert "D[0][1] < 0" in validate(m)

    def test_gamma_out_of_range(self):
        m = VectorModel(theta=[1.0], nu=[0.3], drift=[[-1.0]], rho=[0.0], v0=[0.04],
                        gamma=1.2, kernel=[Kernel.constant(1.0)])
        assert "gamma outside (0, 1)" in validate(m)

    def test_semidefinite_sigma0_flagged(self):
        m = make_wishart()
        bad = m.__class__(
            mean_reversion=m.mean_reversion, vol_of_vol=m.vol_of_vol, noise=m.noise,
            rho=m.rho, market_price=m.market_price,
            sigma0=np.array([[1.0, 1.0], [1.0, 1.0]]), gamma=m.gamma, kernel=m.kernel,
        )
        assert any("positive definite" in v for v in validate(bad))

    def test_excess_leverage_norm(self):
        m = make_wishart()
        bad = m.__class__(
            mean_reversion=m.mean_reversion, vol_of_vol=m.vol_of_vol, noise=m.noise,
            rho=[0.9, 0.9], market_price=m.market_price, sigma0=m.sigma0,
            gamma=m.gamma, kernel=m.kernel,
        )
        assert "rho^T rho > 1" in validate(bad)

    def test_non_finite_arrays_flagged(self):
        m = VectorModel(theta=[1.0], nu=[0.3], drift=[[-1.0]], rho=[0.0], v0=[np.nan],
                        gamma=0.5, kernel=[Kernel.constant(1.0)])
        assert validate(m) == ["v0 has non-finite entries"]
        w = make_wishart()
        bad = w.__class__(
            mean_reversion=w.mean_reversion, vol_of_vol=w.vol_of_vol, noise=w.noise,
            rho=w.rho, market_price=w.market_price, sigma0=[[np.inf, 0.0], [0.0, 1.0]],
            gamma=w.gamma, kernel=w.kernel,
        )
        assert validate(bad) == ["sigma0 has non-finite entries"]

    def test_overflowing_drift_constant_flagged(self):
        w = make_wishart()
        bad = dataclasses.replace(w, noise=[[1e200, 0.0], [0.0, 1.0]])
        assert validate(bad) == ["N N^T has non-finite entries"]

    def test_multiple_violations_reported_together(self):
        m = VectorModel(theta=[-1.0], nu=[0.3], drift=[[-1.0]], rho=[0.0], v0=[-0.04],
                        gamma=1.5, kernel=[Kernel.constant(1.0)])
        out = validate(m)
        assert len(out) == 3


class TestDistortionConstant:
    def test_zero_correlation(self):
        assert distortion_constant(0.5, 0.0) == 1.0

    def test_full_correlation(self):
        assert distortion_constant(0.2, 1.0) == pytest.approx(0.8)

    def test_mixed(self):
        assert distortion_constant(0.8, -0.5) == pytest.approx(0.5)

    @given(gamma=st.floats(0.01, 0.99), r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_rho_squared(self, gamma, r1, r2):
        lo, hi = sorted([r1, r2])
        c_lo, c_hi = distortion_constant(gamma, hi), distortion_constant(gamma, lo)
        assert c_lo <= c_hi <= 1.0
        if hi * hi > lo * lo + 1e-12:  # strictness needs float-resolvable gap
            assert c_lo < c_hi

    def test_bounds(self):
        with pytest.raises(ValueError):
            distortion_constant(1.0, 0.0)
        with pytest.raises(ValueError):
            distortion_constant(0.5, 1.5)


class TestLambdaMatrix:
    def test_zero_correlation_returns_drift(self):
        m = make_rough_heston()
        m = VectorModel(theta=m.theta, nu=m.nu, drift=m.drift, rho=[0.0], v0=m.v0,
                        gamma=m.gamma, kernel=m.kernel)
        assert np.array_equal(lambda_matrix(m), m.drift)

    def test_scalar_arithmetic(self):
        m = VectorModel(theta=[1.0], nu=[1.0], drift=[[-2.0]], rho=[1.0], v0=[0.04],
                        gamma=0.5, kernel=[Kernel.constant(1.0)])
        assert lambda_matrix(m)[0, 0] == pytest.approx(-1.0)

    def test_two_dim_against_symbolic(self):
        import sympy as sp

        m = make_degenerate_pair()
        g = sp.Rational(1, 2)
        D = sp.Matrix(m.drift.tolist())
        N = sp.diag(*m.nu.tolist())
        P = sp.diag(*m.rho.tolist())
        Theta = sp.diag(*m.theta.tolist())
        sym = np.array(D + g / (1 - g) * N * P * Theta, dtype=float)
        assert np.allclose(lambda_matrix(m), sym, rtol=1e-12)


class TestExpectedVarianceCurve:
    def test_zero_drift_keeps_initial_level(self):
        m = VectorModel(theta=[0.0], nu=[0.3], drift=[[0.0]], rho=[0.0], v0=[0.05],
                        gamma=0.5, kernel=[Kernel.fractional(1.0, 0.7)])
        grid = TimeGrid(1.0, 200)
        xi = expected_variance_curve(m, grid).values
        assert np.max(np.abs(xi - 0.05)) < 1e-14

    def test_constant_kernel_matches_matrix_exponential(self):
        m = make_degenerate_pair()
        m = VectorModel(theta=m.theta, nu=m.nu, drift=m.drift, rho=m.rho, v0=m.v0,
                        gamma=m.gamma, kernel=[Kernel.constant(1.0)] * 2, rate=m.rate)
        grid = TimeGrid(1.0, 2000)
        xi = expected_variance_curve(m, grid).values
        lam = lambda_matrix(m)
        for j in (500, 1000, 2000):
            t = grid.nodes[j]
            ref = expm(lam * t) @ m.v0
            assert np.max(np.abs(xi[j] - ref)) < 1e-6

    def test_fractional_kernel_matches_mittag_leffler(self):
        # scalar linear equation xi = V0 + lam (k_alpha * xi) has solution
        # E_{alpha,1}(lam t^alpha) V0
        alpha, lam_val, v0 = 0.7, -1.3, 0.04
        m = VectorModel(theta=[0.0], nu=[0.3], drift=[[lam_val]], rho=[0.0], v0=[v0],
                        gamma=0.5, kernel=[Kernel.fractional(1.0, alpha)])
        grid = TimeGrid(1.0, 2000)
        xi = expected_variance_curve(m, grid).values[:, 0]
        for j in (200, 1000, 2000):
            t = grid.nodes[j]
            ref = mittag_leffler(alpha, 1.0, lam_val * t**alpha) * v0
            assert xi[j] == pytest.approx(ref, abs=1e-4 * v0)

    def test_physical_drift_override(self):
        m = make_rough_heston()
        grid = TimeGrid(0.5, 200)
        tilted = expected_variance_curve(m, grid).values
        physical = expected_variance_curve(m, grid, drift_matrix=m.drift).values
        # rho < 0 tilts the drift down, so the tilted mean decays faster
        assert physical[-1, 0] > tilted[-1, 0]

    def test_monotone_decay_for_stable_constant_kernel(self):
        m = VectorModel(theta=[0.0, 0.0], nu=[0.3, 0.3], drift=[[-1.0, 0.2], [0.1, -0.8]],
                        rho=[0.0, 0.0], v0=[0.04, 0.06], gamma=0.5,
                        kernel=[Kernel.constant(1.0)] * 2)
        grid = TimeGrid(2.0, 400)
        xi = expected_variance_curve(m, grid).values
        assert np.all(np.diff(xi, axis=0) <= 1e-12)
        assert np.all(xi >= -1e-12)

    def test_input_curve_with_drift_feed(self):
        m = VectorModel(theta=[0.0], nu=[0.3], drift=[[0.0]], rho=[0.0], v0=[0.02],
                        b0=[0.5], gamma=0.5, kernel=[Kernel.fractional(1.0, 0.6)])
        grid = TimeGrid(1.0, 400)
        from scipy.special import rgamma

        curve = m.input_curve(grid)[:, 0]
        ref = 0.02 + 0.5 * grid.nodes**0.6 * rgamma(1.6)
        assert np.max(np.abs(curve - ref)) < 1e-12
