"""Riccati-Volterra right-hand sides, solvers, and diagnostics."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BPT10_M, BPT10_Q, BPT10_RHO, BPT10_V, make_degenerate_pair, make_wishart, rk4_path
from volterra_merton.kernels import Kernel, SampledFunction, TimeGrid, convolve, kernel_weights
from volterra_merton.models import VectorModel, distortion_constant, expected_variance_curve, lambda_matrix
from volterra_merton.riccati import (
    MatrixRiccatiRHS,
    RiccatiBlowUpError,
    VectorRiccatiRHS,
    fixed_point_residual,
    global_existence_diagonal,
    solve_riccati_batch,
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_degenerate,
    vector_rhs_general,
    wishart_rhs,
)


def scalar_model(theta, nu, delta, rho, gamma):
    return VectorModel(
        theta=[theta], nu=[nu], drift=[[delta]], rho=[rho], v0=[0.04],
        gamma=gamma, kernel=[Kernel.constant(1.0)],
    )


class TestVectorRHS:
    def test_degenerate_scalar_example(self):
        # theta=1, nu=1, delta=-1, rho=0, gamma=0.5: c=1, a=0.5, B=-1, q=0.5
        m = scalar_model(1.0, 1.0, -1.0, 0.0, 0.5)
        rhs = vector_rhs_degenerate(m)
        assert rhs.const[0] == pytest.approx(0.5)
        assert rhs.linear[0, 0] == pytest.approx(-1.0)
        assert rhs.quad[0] == pytest.approx(0.5)

    def test_zero_risk_premium(self):
        m = scalar_model(0.0, 0.7, -2.0, 0.3, 0.4)
        assert vector_rhs_degenerate(m).const[0] == 0.0
        assert vector_rhs_general(m).const[0] == 0.0

    def test_general_rho_zero_matches_degenerate(self):
        m = scalar_model(1.3, 0.4, -1.5, 0.0, 0.6)
        f1, f2 = vector_rhs_degenerate(m), vector_rhs_general(m)
        assert np.allclose(f1.const, f2.const)
        assert np.allclose(f1.linear, f2.linear)
        assert np.allclose(f1.quad, f2.quad)

    def test_general_scalar_quadratic(self):
        # gamma=0.5, nu=1, rho=1 -> q = (1 + 1)/2 = 1
        m = scalar_model(1.0, 1.0, -1.0, 1.0, 0.5)
        assert vector_rhs_general(m).quad[0] == pytest.approx(1.0)

    def test_degenerate_requires_equal_rho(self):
        m = VectorModel(theta=[1.0, 1.0], nu=[0.3, 0.3], drift=-np.eye(2),
                        rho=[-0.2, -0.4], v0=[0.04, 0.04], gamma=0.5,
                        kernel=[Kernel.constant(1.0)] * 2)
        with pytest.raises(ValueError):
            vector_rhs_degenerate(m)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            vector_rhs_general(scalar_model(1.0, 1.0, -1.0, 0.0, 1.2))

    def test_two_dim_against_symbolic_expansion(self):
        import sympy as sp

        theta = [0.9, 1.4]
        nu = [0.35, 0.22]
        drift = [[-1.1, 0.2], [0.15, -0.9]]
        rho_val = -0.37
        gamma = 0.45
        m = VectorModel(theta=theta, nu=nu, drift=drift, rho=[rho_val, rho_val],
                        v0=[0.04, 0.04], gamma=gamma, kernel=[Kernel.constant(1.0)] * 2)
        rhs = vector_rhs_degenerate(m)
        c = distortion_constant(gamma, rho_val)
        p1, p2 = sp.symbols("p1 p2")
        psi = sp.Matrix([[p1, p2]])
        Theta = sp.diag(*theta)
        N = sp.diag(*nu)
        P = sp.diag(rho_val, rho_val)
        D = sp.Matrix(drift)
        g = sp.Rational(45, 100)
        lam = D + g / (1 - g) * N * P * Theta
        theta_row = sp.Matrix([[theta[0], theta[1]]])
        Psi = sp.diag(p1, p2)
        expr = g / (2 * c * (1 - g)) * theta_row * Theta + psi * lam + sp.Rational(1, 2) * psi * N**2 * Psi
        for trial in ([0.3, -0.2], [1.0, 2.0]):
            sym = np.array(
                expr.subs({p1: trial[0], p2: trial[1]}), dtype=float
            ).ravel()
            got = rhs(np.array(trial))
            assert np.allclose(got, sym, rtol=1e-10)

    @given(
        scale=st.floats(0.05, 5.0),
        psi1=st.floats(-2.0, 2.0),
        psi2=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_distortion_scaling_identity(self, scale, psi1, psi2):
        # c F1(psi) = F2(c psi) for equal correlations, the identity behind
        # the equivalence of the two constructions
        m = make_degenerate_pair()
        c = distortion_constant(m.gamma, float(m.rho[0]))
        f1, f2 = vector_rhs_degenerate(m), vector_rhs_general(m)
        psi = scale * np.array([psi1, psi2])
        assert np.allclose(c * f1(psi), f2(c * psi), rtol=1e-9, atol=1e-9)


class TestWishartRHS:
    def test_small_gamma_limit(self):
        m = make_wishart(gamma=1e-9)
        rhs = wishart_rhs(m)
        assert np.max(np.abs(rhs.linear - BPT10_M)) < 1e-8
        # constant term is g v v^T / 2 with |v|_inf ~ 4.7, so ~1.1e-8 at g=1e-9
        assert np.max(np.abs(rhs.constant)) < 2e-8
        assert np.max(np.abs(rhs.constant)) == pytest.approx(0.5e-9 / (1 - 1e-9) * 4.722**2, rel=1e-6)

    def test_rho_zero(self):
        m = make_wishart()
        m = m.__class__(
            mean_reversion=m.mean_reversion, vol_of_vol=m.vol_of_vol, noise=m.noise,
            rho=[0.0, 0.0], market_price=m.market_price, sigma0=m.sigma0,
            gamma=m.gamma, kernel=m.kernel,
        )
        rhs = wishart_rhs(m)
        assert np.allclose(rhs.linear, BPT10_M)
        assert np.allclose(rhs.quadratic, BPT10_Q.T @ BPT10_Q)

    def test_calibrated_parameters_against_direct_arithmetic(self):
        gamma = 0.2
        rhs = wishart_rhs(make_wishart(gamma=gamma))
        g = gamma / (1.0 - gamma)
        rho = BPT10_RHO.reshape(2, 1)
        v = BPT10_V.reshape(2, 1)
        m_tilde = BPT10_M + g * BPT10_Q.T @ rho @ v.T
        s_tilde = BPT10_Q.T @ BPT10_Q + g * BPT10_Q.T @ rho @ rho.T @ BPT10_Q
        gamma_tilde = 0.5 * g * v @ v.T
        assert np.allclose(rhs.linear, m_tilde, rtol=1e-14)
        assert np.allclose(rhs.quadratic, 0.5 * (s_tilde + s_tilde.T), rtol=1e-14)
        assert np.allclose(rhs.constant, gamma_tilde, rtol=1e-14)

    def test_leading_time_axis(self, wishart_bpt10):
        rhs = wishart_rhs(wishart_bpt10)
        stack = np.random.default_rng(3).normal(size=(5, 2, 2))
        stack = stack + stack.transpose(0, 2, 1)
        np.testing.assert_allclose(rhs(stack), [rhs(v) for v in stack], rtol=1e-14, atol=1e-14)
        vrhs = vector_rhs_general(make_degenerate_pair())
        np.testing.assert_allclose(vrhs(stack[:, 0]), [vrhs(v) for v in stack[:, 0]], rtol=1e-14, atol=1e-14)

    def test_asymmetric_inputs_rejected(self):
        with pytest.raises(ValueError):
            MatrixRiccatiRHS(linear=np.eye(2), quadratic=[[1.0, 0.3], [0.0, 1.0]], constant=np.zeros((2, 2)))


class TestVectorSolver:
    def test_zero_rhs_gives_zero(self):
        rhs = VectorRiccatiRHS(const=[0.0], linear=[[-1.0]], quad=[0.5])
        path = solve_riccati_vector(Kernel.fractional(1.0, 0.6), rhs, TimeGrid(1.0, 200))
        assert np.all(path.values == 0.0)
        assert path.residual == 0.0

    def test_initial_value_zero(self):
        rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        path = solve_riccati_vector(Kernel.fractional(1.0, 0.7), rhs, TimeGrid(1.0, 100))
        assert np.all(path.values[0] == 0.0)

    def test_constant_kernel_matches_rk4(self):
        rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        grid = TimeGrid(1.0, 1000)
        path = solve_riccati_vector(Kernel.constant(1.0), rhs, grid)
        ref = rk4_path(lambda y: rhs(y), (1,), 1.0, 1000)
        assert np.max(np.abs(path.values - ref)) < 1e-5

    def test_nearly_smooth_fractional_close_to_constant(self):
        rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        grid = TimeGrid(1.0, 1000)
        frac = solve_riccati_vector(Kernel.fractional(1.0, 0.99), rhs, grid)
        const = solve_riccati_vector(Kernel.constant(1.0), rhs, grid)
        assert np.max(np.abs(frac.values - const.values)) < 2e-2

    @pytest.mark.parametrize("kernel,min_factor", [
        (Kernel.constant(1.0), 3.0),
        (Kernel.exponential(1.0, 1.0), 3.0),
        (Kernel.fractional(1.0, 0.6), 2 ** 1.6 * 0.8),
    ])
    def test_grid_convergence_order(self, kernel, min_factor):
        # the scheme's 1+alpha rate holds away from the origin; the first few
        # nodes sit in a boundary layer with the well-known reduced order
        # ~2 alpha for weakly singular kernels, so the error is measured on
        # t >= 0.1
        rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        fine = solve_riccati_vector(kernel, rhs, TimeGrid(1.0, 4096)).values
        errs = []
        for n in (256, 512):
            path = solve_riccati_vector(kernel, rhs, TimeGrid(1.0, n)).values
            stride = 4096 // n
            mask = np.linspace(0.0, 1.0, n + 1) >= 0.1
            errs.append(np.max(np.abs(path - fine[::stride])[mask]))
        assert errs[0] / errs[1] >= min_factor

    def test_blowup_detection_and_truncation(self):
        # psi' = 10 + 10 psi^2 diverges at t = pi/20 ~ 0.157
        rhs = VectorRiccatiRHS(const=[10.0], linear=[[0.0]], quad=[10.0])
        grid = TimeGrid(1.0, 1000)
        path = solve_riccati_vector(Kernel.constant(1.0), rhs, grid)
        assert path.blowup is not None
        assert path.blowup.detected_at == pytest.approx(np.pi / 20.0, abs=0.02)
        # values frozen at the last finite node
        idx = int(round(path.blowup.detected_at / grid.dt))
        assert np.all(path.values[idx + 1 :] == path.values[idx + 1])
        with pytest.raises(RiccatiBlowUpError):
            path.require_global()

    def test_nan_inputs_raise_solver_error(self):
        rhs = VectorRiccatiRHS(const=[np.nan], linear=[[0.0]], quad=[0.0])
        with pytest.raises(FloatingPointError):
            solve_riccati_vector(Kernel.constant(1.0), rhs, TimeGrid(1.0, 10))

    @pytest.mark.parametrize("build", ["general", "degenerate", "wishart"])
    def test_overflowing_coefficients_fail_without_warnings(self, build):
        # nu or Q of 1e200 squares to inf: the first step is non-finite, and
        # numpy warns about nothing on the way there
        grid = TimeGrid(0.25, 20)
        if build == "wishart":
            model = make_wishart()
            model = dataclasses.replace(model, vol_of_vol=1e200 * model.vol_of_vol)
            make_rhs, solve = wishart_rhs, solve_riccati_matrix
        else:
            model = dataclasses.replace(make_degenerate_pair(), nu=[1e200, 0.25])
            make_rhs = vector_rhs_general if build == "general" else vector_rhs_degenerate
            solve = solve_riccati_vector
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError):
                solve(model.kernel, make_rhs(model), grid)

    def test_mixed_kernels_per_component(self):
        rhs = VectorRiccatiRHS(const=[0.5, 0.4], linear=-np.eye(2), quad=[0.5, 0.5])
        kernels = [Kernel.fractional(1.0, 0.6), Kernel.constant(1.0)]
        path = solve_riccati_vector(kernels, rhs, TimeGrid(1.0, 400))
        # decoupled diagonal system: each component solves its scalar equation
        scalar0 = solve_riccati_vector(
            kernels[0], VectorRiccatiRHS([0.5], [[-1.0]], [0.5]), TimeGrid(1.0, 400)
        )
        assert np.max(np.abs(path.values[:, 0] - scalar0.values[:, 0])) < 1e-12


class TestMatrixSolver:
    def test_zero_constant_gives_zero(self):
        rhs = MatrixRiccatiRHS(linear=BPT10_M, quadratic=BPT10_Q.T @ BPT10_Q, constant=np.zeros((2, 2)))
        path = solve_riccati_matrix([Kernel.fractional(1.0, 0.7)] * 2, rhs, TimeGrid(1.0, 100))
        assert np.all(path.values == 0.0)

    def test_scalar_reduction_matches_vector(self):
        mrhs = MatrixRiccatiRHS(linear=[[-0.7]], quadratic=[[0.8]], constant=[[0.3]])
        vrhs = VectorRiccatiRHS(const=[0.3], linear=[[-1.4]], quad=[1.6])
        grid = TimeGrid(1.0, 500)
        k = Kernel.fractional(1.0, 0.8)
        mp = solve_riccati_matrix(k, mrhs, grid)
        vp = solve_riccati_vector(k, vrhs, grid)
        assert np.max(np.abs(mp.values[:, 0, 0] - vp.values[:, 0])) < 1e-10

    def test_constant_kernel_matches_matrix_rk4(self, wishart_bpt10):
        rhs = wishart_rhs(wishart_bpt10)
        grid = TimeGrid(1.0, 1000)
        path = solve_riccati_matrix(Kernel.constant(1.0), rhs, grid)
        ref = rk4_path(lambda y: rhs(y), (2, 2), 1.0, 1000)
        assert np.max(np.abs(path.values - ref)) < 1e-5

    def test_symmetry_invariant(self, wishart_bpt10):
        rhs = wishart_rhs(wishart_bpt10)
        path = solve_riccati_matrix(wishart_bpt10.kernel, rhs, TimeGrid(1.0, 500))
        asym = np.max(np.abs(path.values - path.values.transpose(0, 2, 1)))
        assert asym <= 1e-12

    def test_symmetry_with_distinct_kernels(self, wishart_bpt10):
        rhs = wishart_rhs(wishart_bpt10)
        kernels = [Kernel.fractional(1.0, 0.95), Kernel.fractional(1.0, 0.55)]
        path = solve_riccati_matrix(kernels, rhs, TimeGrid(1.0, 500))
        asym = np.max(np.abs(path.values - path.values.transpose(0, 2, 1)))
        assert asym <= 1e-12


class TestBatchedSolves:
    """One batched loop against lone solves of each problem, bit for bit."""

    @staticmethod
    def assert_lone_equal(kernels, rhss, grids, threshold=1e8):
        paths = solve_riccati_batch(kernels, rhss, grids, threshold)
        assert len(paths) == len(rhss)
        for path, kernel, rhs, grid in zip(paths, kernels, rhss, grids):
            solve = solve_riccati_matrix if isinstance(rhs, MatrixRiccatiRHS) else solve_riccati_vector
            lone = solve(kernel, rhs, grid, threshold)
            assert path.grid == grid
            np.testing.assert_array_equal(path.values, lone.values)
            assert path.blowup == lone.blowup
            np.testing.assert_array_equal(path.residual, lone.residual)  # NaN after a blow-up
        return paths

    def test_vector_problems_with_distinct_alpha_horizon_and_coefficients(self):
        rhss = [
            VectorRiccatiRHS(const=[0.5, 0.4], linear=[[-1.0, 0.2], [0.1, -1.3]], quad=[0.5, 0.3]),
            VectorRiccatiRHS(const=[0.2, 0.7], linear=[[-0.6, 0.0], [0.3, -0.9]], quad=[0.1, 0.4]),
            VectorRiccatiRHS(const=[0.9, 0.1], linear=-np.eye(2), quad=[0.05, 0.6]),
        ]
        kernels = [
            Kernel.fractional(1.0, 0.6),
            [Kernel.fractional(1.0, 0.8), Kernel.exponential(1.5, 2.0)],
            [Kernel.gamma(1.0, 0.7, 0.5), Kernel.constant(1.0)],
        ]
        grids = [TimeGrid(0.5, 1200), TimeGrid(1.0, 1200), TimeGrid(2.0, 1200)]  # 1200 > 2 BLOCK
        paths = self.assert_lone_equal(kernels, rhss, grids)
        assert all(path.ok for path in paths)

    def test_matrix_problems_with_distinct_kernels_and_coefficients(self):
        rhss = [wishart_rhs(make_wishart(gamma=g)) for g in (0.2, 0.35, 0.5)]
        kernels = [
            [Kernel.fractional(1.0, 0.95), Kernel.fractional(1.0, 0.55)],
            Kernel.fractional(1.0, 0.75),
            [Kernel.fractional(1.0, 0.6), Kernel.exponential(1.0, 1.0)],
        ]
        grids = [TimeGrid(1.0, 700), TimeGrid(0.5, 700), TimeGrid(2.0, 700)]
        self.assert_lone_equal(kernels, rhss, grids)

    def test_blowup_mid_grid_leaves_the_others_alone(self):
        # psi' = 10 + 10 psi^2 diverges at t = pi/20, near node 1257 of 2000
        # on [0, 0.25]: two blocks have closed by then, and the others go on
        blowing = VectorRiccatiRHS(const=[10.0], linear=[[0.0]], quad=[10.0])
        calm = VectorRiccatiRHS(const=[0.5], linear=[[-1.15]], quad=[0.3])
        kernels = [Kernel.fractional(1.0, 0.6), Kernel.constant(1.0), Kernel.fractional(1.0, 0.8)]
        grids = [TimeGrid(0.25, 2000)] * 3
        paths = self.assert_lone_equal(kernels, [calm, blowing, calm], grids)
        assert [path.ok for path in paths] == [True, False, True]
        assert 1024 < paths[1].blowup.detected_at / grids[1].dt < 2000

    def test_overflow_before_a_block_closes_leaves_the_others_alone(self):
        # psi' = 1 + 1e10 psi under a threshold of 1e300: on this grid psi**2
        # overflows at node 511, the last node of the first block, so F(psi)
        # is 0 * inf = NaN there, a blow-up at node 511.
        wild = VectorRiccatiRHS(const=[1.0], linear=[[1e10]], quad=[0.0])
        calm = VectorRiccatiRHS(const=[0.5], linear=[[-1.15]], quad=[0.3])
        grids = [TimeGrid(4.719448997657518e-08, 600), TimeGrid(1.0, 600)]
        kernels = [Kernel.constant(1.0), Kernel.fractional(1.0, 0.6)]
        wild_path, calm_path = self.assert_lone_equal(kernels, [wild, calm], grids, 1e300)
        assert wild_path.blowup.detected_at == grids[0].nodes[511] and wild_path.blowup.norm == np.inf
        assert wild_path.nonfinite_at is None
        with np.errstate(all="ignore"):
            assert np.all(np.isnan(wild(wild_path.values[511])))
        assert calm_path.ok

    def test_infinite_f_on_a_block_end_is_a_blowup(self):
        # psi' = 1 + 1e10 psi + 1e-300 psi**2: F(psi) overflows to +inf, with
        # no NaN, at node 511, the last node of the first block.  The direct
        # sums then give an infinite predictor, a blow-up at node 511.
        wild = VectorRiccatiRHS(const=[1.0], linear=[[1e10]], quad=[1e-300])
        calm = VectorRiccatiRHS(const=[0.5], linear=[[-1.15]], quad=[0.3])
        grids = [TimeGrid(4.719448997657518e-08, 600), TimeGrid(1.0, 600)]
        kernels = [Kernel.constant(1.0), Kernel.fractional(1.0, 0.6)]
        lone = solve_riccati_vector(kernels[0], wild, grids[0], 1e300)
        with np.errstate(all="ignore"):
            f = wild(lone.values[511])
        assert np.all(np.isposinf(f))
        assert lone.blowup.detected_at == grids[0].nodes[511] and lone.blowup.norm == np.inf
        assert np.all(lone.values[512:] == lone.values[511])
        self.assert_lone_equal(kernels, [wild, calm], grids, 1e300)

    def test_nonfinite_problem_is_reported_not_raised(self):
        bad = VectorRiccatiRHS(const=[np.nan], linear=[[0.0]], quad=[0.0])
        good = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        kernel, grid = Kernel.fractional(1.0, 0.7), TimeGrid(1.0, 600)
        first, second = solve_riccati_batch([kernel, kernel], [bad, good], [grid, grid])
        assert first.nonfinite_at == grid.nodes[1] and first.blowup is None and not first.ok
        assert np.all(first.values == 0.0)
        with pytest.raises(FloatingPointError, match="non-finite Riccati step at t = 0.00166667"):
            first.require_global()
        with pytest.raises(FloatingPointError, match="non-finite Riccati step at t = 0.00166667"):
            solve_riccati_vector(kernel, bad, grid)
        lone = solve_riccati_vector(kernel, good, grid)
        np.testing.assert_array_equal(second.values, lone.values)
        assert second.residual == lone.residual

    def test_problems_must_share_shape_and_steps(self):
        vec = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        pair = VectorRiccatiRHS(const=[0.5, 0.5], linear=-np.eye(2), quad=[0.5, 0.5])
        mat = MatrixRiccatiRHS(linear=[[-0.7]], quadratic=[[0.8]], constant=[[0.3]])
        k = Kernel.constant(1.0)
        with pytest.raises(ValueError, match="n_steps"):
            solve_riccati_batch([k, k], [vec, vec], [TimeGrid(1.0, 10), TimeGrid(1.0, 20)])
        for other in (pair, mat):
            with pytest.raises(ValueError, match="type and dimension"):
                solve_riccati_batch([k, k], [vec, other], [TimeGrid(1.0, 10)] * 2)

    def test_stacked_coefficients_act_per_problem(self):
        # psi @ linear alone would multiply every row vector by every problem's matrix
        rng = np.random.default_rng(2)
        const, linear, quad = rng.normal(size=(3, 2)), rng.normal(size=(3, 2, 2)), rng.normal(size=(3, 2))
        psi = rng.normal(size=(3, 2))
        stacked = VectorRiccatiRHS(const=const, linear=linear, quad=quad)
        want = [VectorRiccatiRHS(const=c, linear=m, quad=q)(x) for c, m, q, x in zip(const, linear, quad, psi)]
        np.testing.assert_array_equal(stacked(psi), want)
        sym = psi[:, :, None] * psi[:, None, :]
        mstacked = MatrixRiccatiRHS(linear=linear, quadratic=sym, constant=sym)
        mwant = [MatrixRiccatiRHS(linear=m, quadratic=s, constant=s)(s) for m, s in zip(linear, sym)]
        np.testing.assert_array_equal(mstacked(sym), mwant)


class TestDegenerateEquivalence:
    def test_phi_equals_c_psi(self):
        m = make_degenerate_pair()
        grid = TimeGrid(1.0, 1000)
        psi = solve_riccati_vector(m.kernel, vector_rhs_degenerate(m), grid)
        phi = solve_riccati_vector(m.kernel, vector_rhs_general(m), grid)
        c = distortion_constant(m.gamma, float(m.rho[0]))
        gap = np.max(np.abs(phi.values - c * psi.values))
        assert gap <= 1e-6 * np.max(np.abs(phi.values))


class TestGlobalExistence:
    def test_zero_premium(self):
        verdict = global_existence_diagonal(scalar_model(0.0, 1.0, -1.0, 0.0, 0.5))
        assert verdict.applicable and verdict.all_ok

    def test_zero_drift_fails_first_condition(self):
        verdict = global_existence_diagonal(scalar_model(1.0, 1.0, 0.0, 0.0, 0.5))
        assert verdict.applicable and not verdict.per_component[0]

    def test_direct_arithmetic_case(self):
        # gamma=0.5, delta=-2, nu=1, rho=-0.5, theta=1:
        # lam = -2 + 1*1*(-0.5)*1 = -2.5 < 0
        # disc = 6.25 - 1 * ((0.5 + 0.5*0.25)/0.5) * 1 * 1 = 6.25 - 1.25 > 0
        verdict = global_existence_diagonal(scalar_model(1.0, 1.0, -2.0, -0.5, 0.5))
        assert verdict.all_ok

    def test_non_diagonal_not_applicable(self):
        m = make_degenerate_pair()  # drift has off-diagonal entries
        verdict = global_existence_diagonal(m)
        assert not verdict.applicable
        assert verdict.per_component is None
        assert not verdict.all_ok

    @pytest.mark.parametrize("horizon", [2.0, 10.0])
    def test_no_blowup_when_verdict_holds(self, horizon):
        m = scalar_model(1.0, 0.3, -1.0, -0.5, 0.5)
        assert global_existence_diagonal(m).all_ok
        path = solve_riccati_vector(
            Kernel.fractional(1.0, 0.7), vector_rhs_general(m), TimeGrid(horizon, 2000)
        )
        assert path.blowup is None


class TestFixedPointResidual:
    def test_zero_path(self):
        rhs = VectorRiccatiRHS(const=[0.0], linear=[[-1.0]], quad=[0.5])
        path = solve_riccati_vector(Kernel.fractional(1.0, 0.7), rhs, TimeGrid(1.0, 100))
        assert fixed_point_residual(path, [Kernel.fractional(1.0, 0.7)], rhs) == 0.0

    def test_converged_solution_small_residual(self):
        rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        k = Kernel.fractional(1.0, 0.6)
        path = solve_riccati_vector(k, rhs, TimeGrid(1.0, 2000))
        assert path.residual <= 1e-4

    def test_corrupted_path_flagged(self):
        from volterra_merton.riccati import RiccatiPath

        rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.0]], quad=[0.5])
        k = Kernel.fractional(1.0, 0.6)
        path = solve_riccati_vector(k, rhs, TimeGrid(1.0, 2000))
        bad = RiccatiPath(path.grid, path.values * 1.1, None, np.nan)
        assert fixed_point_residual(bad, [k], rhs) > 10.0 * path.residual

    def test_failed_paths_refused(self):
        # an infinite constant makes F(psi) non-finite at node 0: a non-finite step
        bad = VectorRiccatiRHS(const=[np.inf], linear=[[0.0]], quad=[0.0])
        k, grid = Kernel.fractional(1.0, 0.7), TimeGrid(1.0, 600)
        (path,) = solve_riccati_batch([k], [bad], [grid])
        assert path.nonfinite_at == grid.nodes[1] and path.blowup is None
        with pytest.raises(ValueError, match="residual undefined"):
            fixed_point_residual(path, k, bad)


# ---------------------------------------------------------------------------
# Long grids against the history sums written out node by node
# ---------------------------------------------------------------------------


def _stacked(kernels, grid):
    ws = [kernel_weights(k, grid) for k in kernels]
    return np.stack([w.cell for w in ws], axis=1), np.stack([w.corrector for w in ws], axis=1)


def _direct_sum(row, hist):
    return np.einsum("ji,j...i->...i", row, hist)


def _corrector_weights(cell, corr, n):
    """Trapezoidal product weights of nodes 0..n-1 at node n, in node order."""
    row = cell[:n] - corr[1 : n + 1]
    row[: n - 1] += corr[2 : n + 1]
    return row[::-1]


def direct_pece(kernels, rhs, grid, shape, threshold=1e8):
    """PECE with every predictor and corrector sum taken over all past nodes.

    Returns the path up to the first node that exceeds the threshold and the
    index of that node (None without blow-up).
    """
    cell, corr = _stacked(kernels, grid)
    sym = (lambda a: 0.5 * (a + a.T)) if len(shape) == 2 else (lambda a: a)
    psi = np.zeros((grid.n_steps + 1,) + shape)
    fvals = np.empty_like(psi)
    fvals[0] = rhs(psi[0])
    for n in range(1, grid.n_steps + 1):
        pred = sym(_direct_sum(cell[n - 1 :: -1], fvals[:n]))
        if np.max(np.abs(pred)) > threshold:
            return psi[:n], n
        val = sym(_direct_sum(_corrector_weights(cell, corr, n), fvals[:n]) + corr[1] * rhs(pred))
        if np.max(np.abs(val)) > threshold:
            return psi[:n], n
        psi[n] = val
        fvals[n] = rhs(val)
    return psi, None


def direct_residual(path, kernels, rhs):
    cell, _ = _stacked(kernels, path.grid)
    vals = path.values
    fvals = np.array([rhs(v) for v in vals])
    mid = 0.5 * (fvals[:-1] + fvals[1:])
    sym = (lambda a: 0.5 * (a + a.T)) if vals.ndim == 3 else (lambda a: a)
    return max(
        float(np.max(np.abs(vals[n] - sym(_direct_sum(cell[n - 1 :: -1], mid[:n])))))
        for n in range(1, path.grid.n_steps + 1)
    )


def assert_matches_direct(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.max(np.abs(want)))


class TestLongGridsAgainstDirectSums:
    """Grids well above the solvers' block length agree with the direct sums."""

    RHS = VectorRiccatiRHS(const=[0.5], linear=[[-1.15]], quad=[0.3])

    @pytest.mark.parametrize("kernel", [Kernel.fractional(1.0, 0.6), Kernel.gamma(1.0, 0.8, 0.7)])
    def test_vector_single_kernel(self, kernel):
        grid = TimeGrid(1.0, 3000)
        path = solve_riccati_vector(kernel, self.RHS, grid)
        want, stop = direct_pece([kernel], self.RHS, grid, (1,))
        assert stop is None and path.blowup is None
        assert_matches_direct(path.values, want)
        assert abs(path.residual - direct_residual(path, [kernel], self.RHS)) <= 1e-13

    def test_vector_mixed_components(self):
        rhs = VectorRiccatiRHS(const=[0.5, 0.4], linear=[[-1.0, 0.2], [0.1, -1.3]], quad=[0.5, 0.3])
        kernels = [Kernel.fractional(1.0, 0.6), Kernel.exponential(1.5, 2.0)]
        grid = TimeGrid(1.0, 3000)
        path = solve_riccati_vector(kernels, rhs, grid)
        want, _ = direct_pece(kernels, rhs, grid, (2,))
        assert_matches_direct(path.values, want)
        assert abs(path.residual - direct_residual(path, kernels, rhs)) <= 1e-13

    def test_matrix_distinct_kernels(self, wishart_bpt10):
        rhs = wishart_rhs(wishart_bpt10)
        kernels = [Kernel.fractional(1.0, 0.95), Kernel.fractional(1.0, 0.55)]
        grid = TimeGrid(1.0, 2000)
        path = solve_riccati_matrix(kernels, rhs, grid)
        want, _ = direct_pece(kernels, rhs, grid, (2, 2))
        assert_matches_direct(path.values, want)
        assert abs(path.residual - direct_residual(path, kernels, rhs)) <= 1e-13
        assert abs(fixed_point_residual(path, kernels, rhs) - path.residual) <= 1e-13

    def test_blowup_in_a_later_block(self):
        # psi' = 10 + 10 psi^2 diverges at t = pi/20, near node 1257 of 8000
        rhs = VectorRiccatiRHS(const=[10.0], linear=[[0.0]], quad=[10.0])
        grid = TimeGrid(1.0, 8000)
        path = solve_riccati_vector(Kernel.constant(1.0), rhs, grid)
        want, stop = direct_pece([Kernel.constant(1.0)], rhs, grid, (1,))
        assert stop is not None and stop > 1024
        assert path.blowup is not None
        assert path.blowup.detected_at == grid.nodes[stop - 1]
        assert_matches_direct(path.values[:stop], want)
        assert np.all(path.values[stop:] == path.values[stop - 1])


class TestLongLinearSumsAgainstDirectSums:
    def test_expected_variance_curve(self):
        m = VectorModel(
            theta=[1.0, 0.8], nu=[0.3, 0.25], drift=[[-1.0, 0.1], [0.05, -1.2]], rho=[-0.5, -0.3],
            v0=[0.04, 0.06], gamma=0.5, kernel=[Kernel.fractional(1.0, 0.6), Kernel.gamma(1.0, 0.5, 0.8)],
            b0=[0.02, 0.01],
        )
        grid = TimeGrid(2.0, 3000)
        B = lambda_matrix(m)
        cell, corr = _stacked(m.kernel, grid)
        forced = m.input_curve(grid)
        lhs = np.eye(2) - np.diag(corr[1]) @ B
        want = np.zeros((grid.n_steps + 1, 2))
        want[0] = forced[0]
        gvals = np.empty_like(want)
        gvals[0] = B @ want[0]
        for n in range(1, grid.n_steps + 1):
            hist = _direct_sum(_corrector_weights(cell, corr, n), gvals[:n])
            want[n] = np.linalg.solve(lhs, forced[n] + hist)
            gvals[n] = B @ want[n]
        assert_matches_direct(expected_variance_curve(m, grid).values, want)

    def test_convolve_kernel_against_matrix_cofactor(self):
        grid = TimeGrid(1.0, 3000)
        t = grid.nodes
        g = np.stack([np.cos(3.0 * t), 1.0 + t**2, np.exp(-t), np.sin(t)], axis=1).reshape(-1, 2, 2)
        kernel = Kernel.fractional(1.0, 0.6)
        cell, corr = _stacked([kernel], grid)
        want = np.zeros_like(g)
        for n in range(1, grid.n_steps + 1):
            row = _corrector_weights(cell, corr, n)
            want[n] = _direct_sum(row, g[:n, ..., None])[..., 0] + corr[1, 0] * g[n]
        assert_matches_direct(convolve(kernel, SampledFunction(grid, g), grid).values, want)
