"""Monte Carlo engine: determinism, scheme reductions, moment oracles."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import volterra_merton
from conftest import make_rough_heston, make_wishart
from volterra_merton.kernels import WIDE, Kernel, TimeGrid, kernel_weights
from volterra_merton.merton import StrategyPath, strategy_general, strategy_wishart
from volterra_merton.models import VectorModel, WishartModel, expected_variance_curve, rate_on_grid
from volterra_merton.riccati import (
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_general,
    wishart_rhs,
)
from volterra_merton import simulate
from volterra_merton.simulate import (
    SimConfig,
    SimulationError,
    _psd_clip,
    compare_strategies,
    martingale_diagnostic,
    mc_utility,
    simulate_vector,
    simulate_wealth,
    simulate_wishart,
)


def zero_strategy(grid: TimeGrid, d: int) -> StrategyPath:
    z = np.zeros((grid.n_steps + 1, d))
    return StrategyPath(grid, z, z.copy(), np.zeros(d))


class TestDeterminism:
    def test_vector_bundles_bit_identical(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 60)
        cfg = SimConfig(n_paths=64, seed=9, antithetic=True)
        a = simulate_vector(m, grid, cfg)
        b = simulate_vector(m, grid, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.increments["w1"], b.increments["w1"])

    def test_wishart_bundles_bit_identical(self):
        m = make_wishart(alpha=0.75)
        grid = TimeGrid(0.25, 30)
        cfg = SimConfig(n_paths=32, seed=5)
        a = simulate_wishart(m, grid, cfg)
        b = simulate_wishart(m, grid, cfg)
        assert np.array_equal(a.states, b.states)

    def test_bundles_do_not_depend_on_blas_threads(self):
        # the history sums and the assets' increments take threaded matrix products; the bundles must come
        # out the same bytes on one thread
        code = (
            "import hashlib\n"
            "from conftest import make_rough_heston, make_wishart\n"
            "from volterra_merton.kernels import TimeGrid\n"
            "from volterra_merton.simulate import SimConfig, simulate_bundle\n"
            "for model in (make_rough_heston(), make_wishart(alpha=0.75)):\n"
            "    bundle = simulate_bundle(model, TimeGrid(0.5, 200), SimConfig(n_paths=400, seed=4))\n"
            "    for array in (bundle.states, bundle.roots, bundle.asset_noise, *bundle.increments.values()):\n"
            "        if array is not None:\n"
            "            print(hashlib.sha256(array.tobytes()).hexdigest())\n"
        )
        paths = [str(Path(volterra_merton.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
            outs.append(run.stdout.split())
        assert len(outs[0]) == 8  # states and W1, W2; states, roots, asset increments and dW, dB
        assert outs[0] == outs[1]

    def test_seed_changes_draws(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 30)
        a = simulate_vector(m, grid, SimConfig(n_paths=8, seed=1))
        b = simulate_vector(m, grid, SimConfig(n_paths=8, seed=2))
        assert not np.array_equal(a.states, b.states)

    def test_antithetic_pairs_mirrored(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 30)
        bundle = simulate_vector(m, grid, SimConfig(n_paths=8, seed=3, antithetic=True))
        w1 = bundle.increments["w1"]
        assert np.array_equal(w1[0::2], -w1[1::2])

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=7, antithetic=True)


class TestStreams:
    """Path k's increments are its Philox stream's normals times sqrt(dt):
    stream k (k // 2 under antithetic sampling, negated on odd paths) is a
    fresh generator keyed by the seed with the counter [0, 0, k, 0], drawn
    as one (n_steps, per_step) block."""

    @staticmethod
    def stream_draws(seed: int, n_paths: int, antithetic: bool, shape: tuple[int, int], dt: float) -> np.ndarray:
        out = np.empty((n_paths,) + shape)
        for path in range(n_paths):
            stream = path // 2 if antithetic else path
            bits = np.random.Philox(key=seed, counter=np.array([0, 0, stream, 0], dtype=np.uint64))
            draw = np.random.Generator(bits).standard_normal(shape)
            out[path] = -draw if antithetic and path % 2 else draw
        return out * np.sqrt(dt)

    # 301 streams fill the stream buffer once and start it again
    @pytest.mark.parametrize("n_paths, antithetic", [(602, True), (301, False)])
    def test_vector_increments(self, n_paths, antithetic):
        assert 301 > simulate._STREAM_BUFFER
        m = VectorModel(theta=[1.0, 0.8], nu=[0.5, 0.4], drift=[[-1.0, 0.3], [0.2, -1.2]], rho=[-0.6, -0.3],
                        v0=[0.04, 0.06], gamma=0.5, kernel=[Kernel.fractional(1.0, 0.7)] * 2)
        grid = TimeGrid(0.25, 7)
        bundle = simulate_vector(m, grid, SimConfig(n_paths=n_paths, seed=2**70 + 5, antithetic=antithetic))
        want = self.stream_draws(2**70 + 5, n_paths, antithetic, (grid.n_steps, 4), grid.dt)
        assert np.array_equal(bundle.increments["w1"], want[:, :, :2])
        assert np.array_equal(bundle.increments["w2"], want[:, :, 2:])

    @pytest.mark.parametrize("n_paths, antithetic", [(602, True), (301, False)])
    def test_wishart_increments(self, n_paths, antithetic):
        grid = TimeGrid(0.25, 5)
        cfg = SimConfig(n_paths=n_paths, seed=8, antithetic=antithetic)
        bundle = simulate_wishart(make_wishart(alpha=0.75), grid, cfg)
        want = self.stream_draws(8, n_paths, antithetic, (grid.n_steps, 6), grid.dt)
        assert np.array_equal(bundle.increments["w_sigma"], want[:, :, :4].reshape(n_paths, grid.n_steps, 2, 2))
        assert np.array_equal(bundle.increments["b"], want[:, :, 4:])

    @staticmethod
    def digests(model, n_paths: int, antithetic: bool) -> list[str]:
        grid = TimeGrid(0.25, 20)
        bundle = simulate.simulate_bundle(model, grid, SimConfig(n_paths=n_paths, seed=21, antithetic=antithetic))
        wealth = simulate_wealth(model, varying_strategy(grid, model.d, 1.0), bundle, 1.0)
        arrays = [bundle.states, bundle.roots, bundle.asset_noise, *bundle.increments.values(), wealth]
        return [str(bundle.psd_violation_count)] + [
            hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays if a is not None
        ]

    # 1 and 3 streams: fewer streams than some worker counts; 301 streams fill one worker's buffer and
    # start it again
    @pytest.mark.parametrize("n_paths, antithetic", [(1, False), (2, True), (3, False), (257, False), (602, True)])
    @pytest.mark.parametrize("kind", ["vector", "wishart"])
    def test_bits_do_not_depend_on_the_workers(self, kind, n_paths, antithetic, monkeypatch):
        model = make_rough_heston() if kind == "vector" else make_wishart(alpha=0.75)
        found = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulate, "_WORKERS", workers)
            found.append(self.digests(model, n_paths, antithetic))
        assert found[0] == found[1] == found[2]

    @pytest.mark.parametrize("n_paths, antithetic", [(1, False), (2, True)])
    def test_one_stream_starts_no_thread(self, n_paths, antithetic, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one stream")
        monkeypatch.setattr(simulate, "_WORKERS", 3)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
        simulate_vector(make_rough_heston(), TimeGrid(0.25, 10), SimConfig(n_paths=n_paths, antithetic=antithetic))

    def test_ranges_run_in_the_callers_error_state(self):
        # numpy keeps its error state in a context variable, which a new thread would start at the defaults;
        # pytest turns an overflow's RuntimeWarning into an error
        def overflow(lo: int, hi: int) -> None:
            np.exp(np.full(hi - lo, 1000.0))
        with np.errstate(over="ignore"):
            simulate._run_ranges(overflow, [(0, 1), (1, 3), (3, 4)])

    def test_ranges_raise_a_pool_tasks_error(self):
        def fail_late(lo: int, hi: int) -> None:
            if lo > 0:
                raise ValueError(f"range {lo}")
        with pytest.raises(ValueError, match="range"):
            simulate._run_ranges(fail_late, [(0, 1), (1, 2), (2, 3)])


def three_asset_wishart() -> WishartModel:
    return WishartModel(
        mean_reversion=[[-1.0, 0.2, 0.0], [0.1, -1.3, 0.3], [0.0, -0.2, -0.8]],
        vol_of_vol=[[0.4, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.5]],
        noise=[[0.2, 0.0, 0.0], [0.05, 0.15, 0.0], [0.0, 0.05, 0.25]],
        rho=[-0.3, -0.2, 0.1], market_price=[1.0, 0.8, 0.6],
        sigma0=[[0.06, 0.01, 0.0], [0.01, 0.05, 0.01], [0.0, 0.01, 0.04]],
        gamma=0.3, kernel=[Kernel.fractional(1.0, a) for a in (0.95, 0.75, 0.6)],
    )


def wishart_two_sum_reference(model: WishartModel, grid: TimeGrid, cfg: SimConfig, dws: np.ndarray):
    """Left-point Euler Wishart scheme written as two row-weighted history sums.

    Row a of drift + noise and, transposed, row a of the noise alone are
    convolved with K_a; the sum is symmetrized and eigenvalue-clipped.
    Returns the states and the roots at every node.
    """
    p, n_steps, d = cfg.n_paths, grid.n_steps, model.d
    dt = grid.dt
    cell = np.stack([kernel_weights(k, grid).cell for k in model.kernel], axis=1)

    def clip(mats):
        vals, vecs = np.linalg.eigh(mats)
        vals = np.maximum(vals, cfg.psd_floor)
        return vecs @ (vals[..., None] * np.swapaxes(vecs, -1, -2)), vecs @ (
            np.sqrt(vals)[..., None] * np.swapaxes(vecs, -1, -2)
        )

    states = np.empty((p, n_steps + 1, d, d))
    roots = np.empty_like(states)
    states[:, 0] = model.sigma0
    roots[:, 0] = clip(model.sigma0)[1]
    drift = np.empty((p, n_steps, d, d))
    noise = np.empty((p, n_steps, d, d))
    M, Q = model.mean_reversion, model.vol_of_vol
    for n in range(1, n_steps + 1):
        prev = states[:, n - 1]
        drift[:, n - 1] = model.drift_constant + M @ prev + prev @ M.T
        noise[:, n - 1] = roots[:, n - 1] @ dws[:, n - 1] @ Q / dt
        w = cell[n - 1 :: -1]
        left = np.einsum("ja,pjab->pab", w, drift[:, :n] + noise[:, :n])
        right = np.einsum("ja,pjab->pab", w, noise[:, :n]).transpose(0, 2, 1)
        sigma = model.sigma0 + left + right
        states[:, n], roots[:, n] = clip(0.5 * (sigma + sigma.transpose(0, 2, 1)))
    return states, roots


class TestWishartScheme:
    @staticmethod
    def check_distinct_kernels(n_steps: int, n_paths: int) -> None:
        # distinct component kernels: the row-weighted and the transposed
        # stochastic sums use different kernels per entry, the case where the
        # scheme's layout of the history matters
        m = make_wishart(alphas=(0.95, 0.6))
        grid = TimeGrid(0.5, n_steps)
        cfg = SimConfig(n_paths=n_paths, seed=7)
        bundle = simulate_wishart(m, grid, cfg)
        states, roots = wishart_two_sum_reference(m, grid, cfg, bundle.increments["w_sigma"])
        np.testing.assert_allclose(bundle.states, states, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(bundle.roots, roots[:, :-1], rtol=1e-10, atol=1e-13)

    def test_distinct_kernels_match_two_sum_reference(self):
        self.check_distinct_kernels(40, 32)

    def test_distinct_kernels_match_two_sum_reference_across_block_closes(self):
        # 1100 steps cross the history's FFT block closes at nodes 512 and 1024
        self.check_distinct_kernels(1100, 8)

    def test_distinct_kernels_match_two_sum_reference_when_pulled(self):
        # d n_paths = WIDE history columns take the pulls every SUB nodes; 600 steps cross the close at 512
        self.check_distinct_kernels(600, WIDE // 2)

    def test_three_assets_clip_by_eigh(self):
        # d = 3 takes the batched eigh clip; three distinct kernels and a
        # positive floor that does clip
        m = three_asset_wishart()
        grid = TimeGrid(0.5, 40)
        cfg = SimConfig(n_paths=24, seed=11, psd_floor=0.01)
        bundle = simulate_wishart(m, grid, cfg)
        assert bundle.psd_violation_count > 0
        states, roots = wishart_two_sum_reference(m, grid, cfg, bundle.increments["w_sigma"])
        np.testing.assert_allclose(bundle.states, states, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(bundle.roots, roots[:, :-1], rtol=1e-10, atol=1e-13)


def vector_left_point_reference(model: VectorModel, grid: TimeGrid, cfg: SimConfig, w1: np.ndarray, w2: np.ndarray):
    """Left-point Euler scheme for the vector model with time-first direct history sums.

    V_n = v0(t_n) + sum_{j<n} cell[n-1-j] (D V_j + nu sqrt(V_j^+) dB_j / dt), component
    i weighted by the cell integrals of K_i, clipped at the variance floor.  A
    non-finite state is kept as formed, not clipped, as the simulator tests
    each state before its clip.  Returns the states and the clip count.
    """
    p, n_steps, d = cfg.n_paths, grid.n_steps, model.d
    dt = grid.dt
    cell = np.stack([kernel_weights(k, grid).cell for k in model.kernel], axis=1)
    forced = model.input_curve(grid)
    db = model.rho * w1 + np.sqrt(1.0 - model.rho**2) * w2
    states = np.empty((p, n_steps + 1, d))
    states[:, 0] = forced[0]
    shocks = np.empty((p, n_steps, d))
    clips = 0
    for n in range(1, n_steps + 1):
        prev = states[:, n - 1]
        shocks[:, n - 1] = prev @ model.drift.T + model.nu * np.sqrt(np.maximum(prev, 0.0)) * db[:, n - 1] / dt
        vn = forced[n] + np.einsum("ja,pja->pa", cell[n - 1 :: -1], shocks[:, :n])
        clips += int(np.count_nonzero(vn < cfg.variance_floor))
        states[:, n] = np.where(np.isfinite(vn), np.maximum(vn, cfg.variance_floor), vn)
    return states, clips


class TestVectorScheme:
    @staticmethod
    def check_distinct_kernels(n_steps: int, n_paths: int) -> None:
        # two components with distinct kernels and a cross drift, so a
        # component or lag misassignment in the history shows; the floor clips
        m = VectorModel(theta=[1.0, 0.8], nu=[0.5, 0.4], drift=[[-1.0, 0.3], [0.2, -1.2]],
                        rho=[-0.6, -0.3], v0=[0.04, 0.06], b0=[0.02, 0.01], gamma=0.5,
                        kernel=[Kernel.fractional(1.0, 0.95), Kernel.fractional(1.0, 0.6)])
        grid = TimeGrid(0.5, n_steps)
        cfg = SimConfig(n_paths=n_paths, seed=3, variance_floor=0.01)
        bundle = simulate_vector(m, grid, cfg)
        states, clips = vector_left_point_reference(m, grid, cfg, bundle.increments["w1"], bundle.increments["w2"])
        assert clips > 0
        assert bundle.psd_violation_count == clips
        np.testing.assert_allclose(bundle.states, states, rtol=1e-10, atol=1e-13)

    def test_distinct_kernels_match_direct_reference(self):
        self.check_distinct_kernels(60, 32)

    def test_distinct_kernels_match_direct_reference_across_block_closes(self):
        # 1100 steps cross the history's FFT block closes at nodes 512 and 1024
        self.check_distinct_kernels(1100, 8)

    def test_distinct_kernels_match_direct_reference_when_pulled(self):
        # WIDE paths take the pulls every SUB nodes; 600 steps cross the close at 512
        self.check_distinct_kernels(600, WIDE)


def first_nonfinite(run_path, n_paths: int) -> tuple[int, int, int]:
    """The first node at which a lone per-path run turns non-finite, and the lowest path that does.

    ``run_path(i)`` returns path i's states (n_nodes, ...) from a reference
    run of that path alone.  Also returns the number of paths that stay
    finite throughout.
    """
    first = []
    for i in range(n_paths):
        states = run_path(i)
        bad = ~np.isfinite(states.reshape(states.shape[0], -1)).all(axis=1)
        first.append(int(np.argmax(bad)) if bad.any() else None)
    step = min(s for s in first if s is not None)
    return step, first.index(step), first.count(None)


class TestDivergence:
    # A vol-of-vol of 1e250 splits the paths on the sign of their first
    # volatility increment: a rise makes the second step overflow far past
    # the float range, to +inf or -inf, a fall is clipped to 0 and stays there.

    def test_vector_path_index_matches_per_path_reference(self):
        m = VectorModel(theta=[1.0, 0.8], nu=[0.3, 1e250], drift=[[-1.0, 0.1], [0.2, -1.2]],
                        rho=[-0.5, -0.3], v0=[0.04, 0.06], gamma=0.5,
                        kernel=[Kernel.fractional(1.0, 0.9), Kernel.fractional(1.0, 0.6)])
        grid = TimeGrid(0.25, 20)
        cfg = SimConfig(n_paths=16, seed=11)
        # the draws depend on the seed, the grid and d only
        calm = simulate_vector(dataclasses.replace(m, nu=np.array([0.3, 0.3])), grid, cfg).increments
        one = dataclasses.replace(cfg, n_paths=1)
        with np.errstate(over="ignore", invalid="ignore"):
            step, path, finite = first_nonfinite(
                lambda i: vector_left_point_reference(m, grid, one, calm["w1"][i : i + 1], calm["w2"][i : i + 1])[0][0],
                cfg.n_paths,
            )
        assert finite > 0 and path > 0
        with pytest.raises(SimulationError, match=f"at step {step}$") as caught:
            simulate_vector(m, grid, cfg)
        assert caught.value.path_index == path

    def test_wishart_path_index_matches_per_path_reference(self):
        # the first component stays at 0, so each state is diag(0, s) and the
        # sign of dW[1, 1] at step 0 alone decides the path
        m = WishartModel(mean_reversion=[[-1.0, 0.0], [0.0, -1.2]], vol_of_vol=[[0.0, 0.0], [0.0, 1e250]],
                         noise=[[0.0, 0.0], [0.0, 0.2]], rho=[-0.3, -0.5], market_price=[1.0, 1.0],
                         sigma0=[[0.0, 0.0], [0.0, 0.05]], gamma=0.5,
                         kernel=[Kernel.fractional(1.0, 0.9), Kernel.fractional(1.0, 0.6)])
        grid = TimeGrid(0.25, 20)
        cfg = SimConfig(n_paths=16, seed=11)
        dws = simulate_wishart(dataclasses.replace(m, vol_of_vol=np.zeros((2, 2))), grid, cfg).increments["w_sigma"]
        one = dataclasses.replace(cfg, n_paths=1)
        with np.errstate(over="ignore", invalid="ignore"):
            step, path, finite = first_nonfinite(
                lambda i: wishart_two_sum_reference(m, grid, one, dws[i : i + 1])[0][0], cfg.n_paths
            )
        assert finite > 0 and path > 0
        with pytest.raises(SimulationError, match=f"at step {step}$") as caught:
            simulate_wishart(m, grid, cfg)
        assert caught.value.path_index == path


class TestDeterministicLimits:
    def test_zero_noise_zero_drift_keeps_input_curve(self):
        m = VectorModel(theta=[1.0], nu=[1e-300], drift=[[0.0]], rho=[0.0], v0=[0.04],
                        b0=[0.3], gamma=0.5, kernel=[Kernel.fractional(1.0, 0.6)])
        grid = TimeGrid(0.5, 50)
        bundle = simulate_vector(m, grid, SimConfig(n_paths=3, seed=1))
        curve = m.input_curve(grid)
        for p in range(3):
            assert np.max(np.abs(bundle.states[p] - curve)) < 1e-12

    def test_zero_noise_matches_deterministic_convolution(self):
        # nu ~ 0: V solves the linear convolution equation; compare against
        # the product-quadrature solution of the same equation
        m = VectorModel(theta=[0.0], nu=[1e-300], drift=[[-1.0]], rho=[0.0], v0=[0.05],
                        gamma=0.5, kernel=[Kernel.fractional(1.0, 0.7)])
        grid = TimeGrid(1.0, 400)
        bundle = simulate_vector(m, grid, SimConfig(n_paths=1, seed=1))
        ref = expected_variance_curve(m, grid, drift_matrix=m.drift).values
        # left-point Euler vs trapezoidal product rule: first-order gap only
        assert np.max(np.abs(bundle.states[0] - ref)) < 5e-3 * 0.05
        fine = simulate_vector(m, TimeGrid(1.0, 1600), SimConfig(n_paths=1, seed=1))
        ref_fine = expected_variance_curve(m, TimeGrid(1.0, 1600), drift_matrix=m.drift).values
        coarse_err = np.max(np.abs(bundle.states[0] - ref))
        fine_err = np.max(np.abs(fine.states[0] - ref_fine))
        assert fine_err < coarse_err  # scheme converges to the same limit

    def test_wishart_constant_when_all_zero(self):
        m = WishartModel(mean_reversion=np.zeros((2, 2)), vol_of_vol=np.zeros((2, 2)) + 1e-300,
                         noise=np.zeros((2, 2)), rho=[0.0, 0.0], market_price=[1.0, 1.0],
                         sigma0=0.2 * np.eye(2), gamma=0.5, kernel=[Kernel.constant(1.0)] * 2)
        grid = TimeGrid(1.0, 40)
        bundle = simulate_wishart(m, grid, SimConfig(n_paths=2, seed=4))
        assert np.max(np.abs(bundle.states - 0.2 * np.eye(2))) < 1e-12


class TestMomentOracles:
    def test_cir_mean_constant_kernel(self):
        # constant kernel: the scheme is Euler-Maruyama for a CIR-type SDE and
        # E[V_T] solves the linear ODE mean
        m = VectorModel(theta=[0.0], nu=[0.3], drift=[[-1.2]], rho=[0.0], v0=[0.05],
                        gamma=0.5, kernel=[Kernel.constant(1.0)])
        grid = TimeGrid(0.5, 250)
        cfg = SimConfig(n_paths=10_000, seed=11)
        bundle = simulate_vector(m, grid, cfg)
        vt = bundle.states[:, -1, 0]
        ref = float(expm(np.array([[-1.2 * 0.5]]))[0, 0] * 0.05)
        se = vt.std(ddof=1) / np.sqrt(cfg.n_paths)
        assert abs(vt.mean() - ref) <= 3.0 * se

    def test_fractional_mean_matches_variance_curve(self):
        # vol-of-vol is kept moderate so the clip bias of the square-root
        # scheme stays well inside the Monte Carlo band (the clip path is
        # still exercised, see psd_violation_count)
        m = VectorModel(theta=[1.0], nu=[0.15], drift=[[-1.0]], rho=[-0.5], v0=[0.04],
                        gamma=0.5, kernel=[Kernel.fractional(1.0, 0.6)])
        grid = TimeGrid(0.25, 300)
        cfg = SimConfig(n_paths=10_000, seed=13)
        bundle = simulate_vector(m, grid, cfg)
        assert bundle.psd_violation_count > 0
        xi = expected_variance_curve(m, grid, drift_matrix=m.drift).values[:, 0]
        for j in (150, 300):
            vt = bundle.states[:, j, 0]
            se = vt.std(ddof=1) / np.sqrt(cfg.n_paths)
            assert abs(vt.mean() - xi[j]) <= 3.0 * se

    def test_two_asset_mean_matches_variance_curve(self):
        m = VectorModel(theta=[1.0, 0.8], nu=[0.15, 0.12], drift=[[-1.0, 0.1], [0.05, -1.2]],
                        rho=[-0.5, -0.3], v0=[0.04, 0.06], gamma=0.5,
                        kernel=[Kernel.fractional(1.0, 0.6), Kernel.fractional(1.0, 0.8)])
        grid = TimeGrid(0.25, 300)
        cfg = SimConfig(n_paths=10_000, seed=13)
        bundle = simulate_vector(m, grid, cfg)
        xi = expected_variance_curve(m, grid, drift_matrix=m.drift).values
        vt = bundle.states[:, -1, :]
        se = vt.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        assert np.all(np.abs(vt.mean(axis=0) - xi[-1]) <= 3.0 * se)

    def test_wishart_scalar_reduction_moments(self):
        q, mcoef, nn, s0 = 0.3, -1.0, 0.2, 0.09
        k = [Kernel.fractional(1.0, 0.7)]
        wm = WishartModel(mean_reversion=[[mcoef]], vol_of_vol=[[q]], noise=[[nn]],
                          rho=[-0.5], market_price=[1.2], sigma0=[[s0]], gamma=0.4, kernel=k)
        vm = VectorModel(theta=[1.2], nu=[2 * q], drift=[[2 * mcoef]], rho=[-0.5],
                         v0=[s0], b0=[nn * nn], gamma=0.4, kernel=k)
        grid = TimeGrid(0.25, 150)
        cfg = SimConfig(n_paths=10_000, seed=17)
        sw = simulate_wishart(wm, grid, cfg).states[:, -1, 0, 0]
        sv = simulate_vector(vm, grid, cfg).states[:, -1, 0]
        for a, b in ((sw, sv), (sw**2, sv**2)):
            se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(cfg.n_paths)
            assert abs(a.mean() - b.mean()) <= 3.0 * se

    def test_weak_error_shrinks_with_steps(self):
        m = make_rough_heston(alpha=0.7)
        cfg = SimConfig(n_paths=20_000, seed=19, antithetic=True)
        biases = []
        for n in (50, 200):
            grid = TimeGrid(0.25, n)
            bundle = simulate_vector(m, grid, cfg)
            xi = expected_variance_curve(m, grid, drift_matrix=m.drift).values[-1, 0]
            biases.append(abs(bundle.states[:, -1, 0].mean() - xi))
        assert biases[1] < biases[0]


def eigh_clip_reference(mats: np.ndarray, floor: float):
    """Eigenvalue clip and root by ``np.linalg.eigh``, with the count of eigenvalues below the floor."""
    vals, vecs = np.linalg.eigh(mats)
    count = int(np.count_nonzero(vals < floor))
    vals = np.maximum(vals, floor)
    vecs_t = np.swapaxes(vecs, -1, -2)
    return vecs @ (vals[..., None] * vecs_t), vecs @ (np.sqrt(vals)[..., None] * vecs_t), count


def symmetric_2x2_batch() -> np.ndarray:
    """PSD, indefinite, negative-definite, c I (zero included) and nearly singular 2x2 matrices."""
    rng = np.random.default_rng(71)

    def with_eigenvalues(eigs):
        angle = rng.uniform(0.0, np.pi, len(eigs))
        c, s = np.cos(angle), np.sin(angle)
        vecs = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        return vecs @ (eigs[..., None] * np.swapaxes(vecs, -1, -2))

    a = rng.normal(size=(40, 2, 2))
    psd = a @ np.swapaxes(a, -1, -2)
    indefinite = with_eigenvalues(np.column_stack([-rng.uniform(0.1, 2.0, 20), rng.uniform(0.1, 2.0, 20)]))
    negative = with_eigenvalues(-rng.uniform(0.1, 2.0, (20, 2)))
    scalar = np.array([c * np.eye(2) for c in (0.0, 1e-3, 0.5, 2.0, -0.3)])
    nearly_singular = with_eigenvalues(np.column_stack([rng.uniform(1.0, 2.0, 20) * 1e-5, rng.uniform(0.5, 2.0, 20)]))
    batch = np.concatenate([psd, indefinite, negative, scalar, nearly_singular])
    return 0.5 * (batch + np.swapaxes(batch, -1, -2))


class TestPsdClip2x2:
    @pytest.mark.parametrize("floor", [0.0, 0.01])
    def test_closed_form_matches_eigh(self, floor):
        mats = symmetric_2x2_batch()
        sigma = np.ascontiguousarray(mats.transpose(1, 2, 0))  # the simulator's layout, (2, 2, n)
        root = np.empty_like(sigma)
        count = _psd_clip(sigma, floor, root)
        clipped, roots = sigma.transpose(2, 0, 1), root.transpose(2, 0, 1)
        want_clipped, want_roots, want_count = eigh_clip_reference(mats, floor)
        assert count == want_count > 0
        scale = np.maximum(np.abs(mats).max(axis=(1, 2)), floor)[:, None, None]
        assert np.all(np.abs(clipped - want_clipped) <= 1e-13 * scale)
        assert np.all(np.abs(roots - want_roots) <= 1e-13 * np.sqrt(scale))
        assert np.all(np.abs(roots @ roots - clipped) <= 1e-13 * scale)
        assert np.array_equal(clipped, np.swapaxes(clipped, -1, -2))
        assert np.array_equal(roots, np.swapaxes(roots, -1, -2))
        # a matrix with no eigenvalue below the floor is kept as given
        kept = (np.linalg.eigvalsh(mats) >= floor).all(axis=1)
        assert kept.any() and np.array_equal(clipped[kept], mats[kept])


class TestPsdHandling:
    def test_clip_keeps_states_nonnegative(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 200)
        bundle = simulate_vector(m, grid, SimConfig(n_paths=500, seed=23))
        assert bundle.states.min() >= 0.0
        assert bundle.psd_violation_count > 0  # square-root scheme does clip

    def test_wishart_minimum_eigenvalue(self):
        m = make_wishart(alpha=0.75)
        grid = TimeGrid(0.25, 50)
        bundle = simulate_wishart(m, grid, SimConfig(n_paths=100, seed=29))
        eigs = np.linalg.eigvalsh(bundle.states.reshape(-1, 2, 2))
        assert eigs.min() >= -1e-12

    def test_roughness_ordering_of_quadratic_variation(self):
        # rougher kernels produce visibly rougher covariance paths: the mean
        # realized quadratic variation of Sigma_11 decreases with alpha
        qv = {}
        for alpha in (0.55, 0.75, 0.95):
            m = make_wishart(alpha=alpha)
            grid = TimeGrid(0.5, 200)
            bundle = simulate_wishart(m, grid, SimConfig(n_paths=200, seed=31))
            inc = np.diff(bundle.states[:, :, 0, 0], axis=1)
            qv[alpha] = float(np.mean(np.sum(inc**2, axis=1)))
        assert qv[0.55] > qv[0.75] > qv[0.95]


class TestWealth:
    def test_zero_strategy_grows_at_riskfree_rate(self):
        m = make_rough_heston(rate=0.03)
        grid = TimeGrid(0.25, 100)
        bundle = simulate_vector(m, grid, SimConfig(n_paths=16, seed=37))
        xt = simulate_wealth(m, zero_strategy(grid, 1), bundle, 2.0)
        # left-point rate integral of a constant rate is exact
        assert np.max(np.abs(xt - 2.0 * np.exp(0.03 * 0.25))) < 1e-12

    def test_grid_mismatch_rejected(self):
        m = make_rough_heston()
        bundle = simulate_vector(m, TimeGrid(0.25, 50), SimConfig(n_paths=4, seed=1))
        with pytest.raises(ValueError):
            simulate_wealth(m, zero_strategy(TimeGrid(0.25, 60), 1), bundle, 1.0)

    def test_supermartingale_direction_without_premium(self):
        # v = 0, r = 0: E[X^gamma] <= x0^gamma for any strategy
        m = VectorModel(theta=[0.0], nu=[0.3], drift=[[-1.0]], rho=[-0.5], v0=[0.04],
                        gamma=0.5, kernel=[Kernel.fractional(1.0, 0.7)])
        grid = TimeGrid(0.25, 200)
        cfg = SimConfig(n_paths=20_000, seed=41, antithetic=True)
        bundle = simulate_vector(m, grid, cfg)
        const = StrategyPath(grid, np.full((201, 1), 1.5), np.zeros((201, 1)), np.array([1.5]))
        est = mc_utility(m, const, cfg, 1.0, bundle=bundle)
        assert est.mean <= 1.0 / m.gamma + 2.0 * est.stderr

    def test_common_random_numbers_comparison(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 200)
        cfg = SimConfig(n_paths=4000, seed=43, antithetic=True)
        phi = solve_riccati_vector(m.kernel, vector_rhs_general(m), grid)
        strat = strategy_general(m, phi)
        bundle = simulate_vector(m, grid, cfg)
        worse = StrategyPath(grid, 0.25 * strat.weights, strat.hedging, strat.myopic)
        cmp = compare_strategies(m, strat, worse, bundle, 1.0)
        assert cmp.mean > 0.0
        assert cmp.mean > 2.0 * cmp.stderr


class TestMartingaleDiagnostic:
    def test_zero_strategy_is_exactly_one(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 60)
        cfg = SimConfig(n_paths=32, seed=47)
        bundle = simulate_vector(m, grid, cfg)
        est = martingale_diagnostic(m, zero_strategy(grid, 1), cfg, bundle=bundle)
        assert est.mean == pytest.approx(1.0, abs=1e-14)
        assert est.stderr == pytest.approx(0.0, abs=1e-14)

    def test_vector_model_unit_mean(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 200)
        cfg = SimConfig(n_paths=10_000, seed=53, antithetic=True)
        phi = solve_riccati_vector(m.kernel, vector_rhs_general(m), grid)
        strat = strategy_general(m, phi)
        est = martingale_diagnostic(m, strat, cfg)
        assert abs(est.z_score(1.0)) <= 3.0

    def test_heavy_leverage_reported_not_asserted(self):
        # stress configuration: the diagnostic must still produce a finite
        # estimate; deviation magnitude is informational
        m = make_wishart(alpha=0.75)
        stressed = WishartModel(
            mean_reversion=m.mean_reversion, vol_of_vol=m.vol_of_vol, noise=m.noise,
            rho=[0.7, 0.7], market_price=m.market_price, sigma0=m.sigma0,
            gamma=m.gamma, kernel=m.kernel,
        )
        assert float(np.asarray(stressed.rho) @ np.asarray(stressed.rho)) <= 0.99
        grid = TimeGrid(0.25, 60)
        cfg = SimConfig(n_paths=500, seed=59)
        path = solve_riccati_matrix(stressed.kernel, wishart_rhs(stressed), grid)
        strat = strategy_wishart(stressed, path)
        est = martingale_diagnostic(stressed, strat, cfg)
        assert np.isfinite(est.mean) and np.isfinite(est.stderr)


@pytest.mark.parametrize("other", [TimeGrid(2.0, 50), TimeGrid(1.0, 40)], ids=["horizon", "steps"])
@pytest.mark.parametrize(
    "apply",
    [
        lambda m, strat, bundle: simulate_wealth(m, strat, bundle, 1.0),
        lambda m, strat, bundle: martingale_diagnostic(m, strat, bundle.config, bundle=bundle),
    ],
    ids=["wealth", "martingale"],
)
def test_strategy_on_another_grid_is_refused(apply, other):
    m = make_rough_heston()
    bundle = simulate_vector(m, TimeGrid(1.0, 50), SimConfig(n_paths=4, seed=1))
    strat = strategy_general(m, solve_riccati_vector(m.kernel, vector_rhs_general(m), other))
    with pytest.raises(ValueError, match="share one grid"):
        apply(m, strat, bundle)


class TestUtilityEstimates:
    def test_deterministic_riskless_estimate(self):
        m = VectorModel(theta=[0.0], nu=[1e-300], drift=[[0.0]], rho=[0.0], v0=[0.0],
                        gamma=0.5, kernel=[Kernel.constant(1.0)], rate=0.02)
        grid = TimeGrid(1.0, 50)
        cfg = SimConfig(n_paths=16, seed=61)
        bundle = simulate_vector(m, grid, cfg)
        est = mc_utility(m, zero_strategy(grid, 1), cfg, 1.0, bundle=bundle)
        assert est.mean == pytest.approx(2.0 * np.exp(0.01), rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_antithetic_reduces_stderr(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 100)
        phi = solve_riccati_vector(m.kernel, vector_rhs_general(m), grid)
        strat = strategy_general(m, phi)
        plain = mc_utility(m, strat, SimConfig(n_paths=4000, seed=67), 1.0)
        anti = mc_utility(m, strat, SimConfig(n_paths=4000, seed=67, antithetic=True), 1.0)
        assert anti.stderr < plain.stderr


def exposure_reference(bundle, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pi_n' Sigma_n^(1/2) (pi_n sqrt(V_n^+) for vector bundles) at the left nodes, and the asset increments."""
    if bundle.roots is None:
        return pis * np.sqrt(np.maximum(bundle.states[:, :-1], 0.0)), bundle.increments["w1"]
    return np.einsum("pnab,nb->pna", bundle.roots, pis), bundle.asset_noise


def wealth_reference(model, strategy: StrategyPath, bundle, x0: float) -> np.ndarray:
    """Terminal wealth from whole (n_paths, n_steps) arrays, the log-growth summed in one go."""
    dt = bundle.grid.dt
    pis = strategy.weights[:-1]
    rates = rate_on_grid(model.rate, bundle.grid)[:-1]
    if bundle.roots is None:
        drift = np.einsum("pna,na->pn", bundle.states[:, :-1], pis * model.theta)
    else:
        drift = np.einsum("pnba,nb,a->pn", bundle.states[:, :-1], pis, model.market_price)
    vol, noise = exposure_reference(bundle, pis)
    quad, mart = np.sum(vol * vol, axis=2), np.sum(vol * noise, axis=2)
    return x0 * np.exp(np.sum((rates + drift - 0.5 * quad) * dt + mart, axis=1))


def estimate_reference(samples: np.ndarray, antithetic: bool) -> tuple[float, float]:
    if antithetic:
        samples = 0.5 * (samples[0::2] + samples[1::2])
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(len(samples)))


def martingale_reference(model, strategy: StrategyPath, bundle) -> tuple[float, float]:
    vol, noise = exposure_reference(bundle, strategy.weights[:-1])
    gamma = model.gamma
    log_z = gamma * np.sum(vol * noise, axis=(1, 2)) - 0.5 * gamma**2 * np.sum(vol * vol * bundle.grid.dt, axis=(1, 2))
    return estimate_reference(np.exp(log_z), bundle.config.antithetic)


def compare_reference(model, better: StrategyPath, worse: StrategyPath, bundle) -> tuple[float, float]:
    def utility(strategy):
        return wealth_reference(model, strategy, bundle, 1.0) ** model.gamma / model.gamma
    diff = utility(better) - utility(worse)
    vol, noise = exposure_reference(bundle, np.ones((bundle.grid.n_steps, bundle.states.shape[2])))
    control = np.sum(vol * noise, axis=(1, 2))
    if bundle.config.antithetic:
        diff, control = 0.5 * (diff[0::2] + diff[1::2]), 0.5 * (control[0::2] + control[1::2])
    diff = diff - np.cov(diff, control, ddof=1)[0, 1] / np.var(control, ddof=1) * control
    return estimate_reference(diff, False)


def varying_strategy(grid: TimeGrid, d: int, scale: float) -> StrategyPath:
    # weights that change at every node, so a step read against the wrong weight shows
    t = grid.nodes[:, None]
    w = scale * (0.6 + 0.4 * np.sin(7.0 * t + np.arange(d)))
    return StrategyPath(grid, w, np.zeros_like(w), w[-1].copy())


class TestPathIntegralsAgainstWholeArrays:
    """Wealth, the martingale diagnostic and the paired comparison sum each
    path's per-node terms in step order; they must match sums over whole
    arrays."""

    @staticmethod
    def vector_bundle(n_paths: int):
        m = VectorModel(theta=[1.0, 0.8], nu=[0.5, 0.4], drift=[[-1.0, 0.3], [0.2, -1.2]],
                        rho=[-0.6, -0.3], v0=[0.04, 0.06], b0=[0.02, 0.01], gamma=0.5,
                        kernel=[Kernel.fractional(1.0, 0.95), Kernel.fractional(1.0, 0.6)],
                        rate=lambda t: 0.02 + 0.04 * t)
        grid = TimeGrid(0.5, 150)
        return m, simulate_vector(m, grid, SimConfig(n_paths=n_paths, seed=13))

    @staticmethod
    def wishart_bundle(n_paths: int):
        m = make_wishart(alphas=(0.95, 0.6), rate=0.03)
        grid = TimeGrid(0.5, 150)
        return m, simulate_wishart(m, grid, SimConfig(n_paths=n_paths, seed=17, antithetic=True))

    @pytest.mark.parametrize("n_paths", [1000, 64])
    @pytest.mark.parametrize("kind", ["vector", "wishart"])
    def test_match_whole_array_references(self, kind, n_paths):
        m, bundle = getattr(self, f"{kind}_bundle")(n_paths)
        d = bundle.states.shape[2]
        best = varying_strategy(bundle.grid, d, 1.0)
        worse = varying_strategy(bundle.grid, d, 0.4)
        np.testing.assert_allclose(simulate_wealth(m, best, bundle, 2.0),
                                   wealth_reference(m, best, bundle, 2.0), rtol=1e-14, atol=0.0)
        est = martingale_diagnostic(m, best, bundle.config, bundle=bundle)
        np.testing.assert_allclose([est.mean, est.stderr], martingale_reference(m, best, bundle), rtol=1e-14, atol=0.0)
        est = compare_strategies(m, best, worse, bundle, 1.0)
        np.testing.assert_allclose([est.mean, est.stderr], compare_reference(m, best, worse, bundle),
                                   rtol=1e-14, atol=0.0)

    @staticmethod
    def three_asset_bundle(n_paths: int):
        m = three_asset_wishart()
        return m, simulate_wishart(m, TimeGrid(0.5, 150), SimConfig(n_paths=n_paths, seed=19, psd_floor=0.01))

    @pytest.mark.parametrize("kind", ["vector", "wishart", "three_asset"])
    def test_wealth_sums_in_step_order(self, kind):
        # each path's log-growth is its terms added node by node in step order, starting at 0; the terms
        # are formed on whole (n_paths, n_steps) arrays in the wealth's arithmetic
        m, bundle = getattr(self, f"{kind}_bundle")(66)
        grid = bundle.grid
        best = varying_strategy(grid, bundle.states.shape[2], 1.0)
        pis = best.weights[:-1]
        rates = rate_on_grid(m.rate, grid)[:-1]
        states = bundle.states[:, :-1]
        if bundle.roots is None:
            vol, noise = pis * np.sqrt(np.maximum(states, 0.0)), bundle.increments["w1"]
            drift = np.einsum("...a,...a->...", states, pis * m.theta)
        else:
            vol, noise = bundle.roots[..., 0] * pis[:, None, 0], bundle.asset_noise
            for b in range(1, pis.shape[1]):
                vol += bundle.roots[..., b] * pis[:, None, b]
            weights = (pis[:, :, None] * m.market_price).reshape(grid.n_steps, -1)
            drift = np.einsum("...a,...a->...", states.reshape(len(states), grid.n_steps, -1), weights)
        quad, mart = np.einsum("...a,...a->...", vol, vol), np.einsum("...a,...a->...", vol, noise)
        terms = (rates + drift - 0.5 * quad) * grid.dt + mart
        log_growth = np.zeros(len(terms))
        for j in range(grid.n_steps):
            log_growth += terms[:, j]
        assert np.array_equal(simulate_wealth(m, best, bundle, 2.0), 2.0 * np.exp(log_growth))


class TestStreaming:
    """Without a bundle, mc_utility and martingale_diagnostic take each node's
    terms from the step loop as it writes the node; their estimates and clip
    counts must keep the bundle route's bits."""

    @staticmethod
    def hexes(est) -> tuple:
        return est.mean.hex(), est.stderr.hex(), est.n_paths, est.psd_violation_count

    @pytest.mark.parametrize("case", ["heston", "heston_antithetic", "two_asset", "bpt10", "three_asset"])
    def test_streamed_estimates_equal_the_bundles(self, case):
        two_asset = VectorModel(theta=[1.0, 0.8], nu=[0.5, 0.4], drift=[[-1.0, 0.3], [0.2, -1.2]],
                                rho=[-0.6, -0.3], v0=[0.04, 0.06], b0=[0.02, 0.01], gamma=0.5,
                                kernel=[Kernel.fractional(1.0, 0.8), Kernel.gamma(1.0, 1.0, 0.6)],
                                rate=lambda t: 0.02 + 0.04 * t)
        m, grid, cfg = {
            "heston": (make_rough_heston(), TimeGrid(0.25, 120), SimConfig(n_paths=301, seed=3)),
            "heston_antithetic": (make_rough_heston(), TimeGrid(0.25, 120),
                                  SimConfig(n_paths=602, seed=5, antithetic=True, variance_floor=0.01)),
            "two_asset": (two_asset, TimeGrid(0.5, 150), SimConfig(n_paths=201, seed=7)),
            "bpt10": (make_wishart(), TimeGrid(1.0, 100), SimConfig(n_paths=200, seed=9, antithetic=True, psd_floor=0.2)),
            "three_asset": (three_asset_wishart(), TimeGrid(0.5, 80), SimConfig(n_paths=65, seed=19, psd_floor=0.01)),
        }[case]
        strategy = varying_strategy(grid, m.d, 1.0)
        bundle = simulate.simulate_bundle(m, grid, cfg)
        assert bundle.psd_violation_count > 0
        held = mc_utility(m, strategy, cfg, 1.0, bundle=bundle)
        assert self.hexes(mc_utility(m, strategy, cfg, 1.0)) == self.hexes(held)
        assert held.psd_violation_count == bundle.psd_violation_count
        held = martingale_diagnostic(m, strategy, cfg, bundle=bundle)
        assert self.hexes(martingale_diagnostic(m, strategy, cfg)) == self.hexes(held)

    @pytest.mark.parametrize("kind, field", [("vector", "psd_floor"), ("wishart", "variance_floor")])
    def test_a_floor_the_model_does_not_read_is_refused(self, kind, field):
        m = make_rough_heston() if kind == "vector" else make_wishart()
        grid = TimeGrid(0.25, 10)
        cfg = SimConfig(n_paths=4, **{field: 0.5})
        own = "variance_floor" if kind == "vector" else "psd_floor"
        message = f"{field} must be 0 for a {kind} model, which is clipped at {own}"
        for call in (
            lambda: simulate.simulate_bundle(m, grid, cfg),
            lambda: mc_utility(m, varying_strategy(grid, m.d, 1.0), cfg, 1.0),
        ):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == message


class TestMemoryPeaks:
    """tracemalloc peaks of a vector bundle, of its wealth and of a streamed
    utility, in units of A, the bytes of one (n_paths, n_steps + 1, d)
    float64 array, and of a Wishart bundle, in units of B, the bytes of one
    (n_paths, n_steps + 1, d, d) float64 array.

    The vector bundle's draws take 2 A (W1 and W2 are views of them), the
    states A and the history A, plus the share pulled into the sums of the
    next SUB nodes; the bundle hands out views of the draws and the states,
    with no path-major copy.  On 300 steps no history block closes, so there
    is no closed-share array.  The wealth reads the bundle's rows node by
    node, so its temporaries are a few length-n_paths rows.  A streamed
    utility keeps the draws and the history but the states of two nodes only.
    """

    def test_vector_bundle_and_wealth(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 300)
        cfg = SimConfig(n_paths=2000, seed=3)
        a = cfg.n_paths * (grid.n_steps + 1) * m.d * 8
        strategy = StrategyPath(grid, np.full((grid.n_steps + 1, 1), 0.5), np.zeros((grid.n_steps + 1, 1)),
                                np.array([0.5]))
        tracemalloc.start()
        try:
            bundle = simulate_vector(m, grid, cfg)
            _, vector_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            simulate_wealth(m, strategy, bundle, 1.0)
            _, wealth_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vector_peak < 4.5 * a
        assert wealth_peak - held < 0.1 * a

    def test_streamed_utility(self):
        m = make_rough_heston()
        grid = TimeGrid(0.25, 300)
        cfg = SimConfig(n_paths=2000, seed=3)
        a = cfg.n_paths * (grid.n_steps + 1) * m.d * 8
        strategy = varying_strategy(grid, m.d, 0.5)
        tracemalloc.start()
        try:
            mc_utility(m, strategy, cfg, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.3 * a

    def test_wishart_bundle(self):
        # the draws take 1.5 B, the states B, the roots B and the history B, plus the pulled share; the
        # steps read dW in place and the bundle hands out views, so there is neither a time-major copy of
        # dW nor path-major copies of the states and roots (5.6 B with them)
        m = make_wishart(alpha=0.75)
        grid = TimeGrid(0.25, 300)
        cfg = SimConfig(n_paths=2000, seed=3)
        b = cfg.n_paths * (grid.n_steps + 1) * m.d * m.d * 8
        tracemalloc.start()
        try:
            simulate_wishart(m, grid, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.0 * b
