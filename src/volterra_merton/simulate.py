"""Monte Carlo simulation of the Volterra volatility models and wealth.

The volatility convolution equations are discretized with the left-point
Euler convolution scheme: exact kernel cell integrals weight the past drift
and (scaled by 1/dt) the past Brownian increments, so singular kernels never
get evaluated at lag zero.  Gaussian draws come from counter-based Philox
streams keyed by (seed, path), giving bit-reproducible bundles and safe
parallelism across paths; antithetic pairs share one stream with flipped
signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import TimeGrid, history_sum, kernel_weights, stack_weights
from .merton import StrategyPath
from .models import VectorModel, WishartModel, rate_on_grid

__all__ = [
    "SimConfig",
    "PathBundle",
    "McEstimate",
    "SimulationError",
    "simulate_vector",
    "simulate_wishart",
    "simulate_wealth",
    "simulate_bundle",
    "utility_samples",
    "mc_utility",
    "compare_strategies",
    "martingale_diagnostic",
]


class SimulationError(RuntimeError):
    """A path produced non-finite values."""

    def __init__(self, message: str, path_index: int | None = None):
        super().__init__(message)
        self.path_index = path_index


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls.

    psd_floor / variance_floor are the clip levels for matrix eigenvalues and
    vector variance components; antithetic pairs paths (2k, 2k+1) on mirrored
    draws.
    """

    n_paths: int
    seed: int = 42
    psd_floor: float = 0.0
    variance_floor: float = 0.0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must lie in [0, 2**128), the Philox key range")
        if self.psd_floor < 0.0 or self.variance_floor < 0.0:
            raise ValueError("clip floors must be nonnegative")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ValueError("antithetic sampling needs an even path count")


@dataclass(frozen=True)
class PathBundle:
    """Simulated volatility states plus the driving increments.

    ``states`` is (n_paths, n_nodes, d) for the vector model and
    (n_paths, n_nodes, d, d) for the matrix model.  Increments are retained
    so wealth simulation can reuse the exact same noise (common random
    numbers, correct leverage correlation).

    Matrix bundles also keep, at the left nodes t_0..t_{n-1}, the roots
    Sigma^(1/2) (n_paths, n_steps, d, d) and the assets' Brownian increments
    (n_paths, n_steps, d), so that wealth and diagnostics do not decompose
    the states again; both are None for vector bundles.
    """

    grid: TimeGrid
    states: np.ndarray
    increments: dict[str, np.ndarray]
    psd_violation_count: int
    config: SimConfig
    roots: np.ndarray | None = None
    asset_noise: np.ndarray | None = None


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int

    def z_score(self, reference: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.mean == reference else float("inf")
        return (self.mean - reference) / self.stderr


def _normals(cfg: SimConfig, n_steps: int, per_step: int) -> np.ndarray:
    """Standard normal draws, shape (n_paths, n_steps, per_step).

    Each independent stream is a Philox generator keyed by the seed with the
    stream index in the counter's high bits; antithetic odd paths reuse the
    preceding even stream negated.
    """
    n_streams = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    out = np.empty((cfg.n_paths, n_steps, per_step))
    for stream in range(n_streams):
        gen = np.random.Generator(np.random.Philox(key=cfg.seed, counter=stream * 2**128))
        draw = gen.standard_normal((n_steps, per_step))
        if cfg.antithetic:
            out[2 * stream] = draw
            out[2 * stream + 1] = -draw
        else:
            out[stream] = draw
    return out


def simulate_vector(model: VectorModel, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    """Left-point Euler convolution scheme for the square-root Volterra process.

    V(t_n) = v0(t_n) + sum_{j<n} w[n-1-j] (D V_j + nu sqrt(V_j^+) dB_j / dt),
    with w the exact kernel cell integrals and dB built from the retained
    (W1, W2) increments through the leverage correlation.  Components are
    clipped at variance_floor after each update (clip count recorded).
    """
    d = model.d
    n_steps = grid.n_steps
    dt = grid.dt
    sq_dt = np.sqrt(dt)
    raw = _normals(cfg, n_steps, 2 * d)
    w1 = raw[:, :, :d] * sq_dt
    w2 = raw[:, :, d:] * sq_dt
    rho = model.rho
    db = rho * w1 + np.sqrt(1.0 - rho**2) * w2
    cell = stack_weights([kernel_weights(k, grid) for k in model.kernel]).cell  # (n_steps, d)
    forced = model.input_curve(grid)
    states = np.empty((cfg.n_paths, n_steps + 1, d))
    states[:, 0, :] = forced[0]
    shocks = np.empty((n_steps, cfg.n_paths, d))  # D V + nu sqrt(V) dB / dt, per node
    clipped = 0
    floor = cfg.variance_floor
    drift = model.drift
    nu = model.nu
    for n in range(1, n_steps + 1):
        v_prev = states[:, n - 1, :]
        shocks[n - 1] = v_prev @ drift.T + nu * np.sqrt(np.maximum(v_prev, 0.0)) * db[:, n - 1, :] / dt
        vn = forced[n] + history_sum(cell[n - 1 :: -1], shocks[:n])
        below = vn < floor
        clipped += int(np.count_nonzero(below))
        np.maximum(vn, floor, out=vn)
        if not np.all(np.isfinite(vn)):
            bad = int(np.nonzero(~np.isfinite(vn).all(axis=1))[0][0])
            raise SimulationError(f"non-finite variance at step {n}", path_index=bad)
        states[:, n, :] = vn
    return PathBundle(
        grid=grid,
        states=states,
        increments={"w1": w1, "w2": w2},
        psd_violation_count=clipped,
        config=cfg,
    )


def _psd_clip(mats: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenvalue-clip a batch of symmetric matrices; also return sqrt(mats)."""
    vals, vecs = np.linalg.eigh(mats)
    n_below = int(np.count_nonzero(vals < floor))
    vals = np.maximum(vals, floor)
    clipped = np.einsum("pab,pb,pcb->pac", vecs, vals, vecs)
    roots = np.einsum("pab,pb,pcb->pac", vecs, np.sqrt(vals), vecs)
    return clipped, roots, n_below


def simulate_wishart(model: WishartModel, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    """Left-point Euler convolution scheme for the matrix Volterra equation.

    Sigma_n = Sigma0 + sym(sum_{j<n} Z_j K) with Z_j = drift_j + 2 noise_j^T,
    column i weighted by the cell integrals of K_i.  As sym(A^T) = sym(A), this
    equals the scheme's row-weighted drift + noise plus the transposed
    row-weighted noise, for distinct kernels too.  Eigenvalues are clipped at
    psd_floor (count recorded); the roots from the same eigendecomposition are
    kept in the bundle, with the assets' increments, for wealth and diagnostics.
    """
    d = model.d
    n_steps = grid.n_steps
    dt = grid.dt
    sq_dt = np.sqrt(dt)
    raw = _normals(cfg, n_steps, d * d + d)
    dws = raw[:, :, : d * d].reshape(cfg.n_paths, n_steps, d, d) * sq_dt
    dbs = raw[:, :, d * d :] * sq_dt
    cell = stack_weights([kernel_weights(k, grid) for k in model.kernel]).cell  # (n_steps, d)
    nnt = model.drift_constant
    M = model.mean_reversion
    Q = model.vol_of_vol
    states = np.empty((cfg.n_paths, n_steps + 1, d, d))
    states[:, 0] = model.sigma0
    roots = np.empty((cfg.n_paths, n_steps + 1, d, d))  # Sigma^(1/2) at every node
    roots[:, 0] = _psd_clip(model.sigma0[None], cfg.psd_floor)[1]
    hist = np.empty((n_steps, cfg.n_paths, d, d))  # Z_j, one slice per node
    clipped = 0
    for n in range(1, n_steps + 1):
        prev = states[:, n - 1]
        drift = nnt + np.einsum("ab,pbc->pac", M, prev) + np.einsum("pab,cb->pac", prev, M)
        noise_t = np.einsum("pab,pbc,cd->pda", roots[:, n - 1], dws[:, n - 1], Q)  # (root dW Q)^T
        hist[n - 1] = drift + noise_t * (2.0 / dt)
        sigma = model.sigma0 + history_sum(cell[n - 1 :: -1], hist[:n])
        sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
        if not np.all(np.isfinite(sigma)):
            bad = int(np.nonzero(~np.isfinite(sigma).reshape(cfg.n_paths, -1).all(axis=1))[0][0])
            raise SimulationError(f"non-finite covariance at step {n}", path_index=bad)
        sigma, roots[:, n], n_below = _psd_clip(sigma, cfg.psd_floor)
        clipped += n_below
        states[:, n] = sigma
    rho = model.rho
    orth = float(np.sqrt(max(0.0, 1.0 - rho @ rho)))
    return PathBundle(
        grid=grid,
        states=states,
        increments={"w_sigma": dws, "b": dbs},
        psd_violation_count=clipped,
        config=cfg,
        roots=roots[:, :-1],
        asset_noise=orth * dbs + np.einsum("pnab,b->pna", dws, rho),
    )


def simulate_wealth(model, strategy: StrategyPath, bundle: PathBundle, x0: float) -> np.ndarray:
    """Terminal wealth per path from the explicit log-form solution.

    Reuses the bundle's increments, preserving the leverage correlation
    between the asset noise and the volatility noise.  Integrals are
    discretized left-point, consistently with the volatility scheme.
    """
    if strategy.grid.n_steps != bundle.grid.n_steps or strategy.grid.horizon != bundle.grid.horizon:
        raise ValueError("strategy and bundle must share one grid")
    grid = bundle.grid
    dt = grid.dt
    rates = rate_on_grid(model.rate, grid)[:-1]
    pis = strategy.weights[:-1]  # left-point weights
    if isinstance(model, VectorModel):
        v = bundle.states[:, :-1, :]  # (p, n, d)
        drift = (pis * v * model.theta).sum(axis=2)  # sum of pi_i theta_i V_i
        quad = (pis**2 * v).sum(axis=2)
        diff = (pis * np.sqrt(np.maximum(v, 0.0)) * bundle.increments["w1"]).sum(axis=2)
    elif isinstance(model, WishartModel):
        sig_pi = np.einsum("pnab,nb->pna", bundle.states[:, :-1], pis)
        drift = np.einsum("pna,a->pn", sig_pi, model.market_price)
        root_pi = np.einsum("pnab,nb->pna", bundle.roots, pis)
        quad = np.einsum("pna,pna->pn", root_pi, root_pi)
        diff = np.einsum("pna,pna->pn", root_pi, bundle.asset_noise)
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    log_growth = np.sum((rates[None, :] + drift - 0.5 * quad) * dt + diff, axis=1)
    return x0 * np.exp(log_growth)


def _estimate(samples: np.ndarray, antithetic: bool) -> McEstimate:
    if antithetic:
        paired = 0.5 * (samples[0::2] + samples[1::2])
        samples = paired
    n = samples.shape[0]
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, n_paths=n)


def utility_samples(model, strategy: StrategyPath, bundle: PathBundle, x0: float) -> np.ndarray:
    """Per-path power utility X_T^gamma / gamma (for paired comparisons)."""
    xt = simulate_wealth(model, strategy, bundle, x0)
    return xt**model.gamma / model.gamma


def mc_utility(
    model,
    strategy: StrategyPath,
    cfg: SimConfig,
    x0: float,
    bundle: PathBundle | None = None,
) -> McEstimate:
    """Monte Carlo estimate of E[X_T^gamma / gamma] under a strategy.

    Pass an existing bundle to compare strategies under common random
    numbers; otherwise the volatility paths are simulated from cfg.
    """
    if bundle is None:
        bundle = simulate_bundle(model, strategy.grid, cfg)
    return _estimate(utility_samples(model, strategy, bundle, x0), bundle.config.antithetic)


def simulate_bundle(model, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    if isinstance(model, VectorModel):
        return simulate_vector(model, grid, cfg)
    if isinstance(model, WishartModel):
        return simulate_wishart(model, grid, cfg)
    raise TypeError(f"unsupported model type {type(model)!r}")


def _martingale_control(model, bundle: PathBundle) -> np.ndarray:
    """A per-path functional with exactly zero mean (a discrete martingale).

    Used as a regression control variate in common-random-number strategy
    comparisons: the integrated volatility-weighted noise dominates the
    variance of utility differences but not their mean.
    """
    if isinstance(model, VectorModel):
        v = bundle.states[:, :-1, :]
        w1 = bundle.increments["w1"]
        return (np.sqrt(np.maximum(v, 0.0)) * w1).sum(axis=(1, 2))
    return np.einsum("pnab,pnb->p", bundle.roots, bundle.asset_noise)


def compare_strategies(
    model,
    better: StrategyPath,
    worse: StrategyPath,
    bundle: PathBundle,
    x0: float,
) -> McEstimate:
    """Paired CRN estimate of E[U(better)] - E[U(worse)].

    Both strategies are evaluated on the same bundle; the paired difference
    is regression-adjusted by the zero-mean martingale control, the standard
    sharpening for common-random-number comparisons.  A positive mean beyond
    a few standard errors certifies the ordering.
    """
    diff = utility_samples(model, better, bundle, x0) - utility_samples(model, worse, bundle, x0)
    control = _martingale_control(model, bundle)
    if bundle.config.antithetic:
        diff = 0.5 * (diff[0::2] + diff[1::2])
        control = 0.5 * (control[0::2] + control[1::2])
    var_c = float(np.var(control, ddof=1)) if control.shape[0] > 1 else 0.0
    if var_c > 0.0:
        beta = float(np.cov(diff, control, ddof=1)[0, 1]) / var_c
        diff = diff - beta * control
    return _estimate(diff, antithetic=False)


def martingale_diagnostic(
    model,
    strategy: StrategyPath,
    cfg: SimConfig,
    bundle: PathBundle | None = None,
) -> McEstimate:
    """E[Z_T] for the stochastic exponential built from the strategy.

    Z_T = exp(g int pi' Sigma^(1/2) dW - g^2/2 int |pi' Sigma^(1/2)|^2 dt);
    the discrete estimator has exact unit conditional means, so any bias in
    the reported mean is pure Monte Carlo error.
    """
    if bundle is None:
        bundle = simulate_bundle(model, strategy.grid, cfg)
    grid = bundle.grid
    dt = grid.dt
    gamma = model.gamma
    pis = strategy.weights[:-1]
    if isinstance(model, VectorModel):
        v = bundle.states[:, :-1, :]
        w1 = bundle.increments["w1"]
        vol_rows = pis * np.sqrt(np.maximum(v, 0.0))
        mart = np.einsum("pna,pna->pn", vol_rows, w1)
        quad = np.einsum("pna,pna->pn", vol_rows, vol_rows)
    else:
        root_pi = np.einsum("pnab,nb->pna", bundle.roots, pis)
        mart = np.einsum("pna,pna->pn", root_pi, bundle.asset_noise)
        quad = np.einsum("pna,pna->pn", root_pi, root_pi)
    log_z = gamma * mart.sum(axis=1) - 0.5 * gamma**2 * (quad * dt).sum(axis=1)
    return _estimate(np.exp(log_z), bundle.config.antithetic)
