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
    bits = np.random.Philox(key=cfg.seed)
    gen = np.random.Generator(bits)
    state = bits.state  # a fresh generator's: empty buffer, no cached half word
    for stream in range(n_streams):
        state["state"]["counter"] = np.array([0, 0, stream, 0], dtype=np.uint64)  # stream * 2**128
        bits.state = state
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
    with w the exact kernel cell integrals and dB built step by step from the
    retained (W1, W2) increments through the leverage correlation.  The
    history is kept component-major, (d, n_steps, n_paths), so that each
    node's sum is one BLAS product.  Components are clipped at variance_floor
    after each update (clip count recorded).
    """
    d = model.d
    n_steps = grid.n_steps
    dt = grid.dt
    sq_dt = np.sqrt(dt)
    raw = _normals(cfg, n_steps, 2 * d)
    w1 = raw[:, :, :d] * sq_dt
    w2 = raw[:, :, d:] * sq_dt
    rho = model.rho[:, None]
    orth = np.sqrt(1.0 - rho**2)
    rows = stack_weights([kernel_weights(k, grid) for k in model.kernel]).cell[:, ::-1].copy()
    forced = model.input_curve(grid)
    states = np.empty((cfg.n_paths, n_steps + 1, d))
    states[:, 0, :] = forced[0]
    hist = np.empty((d, n_steps, cfg.n_paths))  # D V + nu sqrt(V) dB / dt, per component and node
    clipped = 0
    floor = cfg.variance_floor
    drift = model.drift
    nu = model.nu[:, None]
    v = np.repeat(forced[0][:, None], cfg.n_paths, axis=1)  # the state component-major, (d, n_paths)
    for n in range(1, n_steps + 1):
        db = rho * w1[:, n - 1].T + orth * w2[:, n - 1].T
        hist[:, n - 1] = drift @ v + nu * np.sqrt(np.maximum(v, 0.0)) * db / dt
        v = forced[n][:, None] + history_sum(rows[:, n_steps - n :], hist[:, :n])  # rows weigh nodes 0..n-1
        clipped += int(np.count_nonzero(v < floor))
        np.maximum(v, floor, out=v)
        if not np.all(np.isfinite(v)):
            bad = int(np.nonzero(~np.isfinite(v).all(axis=0))[0][0])
            raise SimulationError(f"non-finite variance at step {n}", path_index=bad)
        states[:, n, :] = v.T
    return PathBundle(
        grid=grid,
        states=states,
        increments={"w1": w1, "w2": w2},
        psd_violation_count=clipped,
        config=cfg,
    )


def _sym2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The batch of symmetric 2x2 matrices [[a, b], [b, c]]."""
    out = np.empty(a.shape + (2, 2))
    out[:, 0, 0] = a
    out[:, 0, 1] = out[:, 1, 0] = b
    out[:, 1, 1] = c
    return out


def _psd_clip_2x2(mats: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, int]:
    """``_psd_clip`` by closed forms for a batch of symmetric 2x2 matrices S.

    The eigenvalues are m -+ r with m = (a + c)/2, r = hypot((a - c)/2, b).  A
    clipped S is rebuilt from its spectral projectors, lo P_lo + hi P_hi with
    P_hi = (S - lo I)/(2r) (S = m I when r = 0), and the root of a PSD S with
    eigenvalues l1, l2 is (S + sqrt(l1 l2) I)/(sqrt(l1) + sqrt(l2)), or 0.
    """
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    lo, hi = mid - rad, mid + rad
    n_below = int(np.count_nonzero(lo < floor)) + int(np.count_nonzero(hi < floor))
    clip = lo < floor
    if clip.any():
        lo_c, hi_c = np.maximum(lo, floor), np.maximum(hi, floor)
        scale = np.divide(hi_c - lo_c, 2.0 * rad, out=np.zeros_like(rad), where=rad > 0.0)
        a = np.where(clip, lo_c + scale * (a - lo), a)
        b = np.where(clip, scale * b, b)
        c = np.where(clip, lo_c + scale * (c - lo), c)
        mats = _sym2(a, b, c)
        lo, hi = lo_c, hi_c
    sq_lo, sq_hi = np.sqrt(lo), np.sqrt(hi)
    denom = sq_lo + sq_hi
    inv = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0.0)
    shift = sq_lo * sq_hi
    return mats, _sym2((a + shift) * inv, b * inv, (c + shift) * inv), n_below


def _psd_clip(mats: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenvalue-clip a batch of symmetric matrices at floor; also return their roots.

    Matrices with no eigenvalue below the floor are returned as given.  2x2
    batches use closed forms, others a batched ``eigh``.
    """
    if mats.shape[-1] == 2:
        return _psd_clip_2x2(mats, floor)
    vals, vecs = np.linalg.eigh(mats)
    below = vals < floor
    vals = np.maximum(vals, floor)
    vecs_t = vecs.swapaxes(-1, -2)
    clip = below.any(axis=-1)
    if clip.any():
        mats = np.where(clip[:, None, None], (vecs * vals[:, None, :]) @ vecs_t, mats)
    return mats, (vecs * np.sqrt(vals)[:, None, :]) @ vecs_t, int(np.count_nonzero(below))


def simulate_wishart(model: WishartModel, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    """Left-point Euler convolution scheme for the matrix Volterra equation.

    Sigma_n = Sigma0 + sym(sum_{j<n} Z_j K) with Z_j = drift_j + 2 noise_j^T,
    drift_j = N N^T + M Sigma_j + Sigma_j M^T and noise_j = Sigma_j^(1/2) dW_j Q / dt,
    column i weighted by the cell integrals of K_i.  As sym(A^T) = sym(A), this
    equals the scheme's row-weighted drift + noise plus the transposed
    row-weighted noise, for distinct kernels too.  The history holds Z_j
    component-major, column i of every path's Z_j in row i of a
    (d, n_steps, n_paths * d) buffer, so that each node's sum is one BLAS
    product; the step algebra is matrix products too.  Eigenvalues are
    clipped at psd_floor (count recorded): for d = 2 by closed forms, else
    by a batched ``eigh``; a state with no eigenvalue below the floor is kept
    as computed.  The roots of the states are kept in the bundle, with the
    assets' increments, for wealth and diagnostics.
    """
    d = model.d
    p = cfg.n_paths
    n_steps = grid.n_steps
    dt = grid.dt
    sq_dt = np.sqrt(dt)
    raw = _normals(cfg, n_steps, d * d + d)
    dws = raw[:, :, : d * d].reshape(p, n_steps, d, d) * sq_dt
    dbs = raw[:, :, d * d :] * sq_dt
    rows = stack_weights([kernel_weights(k, grid) for k in model.kernel]).cell[:, ::-1].copy()
    nnt = model.drift_constant
    M = model.mean_reversion
    Q = model.vol_of_vol
    states = np.empty((p, n_steps + 1, d, d))
    states[:, 0] = model.sigma0
    roots = np.empty((p, n_steps + 1, d, d))  # Sigma^(1/2) at every node
    roots[:, 0] = _psd_clip(model.sigma0[None], cfg.psd_floor)[1]
    hist = np.empty((d, n_steps, p, d))  # hist[i, j, path, a] = Z_j[path, a, i]
    clipped = 0
    sigma, root = states[:, 0], roots[:, 0]
    for n in range(1, n_steps + 1):
        sig_mt = (sigma.reshape(-1, d) @ M.T).reshape(p, d, d)  # Sigma M^T; M Sigma is its transpose, Sigma being symmetric
        noise = ((root @ dws[:, n - 1]).reshape(-1, d) @ Q).reshape(p, d, d)
        z_t = nnt.T + sig_mt + sig_mt.transpose(0, 2, 1) + noise * (2.0 / dt)  # Z_j^T
        hist[:, n - 1] = z_t.transpose(1, 0, 2)
        sums = history_sum(rows[:, n_steps - n :], hist[:, :n].reshape(d, n, p * d)).reshape(d, p, d)
        sigma = model.sigma0 + sums.transpose(1, 2, 0)
        sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
        if not np.all(np.isfinite(sigma)):
            bad = int(np.nonzero(~np.isfinite(sigma).reshape(p, -1).all(axis=1))[0][0])
            raise SimulationError(f"non-finite covariance at step {n}", path_index=bad)
        sigma, root, n_below = _psd_clip(sigma, cfg.psd_floor)
        clipped += n_below
        states[:, n] = sigma
        roots[:, n] = root
    rho = model.rho
    orth = float(np.sqrt(max(0.0, 1.0 - rho @ rho)))
    return PathBundle(
        grid=grid,
        states=states,
        increments={"w_sigma": dws, "b": dbs},
        psd_violation_count=clipped,
        config=cfg,
        roots=roots[:, :-1],
        asset_noise=orth * dbs + dws @ rho,
    )


def _exposure(bundle: PathBundle, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows pi_n' Sigma_n^(1/2) at the left nodes and the asset increments they multiply.

    Both are (n_paths, n_steps, d); vector bundles give pi_n sqrt(V_n^+) and W1.
    """
    if bundle.roots is None:
        return pis * np.sqrt(np.maximum(bundle.states[:, :-1], 0.0)), bundle.increments["w1"]
    return (bundle.roots @ pis[:, :, None])[..., 0], bundle.asset_noise


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of x and y along the last axis, the other axes broadcast."""
    return np.einsum("...a,...a->...", x, y)


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
        drift = _row_dot(bundle.states[:, :-1, :], pis * model.theta)  # sum of pi_i theta_i V_i
    elif isinstance(model, WishartModel):
        p, n, d = bundle.asset_noise.shape
        weights = pis[:, :, None] * model.market_price  # v' Sigma pi = sum over (b, a) of pi_b v_a Sigma_ba
        drift = _row_dot(bundle.states[:, :-1].reshape(p, n, d * d), weights.reshape(n, d * d))
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")
    vol, noise = _exposure(bundle, pis)
    log_growth = np.sum((rates[None, :] + drift - 0.5 * _row_dot(vol, vol)) * dt + _row_dot(vol, noise), axis=1)
    with np.errstate(over="ignore"):  # an overflowing wealth is reported as a non-finite metric
        return x0 * np.exp(log_growth)


def _estimate(samples: np.ndarray, antithetic: bool) -> McEstimate:
    if antithetic:
        paired = 0.5 * (samples[0::2] + samples[1::2])
        samples = paired
    n = samples.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # infinite samples give non-finite metrics
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


def _martingale_control(bundle: PathBundle) -> np.ndarray:
    """A per-path functional with exactly zero mean (a discrete martingale).

    Used as a regression control variate in common-random-number strategy
    comparisons: the integrated volatility-weighted noise dominates the
    variance of utility differences but not their mean.
    """
    vol, noise = _exposure(bundle, np.ones((bundle.grid.n_steps, bundle.states.shape[2])))
    return _row_dot(vol, noise).sum(axis=1)


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
    control = _martingale_control(bundle)
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
    vol, noise = _exposure(bundle, strategy.weights[:-1])
    mart = _row_dot(vol, noise)
    quad = _row_dot(vol, vol)
    log_z = gamma * mart.sum(axis=1) - 0.5 * gamma**2 * (quad * dt).sum(axis=1)
    return _estimate(np.exp(log_z), bundle.config.antithetic)
