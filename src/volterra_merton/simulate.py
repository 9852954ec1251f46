"""Monte Carlo simulation of the Volterra volatility models and wealth.

The volatility convolution equations are discretized with the left-point
Euler convolution scheme: exact kernel cell integrals weight the past drift
and (scaled by 1/dt) the past Brownian increments, so singular kernels never
get evaluated at lag zero.  Gaussian draws come from counter-based Philox
streams keyed by (seed, path), giving bit-reproducible bundles and safe
parallelism across paths; antithetic pairs share one stream with flipped
signs.  The streams are drawn in contiguous ranges at the same time, one per
CPU the process may run on, with the same bits at any CPU count.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import HistorySums, TimeGrid, kernel_weights, predictor_lags
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

    Every array is a path-major view of the time-major array the simulator
    stepped on (paths on the last axis there), not a copy: the path axis
    has the smallest stride.
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


# Streams drawn into buffers, each in its own (n_steps, per_step) block,
# before the buffers are put time-major into the draws; the workers share
# this budget.
_STREAM_BUFFER = 256


# Workers that draw the streams, each a contiguous range of them: one per
# CPU the process may run on (platforms without affinity masks count them all).
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_ranges(task, ranges: list[tuple[int, int]]) -> None:
    """task(lo, hi) for every range, at the same time.

    The caller runs the first range itself and a short-lived pool the
    others, each task in its own copy of the caller's context, so that it
    keeps the caller's numpy error state; one range starts no thread.  Every
    task's exception is raised here.
    """
    if len(ranges) == 1:
        task(*ranges[0])
        return
    with ThreadPoolExecutor(max_workers=len(ranges) - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, lo, hi) for lo, hi in ranges[1:]]
        task(*ranges[0])
        for future in futures:
            future.result()


def _normals(cfg: SimConfig, n_steps: int, per_step: int, scale: float) -> np.ndarray:
    """Standard normal draws times scale, time-major: shape (n_steps, per_step, n_paths).

    Each independent stream is a Philox generator keyed by the seed with the
    stream index in the counter's high bits, drawn as one (n_steps, per_step)
    block; antithetic odd paths reuse the preceding even stream, scaled by
    -scale.  The streams are split into up to _WORKERS contiguous ranges,
    drawn at the same time by ``_run_ranges``, each with its own generator
    and its own buffer, its share of the _STREAM_BUFFER streams.  A buffer's
    streams are scaled as they are written into their paths' columns, so
    each step reads its draws as contiguous length-n_paths rows.  Every
    stream's bits depend on the seed and its index alone, not on the ranges.
    """
    n_streams = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    out = np.empty((n_steps, per_step, cfg.n_paths))
    workers = min(_WORKERS, n_streams)
    bounds = [k * n_streams // workers for k in range(workers + 1)]
    per_buffer = max(1, _STREAM_BUFFER // workers)

    def draw(first: int, last: int) -> None:
        buffer = np.empty((min(last - first, per_buffer), n_steps, per_step))
        bits = np.random.Philox(key=cfg.seed)
        gen = np.random.Generator(bits)
        state = bits.state  # a fresh generator's: empty buffer, no cached half word
        for lo in range(first, last, len(buffer)):
            hi = min(lo + len(buffer), last)
            for stream in range(lo, hi):
                state["state"]["counter"] = np.array([0, 0, stream, 0], dtype=np.uint64)  # stream * 2**128
                bits.state = state
                gen.standard_normal(out=buffer[stream - lo])
            draws = buffer[: hi - lo].transpose(1, 2, 0)
            if cfg.antithetic:
                np.multiply(draws, scale, out=out[..., 2 * lo : 2 * hi : 2])
                np.multiply(draws, -scale, out=out[..., 2 * lo + 1 : 2 * hi : 2])  # (-x) s = -(x s), bit for bit
            else:
                np.multiply(draws, scale, out=out[..., lo:hi])
    _run_ranges(draw, list(zip(bounds, bounds[1:])))
    return out


def simulate_vector(model: VectorModel, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    """Left-point Euler convolution scheme for the square-root Volterra process.

    V(t_n) = v0(t_n) + sum_{j<n} w[n-1-j] (D V_j + nu sqrt(V_j^+) dB_j / dt),
    with w the exact kernel cell integrals and dB_j = rho W1_j + sqrt(1 - rho^2) W2_j
    taken when node j is written.  The draws are time-major, (n_steps, 2d,
    n_paths), scaled by sqrt(dt) as they are drawn; W1_j and W2_j are their rows
    w1[j] and w2[j].  The history is component-major, (d, n_steps, n_paths),
    and ``HistorySums`` sums it with the weights of ``predictor_lags``; step
    n writes node n - 1 first.  The states are time-major, (n_nodes, d,
    n_paths), so that each step reads and writes contiguous length-n_paths
    rows.  The bundle's states, W1 and W2 are path-major views of these
    arrays.  Components are clipped at variance_floor after each update
    (clip count recorded); a non-finite state raises SimulationError before
    the clip, so that an overflow to -inf is not floored.
    """
    d = model.d
    p = cfg.n_paths
    n_steps = grid.n_steps
    dt = grid.dt
    raw = _normals(cfg, n_steps, 2 * d, np.sqrt(dt))
    w1, w2 = raw[:, :d], raw[:, d:]  # (n_steps, d, n_paths)
    rho = model.rho[:, None]
    orth = np.sqrt(1.0 - rho**2)
    lags = predictor_lags([kernel_weights(k, grid) for k in model.kernel])
    forced = model.input_curve(grid)
    states = np.empty((n_steps + 1, d, p))
    states[0] = forced[0][:, None]
    hist = np.empty((d, n_steps, p))  # D V + nu sqrt(V) dB / dt, per component and node
    clipped = 0
    floor = cfg.variance_floor
    drift = model.drift
    nu = model.nu[:, None]

    def write_node(j: int) -> None:  # hist[:, j] from the state at node j
        db = rho * w1[j] + orth * w2[j]
        hist[:, j] = drift @ states[j] + nu * np.sqrt(np.maximum(states[j], 0.0)) * db / dt
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging path raises SimulationError below
        history = HistorySums(lags, hist)
        for n in range(1, n_steps + 1):
            write_node(n - 1)
            v = np.add(forced[n][:, None], history(n)[:, 0], out=states[n])
            if not np.isfinite(v).all():
                bad = int(np.nonzero(~np.isfinite(v).all(axis=0))[0][0])
                raise SimulationError(f"non-finite variance at step {n}", path_index=bad)
            clipped += int(np.count_nonzero(v < floor))
            np.maximum(v, floor, out=v)
    return PathBundle(
        grid=grid,
        states=states.transpose(2, 0, 1),
        increments={"w1": w1.transpose(2, 0, 1), "w2": w2.transpose(2, 0, 1)},
        psd_violation_count=clipped,
        config=cfg,
    )


def _clip_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray, floor: float):
    """``_psd_clip`` by closed forms for the symmetric 2x2 matrices [[a, b], [b, c]].

    Takes and returns entry rows: the clipped (a, b, c), the root's entries
    and the count of eigenvalues below the floor.  The eigenvalues are
    m -+ r with m = (a + c)/2, r = hypot((a - c)/2, b).  A clipped S is
    rebuilt from its spectral projectors, lo P_lo + hi P_hi with
    P_hi = (S - lo I)/(2r) (S = m I when r = 0), and the root of a PSD S with
    eigenvalues l1, l2 is (S + sqrt(l1 l2) I)/(sqrt(l1) + sqrt(l2)), or 0.
    Rows with no eigenvalue below the floor are returned as given.
    """
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    lo, hi = mid - rad, mid + rad
    clip = lo < floor
    n_below = int(np.count_nonzero(clip)) + int(np.count_nonzero(hi < floor))
    if n_below:
        lo_c, hi_c = np.maximum(lo, floor), np.maximum(hi, floor)
        scale = np.divide(hi_c - lo_c, 2.0 * rad, out=np.zeros_like(rad), where=rad > 0.0)
        a = np.where(clip, lo_c + scale * (a - lo), a)
        b = np.where(clip, scale * b, b)
        c = np.where(clip, lo_c + scale * (c - lo), c)
        lo, hi = lo_c, hi_c
    sq_lo, sq_hi = np.sqrt(lo), np.sqrt(hi)
    denom = sq_lo + sq_hi
    inv = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0.0)
    shift = sq_lo * sq_hi
    return (a, b, c), ((a + shift) * inv, b * inv, (c + shift) * inv), n_below


def _psd_clip(sigma: np.ndarray, floor: float, root: np.ndarray) -> int:
    """Eigenvalue-clip the symmetric matrices sigma[:, :, k] at floor, in place, and write their roots.

    ``sigma`` and ``root`` are (d, d, n); the roots go into ``root``, and the
    count of eigenvalues below the floor is returned.  A matrix with no
    eigenvalue below the floor is kept as given.  d = 2 takes the closed
    forms of ``_clip_2x2``, other d a batched ``eigh``.
    """
    if len(sigma) == 2:
        (a, b, c), (ra, rb, rc), n_below = _clip_2x2(sigma[0, 0], sigma[0, 1], sigma[1, 1], floor)
        if n_below:
            sigma[0, 0], sigma[0, 1], sigma[1, 0], sigma[1, 1] = a, b, b, c
        root[0, 0], root[0, 1], root[1, 0], root[1, 1] = ra, rb, rb, rc
        return n_below
    mats = sigma.transpose(2, 0, 1)
    vals, vecs = np.linalg.eigh(mats)
    below = vals < floor
    vals = np.maximum(vals, floor)
    vecs_t = vecs.swapaxes(-1, -2)
    clip = below.any(axis=-1)
    if clip.any():
        mats[...] = np.where(clip[:, None, None], (vecs * vals[:, None, :]) @ vecs_t, mats)
    root[...] = ((vecs * np.sqrt(vals)[:, None, :]) @ vecs_t).transpose(1, 2, 0)
    return int(np.count_nonzero(below))


def simulate_wishart(model: WishartModel, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    """Left-point Euler convolution scheme for the matrix Volterra equation.

    Sigma_n = Sigma0 + sym(sum_{j<n} Z_j K) with Z_j = drift_j + 2 noise_j^T,
    drift_j = N N^T + M Sigma_j + Sigma_j M^T and noise_j = Sigma_j^(1/2) dW_j Q / dt,
    column i weighted by the cell integrals of K_i.  As sym(A^T) = sym(A), this
    equals the scheme's row-weighted drift + noise plus the transposed
    row-weighted noise, for distinct kernels too.

    The step works component-major: Sigma, its root, the noise and Z_j^T are
    (d, d, n_paths) arrays, dW_j is read from the time-major draws
    (n_steps, d * d + d, n_paths) as the rows dws[j], and each entry of a
    product is d multiply-adds of length-n_paths rows.  The history holds
    Z_j^T as (d, n_steps, d, n_paths), row i of every path's Z_j^T under
    component i, and ``HistorySums`` sums it as in ``simulate_vector``.
    Eigenvalues are clipped at psd_floor by ``_psd_clip`` (count recorded),
    which also writes the roots; node 0 keeps Sigma0 as given and takes the
    root of its clip.  The bundle's states, the roots at the left nodes, the
    increments and the assets' increments, dW rho + sqrt(1 - |rho|^2) dB,
    are path-major views of time-major arrays.
    """
    d = model.d
    p = cfg.n_paths
    n_steps = grid.n_steps
    dt = grid.dt
    raw = _normals(cfg, n_steps, d * d + d, np.sqrt(dt))
    dws, dbs = raw[:, : d * d].reshape(n_steps, d, d, p), raw[:, d * d :]
    lags = predictor_lags([kernel_weights(k, grid) for k in model.kernel])
    nnt_t = model.drift_constant.T[:, :, None]
    sigma0 = model.sigma0[:, :, None]
    M = model.mean_reversion
    q_t = model.vol_of_vol.T
    states = np.empty((n_steps + 1, d, d, p))
    states[0] = sigma0
    roots = np.empty((n_steps + 1, d, d, p))  # Sigma^(1/2) at every node
    _psd_clip(states[0].copy(), cfg.psd_floor, roots[0])
    hist = np.empty((d, n_steps, d, p))  # hist[i, j, a] = Z_j^T[i, a] = Z_j[a, i]
    clipped = 0

    def write_node(j: int) -> None:  # hist[:, j] from the state at node j
        sig_mt = M @ states[j]  # entry (a, b) is row a of Sigma dotted with row b of M
        noise = q_t @ np.einsum("acp,cbp->abp", roots[j], dws[j])  # (Sigma^(1/2) dW) Q
        z_t = np.add(nnt_t, sig_mt, out=hist[:, j])
        z_t += sig_mt.transpose(1, 0, 2)
        z_t += noise * (2.0 / dt)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging path raises SimulationError below
        history = HistorySums(lags, hist.reshape(d, n_steps, d * p))
        for n in range(1, n_steps + 1):
            write_node(n - 1)
            sigma = sigma0 + history(n)[:, 0].reshape(d, d, p).transpose(1, 0, 2)
            sigma = np.multiply(0.5, sigma + sigma.transpose(1, 0, 2), out=states[n])
            if not np.isfinite(sigma).all():
                bad = int(np.nonzero(~np.isfinite(sigma).all(axis=(0, 1)))[0][0])
                raise SimulationError(f"non-finite covariance at step {n}", path_index=bad)
            clipped += _psd_clip(sigma, cfg.psd_floor, roots[n])
    del hist, history  # before the assets' increments, so that they do not raise the peak
    rho = model.rho
    orth = float(np.sqrt(max(0.0, 1.0 - rho @ rho)))
    asset_noise = orth * dbs + rho @ dws  # (n_steps, d, n_paths): entry a sums rho_b dW[a, b] over b
    return PathBundle(
        grid=grid,
        states=states.transpose(3, 0, 1, 2),
        increments={"w_sigma": dws.transpose(3, 0, 1, 2), "b": dbs.transpose(2, 0, 1)},
        psd_violation_count=clipped,
        config=cfg,
        roots=roots[:-1].transpose(3, 0, 1, 2),
        asset_noise=asset_noise.transpose(2, 0, 1),
    )


# Entries of one (paths, n_steps) temporary of the path integrals: wealth and
# the diagnostics take their paths in blocks of _BLOCK_ENTRIES // n_steps.
_BLOCK_ENTRIES = 2**16


def _exposure(bundle: PathBundle, pis: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Rows pi_n' Sigma_n^(1/2) at the left nodes of the paths ``rows`` and the asset increments they multiply.

    ``pis`` holds the left-point weights (n_steps, d).  Both results are
    (paths, n_steps, d); vector bundles give pi_n sqrt(V_n^+) and W1.  Entry a
    of a matrix bundle's row is summed over b of Sigma^(1/2)[a, b] pi[b], one
    elementwise product of (paths, n_steps) planes per b; Sigma^(1/2) is
    symmetric, so this is pi' Sigma^(1/2).
    """
    if bundle.roots is None:
        return pis * np.sqrt(np.maximum(bundle.states[rows, :-1], 0.0)), bundle.increments["w1"][rows]
    roots = bundle.roots[rows]
    vol = roots[..., 0] * pis[:, None, 0]
    for b in range(1, roots.shape[-1]):
        vol += roots[..., b] * pis[:, None, b]
    return vol, bundle.asset_noise[rows]


def _per_path(bundle: PathBundle, pis: np.ndarray, integral) -> np.ndarray:
    """integral(rows, vol, noise) over blocks of paths, one value per path.

    ``pis`` holds the left-point weights (n_steps, d).  For each block of
    paths, ``integral`` gets the block's slice of paths and their
    ``_exposure`` rows and increments, and returns one value per path.  A
    block holds whole paths, so each path's sums over the steps take the same
    bits as over the whole bundle, while the temporaries stay near
    _BLOCK_ENTRIES entries.  The bundle's arrays are path-major views of
    time-major ones, so a block's temporaries keep the paths innermost and
    each path is summed over the steps in step order; a block of one path
    would be summed pairwise, so a lone last path joins the block before it.
    """
    n_paths = bundle.states.shape[0]
    size = max(2, _BLOCK_ENTRIES // bundle.grid.n_steps)
    starts = list(range(0, n_paths, size))
    if len(starts) > 1 and n_paths - starts[-1] == 1:
        starts.pop()
    out = np.empty(n_paths)
    for lo, hi in zip(starts, starts[1:] + [n_paths]):
        rows = slice(lo, hi)
        out[rows] = integral(rows, *_exposure(bundle, pis, rows))
    return out


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of x and y along the last axis, the other axes broadcast."""
    return np.einsum("...a,...a->...", x, y)


def _left_weights(strategy: StrategyPath, bundle: PathBundle) -> np.ndarray:
    """The strategy's weights at the bundle's left nodes, (n_steps, d); both must share one grid."""
    if strategy.grid.n_steps != bundle.grid.n_steps or strategy.grid.horizon != bundle.grid.horizon:
        raise ValueError("strategy and bundle must share one grid")
    return strategy.weights[:-1]


def simulate_wealth(model, strategy: StrategyPath, bundle: PathBundle, x0: float) -> np.ndarray:
    """Terminal wealth per path from the explicit log-form solution.

    Reuses the bundle's increments, preserving the leverage correlation
    between the asset noise and the volatility noise.  Integrals are
    discretized left-point, consistently with the volatility scheme, and
    taken over blocks of paths by ``_per_path``.
    """
    pis = _left_weights(strategy, bundle)
    grid = bundle.grid
    dt = grid.dt
    rates = rate_on_grid(model.rate, grid)[:-1]
    states = bundle.states[:, :-1]
    if isinstance(model, VectorModel):
        weights = pis * model.theta  # sum of pi_i theta_i V_i
    elif isinstance(model, WishartModel):
        p, n, d = bundle.asset_noise.shape
        weights = (pis[:, :, None] * model.market_price).reshape(n, d * d)  # sum over (b, a) of pi_b v_a Sigma_ba
        states = states.reshape(p, n, d * d)
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")

    def growth(rows: slice, vol: np.ndarray, noise: np.ndarray) -> np.ndarray:
        drift = _row_dot(states[rows], weights)
        return np.sum((rates[None, :] + drift - 0.5 * _row_dot(vol, vol)) * dt + _row_dot(vol, noise), axis=1)
    log_growth = _per_path(bundle, pis, growth)
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
    ones = np.ones((bundle.grid.n_steps, bundle.states.shape[2]))
    return _per_path(bundle, ones, lambda rows, vol, noise: _row_dot(vol, noise).sum(axis=1))


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
    pis = _left_weights(strategy, bundle)
    dt = bundle.grid.dt
    gamma = model.gamma

    def log_z(rows: slice, vol: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return gamma * _row_dot(vol, noise).sum(axis=1) - 0.5 * gamma**2 * (_row_dot(vol, vol) * dt).sum(axis=1)
    return _estimate(np.exp(_per_path(bundle, pis, log_z)), bundle.config.antithetic)
