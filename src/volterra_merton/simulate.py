"""Monte Carlo simulation of the Volterra volatility models and wealth.

The volatility convolution equations are discretized with the left-point
Euler convolution scheme: exact kernel cell integrals weight the past drift
and (scaled by 1/dt) the past Brownian increments, so singular kernels never
get evaluated at lag zero.  Gaussian draws come from counter-based Philox
streams keyed by (seed, path), giving bit-reproducible bundles and safe
parallelism across paths; antithetic pairs share one stream with flipped
signs.  The streams are drawn in contiguous ranges at the same time, one per
CPU the process may run on, with the same bits at any CPU count.  Wealth, the
martingale diagnostic and the comparison's control add per-node terms in step
order, over a bundle's rows or, streamed, as the step loop writes each node.
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

    floor is the clip level of the scheme's state: a vector model's variance
    components, a Wishart model's covariance eigenvalues.  antithetic pairs
    paths (2k, 2k+1) on mirrored draws.
    """

    n_paths: int
    seed: int = 42
    floor: float = 0.0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must lie in [0, 2**128), the Philox key range")
        if not 0.0 <= self.floor < np.inf:
            raise ValueError("floor must be finite and nonnegative")
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
    has the smallest stride.  A streamed estimate keeps no bundle.
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
    """A Monte Carlo mean and its standard error over n_paths samples (antithetic pairs count once),
    and the clip count of the paths it was taken on."""

    mean: float
    stderr: float
    n_paths: int
    psd_violation_count: int = 0

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


def _vector_steps(model: VectorModel, grid: TimeGrid, cfg: SimConfig, visit=None):
    """Left-point Euler convolution scheme for the square-root Volterra process.

    V(t_n) = v0(t_n) + sum_{j<n} w[n-1-j] (D V_j + nu sqrt(V_j^+) dB_j / dt),
    with w the exact kernel cell integrals and dB_j = rho W1_j + sqrt(1 - rho^2) W2_j
    taken when node j is written.  The draws are time-major, (n_steps, 2d,
    n_paths), scaled by sqrt(dt) as they are drawn; W1_j and W2_j are their rows
    w1[j] and w2[j].  The history is component-major, (d, n_steps, n_paths),
    and ``HistorySums`` sums it with the weights of ``predictor_lags``; step
    n writes node n - 1 first.  The states are time-major, (rows, d, n_paths),
    node n in row n % rows.  Components are clipped at cfg.floor after each
    update; a non-finite state raises SimulationError before the clip, so
    that an overflow to -inf is not floored.  Node 0 is V0 as given, neither
    clipped nor counted.  Without ``visit`` the rows hold every node; with
    it, two, and writing node j first calls visit(j, state, None, noise) with
    path-major (n_paths, d) views of its state and W1_j.  Returns the states,
    the draws and the clip count.
    """
    d = model.d
    n_steps = grid.n_steps
    dt = grid.dt
    raw = _normals(cfg, n_steps, 2 * d, np.sqrt(dt))
    w1, w2 = raw[:, :d], raw[:, d:]  # (n_steps, d, n_paths)
    rho = model.rho[:, None]
    orth = np.sqrt(1.0 - rho**2)
    lags = predictor_lags([kernel_weights(k, grid) for k in model.kernel])
    forced = model.input_curve(grid)
    states = np.empty((n_steps + 1 if visit is None else 2, d, cfg.n_paths))
    states[0] = forced[0][:, None]
    hist = np.empty((d, n_steps, cfg.n_paths))  # D V + nu sqrt(V) dB / dt, per component and node
    clipped = 0
    floor = cfg.floor
    drift = model.drift
    nu = model.nu[:, None]

    def write_node(j: int) -> None:  # hist[:, j] from the state at node j
        state = states[j % len(states)]
        if visit is not None:
            visit(j, state.T, None, w1[j].T)
        db = rho * w1[j] + orth * w2[j]
        hist[:, j] = drift @ state + nu * np.sqrt(np.maximum(state, 0.0)) * db / dt
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging path raises SimulationError below
        history = HistorySums(lags, hist)
        for n in range(1, n_steps + 1):
            write_node(n - 1)
            v = np.add(forced[n][:, None], history(n)[:, 0], out=states[n % len(states)])
            if not np.isfinite(v).all():
                bad = int(np.nonzero(~np.isfinite(v).all(axis=0))[0][0])
                raise SimulationError(f"non-finite variance at step {n}", path_index=bad)
            clipped += int(np.count_nonzero(v < floor))
            np.maximum(v, floor, out=v)
    return states, raw, clipped


def simulate_vector(model: VectorModel, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    """The bundle of ``_vector_steps``: every node's state, W1 and W2, path-major views of its arrays."""
    d = model.d
    states, raw, clipped = _vector_steps(model, grid, cfg)
    increments = {"w1": raw[:, :d].transpose(2, 0, 1), "w2": raw[:, d:].transpose(2, 0, 1)}
    return PathBundle(grid, states.transpose(2, 0, 1), increments, clipped, cfg)


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


def _asset_noise(model: WishartModel, dws: np.ndarray, dbs: np.ndarray) -> np.ndarray:
    """The assets' increments dW rho + sqrt(1 - |rho|^2) dB, time-major: entry a sums rho_b dW[a, b] over b."""
    rho = model.rho
    return float(np.sqrt(max(0.0, 1.0 - rho @ rho))) * dbs + rho @ dws


def _wishart_steps(model: WishartModel, grid: TimeGrid, cfg: SimConfig, visit=None):
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
    component i, and ``HistorySums`` sums it as in ``_vector_steps``.
    Eigenvalues are clipped at cfg.floor by ``_psd_clip``, which also writes
    the roots; node 0 keeps Sigma0 as given and takes the root of Sigma0
    clipped at the floor, a clip that is not counted.
    States, roots and ``visit`` are as in ``_vector_steps``; it gets the
    node's state, root and assets' increments.  Returns the states, the
    roots, dW and dB (time-major views of the draws) and the clip count.
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
    states = np.empty((n_steps + 1 if visit is None else 2, d, d, p))
    states[0] = sigma0
    roots = np.empty_like(states)  # Sigma^(1/2)
    hist = np.empty((d, n_steps, d, p))  # hist[i, j, a] = Z_j^T[i, a] = Z_j[a, i]
    clipped = 0

    def write_node(j: int) -> None:  # hist[:, j] from the state at node j
        state, root = states[j % len(states)], roots[j % len(states)]
        if visit is not None:
            visit(j, state.transpose(2, 0, 1), root.transpose(2, 0, 1), _asset_noise(model, dws[j], dbs[j]).T)
        sig_mt = M @ state  # entry (a, b) is row a of Sigma dotted with row b of M
        noise = q_t @ np.einsum("acp,cbp->abp", root, dws[j])  # (Sigma^(1/2) dW) Q
        z_t = np.add(nnt_t, sig_mt, out=hist[:, j])
        z_t += sig_mt.transpose(1, 0, 2)
        z_t += noise * (2.0 / dt)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging path raises SimulationError below
        _psd_clip(states[0].copy(), cfg.floor, roots[0])
        history = HistorySums(lags, hist.reshape(d, n_steps, d * p))
        for n in range(1, n_steps + 1):
            write_node(n - 1)
            sigma = sigma0 + history(n)[:, 0].reshape(d, d, p).transpose(1, 0, 2)
            sigma = np.multiply(0.5, sigma + sigma.transpose(1, 0, 2), out=states[n % len(states)])
            if not np.isfinite(sigma).all():
                bad = int(np.nonzero(~np.isfinite(sigma).all(axis=(0, 1)))[0][0])
                raise SimulationError(f"non-finite covariance at step {n}", path_index=bad)
            clipped += _psd_clip(sigma, cfg.floor, roots[n % len(states)])
    return states, roots, dws, dbs, clipped


def simulate_wishart(model: WishartModel, grid: TimeGrid, cfg: SimConfig) -> PathBundle:
    """The bundle of ``_wishart_steps``: every node's state, the roots at the left nodes, the increments and
    the assets' increments (formed once the loop has freed its history), path-major views of time-major arrays."""
    states, roots, dws, dbs, clipped = _wishart_steps(model, grid, cfg)
    increments = {"w_sigma": dws.transpose(3, 0, 1, 2), "b": dbs.transpose(2, 0, 1)}
    return PathBundle(grid, states.transpose(3, 0, 1, 2), increments, clipped, cfg,
                      roots[:-1].transpose(3, 0, 1, 2), _asset_noise(model, dws, dbs).transpose(2, 0, 1))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of x and y along the last axis, the other axes broadcast."""
    return np.einsum("...a,...a->...", x, y)


def _path_sums(term, n_terms: int, pis: np.ndarray, model, grid: TimeGrid, cfg: SimConfig, bundle: PathBundle | None):
    """Per-path sums over the left nodes of term's n_terms rows, (n_terms, n_paths), and the paths' clip count.

    term(j, state, vol, noise) gives node j's rows, one value per path each,
    from path-major views of the node's state and asset increments and from
    vol = pi_j' Sigma_j^(1/2) with pi_j = pis[j], entry a summed over b of
    Sigma^(1/2)[a, b] pi_j[b] in turn (the root is symmetric), or
    pi_j sqrt(V_j^+) for vector models.  The sums start at 0 and add the
    nodes in step order: a bundle's, read from its time-major rows, or,
    without one, each node of cfg's paths as the model's step loop writes it.
    """
    sums = np.zeros((n_terms, cfg.n_paths))

    def visit(j: int, state: np.ndarray, root: np.ndarray | None, noise: np.ndarray) -> None:
        if root is None:
            vol = pis[j] * np.sqrt(np.maximum(state, 0.0))
        else:
            vol = root[..., 0] * pis[j, 0]
            for b in range(1, pis.shape[1]):
                vol += root[..., b] * pis[j, b]
        for total, row in zip(sums, term(j, state, vol, noise)):
            total += row
    if bundle is None:
        return sums, (_vector_steps if isinstance(model, VectorModel) else _wishart_steps)(model, grid, cfg, visit)[-1]
    if grid.n_steps != bundle.grid.n_steps or grid.horizon != bundle.grid.horizon:
        raise ValueError("strategy and bundle must share one grid")
    noise = bundle.increments["w1"] if bundle.roots is None else bundle.asset_noise
    for j in range(grid.n_steps):
        visit(j, bundle.states[:, j], None if bundle.roots is None else bundle.roots[:, j], noise[:, j])
    return sums, bundle.psd_violation_count


def _terminal_wealth(model, strategy: StrategyPath, x0: float, cfg: SimConfig, bundle: PathBundle | None):
    """Terminal wealth per path and the paths' clip count: the log-growth is the ``_path_sums`` of
    (r_j + drift_j - |vol_j|^2 / 2) dt + vol_j . dW_j, vol_j = pi_j' Sigma_j^(1/2), from the bundle or streamed."""
    pis = strategy.weights[:-1]
    rates = rate_on_grid(model.rate, strategy.grid)
    if isinstance(model, VectorModel):
        weights = pis * model.theta  # sum of pi_i theta_i V_i
    elif isinstance(model, WishartModel):
        weights = (pis[:, :, None] * model.market_price).reshape(len(pis), -1)  # sum over (b, a) of pi_b v_a Sigma_ba
    else:
        raise TypeError(f"unsupported model type {type(model)!r}")

    def growth(j: int, state: np.ndarray, vol: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray]:
        drift = _row_dot(state.reshape(len(state), -1), weights[j])
        return ((rates[j] + drift - 0.5 * _row_dot(vol, vol)) * strategy.grid.dt + _row_dot(vol, noise),)
    (log_growth,), clipped = _path_sums(growth, 1, pis, model, strategy.grid, cfg, bundle)
    with np.errstate(over="ignore"):  # an overflowing wealth is reported as a non-finite metric
        return x0 * np.exp(log_growth), clipped


def simulate_wealth(model, strategy: StrategyPath, bundle: PathBundle, x0: float) -> np.ndarray:
    """Terminal wealth per path from the explicit log-form solution.

    Reuses the bundle's increments, preserving the leverage correlation
    between the asset noise and the volatility noise.  Integrals are
    discretized left-point, consistently with the volatility scheme, and
    summed over the bundle's time-major rows in step order.
    """
    return _terminal_wealth(model, strategy, x0, bundle.config, bundle)[0]


def _estimate(samples: np.ndarray, antithetic: bool, clipped: int) -> McEstimate:
    if antithetic:
        samples = 0.5 * (samples[0::2] + samples[1::2])
    n = samples.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # infinite samples give non-finite metrics
        mean = float(np.mean(samples))
        stderr = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, n_paths=n, psd_violation_count=clipped)


def utility_samples(model, strategy: StrategyPath, bundle: PathBundle, x0: float) -> np.ndarray:
    """Per-path power utility X_T^gamma / gamma (for paired comparisons)."""
    return simulate_wealth(model, strategy, bundle, x0) ** model.gamma / model.gamma


def mc_utility(model, strategy: StrategyPath, cfg: SimConfig, x0: float,
               bundle: PathBundle | None = None) -> McEstimate:
    """Monte Carlo estimate of E[X_T^gamma / gamma] under a strategy.

    Pass an existing bundle to compare strategies under common random
    numbers.  Otherwise the paths are simulated from cfg and streamed: the
    step loop adds each node's term of the log-growth as it writes the node,
    and keeps no states, no roots and no assets' increments.  Either way
    each path's wealth takes the same bits.
    """
    cfg = cfg if bundle is None else bundle.config
    xt, clipped = _terminal_wealth(model, strategy, x0, cfg, bundle)
    return _estimate(xt**model.gamma / model.gamma, cfg.antithetic, clipped)


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
    control = _path_sums(lambda j, state, vol, noise: (_row_dot(vol, noise),), 1, ones, None, bundle.grid,
                         bundle.config, bundle)
    return control[0][0]


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
    return _estimate(diff, False, bundle.psd_violation_count)


def martingale_diagnostic(model, strategy: StrategyPath, cfg: SimConfig,
                          bundle: PathBundle | None = None) -> McEstimate:
    """E[Z_T] for the stochastic exponential built from the strategy.

    Z_T = exp(g int pi' Sigma^(1/2) dW - g^2/2 int |pi' Sigma^(1/2)|^2 dt);
    the discrete estimator has exact unit conditional means, so any bias in
    the reported mean is pure Monte Carlo error.  Both integrals are
    step-order sums over the left nodes, read from the bundle or, without
    one, streamed from the step loop as ``mc_utility`` streams the wealth.
    """
    pis = strategy.weights[:-1]
    cfg = cfg if bundle is None else bundle.config
    dt = strategy.grid.dt

    def exposure(j: int, state: np.ndarray, vol: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, ...]:
        return _row_dot(vol, noise), _row_dot(vol, vol) * dt
    (mart, quad), clipped = _path_sums(exposure, 2, pis, model, strategy.grid, cfg, bundle)
    return _estimate(np.exp(model.gamma * mart - 0.5 * model.gamma**2 * quad), cfg.antithetic, clipped)
