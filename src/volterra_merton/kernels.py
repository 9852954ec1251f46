"""Convolution kernels, Mittag-Leffler evaluation, and resolvent calculus.

Supports the four completely monotone kernel families with closed-form
resolvents of the first and second kind:

    constant       K(t) = c
    fractional     K(t) = c t^(a-1) / Gamma(a)
    exponential    K(t) = c exp(-lam t)
    gamma          K(t) = c exp(-lam t) t^(a-1) / Gamma(a)

Discrete convolutions on uniform grids use product integration with exact
per-cell kernel integrals, never point values of K at 0, so the weakly
singular fractional kernels are handled without special-casing downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sp_fft
from scipy import special as sps

__all__ = [
    "Kernel",
    "TimeGrid",
    "SampledFunction",
    "KernelWeights",
    "FirstKindResolvent",
    "mittag_leffler",
    "mittag_leffler_array",
    "kernel_weights",
    "convolve",
    "resolvent_second_kind",
    "resolvent_first_kind",
    "second_kind_residual",
    "first_kind_residual",
]

_FAMILIES = ("constant", "fractional", "exponential", "gamma")


@dataclass(frozen=True)
class Kernel:
    """One scalar kernel from the four-family table.

    A diagonal multivariate kernel is represented as a plain list of
    ``Kernel`` objects, one per component.
    """

    family: str
    c: float
    alpha: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.c > 0:
            raise ValueError("kernel scale c must be positive")
        if self.family in ("fractional", "gamma") and not 0.0 < self.alpha <= 1.0:
            raise ValueError("fractional order alpha must lie in (0, 1]")
        if self.family in ("exponential", "gamma") and self.lam < 0.0:
            raise ValueError("decay rate lam must be nonnegative")

    @classmethod
    def constant(cls, c: float) -> "Kernel":
        return cls("constant", c)

    @classmethod
    def fractional(cls, c: float, alpha: float) -> "Kernel":
        return cls("fractional", c, alpha=alpha)

    @classmethod
    def exponential(cls, c: float, lam: float) -> "Kernel":
        return cls("exponential", c, lam=lam)

    @classmethod
    def gamma(cls, c: float, lam: float, alpha: float) -> "Kernel":
        return cls("gamma", c, lam=lam, alpha=alpha)

    @property
    def singular_at_zero(self) -> bool:
        return self.family in ("fractional", "gamma") and self.alpha < 1.0

    def __call__(self, t):
        """Evaluate K(t); t > 0 required for singular kernels, t >= 0 otherwise."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("kernel argument must be nonnegative")
        if self.singular_at_zero and np.any(arr == 0.0):
            raise ValueError("singular kernel evaluated at t = 0")
        if self.family == "constant":
            out = np.full(arr.shape, float(self.c))
        elif self.family == "fractional":
            out = self.c * arr ** (self.alpha - 1.0) * sps.rgamma(self.alpha)
        elif self.family == "exponential":
            out = self.c * np.exp(-self.lam * arr)
        else:
            out = self.c * np.exp(-self.lam * arr) * arr ** (self.alpha - 1.0) * sps.rgamma(self.alpha)
        return out if np.ndim(t) else float(out)

    def integral(self, a, b):
        """Exact integral of K over [a, b], finite even across the t=0 singularity."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.family == "constant":
            return self.c * (b - a)
        if self.family == "fractional" or (self.family == "gamma" and self.lam == 0.0):
            al = self.alpha
            return self.c * (b**al - a**al) * sps.rgamma(al + 1.0)
        if self.family == "exponential":
            if self.lam == 0.0:
                return self.c * (b - a)
            return self.c * (np.exp(-self.lam * a) - np.exp(-self.lam * b)) / self.lam
        al, lam = self.alpha, self.lam
        return self.c * (sps.gammainc(al, lam * b) - sps.gammainc(al, lam * a)) / lam**al

    def first_moment(self, a, b):
        """Exact integral of u * K(u) over [a, b]."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.family == "constant":
            return 0.5 * self.c * (b**2 - a**2)
        if self.family == "fractional" or (self.family == "gamma" and self.lam == 0.0):
            al = self.alpha
            return self.c * (b ** (al + 1.0) - a ** (al + 1.0)) / (al + 1.0) * sps.rgamma(al)
        if self.family == "exponential":
            lam = self.lam
            if lam == 0.0:
                return 0.5 * self.c * (b**2 - a**2)
            ea, eb = np.exp(-lam * a), np.exp(-lam * b)
            return self.c * ((a * ea - b * eb) / lam + (ea - eb) / lam**2)
        al, lam = self.alpha, self.lam
        return self.c * al * (sps.gammainc(al + 1.0, lam * b) - sps.gammainc(al + 1.0, lam * a)) / lam ** (al + 1.0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * dt on [0, horizon] with n_steps + 1 nodes."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class SampledFunction:
    """Values of a scalar, vector or matrix function at the grid nodes."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape[0] != self.grid.n_steps + 1:
            raise ValueError("one value per grid node required")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class KernelWeights:
    """Product-integration weights of one kernel on a uniform grid.

    ``cell[m]`` is the exact integral of K over [m dt, (m+1) dt]; ``moment[m]``
    the exact integral of u K(u) over the same cell.  ``corrector[m]``, m >= 1,
    are the derived trapezoidal product weights c_m = m cell[m-1] - moment[m-1]/dt,
    which reduce to the classical Adams weights for fractional kernels and to
    dt/2 for constant ones.
    """

    kernel: Kernel
    grid: TimeGrid
    cell: np.ndarray
    moment: np.ndarray
    corrector: np.ndarray

    @property
    def total(self) -> float:
        return float(self.cell.sum())


def kernel_weights(kernel: Kernel, grid: TimeGrid) -> KernelWeights:
    """Exact per-cell integrals and Adams product weights for one kernel."""
    dt = grid.dt
    edges = grid.nodes
    cell = np.asarray(kernel.integral(edges[:-1], edges[1:]), dtype=float)
    moment = np.asarray(kernel.first_moment(edges[:-1], edges[1:]), dtype=float)
    m = np.arange(1, grid.n_steps + 1, dtype=float)
    corrector = np.empty(grid.n_steps + 1)
    corrector[0] = np.nan  # index m starts at 1
    corrector[1:] = m * cell - moment / dt
    return KernelWeights(kernel, grid, cell, moment, corrector)


@dataclass(frozen=True)
class StackedWeights:
    """Product-integration weights of d component kernels, one row each.

    ``cell`` has shape (d, n_steps) and ``corrector`` (d, n_steps + 1); column
    m holds the same quantity as in ``KernelWeights``.
    """

    cell: np.ndarray
    corrector: np.ndarray

    def predictor_lags(self) -> LagWeights:
        """Left-rectangle weights: lag L weighs cell[L-1], node 0 included."""
        lag = np.zeros((len(self.cell), self.cell.shape[1] + 1))
        lag[:, 1:] = self.cell
        return LagWeights(lag)

    def corrector_lags(self) -> LagWeights:
        """Trapezoidal weights a_{k,n} of the nodes before n, by lag.

        Lag L weighs cell[L-1] - corrector[L] + corrector[L+1]; node 0 weighs
        cell[n-1] - corrector[n].  Together with corrector[1] on node n they
        integrate the piecewise-linear interpolant of the co-factor exactly
        against K, the corrector stage of the fractional Adams scheme.
        """
        cell, corr = self.cell, self.corrector
        head = np.zeros((len(cell), cell.shape[1] + 1))
        head[:, 1:] = cell - corr[:, 1:]
        lag = head.copy()
        lag[:, 1:-1] += corr[:, 2:]  # lag N is node 0's at node N, never read
        return LagWeights(lag, head)


def stack_weights(weights: Sequence[KernelWeights]) -> StackedWeights:
    """Stack per-component weights row by row."""
    return StackedWeights(
        cell=np.stack([w.cell for w in weights]),
        corrector=np.stack([w.corrector for w in weights]),
    )


def history_sum(row: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Sum over past nodes j of row[i, j] * hist[i, j, :], shape (d, width).

    Components come first and time second: component i of the state is
    convolved with K_i, and the last axis (paths, matrix rows) passes through.
    The sum is one batched matrix product of each (1, n) row against its
    (n, width) history, which BLAS takes.
    """
    return np.matmul(row[:, None, :], hist)[:, 0]


# Sums over at most BLOCK past nodes are taken directly.  On longer grids each
# closed block of BLOCK nodes reaches every later node through one FFT
# convolution; a grid of at most BLOCK steps closes no block.
BLOCK = 512


@dataclass(frozen=True)
class LagWeights:
    """History weights that depend on the lag L = n - k only, one row per component.

    Column L of ``lag`` (column 0 is zero) weights node k = n - L in the sum at
    node n.  Where ``head`` is given, its column n weights node 0 instead.
    """

    lag: np.ndarray
    head: np.ndarray | None = None


def _lag_spectrum(weights: LagWeights, size: int) -> np.ndarray:
    return sp_fft.rfft(weights.lag, size, axis=1)[..., None]


def _fft_sums(weights: LagWeights, block: np.ndarray, start: int, spectrum: np.ndarray, size: int) -> np.ndarray:
    """Share of the block (nodes start, start + 1, ...) in the sums at nodes start + j, j < size.

    One FFT convolution along the time axis; ``size`` must cover the block
    plus every lag read, so that nothing wraps around onto the nodes read.
    """
    head = weights.head if start == 0 else None
    if head is not None:
        first = block[:, 0]
        block = block.copy()
        block[:, 0] = 0.0
    out = sp_fft.irfft(sp_fft.rfft(block, size, axis=1) * spectrum, size, axis=1)
    if head is not None:
        out[:, 1 : head.shape[1]] += head[:, 1:, None] * first[:, None]
    return out


class HistorySums:
    """Running sums s_n = sum over k < n of the lag weights times values[:, k].

    ``values`` is component-major, (d, nodes, width), and may still be
    filling: s_n, shape (d, width), reads values[:, :n], and n must run 1, 2,
    ... in turn.  The open block of at most BLOCK nodes is summed with
    ``history_sum``; once it is full, one FFT adds its share to every later
    node.  Each row and column is transformed on its own, so a non-finite
    value reaches only the later sums of its own row and column, where the
    FFT may turn an overflow into NaN.
    """

    def __init__(self, weights: LagWeights, values: np.ndarray):
        n_steps = weights.lag.shape[1] - 1
        self.weights = weights
        self.values = values
        self._rows = weights.lag[:, :0:-1].copy()  # lags N..1, so each row is a forward slice
        self._start = 0  # first node of the open block
        self._closed = None  # share of the closed blocks, per node
        if n_steps > BLOCK:
            self._size = sp_fft.next_fast_len(n_steps + 1 + BLOCK, real=True)
            self._spectrum = _lag_spectrum(weights, self._size)
            self._closed = np.zeros((len(values), n_steps + 1, values.shape[2]))

    def __call__(self, n: int) -> np.ndarray:
        start = self._start
        if self._closed is not None and n - start == BLOCK:
            shares = _fft_sums(self.weights, self.values[:, start:n], start, self._spectrum, self._size)
            self._closed[:, n:] += shares[:, n - start : self._closed.shape[1] - start]
            start = self._start = n
        row = self._rows[:, self._rows.shape[1] - n + start :]
        if start == 0 and self.weights.head is not None:
            row = row.copy()
            row[:, 0] = self.weights.head[:, n]
        direct = history_sum(row, self.values[:, start:n])
        return direct if start == 0 else self._closed[:, n] + direct


def causal_sums(weights: LagWeights, values: np.ndarray) -> np.ndarray:
    """s_n of ``HistorySums`` for n = 1..N at once, every value being known and finite.

    Returns (d, N, width).  Grids of at most BLOCK steps go through
    ``HistorySums``; longer grids take one FFT convolution over the whole
    array.
    """
    n_steps = weights.lag.shape[1] - 1
    if n_steps <= BLOCK:
        sums = HistorySums(weights, values)
        return np.stack([sums(n) for n in range(1, n_steps + 1)], axis=1)
    size = sp_fft.next_fast_len(values.shape[1] + n_steps, real=True)
    return _fft_sums(weights, values, 0, _lag_spectrum(weights, size), size)[:, 1 : n_steps + 1]


def component_kernels(kernel: Kernel | Sequence[Kernel], d: int) -> list[Kernel]:
    """One kernel per component: a single kernel is repeated d times."""
    if isinstance(kernel, Kernel):
        return [kernel] * d
    kernels = list(kernel)
    if len(kernels) != d:
        raise ValueError(f"expected {d} kernels, got {len(kernels)}")
    return kernels


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

# |z| <= _ML_RADIUS takes the Taylor series by Horner; there every term is at
# most max 1/Gamma = 1.13 in size, so nothing cancels.
_ML_RADIUS = 1.0

# Double-exponential rule of step 1/32 on t in [-4, 4]: tanh-sinh nodes on
# [0, 1] and exp-sinh nodes on [0, inf), each with its weights.
_DE_T = np.arange(-128, 129) / 32.0
_DE_U = 0.5 * np.pi * np.sinh(_DE_T)
_DE_DU = 0.5 * np.pi * np.cosh(_DE_T) / 32.0
_TANH_X = 1.0 / (1.0 + np.exp(-2.0 * _DE_U))
_TANH_W = _DE_DU / (2.0 * np.cosh(_DE_U) ** 2)
_EXP_X = np.exp(_DE_U)
_EXP_W = _DE_DU * _EXP_X

# exp(-chi^(1/alpha)) < exp(-_ML_MASS) beyond chi = _ML_MASS^alpha, so the
# finite piece of the integral never reaches past that point.
_ML_MASS = 40.0


def _ml_table(alpha: float, beta: float) -> np.ndarray:
    """Taylor coefficients 1/Gamma(alpha k + beta) up to the first past the peak below 1e-19 of it."""
    ks = np.arange(math.ceil(70.0 / alpha) + 1)
    rg = sps.rgamma(alpha * ks + beta)
    settled = np.nonzero((alpha * ks + beta > 2.0) & (np.abs(rg) < 1e-19 * np.max(np.abs(rg))))[0]
    return rg[: int(settled[0]) + 1]


def _ml_integral(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for 0 < alpha < 1 from its integral representation.

    With chi = u^alpha (Gorenflo, Loutchko & Luchko 2002), for beta <= 1

        E(z) = int_0^inf chi^((1-beta)/alpha) exp(-chi^(1/alpha))
                 (chi sin(pi(1-beta)) - z sin(pi(1-beta+alpha)))
                 / (chi^2 - 2 chi z cos(alpha pi) + z^2) d chi / (pi alpha)

    plus the residue (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)) for z > 0,
    which is +inf where it overflows.  The range splits at the denominator's
    minimum |z cos(alpha pi)|, clipped to _ML_MASS^alpha: a tanh-sinh rule
    below, an exp-sinh rule above.  Arguments beta > 1 are first reduced by
    the exact recurrence E(a,b)(z) = (E(a,b-a)(z) - 1/Gamma(b-a)) / z.
    """
    reductions: list[float] = []
    while beta > 1.0:
        reductions.append(beta)
        beta -= alpha
    ca, sa = math.cos(alpha * math.pi), math.sin(alpha * math.pi)
    sb, sba = math.sin(math.pi * (1.0 - beta)), math.sin(math.pi * (1.0 - beta + alpha))
    zc = z[:, None]
    split = np.minimum(np.abs(zc * ca), _ML_MASS**alpha)

    def density(x: np.ndarray) -> np.ndarray:
        logx = np.log(x)
        decay = np.exp((1.0 - beta) / alpha * logx - np.exp(logx / alpha))
        return decay * (x * sb - zc * sba) / ((x - zc * ca) ** 2 + (zc * sa) ** 2)

    with np.errstate(over="ignore", under="ignore"):
        below = np.sum(density(split * _TANH_X) * _TANH_W, axis=1)
        above = np.sum(density(split + _EXP_X) * _EXP_W, axis=1)
        out = (split[:, 0] * below + above) / (math.pi * alpha)
        pos = z > 0.0
        out[pos] += np.exp((1.0 - beta) / alpha * np.log(z[pos]) + z[pos] ** (1.0 / alpha)) / alpha
    for b in reversed(reductions):
        out = (out - sps.rgamma(b - alpha)) / z
    return out


def mittag_leffler_array(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E_{alpha,beta}(z); each element takes the route of ``mittag_leffler``."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.empty_like(flat)
    small = np.abs(flat) <= _ML_RADIUS
    if np.any(small):
        table = _ml_table(alpha, beta)
        zs = flat[small]
        acc = np.full_like(zs, table[-1])
        for coef in table[-2::-1]:
            acc = acc * zs + coef
        out[small] = acc
    large = ~small
    if np.any(large):
        if alpha == 1.0:
            out[large] = sps.hyp1f1(1.0, beta, flat[large]) * sps.rgamma(beta)
        else:
            out[large] = _ml_integral(alpha, beta, flat[large])
    return out.reshape(z.shape)


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Routes, chosen per element from alpha and z:

    - |z| <= 1: the Taylor series, summed by Horner;
    - alpha = 1: E_{1,beta}(z) = 1F1(1; beta; z) / Gamma(beta);
    - otherwise: a double-exponential quadrature of the integral
      representation (``_ml_integral``), plus its residue term for z > 0.

    Accurate to 1e-10 relative on z in [-50, 5] for alpha in [0.1, 1] and
    beta in (0, 10].  Outside that the quadrature loses digits for |z| > 1:
    about 1e-5 relative at alpha = 0.05; and the value falls like
    1/Gamma(beta) faster than the beta recurrence of ``_ml_integral`` shrinks
    its error, which ruins beta = 30 near |z| = 1.  Where the value
    overflows float64 the result is +inf.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    return float(mittag_leffler_array(alpha, beta, np.array([z]))[0])


# ---------------------------------------------------------------------------
# Resolvents
# ---------------------------------------------------------------------------


def resolvent_second_kind(kernel: Kernel, grid: TimeGrid) -> SampledFunction:
    """Closed-form resolvent R with K*R = R*K = K - R, sampled on the grid.

    For kernels singular at zero the node-0 value is NaN (R inherits the
    t^(alpha-1) singularity).
    """
    t = grid.nodes
    vals = np.empty_like(t)
    if kernel.family == "constant":
        vals[:] = kernel.c * np.exp(-kernel.c * t)
    elif kernel.family == "exponential":
        vals[:] = kernel.c * np.exp(-(kernel.lam + kernel.c) * t)
    else:
        al, c, lam = kernel.alpha, kernel.c, kernel.lam
        interior = t[1:]
        ml = mittag_leffler_array(al, al, -c * interior**al)
        vals[1:] = c * interior ** (al - 1.0) * ml
        if lam != 0.0:
            vals[1:] *= np.exp(-lam * interior)
        vals[0] = c if al == 1.0 else np.nan
    return SampledFunction(grid, vals)


@dataclass(frozen=True)
class FirstKindResolvent:
    """Measure L with K*L = 1: an atom at zero plus a density.

    ``density`` evaluates the absolutely continuous part at t > 0; it is
    None when the measure is a pure atom.
    """

    kernel: Kernel
    atom: float
    density: Callable[[np.ndarray], np.ndarray] | None = None

    def density_at(self, t):
        if self.density is None:
            return np.zeros_like(np.asarray(t, dtype=float))
        return self.density(np.asarray(t, dtype=float))


def resolvent_first_kind(kernel: Kernel) -> FirstKindResolvent:
    """First-kind resolvent from the kernel table.

    Fractional kernels with alpha = 1 degenerate to the constant-kernel atom.
    For the gamma family the table's derivative expression is carried out in
    closed form through the regularized incomplete gamma function P:

        density(t) = c^-1 [ lam^alpha P(1-alpha, lam t)
                            + exp(-lam t) t^-alpha / Gamma(1-alpha) ].
    """
    c, al, lam = kernel.c, kernel.alpha, kernel.lam
    if kernel.family == "constant" or (kernel.family in ("fractional", "gamma") and al == 1.0 and lam == 0.0):
        return FirstKindResolvent(kernel, atom=1.0 / c)
    if kernel.family == "exponential" or (kernel.family == "gamma" and al == 1.0):
        rate = lam
        return FirstKindResolvent(kernel, atom=1.0 / c, density=lambda t: np.full_like(t, rate / c))
    if kernel.family == "fractional" or lam == 0.0:
        return FirstKindResolvent(
            kernel, atom=0.0, density=lambda t: t ** (-al) * sps.rgamma(1.0 - al) / c
        )

    def gamma_density(t: np.ndarray) -> np.ndarray:
        return (lam**al * sps.gammainc(1.0 - al, lam * t) + np.exp(-lam * t) * t ** (-al) * sps.rgamma(1.0 - al)) / c

    return FirstKindResolvent(kernel, atom=0.0, density=gamma_density)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product honoring matrix shapes (scalar*any, row@mat, mat@mat)."""
    if a.ndim == 0 or b.ndim == 0:
        return a * b
    return a @ b


def convolve(f, g, grid: TimeGrid | None = None) -> SampledFunction:
    """Convolution (f*g)(t) = int_0^t f(t-s) g(s) ds sampled on the grid.

    ``f`` may be a Kernel (product integration with exact cell weights, valid
    for singular kernels against a bounded co-factor) or a SampledFunction
    (composite trapezoidal rule; matrix dimensions must be compatible).  A
    kernel may also be convolved against its own first-kind resolvent, which
    dispatches to the exact-weight routine used by the identity checks.
    """
    if isinstance(g, FirstKindResolvent):
        if not isinstance(f, Kernel):
            raise TypeError("measure convolution requires a Kernel on the left")
        if grid is None:
            raise ValueError("grid required")
        return SampledFunction(grid, _kernel_conv_first_kind(f, g, grid))
    if isinstance(f, Kernel):
        if grid is None:
            raise ValueError("grid required when convolving a kernel")
        weights = stack_weights([kernel_weights(f, grid)])  # one row: the single kernel
        gv = g.values
        if not np.all(np.isfinite(gv)):
            raise ValueError("co-factor must be finite at every node (including t=0)")
        out = np.zeros_like(gv)
        sums = causal_sums(weights.corrector_lags(), gv.reshape(1, len(gv), -1))  # every entry one column
        out[1:] = sums.reshape(gv[1:].shape) + weights.corrector[0, 1] * gv[1:]
        return SampledFunction(grid, out)
    # sampled * sampled: composite trapezoid over the products f(t-s) g(s)
    if grid is None:
        grid = f.grid
    fv, gv = f.values, g.values
    dt = grid.dt
    n_steps = grid.n_steps
    if fv.ndim == 1 and gv.ndim == 1:
        full = np.convolve(fv, gv)[: n_steps + 1]
        full[1:] -= 0.5 * (fv[1:] * gv[0] + fv[0] * gv[1:])
        full[0] = 0.0
        return SampledFunction(grid, full * dt)
    sample = _pairwise(fv[0], gv[0])
    out = np.zeros((n_steps + 1,) + np.shape(sample))
    for n in range(1, n_steps + 1):
        prods = np.array([_pairwise(fv[n - j], gv[j]) for j in range(n + 1)])
        out[n] = (prods[0] * 0.5 + prods[-1] * 0.5 + prods[1:-1].sum(axis=0)) * dt
    return SampledFunction(grid, out)


# ---------------------------------------------------------------------------
# Resolvent identity checks (product quadrature with exact singular weights)
# ---------------------------------------------------------------------------


def _two_power_cells(t: float, theta: float, al: float, n: int, end_centroids: bool = True):
    """Exact cell masses of the weight (t-s)^(al-1) s^(theta-1) on [0, t].

    The interval [0, t] is split into n uniform cells; masses come from the
    regularized incomplete beta function.  Evaluation points are cell
    midpoints, with the first and last cells replaced by their exact weighted
    centroids (those cells carry the endpoint singularities).
    """
    x = np.arange(n + 1) / n
    i0 = sps.betainc(theta, al, x)
    b0 = sps.beta(theta, al)
    mass = t ** (al + theta - 1.0) * b0 * np.diff(i0)
    points = (np.arange(n) + 0.5) * (t / n)
    if end_centroids and n >= 1:
        b1 = sps.beta(theta + 1.0, al)
        xe = np.array([x[1], x[-2], x[-1]]) if n > 1 else np.array([x[1]])
        i1 = sps.betainc(theta + 1.0, al, xe)
        first_mom = t ** (al + theta) * b1 * i1[0]
        if mass[0] > 0:
            points[0] = first_mom / mass[0]
        if n > 1:
            last_mom = t ** (al + theta) * b1 * (i1[2] - i1[1])
            if mass[-1] > 0:
                points[-1] = last_mom / mass[-1]
    return mass, points


def second_kind_residual(kernel: Kernel, grid: TimeGrid) -> float:
    """max over grid nodes t >= dt of |K*R + R - K| for the table resolvent.

    Smooth kernels use the generic product-trapezoidal convolution.  For the
    weakly singular families the doubly singular product K(t-s)R(s) is
    integrated by two-power product quadrature: exact incomplete-beta cell
    weights for (t-s)^(a-1) s^(a-1), the leading terms of the co-factor's
    power expansion convolved in closed form, and the smooth remainder
    evaluated at cell midpoints/centroids.  The exponential part of the gamma
    family factors out exactly as exp(-lam t).
    """
    t = grid.nodes
    n_steps = grid.n_steps
    if kernel.family in ("constant", "exponential") or kernel.alpha == 1.0:
        eff = kernel
        if kernel.family in ("fractional", "gamma") and kernel.alpha == 1.0:
            eff = Kernel.exponential(kernel.c, kernel.lam)
        r = resolvent_second_kind(eff, grid)
        kr = convolve(eff, r, grid).values
        resid = kr[1:] + r.values[1:] - eff(t[1:])
        return float(np.max(np.abs(resid)))

    # Weakly singular rows.  The exponential part factors out exactly:
    # K(t-s) R(s) = exp(-lam t) Kf(t-s) Rf(s) with Kf, Rf the fractional
    # analogues.  Rf is split into its leading power terms, whose
    # convolutions with Kf have closed form by the power semigroup
    # k_a * k_b = k_{a+b}, plus a C^1 remainder ~ s^(a(M+1)-1) handled by
    # the generic product-trapezoidal convolution.
    c, al, lam = kernel.c, kernel.alpha, kernel.lam
    n_head = 6
    interior = t[1:]
    frac_r = np.zeros(n_steps + 1)
    frac_r[1:] = c * interior ** (al - 1.0) * mittag_leffler_array(al, al, -c * interior**al)
    head_nodes = np.zeros(n_steps + 1)
    head_conv = np.zeros(n_steps + 1)
    for m in range(1, n_head + 1):
        sgn = (-1.0) ** (m - 1)
        head_nodes[1:] += sgn * c**m * interior ** (al * m - 1.0) * sps.rgamma(al * m)
        head_conv[1:] += sgn * c ** (m + 1) * interior ** (al * (m + 1) - 1.0) * sps.rgamma(al * (m + 1))
    remainder = SampledFunction(grid, frac_r - head_nodes)
    quad_conv = convolve(Kernel.fractional(c, al), remainder, grid).values
    decay = np.exp(-lam * t[1:])
    conv_kr = decay * (head_conv[1:] + quad_conv[1:])
    r_vals = decay * frac_r[1:]
    k_vals = decay * c * interior ** (al - 1.0) * sps.rgamma(al)
    return float(np.max(np.abs(conv_kr + r_vals - k_vals)))


def _kernel_conv_first_kind(kernel: Kernel, res: FirstKindResolvent, grid: TimeGrid) -> np.ndarray:
    """(K*L)(t) at the grid nodes, by exact-weight product quadrature."""
    t = grid.nodes
    n_steps = grid.n_steps
    c, al, lam = kernel.c, kernel.alpha, kernel.lam
    out = np.zeros(n_steps + 1)
    atomic = kernel.family == "constant" or (kernel.family in ("fractional", "gamma") and al == 1.0 and lam == 0.0)
    if atomic:
        out[:] = res.atom * c
        return out
    if kernel.family == "exponential" or (kernel.family == "gamma" and al == 1.0):
        cells = kernel_weights(Kernel.exponential(c, lam), grid).cell
        dens = lam / c
        out[1:] = res.atom * c * np.exp(-lam * t[1:]) + dens * np.cumsum(cells)
        out[0] = res.atom * c
        return out
    # exact two-power integral of (t-s)^(a-1) s^-a over [0, t]: the fractional
    # curve, and the doubly singular term of the gamma curve.  Its cell masses
    # telescope to the whole incomplete-beta range, the same at every node.
    scale = float(sps.rgamma(al) * sps.rgamma(1.0 - al) * sps.beta(1.0 - al, al))
    out[0] = np.nan
    out[1:] = scale * float(sps.betainc(1.0 - al, al, 1.0) - sps.betainc(1.0 - al, al, 0.0))
    if kernel.family == "fractional" or lam == 0.0:
        return out

    # gamma kernel, lam > 0, alpha < 1: density splits into a P-term handled by
    # two-power quadrature with a smooth co-factor and the term above, which
    # carries exp(-lam t).

    def tricomi(x: np.ndarray) -> np.ndarray:
        # gamma*(a, x) = P(a, x) x^-a, entire in x; series limit at x = 0
        x = np.asarray(x, dtype=float)
        out_t = np.empty_like(x)
        small = x < 1e-12
        out_t[small] = sps.rgamma(2.0 - al)
        xs = x[~small]
        out_t[~small] = sps.gammainc(1.0 - al, xs) * xs ** (al - 1.0)
        return out_t

    for n in range(1, n_steps + 1):
        tn = t[n]
        mass, points = _two_power_cells(tn, 2.0 - al, al, n)
        smooth = np.exp(-lam * (tn - points)) * tricomi(lam * points)
        piece_a = lam * float(sps.rgamma(al)) * float(mass @ smooth)
        out[n] = piece_a + math.exp(-lam * tn) * out[n]
    return out


def first_kind_residual(kernel: Kernel, grid: TimeGrid) -> float:
    """max over grid nodes t >= dt of |(K*L)(t) - 1|."""
    res = resolvent_first_kind(kernel)
    curve = _kernel_conv_first_kind(kernel, res, grid)
    return float(np.max(np.abs(curve[1:] - 1.0)))
