"""Convolution kernels, Mittag-Leffler evaluation, and resolvent calculus.

The four completely monotone kernel families of the table, with closed-form
resolvents of the first and second kind, are the gamma kernel
K(t) = c exp(-lam t) t^(a-1) / Gamma(a) with a = 1 and/or lam = 0 fixed:
constant (both), fractional (lam = 0), exponential (a = 1) and gamma (none).
The family only decides which parameters a kernel takes; c, a and lam must
be finite.  The formulas branch on the two values that change their closed
form, lam = 0 (the power form) and a = 1 (the exponential form), and
otherwise take the gamma form.  Whether a kernel's weights are right on a
given step is decided here too: ``Kernel.step_problem`` names a gamma-form
lam too small for the step.

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

# psi(x) = 1 - (1 + x) exp(-x) = x^2 sum_k (k + 1) (-x)^k / (k + 2)!, summed over k < 16 for
# x < 0.5, where the terms left out are below 2e-19 of the sum
_PSI_SERIES = np.array([(k + 1) / math.factorial(k + 2) for k in range(16)])


@dataclass(frozen=True)
class Kernel:
    """One scalar kernel from the four-family table.

    ``family`` is read only to validate the parameters.  A diagonal
    multivariate kernel is represented as a plain list of ``Kernel``
    objects, one per component.
    """

    family: str
    c: float
    alpha: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        for name in ("c", "alpha", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"kernel {name} must be finite, got {getattr(self, name)}")
        if not self.c > 0:
            raise ValueError("kernel scale c must be positive")
        if self.family in ("fractional", "gamma") and not 0.0 < self.alpha <= 1.0:
            raise ValueError("fractional order alpha must lie in (0, 1]")
        if self.family in ("exponential", "gamma") and self.lam < 0.0:
            raise ValueError("decay rate lam must be nonnegative")
        if self.family in ("constant", "exponential") and self.alpha != 1.0:
            raise ValueError(f"{self.family} kernels take no alpha (it must be 1)")
        if self.family in ("constant", "fractional") and self.lam != 0.0:
            raise ValueError(f"{self.family} kernels take no decay rate lam (it must be 0)")
        if self.alpha < 1.0 and self.lam > 0.0:
            # the gamma form divides by lam ** alpha and lam ** (alpha + 1), the power farther from 1
            with np.errstate(over="ignore", under="ignore"):
                power = np.float64(self.lam) ** (self.alpha + 1.0)
            if not 0.0 < power < math.inf:
                raise ValueError(f"decay rate lam = {self.lam!r} is out of range: lam ** (alpha + 1) is {power}")

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
        return self.alpha < 1.0

    def __call__(self, t):
        """Evaluate K(t); t > 0 required for singular kernels, t >= 0 otherwise."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("kernel argument must be nonnegative")
        if self.singular_at_zero and np.any(arr == 0.0):
            raise ValueError("singular kernel evaluated at t = 0")
        # exp(-0 t), t^0 and 1/Gamma(1) are exactly 1, so this is every form
        out = self.c * np.exp(-self.lam * arr) * arr ** (self.alpha - 1.0) * sps.rgamma(self.alpha)
        return out if np.ndim(t) else float(out)

    def integral(self, a, b):
        """Exact integral of K over [a, b], finite even across the t=0 singularity."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        al, lam = self.alpha, self.lam
        if lam == 0.0:
            return self.c * (b**al - a**al) * sps.rgamma(al + 1.0)
        if al == 1.0:
            return self.c * np.exp(-lam * a) * -np.expm1(-lam * (b - a)) / lam
        return self.c * (sps.gammainc(al, lam * b) - sps.gammainc(al, lam * a)) / lam**al

    def first_moment(self, a, b):
        """Exact integral of u * K(u) over [a, b]."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        al, lam = self.alpha, self.lam
        if lam == 0.0:
            return self.c * (b ** (al + 1.0) - a ** (al + 1.0)) / (al + 1.0) * sps.rgamma(al)
        if al == 1.0:
            # c exp(-lam a) (a E / lam + psi(x) / lam^2) with x = lam (b - a) and E = 1 - exp(-x):
            # a times the cell's integral plus its moment about a, both nonnegative.  psi(x) =
            # E - x exp(-x) cancels for small x, where its series is summed instead
            x = lam * (b - a)
            e = -np.expm1(-x)
            near = np.minimum(x, 0.5)
            psi = np.where(x < 0.5, near**2 * np.polynomial.polynomial.polyval(-near, _PSI_SERIES), e - x * np.exp(-x))
            return self.c * np.exp(-lam * a) * (a * e + psi / lam) / lam
        return self.c * al * (sps.gammainc(al + 1.0, lam * b) - sps.gammainc(al + 1.0, lam * a)) / lam ** (al + 1.0)

    def step_problem(self, dt: float) -> str | None:
        """Why this kernel's first moments on a step of dt would be wrong, or None.

        The gamma form's first moments divide gammainc(alpha + 1, lam t) by
        lam ** (alpha + 1).  For a tiny lam the first cell's gammainc is below
        the normal floats, subnormal or 0, and the moments and correctors come
        out wrong: by up to 8.6 and 266 relative at lam = 1e-180 on 700 steps
        over [0, 2], where the kernel is the fractional one to many digits.
        """
        if self.alpha < 1.0 and self.lam > 0.0:
            first = float(sps.gammainc(self.alpha + 1.0, self.lam * dt))
            if first < np.finfo(float).tiny:
                return (
                    f"kernel lam = {self.lam!r} is too small for the step {dt!r}: "
                    f"gammainc(alpha + 1, lam dt) = {first!r} is below the normal floats"
                )
        return None


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
    return KernelWeights(cell, moment, corrector)


# HistorySums closes the block before each multiple of BLOCK, which reaches
# every later node through one FFT convolution; a grid of at most BLOCK steps
# closes no block.  The solver checks blow-up at the same multiples.
BLOCK = 512

# Within the open block, HistorySums pulls the older nodes' share into the
# sums of the next SUB nodes by one matrix product, at node 1 and every
# multiple of SUB, on values of at least WIDE columns (the simulators' paths);
# narrower values pull only at node 1 and at the block closes, where one
# product per step over the open block is cheaper.  Each step sums the nodes
# since the last pull directly.  SUB divides BLOCK.
SUB = 32
WIDE = 128


def block_fft_size(n_steps: int) -> int:
    """FFT length of the block closes of ``HistorySums`` on a grid of n_steps steps; 0 if it closes none.

    It covers the N + 1 nodes and one block more, so that no block's share
    wraps around onto a node read.
    """
    return sp_fft.next_fast_len(n_steps + 1 + BLOCK, real=True) if n_steps > BLOCK else 0


@dataclass(frozen=True)
class LagWeights:
    """History weights that depend on the lag L = n - k only, per component and stage.

    ``lag`` and ``head`` have shape (d, stages, N + 1).  Column L of ``lag``
    (column 0 is zero) weights node k = n - L >= 1 in the sum at node n, and
    column n of ``head`` weights node 0.  Each stage is one set of weights
    over the same values, such as the predictor and the corrector of a PECE
    step.
    """

    lag: np.ndarray
    head: np.ndarray


def predictor_lags(weights: Sequence[KernelWeights]) -> LagWeights:
    """Left-rectangle weights, one row per kernel and one stage: lag L weighs cell[L-1], node 0 included."""
    lag = np.zeros((len(weights), 1, len(weights[0].cell) + 1))
    lag[:, 0, 1:] = [w.cell for w in weights]
    return LagWeights(lag, lag)


def corrector_lags(weights: Sequence[KernelWeights]) -> LagWeights:
    """Trapezoidal weights a_{k,n} of the nodes before n, by lag, one row per kernel and one stage.

    Lag L weighs cell[L-1] - corrector[L] + corrector[L+1]; node 0 weighs
    cell[n-1] - corrector[n].  Together with corrector[1] on node n they
    integrate the piecewise-linear interpolant of the co-factor exactly
    against K, the corrector stage of the fractional Adams scheme.
    """
    head = np.zeros((len(weights), 1, len(weights[0].cell) + 1))
    head[:, 0, 1:] = [w.cell - w.corrector[1:] for w in weights]
    lag = head.copy()
    lag[:, 0, 1:-1] += [w.corrector[2:] for w in weights]  # lag N is node 0's at node N, never read
    return LagWeights(lag, head)


def pece_lags(weights: Sequence[KernelWeights]) -> LagWeights:
    """The predictor's and the corrector's weights as stages 0 and 1 of one history."""
    pred, corr = predictor_lags(weights), corrector_lags(weights)
    return LagWeights(np.concatenate([pred.lag, corr.lag], axis=1), np.concatenate([pred.head, corr.head], axis=1))


def _lag_spectrum(weights: LagWeights, size: int) -> np.ndarray:
    return sp_fft.rfft(weights.lag, size, axis=2)[..., None]


def _fft_sums(block: np.ndarray, spectrum: np.ndarray, size: int) -> np.ndarray:
    """Share of the block (nodes start, start + 1, ...) in the sums at nodes start + j, j < size.

    ``block`` is (d, nodes, width) and the result (d, stages, size, width):
    one transform of the block, times every stage's spectrum.  ``size`` must
    cover the block plus every lag read, so that nothing wraps around onto
    the nodes read.
    """
    return sp_fft.irfft(sp_fft.rfft(block, size, axis=1)[:, None] * spectrum, size, axis=2)


class HistorySums:
    """Running sums s_n = sum over k < n of the lag weights times values[:, k], every stage at once.

    ``values`` is component-major, (d, nodes, width), the last axis (paths,
    matrix rows) passing through, and may still be filling: s_n, shape
    (d, stages, width), reads values[:, :n], and n must run 1, 2, ... in
    turn.  Node 0 must be written before the first call and stay as it is.
    At node 1 and every multiple of the pull period, one batched matrix
    product of a Toeplitz block of the weights pulls the share of every node
    of the open block before it, node 0 with its head weights until the first
    block close, into the sums at the next period's nodes; they are held
    node-major.  Each step adds the nodes since the last pull directly.  The
    period is SUB on values of at least WIDE columns and BLOCK otherwise, so
    narrow values pull only at node 1 and at the block closes.
    On grids longer than BLOCK, each multiple of BLOCK closes the open block:
    one FFT of it adds its share to every later node.  The first close
    builds the (N + 1, d, stages, width) share of the closed nodes, node 0's
    included, so a grid of at most BLOCK steps never holds that array.  Each
    row and column is transformed and multiplied on its own, so a non-finite
    value reaches only the later sums of its own row and column, where the
    FFT may turn an overflow into NaN.
    """

    def __init__(self, weights: LagWeights, values: np.ndarray):
        n_steps = weights.lag.shape[2] - 1
        self.values = values
        self._rows = weights.lag[:, :, :0:-1].copy()  # lags N..1, so each row is a forward slice
        self._start = 1  # first node of the open block
        self._head = np.ascontiguousarray(np.moveaxis(weights.head, 2, 0))[..., None]  # (N + 1, d, stages, 1)
        self._node0 = values[:, None, 0]
        self._closed = None  # share of the closed nodes in the sums at node n, from the first block close
        self._period = SUB if values.shape[-1] >= WIDE else BLOCK
        self._near = self._next = 1  # the last pull and the next
        self._offset = None  # N + _near: row _offset - n of _rows weighs node _near in the sums at node n
        self._pulled = None  # share of the nodes before _near in the sums at nodes _near, _near + 1, ...
        self._size = block_fft_size(n_steps)
        self._spectrum = _lag_spectrum(weights, self._size) if self._size else None

    def __call__(self, n: int) -> np.ndarray:
        if n == self._next:
            self._pull(n)
        near = self._near
        return self._pulled[n - near] + self._rows[..., self._offset - n :] @ self.values[:, near:n]

    def _pull(self, n: int) -> None:
        """Close the open block at a multiple of BLOCK, then pull its nodes before n into the next sums."""
        self._pulled = None  # so that the old pull is gone before the new one is formed
        start = self._start
        if n % BLOCK == 0 and self._spectrum is not None:
            if self._closed is None:
                self._closed = self._head * self._node0
            shares = _fft_sums(self.values[:, start:n], self._spectrum, self._size)
            self._closed[n:] += np.moveaxis(shares[:, :, n - start : len(self._closed) - start], 2, 0)
            start = self._start = n
        n_rows = self._rows.shape[2]
        span = min(self._period, n_rows + 1 - n)
        if self._closed is None:
            start = 0  # node 0 is one more column of the product
        if start == n:
            self._pulled = self._closed[n : n + span]
        else:
            # entry (j, k) weighs node start + k at node n + j: lag n + j - start - k, row N minus that
            block = self._rows[..., n_rows - n + start - np.arange(span)[:, None] + np.arange(n - start)]
            if start == 0:
                block[..., 0] = np.moveaxis(self._head[n : n + span, ..., 0], 0, 2)
            self._pulled = np.empty((span,) + block.shape[:2] + self.values.shape[2:])
            np.matmul(block, self.values[:, None, start:n], out=np.moveaxis(self._pulled, 0, 2))
            if self._closed is not None:
                self._pulled += self._closed[n : n + span]
        self._near, self._next = n, n - n % self._period + self._period
        self._offset = n_rows + n


def causal_sums(weights: LagWeights, values: np.ndarray) -> np.ndarray:
    """s_n of ``HistorySums`` for n = 1..N at once, every value being known and finite.

    Returns (d, stages, N, width).  Grids of at most BLOCK steps go through
    ``HistorySums``; longer grids take node 0's share as ``HistorySums``
    does and one FFT convolution over the other nodes.
    """
    n_steps = weights.lag.shape[2] - 1
    if n_steps <= BLOCK:
        sums = HistorySums(weights, values)
        return np.stack([sums(n) for n in range(1, n_steps + 1)], axis=2)
    size = sp_fft.next_fast_len(values.shape[1] + n_steps, real=True)
    shares = _fft_sums(values[:, 1:], _lag_spectrum(weights, size), size)[:, :, :n_steps]
    return weights.head[:, :, 1:, None] * values[:, None, :1] + shares


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

    R(t) = c t^(alpha-1) E_{alpha,alpha}(-c t^alpha) exp(-lam t) at every
    alpha; at alpha = 1 it is c exp(-(c+lam) t).  Node 0 holds R(0) = c at
    alpha = 1; for kernels singular at zero it is NaN (R inherits the
    t^(alpha-1) singularity).
    """
    t = grid.nodes
    al, c, lam = kernel.alpha, kernel.c, kernel.lam
    interior = t[1:]
    vals = c * interior ** (al - 1.0) * mittag_leffler_array(al, al, -c * interior**al) * np.exp(-lam * interior)
    return SampledFunction(grid, np.concatenate([[np.nan if kernel.singular_at_zero else c], vals]))


@dataclass(frozen=True)
class FirstKindResolvent:
    """Measure L with K*L = 1: an atom at zero plus a density.

    ``density`` evaluates the absolutely continuous part at t > 0; it is
    None when the measure is a pure atom.
    """

    atom: float
    density: Callable[[np.ndarray], np.ndarray] | None = None

    def density_at(self, t):
        if self.density is None:
            return np.zeros_like(np.asarray(t, dtype=float))
        return self.density(np.asarray(t, dtype=float))


def resolvent_first_kind(kernel: Kernel) -> FirstKindResolvent:
    """First-kind resolvent from the kernel table.

    For alpha = 1 it is the atom 1/c plus the density lam/c, a pure atom at
    lam = 0.  Otherwise the table's derivative expression is carried out in
    closed form through the regularized incomplete gamma function P, whose
    term drops out at lam = 0:

        density(t) = c^-1 [ lam^alpha P(1-alpha, lam t)
                            + exp(-lam t) t^-alpha / Gamma(1-alpha) ].
    """
    c, al, lam = kernel.c, kernel.alpha, kernel.lam
    if al == 1.0:
        density = None if lam == 0.0 else lambda t: np.full_like(t, lam / c)
        return FirstKindResolvent(atom=1.0 / c, density=density)

    def gamma_density(t: np.ndarray) -> np.ndarray:
        return (lam**al * sps.gammainc(1.0 - al, lam * t) + np.exp(-lam * t) * t ** (-al) * sps.rgamma(1.0 - al)) / c

    return FirstKindResolvent(atom=0.0, density=gamma_density)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def convolve(kernel: Kernel, g: SampledFunction, grid: TimeGrid) -> SampledFunction:
    """Convolution (K*g)(t) = int_0^t K(t-s) g(s) ds sampled on the grid.

    Product integration with exact cell weights, valid for singular kernels
    against a bounded co-factor; g may be scalar, vector or matrix valued.
    """
    weights = kernel_weights(kernel, grid)
    gv = g.values
    if not np.all(np.isfinite(gv)):
        raise ValueError("co-factor must be finite at every node (including t=0)")
    out = np.zeros_like(gv)
    sums = causal_sums(corrector_lags([weights]), gv.reshape(1, len(gv), -1))  # every entry one column
    out[1:] = sums.reshape(gv[1:].shape) + weights.corrector[1] * gv[1:]
    return SampledFunction(grid, out)


# ---------------------------------------------------------------------------
# Resolvent identity checks (product quadrature with exact singular weights)
# ---------------------------------------------------------------------------


def _two_power_cells(t: float, theta: float, al: float, n: int):
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

    The product K(t-s)R(s), doubly singular for alpha < 1, is split: the
    leading terms of R's power expansion are convolved with K in closed form,
    and ``convolve`` integrates the smooth remainder.  The exponential part of
    the gamma form factors out exactly as exp(-lam t).
    """
    t = grid.nodes
    n_steps = grid.n_steps
    # The exponential part factors out exactly:
    # K(t-s) R(s) = exp(-lam t) Kf(t-s) Rf(s) with Kf, Rf the fractional
    # analogues.  Rf is split into its leading power terms, whose
    # convolutions with Kf have closed form by the power semigroup
    # k_a * k_b = k_{a+b}, plus a C^1 remainder ~ s^(a(M+1)-1) handled by
    # the generic product-trapezoidal convolution.
    c, al, lam = kernel.c, kernel.alpha, kernel.lam
    n_head = 6
    interior = t[1:]
    frac = Kernel.fractional(c, al)
    frac_r = resolvent_second_kind(frac, grid).values
    frac_r[0] = 0.0
    head_nodes = np.zeros(n_steps + 1)
    head_conv = np.zeros(n_steps + 1)
    for m in range(1, n_head + 1):
        sgn = (-1.0) ** (m - 1)
        head_nodes[1:] += sgn * c**m * interior ** (al * m - 1.0) * sps.rgamma(al * m)
        head_conv[1:] += sgn * c ** (m + 1) * interior ** (al * (m + 1) - 1.0) * sps.rgamma(al * (m + 1))
    remainder = SampledFunction(grid, frac_r - head_nodes)
    quad_conv = convolve(frac, remainder, grid).values
    decay = np.exp(-lam * t[1:])
    conv_kr = decay * (head_conv[1:] + quad_conv[1:])
    return float(np.max(np.abs(conv_kr + decay * frac_r[1:] - kernel(interior))))


def _kernel_conv_first_kind(kernel: Kernel, res: FirstKindResolvent, grid: TimeGrid) -> np.ndarray:
    """(K*L)(t) at the grid nodes, by exact-weight product quadrature."""
    t = grid.nodes
    n_steps = grid.n_steps
    al, lam = kernel.alpha, kernel.lam
    if al == 1.0:
        return res.atom * kernel(t) + convolve(kernel, SampledFunction(grid, res.density_at(t)), grid).values
    # exact two-power integral of (t-s)^(a-1) s^-a over [0, t]: the power
    # curve, and the doubly singular term of the gamma curve.  Its cell masses
    # telescope to the whole incomplete-beta range, the same at every node.
    scale = float(sps.rgamma(al) * sps.rgamma(1.0 - al) * sps.beta(1.0 - al, al))
    out = np.full(n_steps + 1, scale * float(sps.betainc(1.0 - al, al, 1.0) - sps.betainc(1.0 - al, al, 0.0)))
    out[0] = np.nan
    if lam == 0.0:
        return out

    # gamma form, lam > 0, alpha < 1: density splits into a P-term handled by
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
