"""Market model parameter records, validation, and derived quantities."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import (
    HistorySums,
    Kernel,
    SampledFunction,
    TimeGrid,
    component_kernels,
    corrector_lags,
    kernel_weights,
)

__all__ = [
    "VectorModel",
    "WishartModel",
    "validate",
    "distortion_constant",
    "lambda_matrix",
    "lambda_condition_number",
    "expected_variance_curve",
    "rate_on_grid",
]

Rate = float | Callable[[float], float]


def rate_on_grid(rate: Rate, grid: TimeGrid) -> np.ndarray:
    if callable(rate):
        return np.array([rate(float(t)) for t in grid.nodes])
    return np.full(grid.n_steps + 1, float(rate))


def _store_arrays(record, shapes: dict[str, tuple[int, ...]]) -> None:
    """Coerce array fields of a frozen record to float arrays of the given shapes."""
    for name, shape in shapes.items():
        arr = np.asarray(getattr(record, name), dtype=float)
        arr = np.atleast_1d(arr) if len(shape) == 1 else np.atleast_2d(arr)
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}")
        object.__setattr__(record, name, arr)


@dataclass(frozen=True)
class VectorModel:
    """Multi-asset market with componentwise square-root Volterra volatility.

    theta  -- risk premia per unit variance, >= 0
    nu     -- vol-of-vol diagonal
    drift  -- variance drift matrix D, nonnegative off the diagonal
    rho    -- per-asset stock/volatility correlation in [-1, 1]
    v0     -- initial variance level V0 >= 0; the input curve is
              v0(t) = V0 + int_0^t K(t-s) b0 ds with b0 >= 0
    rate   -- deterministic risk-free rate (constant or function of time)
    gamma  -- relative risk aversion, in (0, 1)
    kernel -- one Kernel per component (diagonal multivariate kernel)
    """

    theta: np.ndarray
    nu: np.ndarray
    drift: np.ndarray
    rho: np.ndarray
    v0: np.ndarray
    gamma: float
    kernel: list[Kernel]
    rate: Rate = 0.0
    b0: np.ndarray | None = None

    def __post_init__(self) -> None:
        d = np.atleast_1d(np.asarray(self.theta, dtype=float)).shape[0]
        if self.b0 is None:
            object.__setattr__(self, "b0", np.zeros(d))
        _store_arrays(self, {"theta": (d,), "nu": (d,), "drift": (d, d), "rho": (d,), "v0": (d,), "b0": (d,)})
        object.__setattr__(self, "kernel", component_kernels(self.kernel, d))

    @property
    def d(self) -> int:
        return self.theta.shape[0]

    def input_curve(self, grid: TimeGrid) -> np.ndarray:
        """v0(t_j) = V0 + b0 * int_0^t K on the grid, shape (n+1, d)."""
        out = np.tile(self.v0, (grid.n_steps + 1, 1))
        if np.any(self.b0 != 0.0):
            cell = np.stack([kernel_weights(k, grid).cell for k in self.kernel])
            out[1:] += self.b0 * np.cumsum(cell, axis=1).T
        return out


@dataclass(frozen=True)
class WishartModel:
    """Multi-asset market with matrix-valued (Wishart-type) Volterra volatility.

    mean_reversion -- drift matrix M
    vol_of_vol     -- diffusion matrix Q
    noise          -- matrix N entering the drift constant N N^T; a config's
                      nnt_from_q = f gives N = sqrt(f) Q^T
    rho            -- stock/volatility correlation vector, rho^T rho <= 1
    market_price   -- market price of risk vector v
    sigma0         -- initial covariance, symmetric positive definite
    rate, gamma, kernel -- as in VectorModel
    """

    mean_reversion: np.ndarray
    vol_of_vol: np.ndarray
    noise: np.ndarray
    rho: np.ndarray
    market_price: np.ndarray
    sigma0: np.ndarray
    gamma: float
    kernel: list[Kernel]
    rate: Rate = 0.0

    def __post_init__(self) -> None:
        d = np.atleast_2d(np.asarray(self.mean_reversion, dtype=float)).shape[0]
        sq, vec = (d, d), (d,)
        shapes = {"mean_reversion": sq, "vol_of_vol": sq, "noise": sq, "rho": vec, "market_price": vec, "sigma0": sq}
        _store_arrays(self, shapes)
        object.__setattr__(self, "kernel", component_kernels(self.kernel, d))

    @property
    def d(self) -> int:
        return self.mean_reversion.shape[0]

    @property
    def drift_constant(self) -> np.ndarray:
        return self.noise @ self.noise.T


_PD_FLOOR = 1e-12


def validate(model) -> list[str]:
    """All invariant violations of a model, as human-readable strings.

    An empty list means the model is admissible; violations are data, not
    exceptions, so configuration loaders can report them all at once.
    """
    if not isinstance(model, (VectorModel, WishartModel)):
        raise TypeError(f"unsupported model type {type(model)!r}")
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
    violations = [
        f"{name} has non-finite entries"
        for name, value in fields.items()
        if isinstance(value, np.ndarray) and not np.all(np.isfinite(value))
    ]
    if not callable(model.rate) and not math.isfinite(model.rate):
        violations.append("rate is not finite")
    if isinstance(model, VectorModel):
        rho = model.rho
        for template, bad in (
            ("theta[{}] < 0", model.theta < 0.0),
            ("nu[{}] <= 0", model.nu <= 0.0),
            ("D[{}][{}] < 0", (model.drift < 0.0) & ~np.eye(model.d, dtype=bool)),
            ("rho[{}] outside [-1, 1]", ~((rho >= -1.0) & (rho <= 1.0))),
            ("v0[{}] < 0", model.v0 < 0.0),
            ("b0[{}] < 0", model.b0 < 0.0),
        ):
            violations.extend(template.format(*idx) for idx in np.argwhere(bad))
    else:
        rho = model.rho
        with np.errstate(over="ignore"):  # an overflow is a violation too
            norm2 = float(rho @ rho)
        if norm2 > 1.0 + 1e-12:
            violations.append("rho^T rho > 1")
        if np.all(np.isfinite(model.noise)):  # a non-finite noise is reported above
            with np.errstate(over="ignore", invalid="ignore"):  # a finite N whose N N^T overflows
                if not np.all(np.isfinite(model.drift_constant)):
                    violations.append("N N^T has non-finite entries")
        sigma0 = model.sigma0
        if not np.allclose(sigma0, sigma0.T, atol=1e-12, rtol=0.0):
            violations.append("sigma0 not symmetric")
        elif np.all(np.isfinite(sigma0)):  # a non-finite sigma0 is reported above
            smallest = float(np.linalg.eigvalsh(0.5 * (sigma0 + sigma0.T)).min())
            if smallest <= _PD_FLOOR:
                violations.append(f"sigma0 not positive definite (min eigenvalue {smallest:.3e})")
    if not 0.0 < model.gamma < 1.0:
        violations.append("gamma outside (0, 1)")
    return violations


def distortion_constant(gamma: float, rho: float) -> float:
    """Distortion exponent c = (1-gamma) / (1-gamma+gamma rho^2), in (0, 1]."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    return (1.0 - gamma) / (1.0 - gamma + gamma * rho**2)


def equal_correlation_distortion(model: VectorModel) -> float:
    """The distortion constant c of a model whose components share one correlation.

    The distortion construction holds only then; other correlations are a ValueError.
    """
    rho = np.asarray(model.rho, dtype=float)
    if not np.allclose(rho, rho[0], atol=1e-14, rtol=0.0):
        raise ValueError("the distortion construction requires equal correlations")
    return distortion_constant(model.gamma, float(rho[0]))


def lambda_matrix(model: VectorModel) -> np.ndarray:
    """Effective variance drift D + gamma/(1-gamma) diag(nu rho theta)."""
    g = model.gamma / (1.0 - model.gamma)
    return model.drift + g * np.diag(model.nu * model.rho * model.theta)


def lambda_condition_number(model: VectorModel) -> float:
    return float(np.linalg.cond(lambda_matrix(model)))


def expected_variance_curve(
    model: VectorModel, grid: TimeGrid, drift_matrix: np.ndarray | None = None
) -> SampledFunction:
    """Mean variance curve solving xi(t) = v0(t) + int_0^t K(t-s) B xi(s) ds.

    By default B is the tilted drift from ``lambda_matrix`` (the forward curve
    entering the distortion value function); pass ``drift_matrix=model.drift``
    for the physical-measure mean.  The linear Volterra equation is stepped
    implicitly with the trapezoidal product weights, which is equivalent to
    the resolvent-integral representation but avoids sampling the singular
    resolvent.  The implicit step's matrix I - diag(c_1) B is inverted once.
    """
    B = lambda_matrix(model) if drift_matrix is None else np.asarray(drift_matrix, dtype=float)
    d = model.d
    if B.shape != (d, d):
        raise ValueError(f"drift matrix must be {d}x{d}")
    n_steps = grid.n_steps
    weights = [kernel_weights(k, grid) for k in model.kernel]
    forced = model.input_curve(grid)
    xi = np.zeros((n_steps + 1, d))
    xi[0] = forced[0]
    gvals = np.empty((d, n_steps + 1, 1))  # g = B xi, component i convolved with K_i
    gvals[:, 0, 0] = B @ xi[0]
    implicit = np.linalg.inv(np.eye(d) - np.diag([w.corrector[1] for w in weights]) @ B)
    history = HistorySums(corrector_lags(weights), gvals)
    for n in range(1, n_steps + 1):
        sol = implicit @ (forced[n] + history(n)[:, 0, 0])
        if not np.isfinite(sol).all():
            raise FloatingPointError("expected-variance iteration diverged")
        xi[n] = sol
        gvals[:, n, 0] = B @ sol
    return SampledFunction(grid, xi)
