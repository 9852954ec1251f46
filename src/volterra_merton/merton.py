"""Optimal strategies, hedging demands and value functions.

The optimal weights decompose as a constant myopic term plus a hedging
demand driven by the time-reversed Riccati-Volterra solution.  Value
functions are the closed-form exponential functionals of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import TimeGrid
from .models import (
    VectorModel,
    WishartModel,
    equal_correlation_distortion,
    expected_variance_curve,
    rate_on_grid,
)
from .riccati import (
    MatrixRiccatiRHS,
    RiccatiPath,
    VectorRiccatiRHS,
    vector_rhs_general,
    wishart_rhs,
)

__all__ = [
    "StrategyPath",
    "ValueReport",
    "strategy_degenerate",
    "strategy_general",
    "strategy_wishart",
    "value_general",
    "value_distortion",
    "value_wishart",
]


@dataclass(frozen=True)
class StrategyPath:
    """Optimal portfolio weights on a grid: weights = myopic + hedging."""

    grid: TimeGrid
    weights: np.ndarray
    hedging: np.ndarray
    myopic: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        h = np.asarray(self.hedging, dtype=float)
        m = np.asarray(self.myopic, dtype=float)
        if w.shape != h.shape or w.shape[0] != self.grid.n_steps + 1:
            raise ValueError("weights and hedging must hold one row per node")
        if m.shape != w.shape[1:]:
            raise ValueError("myopic term must be a single weight vector")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "hedging", h)
        object.__setattr__(self, "myopic", m)

    @property
    def d(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class ValueReport:
    """Value function evaluation and its certainty equivalent."""

    value: float
    certainty_equivalent: float


def _mirrored(path: RiccatiPath) -> np.ndarray:
    """psi(T - t_j) for every node j, by index mirroring on the shared grid."""
    return path.values[::-1]


def _vector_strategy(model: VectorModel, path: RiccatiPath, c: float) -> StrategyPath:
    """weights(t) = (theta + c psi(T-t) N P) / (1-gamma)."""
    gamma = model.gamma
    myopic = model.theta / (1.0 - gamma)
    scale = model.nu * model.rho  # diagonal of N P
    hedging = c * _mirrored(path) * scale / (1.0 - gamma)
    return StrategyPath(path.grid, myopic + hedging, hedging, myopic)


def strategy_general(model: VectorModel, path: RiccatiPath) -> StrategyPath:
    """weights(t) = (theta + psi(T-t) N P) / (1-gamma) for the general equation."""
    path.require_global()
    return _vector_strategy(model, path, 1.0)


def strategy_degenerate(model: VectorModel, path: RiccatiPath) -> StrategyPath:
    """Strategy from the distortion-transform solution (equal correlations).

    The hedging demand carries the distortion exponent:
    weights(t) = (theta + c psi(T-t) N P) / (1-gamma).
    """
    path.require_global()
    return _vector_strategy(model, path, equal_correlation_distortion(model))


def strategy_wishart(model: WishartModel, path: RiccatiPath) -> StrategyPath:
    """weights(t) = (v + 2 psi(T-t) Q^T rho) / (1-gamma) for the matrix model."""
    path.require_global()
    gamma = model.gamma
    myopic = model.market_price / (1.0 - gamma)
    qr = model.vol_of_vol.T @ model.rho
    hedging = 2.0 * _mirrored(path) @ qr / (1.0 - gamma)
    return StrategyPath(path.grid, myopic + hedging, hedging, myopic)


def _value_report(model, path: RiccatiPath, x0: float, state_term) -> ValueReport:
    """x0^g/g exp(int_0^T gamma r(s) + state_term(s) ds), the value functions' shared tail.

    ``state_term`` maps psi(T - t_j), for every node j, to the model's part
    of the log-value integrand; it runs after the x0 and global-existence
    checks.
    """
    if x0 <= 0.0:
        raise ValueError("initial wealth must be positive")
    path.require_global()
    grid = path.grid
    gamma = model.gamma
    integrand = gamma * rate_on_grid(model.rate, grid) + state_term(_mirrored(path))
    with np.errstate(over="ignore"):  # an overflowing value is reported as a non-finite metric
        value = x0**gamma / gamma * float(np.exp(np.trapezoid(integrand, dx=grid.dt)))
    return ValueReport(value=value, certainty_equivalent=(gamma * value) ** (1.0 / gamma))


def value_general(
    model: VectorModel, path: RiccatiPath, x0: float, rhs: VectorRiccatiRHS | None = None
) -> ValueReport:
    """Closed-form value x0^g/g exp(int_0^T gamma r + F(psi)(T-s) . v0(s) ds)."""

    def state_term(rev: np.ndarray) -> np.ndarray:
        fvals = (vector_rhs_general(model) if rhs is None else rhs)(rev)
        return np.einsum("jd,jd->j", fvals, model.input_curve(path.grid))

    return _value_report(model, path, x0, state_term)


def value_distortion(model: VectorModel, path: RiccatiPath, x0: float) -> ValueReport:
    """Distortion-transform value at time zero (equal correlations).

    H(0, x0, V0) = x0^g/g exp(int_0^T gamma r
        + g/(2(1-g)) theta Theta xi(s) + c/2 psi(T-s) N^2 Psi(T-s) xi(s) ds)
    with xi the tilted mean variance curve.
    """

    def state_term(rev: np.ndarray) -> np.ndarray:
        c = equal_correlation_distortion(model)
        gamma = model.gamma
        xi = expected_variance_curve(model, path.grid).values
        theta_term = gamma / (2.0 * (1.0 - gamma)) * np.einsum("d,jd->j", model.theta**2, xi)
        return theta_term + 0.5 * c * np.einsum("jd,jd->j", rev**2 * model.nu**2, xi)

    return _value_report(model, path, x0, state_term)


def value_wishart(
    model: WishartModel, path: RiccatiPath, x0: float, rhs: MatrixRiccatiRHS | None = None
) -> ValueReport:
    """Closed-form value with the trace integrand:

    x0^g/g exp(int_0^T gamma r + Tr[f(psi)(T-s) Sigma0 + psi(T-s) N N^T] ds).
    """

    def state_term(rev: np.ndarray) -> np.ndarray:
        fvals = (wishart_rhs(model) if rhs is None else rhs)(rev)
        return np.einsum("jab,ba->j", fvals, model.sigma0) + np.einsum("jab,ba->j", rev, model.drift_constant)

    return _value_report(model, path, x0, state_term)
