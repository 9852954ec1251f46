"""Riccati-Volterra solvers based on the fractional Adams scheme.

Solves fixed-point equations of convolution type,

    psi(t) = int_0^t F(psi)(t - s) K(s) ds,

for row-vector valued psi with componentwise-quadratic F and for symmetric
matrix valued psi with the quadratic map of the Wishart case.  K is diagonal
with one scalar kernel per component (vector case) or per column (matrix
case).  Time stepping is predictor-corrector (PECE) product integration:
left-rectangle predictor with exact cell integrals of K, one corrector sweep
with the trapezoidal product weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    HistorySums,
    StackedWeights,
    TimeGrid,
    causal_sums,
    component_kernels,
    kernel_weights,
    stack_weights,
)

__all__ = [
    "VectorRiccatiRHS",
    "MatrixRiccatiRHS",
    "RiccatiPath",
    "BlowUp",
    "RiccatiBlowUpError",
    "vector_rhs_degenerate",
    "vector_rhs_general",
    "wishart_rhs",
    "solve_riccati_vector",
    "solve_riccati_matrix",
    "global_existence_diagonal",
    "fixed_point_residual",
]

DEFAULT_BLOWUP_THRESHOLD = 1e8


@dataclass(frozen=True)
class VectorRiccatiRHS:
    """Quadratic right-hand side F(psi) = const + psi @ linear + quad * psi**2.

    psi is a row vector, or a stack of them along a leading time axis;
    ``quad`` acts componentwise.
    """

    const: np.ndarray
    linear: np.ndarray
    quad: np.ndarray

    def __post_init__(self) -> None:
        const = np.atleast_1d(np.asarray(self.const, dtype=float))
        linear = np.atleast_2d(np.asarray(self.linear, dtype=float))
        quad = np.atleast_1d(np.asarray(self.quad, dtype=float))
        d = const.shape[0]
        if linear.shape != (d, d) or quad.shape != (d,):
            raise ValueError("inconsistent coefficient shapes")
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "quad", quad)

    @property
    def dim(self) -> int:
        return self.const.shape[0]

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.const + psi @ self.linear + self.quad * psi**2


@dataclass(frozen=True)
class MatrixRiccatiRHS:
    """Matrix right-hand side f(psi) = psi A + A^T psi + 2 psi S psi + C.

    ``quadratic`` (S) and ``constant`` (C) must be symmetric; f then maps
    symmetric matrices to symmetric matrices.  Evaluations are symmetrized to
    kill floating-point asymmetry.  psi may carry a leading time axis.
    """

    linear: np.ndarray
    quadratic: np.ndarray
    constant: np.ndarray

    def __post_init__(self) -> None:
        lin = np.atleast_2d(np.asarray(self.linear, dtype=float))
        quad = np.atleast_2d(np.asarray(self.quadratic, dtype=float))
        const = np.atleast_2d(np.asarray(self.constant, dtype=float))
        d = lin.shape[0]
        for name, m in (("linear", lin), ("quadratic", quad), ("constant", const)):
            if m.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}")
        for name, m in (("quadratic", quad), ("constant", const)):
            if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
                raise ValueError(f"{name} must be symmetric")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", 0.5 * (quad + quad.T))
        object.__setattr__(self, "constant", 0.5 * (const + const.T))

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        out = psi @ self.linear + self.linear.T @ psi + 2.0 * psi @ self.quadratic @ psi + self.constant
        return _symmetrized(out, matrix=True)


@dataclass(frozen=True)
class BlowUp:
    """Metadata for a numerically diverging solution (finite-horizon estimate)."""

    detected_at: float
    norm: float


class RiccatiBlowUpError(RuntimeError):
    """Raised by consumers that require a solution on the whole horizon."""

    def __init__(self, blowup: BlowUp):
        super().__init__(
            f"Riccati-Volterra solution diverges near t = {blowup.detected_at:.6g} "
            f"(norm {blowup.norm:.3e}); horizon estimate T_max <= {blowup.detected_at:.6g}"
        )
        self.blowup = blowup


@dataclass(frozen=True)
class RiccatiPath:
    """Solution samples psi(t_j) with blow-up metadata and a quadrature residual.

    ``values`` has shape (n_steps+1, d) for the vector equation and
    (n_steps+1, d, d) for the matrix one; nodes past a detected blow-up hold
    the last finite value.
    """

    grid: TimeGrid
    values: np.ndarray
    blowup: BlowUp | None
    residual: float

    @property
    def ok(self) -> bool:
        return self.blowup is None

    def require_global(self) -> "RiccatiPath":
        if self.blowup is not None:
            raise RiccatiBlowUpError(self.blowup)
        return self


def vector_rhs_degenerate(model) -> VectorRiccatiRHS:
    """Right-hand side of the distortion-transform equation (equal leverages).

    Valid only when every component shares one stock-volatility correlation;
    the distortion exponent c enters the constant term.
    """
    rho = np.asarray(model.rho, dtype=float)
    if not np.allclose(rho, rho[0], atol=1e-14, rtol=0.0):
        raise ValueError("degenerate construction requires equal correlations")
    from .models import distortion_constant, lambda_matrix

    gamma = model.gamma
    c = distortion_constant(gamma, float(rho[0]))
    theta = np.asarray(model.theta, dtype=float)
    nu = np.asarray(model.nu, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coefficient fails the first step
        const = gamma / (2.0 * c * (1.0 - gamma)) * theta**2
        quad = 0.5 * nu**2
    return VectorRiccatiRHS(const=const, linear=lambda_matrix(model), quad=quad)


def vector_rhs_general(model) -> VectorRiccatiRHS:
    """Right-hand side of the general-correlation equation."""
    from .models import lambda_matrix

    gamma = model.gamma
    if not 0.0 < gamma < 1.0:
        raise ValueError("risk aversion gamma must lie in (0, 1)")
    theta = np.asarray(model.theta, dtype=float)
    nu = np.asarray(model.nu, dtype=float)
    rho = np.asarray(model.rho, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coefficient fails the first step
        const = gamma / (2.0 * (1.0 - gamma)) * theta**2
        quad = 0.5 * nu**2 * (1.0 + gamma * rho**2 / (1.0 - gamma))
    return VectorRiccatiRHS(const=const, linear=lambda_matrix(model), quad=quad)


def wishart_rhs(model) -> MatrixRiccatiRHS:
    """Matrix right-hand side of the Wishart-volatility equation.

    linear    = M + g/(1-g) Q^T rho v^T
    quadratic = Q^T Q + g/(1-g) Q^T rho rho^T Q   (symmetrized)
    constant  = g/(2(1-g)) v v^T
    """
    gamma = model.gamma
    if not 0.0 < gamma < 1.0:
        raise ValueError("risk aversion gamma must lie in (0, 1)")
    M = np.asarray(model.mean_reversion, dtype=float)
    Q = np.asarray(model.vol_of_vol, dtype=float)
    rho = np.asarray(model.rho, dtype=float).reshape(-1, 1)
    v = np.asarray(model.market_price, dtype=float).reshape(-1, 1)
    g = gamma / (1.0 - gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coefficient fails the first step
        linear = M + g * (Q.T @ rho) @ v.T
        quadratic = Q.T @ Q + g * (Q.T @ rho) @ (rho.T @ Q)
        constant = 0.5 * g * (v @ v.T)
        return MatrixRiccatiRHS(
            linear=linear,
            quadratic=0.5 * (quadratic + quadratic.T),
            constant=0.5 * (constant + constant.T),
        )


def _symmetrized(state: np.ndarray, matrix: bool) -> np.ndarray:
    """Symmetric part of matrix states (over the last two axes); vectors pass through."""
    return 0.5 * (state + state.swapaxes(-1, -2)) if matrix else state


def _columns(state: np.ndarray) -> np.ndarray:
    """One state as (d, width): entry i of a vector, or column i of a matrix, in row i."""
    return state.reshape(-1, state.shape[-1]).T


@np.errstate(over="ignore", invalid="ignore")  # the loop reports non-finite steps itself
def _solve_pece(kernel, rhs, grid: TimeGrid, blowup_threshold: float, shape: tuple) -> RiccatiPath:
    """The PECE loop behind both solvers; ``shape`` is the state's, (d,) or (d, d)."""
    kernels = component_kernels(kernel, shape[-1])
    weights = stack_weights([kernel_weights(k, grid) for k in kernels])
    matrix = len(shape) == 2
    n_steps = grid.n_steps
    psi = np.zeros((n_steps + 1,) + shape)
    fvals = np.empty((shape[-1], n_steps + 1, psi[0].size // shape[-1]))  # F(psi), component-major
    fvals[:, 0] = _columns(rhs(psi[0]))
    predictor = HistorySums(weights.predictor_lags(), fvals)
    corrector = HistorySums(weights.corrector_lags(), fvals)
    newest = weights.corrector[:, 1]
    blowup = None
    for n in range(1, n_steps + 1):
        pred = _symmetrized(predictor(n).T.reshape(shape), matrix)
        pred_norm = float(np.max(np.abs(pred)))
        if pred_norm > blowup_threshold or np.isinf(pred_norm):
            blowup = BlowUp(detected_at=grid.nodes[n - 1], norm=pred_norm)
            psi[n:] = psi[n - 1]
            break
        val = _symmetrized(corrector(n).T.reshape(shape) + newest * rhs(pred), matrix)
        norm = float(np.max(np.abs(val)))
        if np.isnan(norm):
            # predictor was finite, so NaN here means bad inputs, not blow-up
            raise FloatingPointError(f"non-finite Riccati step at t = {grid.nodes[n]:.6g}")
        if norm > blowup_threshold or np.isinf(norm):
            blowup = BlowUp(detected_at=grid.nodes[n - 1], norm=norm)
            psi[n:] = psi[n - 1]
            break
        psi[n] = val
        fvals[:, n] = _columns(rhs(val))
    residual = np.nan if blowup is not None else _residual(psi, weights, rhs)
    return RiccatiPath(grid, psi, blowup, residual)


def solve_riccati_vector(
    kernel,
    rhs: VectorRiccatiRHS,
    grid: TimeGrid,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RiccatiPath:
    """PECE product-integration solve of the row-vector Riccati equation.

    On blow-up the returned path is truncated (values frozen at the last
    finite node) and carries the estimated divergence time.
    """
    return _solve_pece(kernel, rhs, grid, blowup_threshold, (rhs.dim,))


def solve_riccati_matrix(
    kernel,
    rhs: MatrixRiccatiRHS,
    grid: TimeGrid,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RiccatiPath:
    """PECE solve of the symmetric matrix Riccati equation.

    The diagonal kernel acts column by column: column i of the convolution
    uses kernel K_i.  With equal component kernels symmetry is automatic;
    with distinct kernels each iterate is re-symmetrized.
    """
    return _solve_pece(kernel, rhs, grid, blowup_threshold, (rhs.dim, rhs.dim))


def fixed_point_residual(path: RiccatiPath, kernel, rhs) -> float:
    """Sup-norm of psi - F(psi)*K on the grid, by midpoint product quadrature.

    The check integrates the midpoint interpolant of F(psi) against the exact
    cell integrals of K, a rule independent of the solver's trapezoidal
    corrector weights.  Matrix paths compare against the symmetrized
    convolution, which is the fixed point the solver targets (exact no-op for
    equal component kernels).
    """
    if path.blowup is not None:
        raise ValueError("residual undefined for a blown-up path")
    kernels = component_kernels(kernel, path.values.shape[1])
    return _residual(path.values, stack_weights([kernel_weights(k, path.grid) for k in kernels]), rhs)


def _residual(vals: np.ndarray, weights: StackedWeights, rhs) -> float:
    """``fixed_point_residual`` of the path values, with the kernels' stacked weights."""
    n_steps = len(vals) - 1
    fvals = rhs(vals)
    mid = 0.5 * (fvals[:-1] + fvals[1:])
    d = vals.shape[-1]
    cols = np.ascontiguousarray(mid.reshape(n_steps, -1, d).transpose(2, 0, 1))
    sums = causal_sums(weights.predictor_lags(), cols).transpose(1, 2, 0).reshape(vals[1:].shape)
    approx = _symmetrized(sums, matrix=vals.ndim == 3)
    return float(np.max(np.abs(vals[1:] - approx)))


@dataclass(frozen=True)
class GlobalExistenceVerdict:
    """Componentwise global-existence check for diagonal volatility drift.

    ``applicable`` is False when the drift matrix is not diagonal, in which
    case the criterion says nothing (distinct from a False verdict).
    """

    applicable: bool
    per_component: np.ndarray | None

    @property
    def all_ok(self) -> bool:
        return bool(self.applicable and self.per_component is not None and self.per_component.all())


def global_existence_diagonal(model) -> GlobalExistenceVerdict:
    """Sufficient conditions for a global solution, per component i:

        delta_i + g/(1-g) nu_i rho_i theta_i < 0, and
        (delta_i + g/(1-g) nu_i rho_i theta_i)^2
            - g/(1-g) (1-g+g rho_i^2)/(1-g) nu_i^2 theta_i^2 > 0.
    """
    D = np.asarray(model.drift, dtype=float)
    if not np.allclose(D, np.diag(np.diag(D)), atol=0.0, rtol=0.0):
        return GlobalExistenceVerdict(applicable=False, per_component=None)
    gamma = model.gamma
    g = gamma / (1.0 - gamma)
    delta = np.diag(D)
    nu = np.asarray(model.nu, dtype=float)
    rho = np.asarray(model.rho, dtype=float)
    theta = np.asarray(model.theta, dtype=float)
    lam = delta + g * nu * rho * theta
    disc = lam**2 - g * ((1.0 - gamma + gamma * rho**2) / (1.0 - gamma)) * nu**2 * theta**2
    return GlobalExistenceVerdict(applicable=True, per_component=(lam < 0.0) & (disc > 0.0))
