"""Riccati-Volterra solvers based on the fractional Adams scheme.

Solves fixed-point equations of convolution type,

    psi(t) = int_0^t F(psi)(t - s) K(s) ds,

for row-vector valued psi with componentwise-quadratic F and for symmetric
matrix valued psi with the quadratic map of the Wishart case.  K is diagonal
with one scalar kernel per component (vector case) or per column (matrix
case).  Time stepping is predictor-corrector (PECE) product integration:
left-rectangle predictor with exact cell integrals of K, one corrector sweep
with the trapezoidal product weights.  One loop serves every solve: several
problems of one shape and step count advance through it together.
"""

from __future__ import annotations

import dataclasses
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
    "solve_riccati_batch",
    "global_existence_diagonal",
    "fixed_point_residual",
]

DEFAULT_BLOWUP_THRESHOLD = 1e8


@dataclass(frozen=True)
class VectorRiccatiRHS:
    """Quadratic right-hand side F(psi) = const + psi @ linear + quad * psi**2.

    psi is a row vector, or a stack of them along leading axes; ``quad`` acts
    componentwise.  The coefficients may carry a leading problem axis of their
    own, one problem per row vector of psi (``solve_riccati_batch``).
    """

    const: np.ndarray
    linear: np.ndarray
    quad: np.ndarray

    def __post_init__(self) -> None:
        const = np.atleast_1d(np.asarray(self.const, dtype=float))
        linear = np.atleast_2d(np.asarray(self.linear, dtype=float))
        quad = np.atleast_1d(np.asarray(self.quad, dtype=float))
        if linear.shape != const.shape + const.shape[-1:] or quad.shape != const.shape:
            raise ValueError("inconsistent coefficient shapes")
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "quad", quad)

    @property
    def dim(self) -> int:
        return self.const.shape[-1]

    @property
    def shape(self) -> tuple:
        """Shape of one state psi."""
        return (self.dim,)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.const + np.matmul(psi[..., None, :], self.linear)[..., 0, :] + self.quad * psi**2


@dataclass(frozen=True)
class MatrixRiccatiRHS:
    """Matrix right-hand side f(psi) = psi A + A^T psi + 2 psi S psi + C.

    ``quadratic`` (S) and ``constant`` (C) must be symmetric; f then maps
    symmetric matrices to symmetric matrices.  Evaluations are symmetrized to
    kill floating-point asymmetry.  psi may carry leading axes, and the
    coefficients a leading problem axis, one problem per matrix of psi.
    """

    linear: np.ndarray
    quadratic: np.ndarray
    constant: np.ndarray

    def __post_init__(self) -> None:
        lin = np.atleast_2d(np.asarray(self.linear, dtype=float))
        quad = np.atleast_2d(np.asarray(self.quadratic, dtype=float))
        const = np.atleast_2d(np.asarray(self.constant, dtype=float))
        d = lin.shape[-1]
        for name, m in (("linear", lin), ("quadratic", quad), ("constant", const)):
            if m.shape != lin.shape[:-2] + (d, d):
                raise ValueError(f"{name} must be {d}x{d}")
        for name, m in (("quadratic", quad), ("constant", const)):
            if not np.allclose(m, m.swapaxes(-1, -2), atol=1e-12, rtol=0.0):
                raise ValueError(f"{name} must be symmetric")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", _symmetrized(quad))
        object.__setattr__(self, "constant", _symmetrized(const))

    @property
    def dim(self) -> int:
        return self.linear.shape[-1]

    @property
    def shape(self) -> tuple:
        """Shape of one state psi."""
        return (self.dim, self.dim)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        lin = self.linear
        return _symmetrized(psi @ lin + lin.swapaxes(-1, -2) @ psi + 2.0 * psi @ self.quadratic @ psi + self.constant)


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
    (n_steps+1, d, d) for the matrix one; nodes past a detected blow-up, or
    past a non-finite step (``nonfinite_at``, set by ``solve_riccati_batch``
    only), hold the last finite value.
    """

    grid: TimeGrid
    values: np.ndarray
    blowup: BlowUp | None
    residual: float
    nonfinite_at: float | None = None

    @property
    def ok(self) -> bool:
        return self.blowup is None and self.nonfinite_at is None

    def require_finite(self) -> "RiccatiPath":
        if self.nonfinite_at is not None:
            raise FloatingPointError(f"non-finite Riccati step at t = {self.nonfinite_at:.6g}")
        return self

    def require_global(self) -> "RiccatiPath":
        if self.blowup is not None:
            raise RiccatiBlowUpError(self.blowup)
        return self.require_finite()


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


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """Symmetric part of matrices (over the last two axes)."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _stacked(rhss: list):
    """One right-hand side whose coefficients stack those of ``rhss`` along a leading problem axis."""
    first = rhss[0]
    if any(type(rhs) is not type(first) or rhs.shape != first.shape for rhs in rhss):
        raise ValueError("batched right-hand sides must share their type and dimension")
    return type(first)(*(np.stack([getattr(rhs, f.name) for rhs in rhss]) for f in dataclasses.fields(first)))


def _failure(fval: np.ndarray, pred_norm: float, norm: float, threshold: float, grid: TimeGrid, n: int):
    """What stops a problem at step n: its BlowUp, the time of a non-finite step, or None.

    ``fval`` is the problem's F(psi) at node n - 1.  Past node 0, where psi is
    finite and below the threshold, a non-finite F(psi) has overflowed: a
    blow-up, whatever the history sums made of it.  At node 0 it means
    non-finite coefficients.
    """
    if not np.all(np.isfinite(fval)):
        return BlowUp(detected_at=grid.nodes[n - 1], norm=np.inf) if n > 1 else grid.nodes[n]
    if pred_norm > threshold or pred_norm == np.inf:
        return BlowUp(detected_at=grid.nodes[n - 1], norm=float(pred_norm))
    if np.isnan(norm):
        # F(psi) is finite and the predictor below the threshold, so NaN here means bad inputs
        return grid.nodes[n]
    if norm > threshold or norm == np.inf:
        return BlowUp(detected_at=grid.nodes[n - 1], norm=float(norm))
    return None


@np.errstate(over="ignore", invalid="ignore")  # the loop reports non-finite steps itself
def _solve_pece(kernels: list, rhss: list, grids: list[TimeGrid], blowup_threshold: float) -> list[RiccatiPath]:
    """The PECE loop behind every solver: problem p has ``kernels[p]``, ``rhss[p]`` and ``grids[p]``.

    The problems share the state shape and n_steps and step together; row
    p d + i of the weights and of the F(psi) history is component (or column)
    i of problem p.  A problem that fails is frozen at its last finite node.
    Its rows step on unchecked but reach no other problem's rows, since the
    matrix products and the FFT work row by row.
    """
    rhs = _stacked(rhss)
    shape = rhs.shape
    d, n_problems, n_steps = shape[-1], len(rhss), grids[0].n_steps
    if any(grid.n_steps != n_steps for grid in grids):
        raise ValueError("batched grids must share n_steps")
    weights = stack_weights(
        [kernel_weights(k, grid) for kernel, grid in zip(kernels, grids) for k in component_kernels(kernel, d)]
    )
    matrix = len(shape) == 2
    states = (n_problems,) + shape
    psi = np.zeros((n_problems, n_steps + 1) + shape)
    # F(psi) component-major: row p d + i holds entry i of problem p's vector,
    # or row i of its matrix, which is column i since F(psi) is symmetric
    fvals = np.zeros((n_problems * d, n_steps + 1, psi[0, 0].size // d))
    fvals[:, 0] = rhs(psi[:, 0]).reshape(len(fvals), -1)
    predictor = HistorySums(weights.predictor_lags(), fvals)
    corrector = HistorySums(weights.corrector_lags(), fvals)
    # Steps run on the history's (P, d, width) layout.  It holds a matrix
    # state transposed, which the symmetrization undoes bit for bit.
    newest = weights.corrector[:, 1].reshape(n_problems, d, 1)
    live = np.ones(n_problems, dtype=bool)
    failures = {}  # problem -> (step, BlowUp or time of the non-finite step)
    for n in range(1, n_steps + 1):
        pred = predictor(n).reshape(n_problems, d, -1)
        if matrix:
            pred = _symmetrized(pred)
        val = corrector(n).reshape(pred.shape) + newest * rhs(pred.reshape(states)).reshape(pred.shape)
        if matrix:
            val = _symmetrized(val)
        worst = np.maximum(abs(pred), abs(val)).max(axis=(1, 2))  # per problem; NaN stays NaN
        if failures:
            worst[~live] = 0.0
        if not worst.max() < blowup_threshold:
            for p in np.flatnonzero(~(worst < blowup_threshold)):
                fval = fvals[p * d : (p + 1) * d, n - 1]
                failure = _failure(fval, abs(pred[p]).max(), abs(val[p]).max(), blowup_threshold, grids[p], n)
                if failure is not None:
                    failures[p] = (n, failure)
                    live[p] = False
            if not live.any():
                break
        val = val.reshape(states)
        psi[:, n] = val
        fvals[:, n] = rhs(val).reshape(len(fvals), -1)
    paths = []
    for p, (grid, single) in enumerate(zip(grids, rhss)):
        if p in failures:
            step, failure = failures[p]
            psi[p, step:] = psi[p, step - 1]
            blowup = failure if isinstance(failure, BlowUp) else None
            paths.append(RiccatiPath(grid, psi[p], blowup, np.nan, None if blowup else failure))
        else:
            rows = slice(p * d, (p + 1) * d)
            own = StackedWeights(weights.cell[rows], weights.corrector[rows])
            paths.append(RiccatiPath(grid, psi[p], None, _residual(psi[p], own, single)))
    return paths


def solve_riccati_vector(
    kernel,
    rhs: VectorRiccatiRHS,
    grid: TimeGrid,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RiccatiPath:
    """PECE product-integration solve of the row-vector Riccati equation.

    On blow-up the returned path is truncated (values frozen at the last
    finite node) and carries the estimated divergence time; a non-finite
    step raises FloatingPointError.
    """
    return _solve_pece([kernel], [rhs], [grid], blowup_threshold)[0].require_finite()


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
    return _solve_pece([kernel], [rhs], [grid], blowup_threshold)[0].require_finite()


def solve_riccati_batch(
    kernels: list,
    rhss: list,
    grids: list[TimeGrid],
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> list[RiccatiPath]:
    """Solve problem p = (``kernels[p]``, ``rhss[p]``, ``grids[p]``) for every p in one PECE loop.

    The right-hand sides must share their type and dimension and the grids
    their n_steps; horizons, kernels and coefficients may differ.  Path p
    equals the lone solve of problem p bit for bit, except that a non-finite
    step sets its ``nonfinite_at`` instead of raising (``require_global``
    raises it), so that one bad problem leaves the others their results.
    """
    return _solve_pece(list(kernels), list(rhss), list(grids), blowup_threshold)


def fixed_point_residual(path: RiccatiPath, kernel, rhs) -> float:
    """Sup-norm of psi - F(psi)*K on the grid, by midpoint product quadrature.

    The check integrates the midpoint interpolant of F(psi) against the exact
    cell integrals of K, a rule independent of the solver's trapezoidal
    corrector weights.  Matrix paths compare against the symmetrized
    convolution, which is the fixed point the solver targets (exact no-op for
    equal component kernels).
    """
    if not path.ok:
        raise ValueError("residual undefined for a blown-up or non-finite path")
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
    approx = _symmetrized(sums) if vals.ndim == 3 else sums
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
