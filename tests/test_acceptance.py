"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion; any failure names the criterion and the measured quantity.
"""

import time

import numpy as np
import pytest

from conftest import make_rough_heston, make_wishart, rk4_path
from volterra_merton.kernels import Kernel, TimeGrid, first_kind_residual, second_kind_residual
from volterra_merton.merton import (
    StrategyPath,
    strategy_general,
    strategy_wishart,
    value_distortion,
    value_general,
)
from volterra_merton.models import distortion_constant
from volterra_merton.riccati import (
    VectorRiccatiRHS,
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_degenerate,
    vector_rhs_general,
    wishart_rhs,
)
from volterra_merton.simulate import (
    SimConfig,
    compare_strategies,
    martingale_diagnostic,
    mc_utility,
    simulate_vector,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def heston_mc():
    """Shared rough Heston Monte Carlo setup for criteria 5 and 6."""
    model = make_rough_heston(alpha=0.7, gamma=0.5)
    grid = TimeGrid(0.25, 500)
    cfg = SimConfig(n_paths=10_000, seed=42, antithetic=True)
    path = solve_riccati_vector(model.kernel, vector_rhs_general(model), grid)
    strat = strategy_general(model, path)
    analytic = value_general(model, path, 1.0).value
    bundle = simulate_vector(model, grid, cfg)
    return model, grid, cfg, strat, analytic, bundle


def test_criterion_01_resolvent_table_reproduction():
    grid = TimeGrid(1.0, 2000)
    rows = []
    for c in (0.5, 1.0, 2.0):
        rows.append(Kernel.constant(c))
        for lam in (0.0, 1.0):
            rows.append(Kernel.exponential(c, lam))
            for alpha in (0.6, 0.9):
                rows.append(Kernel.gamma(c, lam, alpha))
        for alpha in (0.6, 0.9):
            rows.append(Kernel.fractional(c, alpha))
    worst = 0.0
    slowest = 0.0
    for kernel in rows:
        started = time.time()
        resid = second_kind_residual(kernel, grid)
        elapsed = time.time() - started
        slowest = max(slowest, elapsed)
        tol = 1e-6 * abs(kernel(grid.dt))  # singular kernels peak at t = dt
        worst = max(worst, resid / tol)
        assert resid <= tol, f"{kernel}: residual {resid:.3e} > {tol:.3e}"
        assert elapsed < 1.0, f"{kernel}: {elapsed:.2f}s per row"
    _report(1, True, f"{len(rows)} rows, worst residual {worst:.2f} of tolerance, "
                     f"slowest row {slowest:.2f}s")


def test_criterion_02_first_kind_identity():
    grid = TimeGrid(1.0, 2000)
    kernels = [
        Kernel.constant(1.0),
        Kernel.constant(2.0),
        Kernel.exponential(1.0, 1.0),
        Kernel.exponential(2.0, 0.5),
        Kernel.fractional(1.0, 0.6),
        Kernel.fractional(2.0, 0.9),
    ]
    worst = 0.0
    for kernel in kernels:
        resid = first_kind_residual(kernel, grid)
        worst = max(worst, resid)
        assert resid <= 1e-6, f"{kernel}: K*L residual {resid:.3e}"
    _report(2, True, f"max |K*L - 1| = {worst:.2e} over {len(kernels)} kernels")


def test_criterion_03_ode_limit_recovery():
    started = time.time()
    worst_psi = worst_hedge = 0.0
    for gamma in (0.2, 0.8):
        model = make_wishart(gamma=gamma, alpha=0.99)
        grid = TimeGrid(1.0, 2000)
        rhs = wishart_rhs(model)
        path = solve_riccati_matrix(model.kernel, rhs, grid)
        ref_vals = rk4_path(lambda y: rhs(y), (2, 2), 1.0, grid.n_steps)
        rel_psi = np.max(np.abs(path.values - ref_vals)) / np.max(np.abs(ref_vals))
        strat = strategy_wishart(model, path)
        from volterra_merton.riccati import RiccatiPath

        ref_strat = strategy_wishart(model, RiccatiPath(grid, ref_vals, None, 0.0))
        rel_hedge = np.max(np.abs(strat.hedging - ref_strat.hedging)) / np.max(
            np.abs(ref_strat.hedging)
        )
        worst_psi = max(worst_psi, rel_psi)
        worst_hedge = max(worst_hedge, rel_hedge)
        assert rel_psi <= 0.02 and rel_hedge <= 0.02, f"gamma={gamma}: {rel_psi:.4f}/{rel_hedge:.4f}"
    elapsed = time.time() - started
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    _report(3, True, f"alpha=0.99 vs matrix Riccati ODE: psi {worst_psi:.2%}, "
                     f"hedging {worst_hedge:.2%} (<= 2%), {elapsed:.1f}s")


def test_criterion_04_degenerate_equivalence():
    from conftest import make_degenerate_pair

    model = make_degenerate_pair(alpha=0.7)
    grid = TimeGrid(1.0, 4000)
    psi = solve_riccati_vector(model.kernel, vector_rhs_degenerate(model), grid)
    phi = solve_riccati_vector(model.kernel, vector_rhs_general(model), grid)
    c = distortion_constant(model.gamma, float(model.rho[0]))
    gap = np.max(np.abs(phi.values - c * psi.values))
    rel_gap = gap / np.max(np.abs(phi.values))
    h = value_distortion(model, psi, 1.0).value
    g = value_general(model, phi, 1.0).value
    value_gap = abs(h - g) / g
    assert rel_gap <= 1e-6, f"|phi - c psi| relative {rel_gap:.2e}"
    assert value_gap <= 1e-4, f"|H - G|/G = {value_gap:.2e}"
    _report(4, True, f"max|phi - c psi| = {rel_gap:.2e} (<=1e-6), |H-G|/G = {value_gap:.2e} (<=1e-4)")


def test_criterion_05_monte_carlo_value(heston_mc):
    model, grid, cfg, strat, analytic, bundle = heston_mc
    started = time.time()
    est = mc_utility(model, strat, cfg, 1.0, bundle=bundle)
    elapsed = time.time() - started
    gap = abs(est.mean - analytic)
    assert gap <= 3.0 * est.stderr, f"|mc - analytic| = {gap:.2e} > 3 x {est.stderr:.2e}"
    assert elapsed < 60.0
    _report(5, True, f"analytic {analytic:.6f}, mc {est.mean:.6f} +- {est.stderr:.1e}, "
                     f"z = {est.z_score(analytic):+.2f} (|z| <= 3)")


def test_criterion_06_optimality_direction(heston_mc):
    model, grid, cfg, strat, analytic, bundle = heston_mc
    results = []
    for label, weights in (("pi*+0.5", strat.weights + 0.5), ("0.5*pi*", 0.5 * strat.weights)):
        perturbed = StrategyPath(grid, weights, strat.hedging, strat.myopic)
        diff = compare_strategies(model, strat, perturbed, bundle, 1.0)
        t_stat = diff.mean / diff.stderr
        results.append((label, t_stat))
        assert diff.mean > 0.0, f"{label}: optimal not better"
        assert t_stat > 2.0, f"{label}: advantage only {t_stat:.2f} combined stderr"
    _report(6, True, "optimal beats " + ", ".join(f"{l} by {t:.1f} stderr" for l, t in results))


def test_criterion_07_hedging_demand_sign():
    worst = -np.inf
    for alpha in (0.55, 0.75, 0.95):
        for gamma in (0.2, 0.8):
            model = make_wishart(gamma=gamma, alpha=alpha)
            grid = TimeGrid(1.0, 1000)
            path = solve_riccati_matrix(model.kernel, wishart_rhs(model), grid)
            strat = strategy_wishart(model, path)
            worst = max(worst, float(strat.hedging[:-1].max()))  # hedging(T) = 0 exactly
            assert strat.hedging.max() <= 0.0, f"alpha={alpha}, gamma={gamma}"
    _report(7, True, f"all hedging components <= 0 on the (alpha, gamma) grid "
                     f"(largest interior component {worst:.2e})")


def test_criterion_08_convergence_order():
    # scalar equation with the rough Heston coefficients; the error is read at
    # the terminal time where the scheme's 1+alpha order is attained (the
    # first few nodes sit in the known reduced-order boundary layer)
    rhs = VectorRiccatiRHS(const=[0.5], linear=[[-1.15]], quad=[0.05625])
    kernel = Kernel.fractional(1.0, 0.6)
    n_ref = 16000
    reference = solve_riccati_vector(kernel, rhs, TimeGrid(1.0, n_ref)).values
    errors = []
    for n in (500, 1000, 2000):
        path = solve_riccati_vector(kernel, rhs, TimeGrid(1.0, n)).values
        errors.append(abs(path[-1, 0] - reference[-1, 0]))
    log_err = np.log2(errors)
    order = float(np.polyfit(np.log2([500, 1000, 2000]), log_err, 1)[0] * -1)
    assert order >= 1.3, f"empirical order {order:.2f} < 1.3"
    _report(8, True, f"errors {['%.2e' % e for e in errors]} -> empirical order {order:.2f} "
                     f"(theoretical 1+alpha = 1.6)")


@pytest.mark.parametrize("kernel", [Kernel.fractional(1.0, 0.6), Kernel.gamma(1.0, 1.0, 0.6)],
                         ids=["fractional", "gamma"])
def test_criterion_08_matrix_convergence_order(kernel):
    # criterion 8 for the matrix solver on the BPT10 Wishart coefficients:
    # the largest entry error at the terminal time against an 8000-step
    # reference
    rhs = wishart_rhs(make_wishart())
    steps = [500, 1000, 2000]
    reference = solve_riccati_matrix(kernel, rhs, TimeGrid(1.0, 8000)).values[-1]
    errors = [np.max(np.abs(solve_riccati_matrix(kernel, rhs, TimeGrid(1.0, n)).values[-1] - reference))
              for n in steps]
    order = float(-np.polyfit(np.log2(steps), np.log2(errors), 1)[0])
    assert order >= 1.3, f"empirical order {order:.2f} < 1.3"
    _report(8, True, f"matrix, {kernel.family}: errors {['%.2e' % e for e in errors]} -> empirical order "
                     f"{order:.2f} (theoretical 1+alpha = 1.6)")


def test_criterion_09_martingale_diagnostic():
    model = make_wishart(gamma=0.2, alpha=0.75)
    grid = TimeGrid(0.25, 200)
    cfg = SimConfig(n_paths=10_000, seed=42, antithetic=True)
    path = solve_riccati_matrix(model.kernel, wishart_rhs(model), grid)
    strat = strategy_wishart(model, path)
    est = martingale_diagnostic(model, strat, cfg)
    z = est.z_score(1.0)
    assert abs(z) <= 3.0, f"E[Z_T] = {est.mean:.5f} +- {est.stderr:.1e}, z = {z:.2f}"
    _report(9, True, f"E[Z_T] = {est.mean:.5f} +- {est.stderr:.1e}, z = {z:+.2f} (|z| <= 3)")


def test_criterion_10_determinism(tmp_path):
    from volterra_merton.experiments import load_config, run

    outputs = []
    for sub in ("first", "second"):
        config = load_config("rough_heston_1d").replaced(out_dir=tmp_path / sub)
        run(config)
        outputs.append((tmp_path / sub / "mc-check.csv").read_bytes())
    assert outputs[0] == outputs[1], "reruns differ"
    _report(10, True, "byte-identical mc-check.csv across two preset runs")
