"""The benchmark's workloads: inputs built from a seed, jobs, and output checks.

A workload is a list of jobs run back to back in one pass.  Every job is one
operation: it calls the package's public functions, and its check turns the
result into named checks against stated tolerances.  The job fails if it
raises or if any of its checks misses.

Functions are always looked up on their module at call time
(``riccati.solve_riccati_vector(...)``), never bound when the inputs are built,
so the traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special as sps

from volterra_merton import experiments, kernels, merton, models, riccati, simulate
from volterra_merton.kernels import Kernel, TimeGrid

# Tolerances stated by tests/test_acceptance.py and tests/test_kernels.py.
BL13_REL_GAP = 0.02  # criterion 3: psi and hedging vs the matrix Riccati ODE
HEDGING_MAX = 0.0  # criterion 7: hedging demands are nonpositive
DEGENERATE_GAP = 1e-6  # criterion 4: max |phi - c psi| / max |phi|
DEGENERATE_VALUE_GAP = 1e-4  # criterion 4: |H - G| / G
Z_MAX = 3.0  # criteria 5 and 9: Monte Carlo |z| against the closed form
ADVANTAGE_T = 2.0  # criterion 6: optimal beats a perturbed strategy by > 2 stderr
MIN_ORDER = 1.3  # criterion 8: empirical convergence order of the solver
SECOND_KIND_REL = 1e-6  # criterion 1: |K*R + R - K| <= 1e-6 |K(dt)|
FIRST_KIND = 1e-6  # criterion 2: |K*L - 1|
ML_REL = 1e-10  # Mittag-Leffler oracle checks: relative error 1e-10

# Tolerances no test states; the benchmark's own, recorded in README.md.
# Monte Carlo precision: relative standard error of each estimate.  These
# ratios, unlike |z|, barely move with the seed, so they are the Monte Carlo
# share of tol_used; a change that buys speed with fewer or noisier paths
# shows here.
HESTON_REL_STDERR = 1e-3
WISHART_REL_STDERR = 5e-3

# Riccati right-hand side of scripts/convergence_study.py (rough Heston
# coefficients), solved on its 16k-step reference grid.
CONVERGENCE_RHS = riccati.VectorRiccatiRHS(const=[0.5], linear=[[-1.15]], quad=[0.05625])
CONVERGENCE_REF_STEPS = 16000
CONVERGENCE_STEPS = (500, 1000, 2000)

# Kernel table at 2k nodes.  The stiff row has |z| = c t^alpha up to 50, where
# mittag_leffler_array leaves its series fast path; alpha = 1/2 gives the
# closed form E_{1/2,1/2}(z) = 1/sqrt(pi) + z erfcx(-z) as an independent check.
TABLE_GRID = TimeGrid(1.0, 2000)
STIFF_KERNEL = Kernel.fractional(50.0, 0.5)

# Wishart oracle: the criterion-9 grid on the BPT10 market with alpha = 0.75.
# 4k paths keep one mc_oracle pass near 15 s on 2 vCPUs.
WISHART_ALPHA = 0.75
WISHART_GRID = TimeGrid(0.25, 200)
WISHART_PATHS = 4000

PRESETS = (
    "bpt10_wishart",
    "bl13_recovery",
    "bpt10_alpha_sweep",
    "bpt10_horizon_study",
    "bpt10_correlation_study",
    "bpt10_volofvol_study",
    "degenerate_pair_2d",
)
PRESET_FORMATS = ("csv", "svg", "json")


@dataclass(frozen=True)
class Check:
    """One named comparison of an output against its tolerance.

    ``ratio`` is error / tolerance (tolerance / value for lower limits), or
    None for sign and finiteness checks.  ``stable`` is False for ratios that
    move with the Monte Carlo seed by design (|z|, t statistics); those gate
    the run but stay out of tol_used.
    """

    name: str
    ok: bool
    ratio: float | None
    detail: str
    stable: bool = True


def at_most(name: str, value: float, tol: float, stable: bool = True) -> Check:
    ok = bool(math.isfinite(value) and value <= tol)
    return Check(name, ok, value / tol, f"{value:.6g} <= {tol:.3g}", stable)


def at_least(name: str, value: float, tol: float, stable: bool = True) -> Check:
    ok = bool(math.isfinite(value) and value >= tol)
    return Check(name, ok, tol / value if value > 0 else math.inf, f"{value:.6g} >= {tol:.3g}", stable)


def holds(name: str, ok: bool, detail: str) -> Check:
    return Check(name, bool(ok), None, detail)


def finite(name: str, value: float) -> Check:
    return holds(name, math.isfinite(value), f"{value!r} finite")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[Check]]
    formats: tuple[str, ...] = ()  # output formats requested from experiments.run


@dataclass
class Workload:
    jobs: list[Job]
    artifacts: Path
    state: dict = field(default_factory=dict)  # results jobs of one pass share


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _check_report(report) -> list[Check]:
    metrics = report.metrics
    out = []
    for key, value in sorted(metrics.items()):
        if key.startswith("riccati_residual"):
            out.append(finite(key, value))
        elif key.startswith("max_hedging"):
            out.append(holds(key, value <= HEDGING_MAX, f"{value:.6g} <= 0"))
        elif key.startswith("rel_sup_diff"):
            out.append(at_most(key, value, BL13_REL_GAP))
        elif key == "value":
            out.append(holds(key, math.isfinite(value) and value > 0, f"{value!r} finite and > 0"))
    return out


def build_presets(seed: int, artifacts: Path) -> Workload:
    jobs = []
    for name in PRESETS:
        config = experiments.load_config(name).replaced(out_dir=artifacts / name, formats=PRESET_FORMATS)
        jobs.append(Job(name, lambda c=config: experiments.run(c), _check_report, PRESET_FORMATS))
    random.Random(seed).shuffle(jobs)
    return Workload(jobs, artifacts)


# ---------------------------------------------------------------------------
# fine_grid
# ---------------------------------------------------------------------------


def _convergence(kernel: Kernel):
    ref = riccati.solve_riccati_vector(kernel, CONVERGENCE_RHS, TimeGrid(1.0, CONVERGENCE_REF_STEPS))
    coarse = [riccati.solve_riccati_vector(kernel, CONVERGENCE_RHS, TimeGrid(1.0, n)) for n in CONVERGENCE_STEPS]
    return ref, coarse


def _check_convergence(result) -> list[Check]:
    ref, coarse = result
    errors = [abs(p.values[-1, 0] - ref.values[-1, 0]) for p in coarse]
    order = -float(np.polyfit(np.log2(CONVERGENCE_STEPS), np.log2(errors), 1)[0])
    return [
        at_least("order", order, MIN_ORDER),
        *(finite(f"residual[{p.grid.n_steps}]", p.residual) for p in [ref, *coarse]),
    ]


def _matrix_4k(config):
    model = config.model
    path = riccati.solve_riccati_matrix(model.kernel, riccati.wishart_rhs(model), config.grid)
    return path, merton.strategy_wishart(model, path)


def _check_matrix(result) -> list[Check]:
    path, strat = result
    top = float(strat.hedging.max())
    return [finite("residual", path.residual), holds("max_hedging", top <= HEDGING_MAX, f"{top:.6g} <= 0")]


def _degenerate(config):
    model, grid = config.model, config.grid
    psi = riccati.solve_riccati_vector(model.kernel, riccati.vector_rhs_degenerate(model), grid)
    phi = riccati.solve_riccati_vector(model.kernel, riccati.vector_rhs_general(model), grid)
    h = merton.value_distortion(model, psi, config.x0).value
    g = merton.value_general(model, phi, config.x0).value
    return model, psi, phi, h, g


def _check_degenerate(result) -> list[Check]:
    model, psi, phi, h, g = result
    c = models.distortion_constant(model.gamma, float(model.rho[0]))
    gap = float(np.max(np.abs(phi.values - c * psi.values)) / np.max(np.abs(phi.values)))
    return [
        at_most("psi_gap", gap, DEGENERATE_GAP),
        at_most("value_gap", abs(h - g) / g, DEGENERATE_VALUE_GAP),
        finite("residual_psi", psi.residual),
        finite("residual_phi", phi.residual),
    ]


def _check_stiff(resolvent) -> list[Check]:
    t = TABLE_GRID.nodes[1:]
    c = STIFF_KERNEL.c
    z = -c * np.sqrt(t)
    exact = c / np.sqrt(t) * (z * sps.erfcx(-z) + 1.0 / math.sqrt(math.pi))
    rel = float(np.max(np.abs(resolvent.values[1:] - exact) / np.abs(exact)))
    return [at_most("rel_err", rel, ML_REL)]


SECOND_KIND_ROWS = (
    Kernel.constant(1.0),
    Kernel.exponential(1.0, 1.0),
    Kernel.gamma(1.0, 1.0, 0.6),
    Kernel.gamma(1.0, 1.0, 0.9),
    Kernel.fractional(1.0, 0.6),
    Kernel.fractional(1.0, 0.9),
)
FIRST_KIND_ROWS = (Kernel.constant(1.0), Kernel.exponential(1.0, 1.0), Kernel.fractional(1.0, 0.6))


def _check_second_kind(residuals) -> list[Check]:
    return [
        at_most(f"{k.family}(c={k.c},lam={k.lam},alpha={k.alpha})", r, SECOND_KIND_REL * abs(k(TABLE_GRID.dt)))
        for k, r in zip(SECOND_KIND_ROWS, residuals)
    ]


def _check_first_kind(residuals) -> list[Check]:
    return [
        at_most(f"{k.family}(c={k.c},lam={k.lam},alpha={k.alpha})", r, FIRST_KIND)
        for k, r in zip(FIRST_KIND_ROWS, residuals)
    ]


def build_fine_grid(seed: int, artifacts: Path) -> Workload:
    matrix = experiments.load_config("bpt10_wishart").replaced(n_steps=4000)
    pair = experiments.load_config("degenerate_pair_2d")  # 4000 steps
    jobs = [
        Job(f"convergence_{k.family}", lambda k=k: _convergence(k), _check_convergence)
        for k in (Kernel.fractional(1.0, 0.6), Kernel.gamma(1.0, 1.0, 0.6), Kernel.exponential(1.0, 1.0))
    ]
    jobs += [
        Job("matrix_4k_bpt10", lambda: _matrix_4k(matrix), _check_matrix),
        Job("degenerate_pair_4k", lambda: _degenerate(pair), _check_degenerate),
        Job("stiff_resolvent", lambda: kernels.resolvent_second_kind(STIFF_KERNEL, TABLE_GRID), _check_stiff),
        Job(
            "second_kind_table",
            lambda: [kernels.second_kind_residual(k, TABLE_GRID) for k in SECOND_KIND_ROWS],
            _check_second_kind,
        ),
        Job(
            "first_kind_table",
            lambda: [kernels.first_kind_residual(k, TABLE_GRID) for k in FIRST_KIND_ROWS],
            _check_first_kind,
        ),
    ]
    random.Random(seed).shuffle(jobs)
    return Workload(jobs, artifacts)


# ---------------------------------------------------------------------------
# mc_oracle
# ---------------------------------------------------------------------------


def _check_heston(report) -> list[Check]:
    m = report.metrics
    return [
        finite("riccati_residual", m["riccati_residual"]),
        at_most("abs_z", abs(m["z_score"]), Z_MAX, stable=False),
        at_most("rel_stderr", m["mc_stderr"] / abs(m["analytic"]), HESTON_REL_STDERR),
    ]


def build_mc_oracle(seed: int, artifacts: Path) -> Workload:
    heston = experiments.load_config("rough_heston_1d")
    heston = heston.replaced(out_dir=artifacts / "rough_heston_1d", sim=dataclasses.replace(heston.sim, seed=seed))
    bpt10 = experiments.load_config("bpt10_wishart").model
    model = dataclasses.replace(
        bpt10, kernel=[Kernel(k.family, k.c, alpha=WISHART_ALPHA, lam=k.lam) for k in bpt10.kernel]
    )
    cfg = simulate.SimConfig(n_paths=WISHART_PATHS, seed=seed, antithetic=True)
    workload = Workload([], artifacts)
    state = workload.state

    def analytic():
        rhs = riccati.wishart_rhs(model)
        path = riccati.solve_riccati_matrix(model.kernel, rhs, WISHART_GRID)
        state["strategy"] = merton.strategy_wishart(model, path)
        state["value"] = merton.value_wishart(model, path, 1.0, rhs=rhs).value
        return path, state["strategy"]

    def bundle():
        state["bundle"] = simulate.simulate_bundle(model, WISHART_GRID, cfg)
        return state["bundle"]

    def utility():
        return simulate.mc_utility(model, state["strategy"], cfg, 1.0, bundle=state["bundle"])

    def martingale():
        return simulate.martingale_diagnostic(model, state["strategy"], cfg, bundle=state["bundle"])

    def compare():
        best = state["strategy"]
        shifted = merton.StrategyPath(WISHART_GRID, best.weights + 0.5, best.hedging, best.myopic)
        return simulate.compare_strategies(model, best, shifted, state["bundle"], 1.0)

    def check_bundle(b) -> list[Check]:
        return [holds("states_finite", np.isfinite(b.states).all(), f"{b.psd_violation_count} PSD clips")]

    def check_utility(est) -> list[Check]:
        return [
            at_most("abs_z", abs(est.z_score(state["value"])), Z_MAX, stable=False),
            at_most("rel_stderr", est.stderr / abs(state["value"]), WISHART_REL_STDERR),
        ]

    def check_martingale(est) -> list[Check]:
        return [
            at_most("abs_z", abs(est.z_score(1.0)), Z_MAX, stable=False),
            at_most("rel_stderr", est.stderr, WISHART_REL_STDERR),
        ]

    def check_compare(est) -> list[Check]:
        t = est.mean / est.stderr if est.stderr > 0 else math.inf
        return [at_least("advantage_t", t, ADVANTAGE_T, stable=False)]

    workload.jobs = [
        Job("rough_heston_1d", lambda: experiments.run(heston), _check_heston, heston.formats),
        Job("wishart_analytic", analytic, _check_matrix),
        Job("wishart_bundle", bundle, check_bundle),
        Job("wishart_mc_utility", utility, check_utility),
        Job("wishart_martingale", martingale, check_martingale),
        Job("wishart_compare", compare, check_compare),
    ]
    return workload


WORKLOADS = {"presets": build_presets, "fine_grid": build_fine_grid, "mc_oracle": build_mc_oracle}
