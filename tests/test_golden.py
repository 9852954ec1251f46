"""Golden values that pin the package's numbers across refactors.

Pinned: 21 evenly spaced rows of every CSV the bundled presets write, the
fixed-point residual of one vector and one matrix Riccati solve, one
fractional-kernel convolution, and the three Wishart Monte Carlo estimators
on a small antithetic bundle.  Analytic values must match to rtol 1e-12, with
an absolute floor of 1e-12 times the column's largest magnitude; the Wishart
Monte Carlo values to rtol 1e-10.

Regenerate the data file, only for an intended change of results, with

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_rough_heston, make_wishart
from volterra_merton.experiments import available_presets, load_config, run
from volterra_merton.kernels import Kernel, SampledFunction, TimeGrid, convolve
from volterra_merton.merton import StrategyPath, strategy_wishart
from volterra_merton.riccati import (
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_general,
    wishart_rhs,
)
from volterra_merton.simulate import (
    SimConfig,
    compare_strategies,
    martingale_diagnostic,
    mc_utility,
    simulate_bundle,
)

GOLDEN = Path(__file__).parent / "golden" / "golden.json"
PINNED_ROWS = 21
ANALYTIC_RTOL = 1e-12
MC_RTOL = 1e-10
HESTON_PATHS = 1000  # the preset's 10k paths would dominate the suite's time


def preset_csvs(name: str, out_dir: Path) -> dict:
    """Run one preset with CSV output; pinned rows of each CSV by file name."""
    config = load_config(name).replaced(out_dir=out_dir, formats=("csv",))
    if name == "rough_heston_1d":
        config = config.replaced(sim=dataclasses.replace(config.sim, n_paths=HESTON_PATHS))
    run(config)
    pinned = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_text().splitlines()
        rows = lines[1:]
        picks = np.unique(np.rint(np.linspace(0, len(rows) - 1, PINNED_ROWS)).astype(int))
        pinned[path.name] = {
            "header": lines[0],
            "n_rows": len(rows),
            "rows": {str(i): rows[i] for i in picks},
        }
    return pinned


def solver_outputs() -> dict:
    vector = solve_riccati_vector(
        Kernel.fractional(1.0, 0.7), vector_rhs_general(make_rough_heston()), TimeGrid(0.5, 400)
    )
    wishart = make_wishart(alphas=(0.95, 0.6))  # distinct kernels: the iterate is re-symmetrized
    matrix = solve_riccati_matrix(wishart.kernel, wishart_rhs(wishart), TimeGrid(1.0, 300))
    grid = TimeGrid(1.0, 50)
    t = grid.nodes
    cofactor = SampledFunction(grid, np.stack([np.cos(3.0 * t), 1.0 + t**2], axis=1))
    conv = convolve(Kernel.fractional(1.0, 0.6), cofactor, grid)
    return {
        "vector_residual": vector.residual,
        "matrix_residual": matrix.residual,
        "convolve_fractional": conv.values.tolist(),
    }


def wishart_mc() -> dict:
    model = make_wishart(alpha=0.75)
    grid = TimeGrid(0.25, 20)
    cfg = SimConfig(n_paths=64, seed=11, antithetic=True)
    strat = strategy_wishart(model, solve_riccati_matrix(model.kernel, wishart_rhs(model), grid))
    bundle = simulate_bundle(model, grid, cfg)
    shifted = StrategyPath(grid, strat.weights + 0.5, strat.hedging, strat.myopic)
    estimates = {
        "mc_utility": mc_utility(model, strat, cfg, 1.0, bundle=bundle),
        "martingale_diagnostic": martingale_diagnostic(model, strat, cfg, bundle=bundle),
        "compare_strategies": compare_strategies(model, strat, shifted, bundle, 1.0),
    }
    out = {name: [est.mean, est.stderr] for name, est in estimates.items()}
    out["psd_violation_count"] = bundle.psd_violation_count
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _fields(row: str) -> list:
    out = []
    for text in row.split(","):
        try:
            out.append(float(text))
        except ValueError:
            out.append(text)
    return out


def assert_column_close(got, want, err_msg: str) -> None:
    want = np.asarray(want, dtype=float)
    floor = ANALYTIC_RTOL * float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=ANALYTIC_RTOL, atol=floor, err_msg=err_msg)


def assert_rows_close(got: dict, want: dict) -> None:
    assert got["header"] == want["header"]
    assert got["n_rows"] == want["n_rows"]
    assert sorted(got["rows"]) == sorted(want["rows"])
    keys = sorted(want["rows"], key=int)
    got_rows = [_fields(got["rows"][k]) for k in keys]
    want_rows = [_fields(want["rows"][k]) for k in keys]
    for col in range(len(want_rows[0])):
        w = [row[col] for row in want_rows]
        g = [row[col] for row in got_rows]
        if all(isinstance(v, float) for v in w):
            assert_column_close(g, w, f"column {col}")
        else:
            assert g == w, f"column {col}"


@pytest.mark.parametrize("name", available_presets())
def test_preset_csvs(name, golden, tmp_path):
    assert name in golden["presets"], "preset missing from the golden data; regenerate it"
    got = preset_csvs(name, tmp_path)
    want = golden["presets"][name]
    assert sorted(got) == sorted(want)
    for filename in want:
        assert_rows_close(got[filename], want[filename])


def test_solver_and_kernel_outputs(golden):
    got = solver_outputs()
    want = golden["solver"]
    for key in ("vector_residual", "matrix_residual"):
        np.testing.assert_allclose(got[key], want[key], rtol=ANALYTIC_RTOL, atol=0.0, err_msg=key)
    conv = np.array(want["convolve_fractional"])
    for col in range(conv.shape[1]):
        assert_column_close(np.array(got["convolve_fractional"])[:, col], conv[:, col], f"column {col}")


def test_wishart_monte_carlo(golden):
    got = wishart_mc()
    want = golden["wishart_mc"]
    assert got["psd_violation_count"] == want["psd_violation_count"] == 0
    for key in ("mc_utility", "martingale_diagnostic", "compare_strategies"):
        np.testing.assert_allclose(got[key], want[key], rtol=MC_RTOL, atol=0.0, err_msg=key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {
            "presets": {name: preset_csvs(name, Path(tmp) / name) for name in available_presets()},
            "solver": solver_outputs(),
            "wishart_mc": wishart_mc(),
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
