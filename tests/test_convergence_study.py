"""scripts/convergence_study.py prints the solver's empirical orders, or refuses its arguments."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def convergence_study():
    spec = importlib.util.spec_from_file_location("convergence_study", ROOT / "scripts" / "convergence_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_ref", ["100", "2000", "4000", "6000"])
def test_a_reference_the_grids_cannot_sample_is_refused(convergence_study, capsys, n_ref):
    with pytest.raises(SystemExit) as stop:
        convergence_study.main(["--n-ref", n_ref])
    assert stop.value.code == 2
    assert "--n-ref must be a multiple of 4000 above 4000" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0", "1.5", "nan"])
def test_an_order_outside_the_kernels_range_is_refused(convergence_study, capsys, alpha):
    with pytest.raises(SystemExit) as stop:
        convergence_study.main(["--alpha", alpha, "--n-ref", "8000"])
    assert stop.value.code == 2
    assert "--alpha must lie in (0, 1]" in capsys.readouterr().err


def test_prints_all_four_tables(convergence_study, capsys):
    convergence_study.main(["--n-ref", "8000"])
    out = capsys.readouterr().out
    titles = [line for line in out.splitlines() if "reference 8000 steps" in line]
    assert titles == [
        "scalar, fractional, reference 8000 steps",
        "matrix BPT10, fractional, reference 8000 steps",
        "scalar, gamma, reference 8000 steps",
        "matrix BPT10, gamma, reference 8000 steps",
    ]
    assert "nan" not in out and "inf" not in out
