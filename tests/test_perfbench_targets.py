"""The benchmark's traced run wraps package functions by module and name.

``perfbench/spans.py`` (standard library only) lists them in ``TARGETS``; a
refactor that drops or renames one of those names must fail here rather than
inside ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
from conftest import make_rough_heston, make_wishart

from volterra_merton.kernels import Kernel, TimeGrid
from volterra_merton.riccati import vector_rhs_general, wishart_rhs
from volterra_merton.simulate import SimConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def load_spans():
    return load_perfbench("spans")


def test_traced_names_resolve():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        f"volterra_merton.{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not hasattr(importlib.import_module(f"volterra_merton.{module}"), name)
    ]
    assert missing == []


def test_tracer_install_round_trip():
    # install() also swaps experiments.ThreadPoolExecutor for the traced sweep pool
    import volterra_merton

    spans = load_spans()
    names = [(module, name) for module, attrs in spans.TARGETS.items() for name in attrs]
    names.append(("experiments", "ThreadPoolExecutor"))
    modules = {module: importlib.import_module(f"volterra_merton.{module}") for module, _ in names}
    originals = {key: getattr(modules[key[0]], key[1]) for key in names}
    tracer = spans.Tracer(volterra_merton)
    tracer.install()
    try:
        patched = [key for key in names if getattr(modules[key[0]], key[1]) is not originals[key]]
    finally:
        tracer.uninstall()
    assert patched == names
    assert [key for key in names if getattr(modules[key[0]], key[1]) is not originals[key]] == []


def test_traced_dispatch_runs_the_wrappers(tmp_path):
    # experiments looks its family's solver, strategy and value up by name at call time, so the
    # tracer's wrappers, put in place by name, are what a run calls
    import volterra_merton
    from volterra_merton import experiments

    configs = [
        experiments.load_config("bpt10_wishart").replaced(n_steps=20, out_dir=tmp_path / "wishart"),
        experiments.load_config("degenerate_pair_2d").replaced(n_steps=20, out_dir=tmp_path / "pair"),
    ]
    assert [config.kind for config in configs] == ["strategy", "value"]
    tracer = load_spans().Tracer(volterra_merton)
    tracer.install()
    try:
        for config in configs:
            experiments.run(config)
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    wanted = {"riccati.solve_riccati_matrix", "merton.strategy_wishart", "riccati.solve_riccati_vector", "merton.value_general"}
    assert wanted <= names


GRID = TimeGrid(0.5, 20)
SIM = SimConfig(n_paths=6, seed=3)
# one small call of each function that COUNTERS reads a result of
SMALL_CALLS = {
    "kernels.resolvent_second_kind": lambda f: f(Kernel.fractional(1.0, 0.7), GRID),
    "riccati.solve_riccati_vector": lambda f: f(make_rough_heston().kernel, vector_rhs_general(make_rough_heston()), GRID),
    "riccati.solve_riccati_matrix": lambda f: f(make_wishart().kernel, wishart_rhs(make_wishart()), GRID),
    "simulate.simulate_vector": lambda f: f(make_rough_heston(), GRID, SIM),
    "simulate.simulate_wishart": lambda f: f(make_wishart(), GRID, SIM),
}


def test_counters_read_real_results():
    # a PathBundle or RiccatiPath field that a counter reads must not go away unnoticed
    spans = load_spans()
    assert sorted(SMALL_CALLS) == sorted(spans.COUNTERS)
    for name, counter in spans.COUNTERS.items():
        module, attr = name.split(".")
        result = SMALL_CALLS[name](getattr(importlib.import_module(f"volterra_merton.{module}"), attr))
        counts = counter(result)
        wanted = {key for names, key in spans.COUNTS.values() if key is not None and name in names}
        assert set(counts) == wanted, name
        assert all(isinstance(v, (int, np.integer)) and v >= 0 for v in counts.values()), (name, counts)


def test_workloads_build_with_their_overrides(tmp_path, monkeypatch):
    # every workload swaps fields of bundled presets with ExperimentConfig.replaced, which validates them
    workloads = load_perfbench("workloads")
    from volterra_merton import experiments

    monkeypatch.setattr(experiments, "run", lambda config, name=None: config)  # the jobs hand back their configs
    presets = workloads.build_presets(3, tmp_path / "presets")
    for job in presets.jobs:
        config = job.run()
        assert config.formats == workloads.PRESET_FORMATS == job.formats
        assert config.out_dir == tmp_path / "presets" / job.name
    assert sorted(job.name for job in presets.jobs) == sorted(workloads.PRESETS)

    (matrix,) = [job for job in workloads.build_fine_grid(3, tmp_path / "fine").jobs if job.name == "matrix_4k_bpt10"]
    path, _ = matrix.run()
    assert path.grid.n_steps == 4000

    (heston,) = [job for job in workloads.build_mc_oracle(5, tmp_path / "mc").jobs if job.name == "rough_heston_1d"]
    config = heston.run()
    assert config.sim.seed == 5
    assert config.out_dir == tmp_path / "mc" / "rough_heston_1d"


def test_mc_oracle_pass_runs_and_passes(tmp_path):
    # one pass of the benchmark's Monte Carlo workload at seed 3: every job it makes of the package's
    # public calls must return and pass its checks
    workloads = load_perfbench("workloads")
    workload = workloads.build_mc_oracle(3, tmp_path / "mc")
    failed = {job.name: [check.name for check in job.check(job.run()) if not check.ok] for job in workload.jobs}
    assert failed == {job.name: [] for job in workload.jobs}
