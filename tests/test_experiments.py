"""Config loading, experiment pipelines, CSV contracts, CLI exit codes."""

import contextlib
import copy
import dataclasses
import importlib.util
import io
import json
import math
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_merton import experiments, simulate
from volterra_merton.cli import _SUBCOMMAND_KINDS
from volterra_merton.cli import main as cli_main
from volterra_merton.experiments import (
    ConfigError,
    available_presets,
    config_from_dict,
    load_config,
    read_config,
    run,
    sweep,
    with_overrides,
)
from volterra_merton.merton import strategy_general, strategy_wishart, value_general
from volterra_merton.riccati import (
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_general,
    wishart_rhs,
)
from volterra_merton.simulate import SimConfig, mc_utility, simulate_bundle

ROOT = Path(__file__).resolve().parents[1]

BASE_VECTOR = {
    "kind": "strategy",
    "model": {
        "type": "vector",
        "gamma": 0.5,
        "rate": 0.0,
        "theta": [1.0],
        "nu": [0.3],
        "drift": [[-1.0]],
        "rho": [-0.5],
        "v0": [0.04],
        "kernel": {"family": "fractional", "c": 1.0, "alpha": 0.7},
    },
    "numerics": {"horizon": 0.5, "n_steps": 200},
    "output": {"directory": "out", "formats": ["csv"]},
}


def vector_config(tmp_path, **overrides):
    raw = json.loads(json.dumps(BASE_VECTOR))
    raw["output"]["directory"] = str(tmp_path)
    for key, value in overrides.items():
        raw[key] = value
    return raw


def wishart_mc_check(tmp_path):
    """bpt10_wishart as a floored, antithetic mc-check on 60 steps and 400 paths, written as csv and json."""
    raw = read_config("bpt10_wishart")
    raw["kind"] = "mc-check"
    raw["numerics"]["n_steps"] = 60
    raw["simulation"] = {"n_paths": 400, "seed": 11, "antithetic": True, "floor": 0.05}
    raw["output"] = {"directory": str(tmp_path), "formats": ["csv", "json"]}
    return raw


def small_preset(name):
    """A bundled preset's config on 20 steps and, for Monte Carlo, 8 paths."""
    raw = read_config(name)
    raw["numerics"]["n_steps"] = 20
    if "simulation" in raw:
        raw["simulation"]["n_paths"] = 8
    return raw


def strict_json(text):
    """The one strict-JSON document in ``text``: NaN, Infinity or a second document raise."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def cli_probe(raw, kind):
    """Run the CLI subcommand of ``kind`` on ``raw``, with a temporary output directory and the
    Monte Carlo draws of mc-check on one thread.

    Returns the exit code, stdout, stderr and the messages of the RuntimeWarnings raised.
    """
    command = next(command for command, kinds in _SUBCOMMAND_KINDS.items() if kind in kinds)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(simulate, "_WORKERS", 1):
        raw = copy.deepcopy(raw)
        raw["output"]["directory"] = tmp
        cfg = Path(tmp) / "probe.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([command, "--config", str(cfg)])
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


def leaf_paths(node, path=()):
    """Key paths, list indices included, to every scalar of a config mapping."""
    if isinstance(node, dict):
        return [leaf for key, child in node.items() for leaf in leaf_paths(child, path + (key,))]
    if isinstance(node, list):
        return [leaf for i, child in enumerate(node) for leaf in leaf_paths(child, path + (i,))]
    return [path]


# Counts between 1e6 and 1e18 would really allocate, so none is listed.
EDGE_VALUES = [0, -1, 2.5, 1e-300, 1e200, 1e300, math.nan, math.inf, "abc", "1e9", None, [], {}, True, [1.0], [[1.0]]]
# every preset kernel is fractional, so one small gamma-kernel vector config
# brings the leaves of the other kernel parameters
PROBE_CONFIGS = {name: small_preset(name) for name in available_presets()}
PROBE_CONFIGS["gamma_vector"] = dict(
    BASE_VECTOR,
    model=dict(BASE_VECTOR["model"], kernel={"family": "gamma", "c": 1.0, "alpha": 0.7, "lam": 1.0}),
    numerics={"horizon": 0.5, "n_steps": 20},
)
PRESET_LEAVES = [
    (name, path) for name, raw in PROBE_CONFIGS.items() for path in leaf_paths(raw) if path[0] != "output"
]


class TestLoadConfig:
    def test_presets_available(self):
        names = available_presets()
        assert "bpt10_wishart" in names
        assert "rough_heston_1d" in names

    def test_bpt10_preset_matrices_verbatim(self):
        config = load_config("bpt10_wishart")
        m = config.model
        assert np.array_equal(m.mean_reversion, [[-1.21, 0.491], [0.3292, -1.271]])
        assert np.array_equal(m.vol_of_vol, [[0.167, 0.033], [0.001, 0.09]])
        assert np.array_equal(m.rho, [-0.115, -0.549])
        assert np.array_equal(m.market_price, [4.722, 3.317])
        # drift constant reproduces N N^T = 10 Q^T Q
        Q = m.vol_of_vol
        assert np.allclose(m.drift_constant, 10.0 * Q.T @ Q, rtol=1e-12)
        assert np.array_equal(m.drift_constant, m.drift_constant.T)
        assert m.gamma == 0.2
        assert m.kernel[0].alpha == 0.99

    def test_defaults_filled(self):
        raw = {k: v for k, v in BASE_VECTOR.items() if k not in ("numerics",)}
        config = config_from_dict(json.loads(json.dumps(raw)))
        assert config.n_steps == 1000
        assert config.sim.seed == 42
        assert config.sim.floor == 0.0

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_gamma_validation_error(self, tmp_path):
        raw = vector_config(tmp_path)
        raw["model"]["gamma"] = 1.5
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict(raw)

    @pytest.mark.parametrize("name", available_presets())
    def test_presets_fit_the_work_budget(self, name):
        load_config(name)

    @pytest.mark.parametrize(
        "name, counts",
        [
            ("rough_heston_1d", [("simulation", "n_paths", 1e200)]),
            ("rough_heston_1d", [("simulation", "n_paths", 10**7)]),  # 80 GB of draws
            ("rough_heston_1d", [("numerics", "n_steps", 1e200)]),
            ("bpt10_wishart", [("numerics", "n_steps", 1e300)]),
            ("bpt10_alpha_sweep", [("numerics", "n_steps", 10**8)]),  # three points of 2 x 4 entries per node
            # 1.05e9 bytes of draws fit, but one step past BLOCK the history's
            # FFT buffer is 16 x 541 x 128 000 = 1.11e9 bytes
            ("rough_heston_1d", [("numerics", "n_steps", 513), ("simulation", "n_paths", 128_000)]),
        ],
        ids=lambda v: "-".join(f"{s}-{k}-{c}" for s, k, c in v) if isinstance(v, list) else None,
    )
    def test_oversized_counts_are_refused_before_allocation(self, name, counts):
        # config_from_dict allocates no path or history array, so the refusal allocates nothing
        raw = read_config(name)
        for section, key, count in counts:
            raw[section][key] = count
        with pytest.raises(ConfigError, match="run too large"):
            config_from_dict(raw)

    def test_all_violations_reported_at_once(self, tmp_path):
        raw = vector_config(tmp_path)
        raw["model"]["gamma"] = 1.5
        raw["model"]["theta"] = [-1.0]
        raw["x0"] = -2.0
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert len(err.value.problems) >= 3

    @pytest.mark.parametrize(
        "preset, model, problem",
        [
            ("degenerate_pair_2d", {"kernel": [{"family": "constant", "c": 1.0}] * 3},
             "model section: expected 2 kernels, got 3"),
            ("bpt10_wishart", {"noise": [[0.1, 0.0], [0.0, 0.1]]}, "model gives both noise and nnt_from_q; give one"),
        ],
        ids=["kernel-count", "noise-and-nnt-from-q"],
    )
    def test_conflicting_model_fields_are_one_problem(self, preset, model, problem):
        raw = read_config(preset)
        raw["model"].update(model)
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.problems == [problem]

    def test_unknown_kind(self, tmp_path):
        raw = vector_config(tmp_path, kind="frobnicate")
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict(raw)

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ConfigError, match="available"):
            load_config("no_such_preset")

    def test_readme_numeric_lines_load(self):
        # the README's whole config block, on a sweep kind so that its sweep line applies;
        # YAML reads 1.0e8 (no signed exponent) as a string, and float fields still take it
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("### Configuration format", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        raw = dict(yaml.safe_load(block), kind="sweep")
        assert isinstance(raw["numerics"]["blowup_threshold"], str)
        config = config_from_dict(raw)
        assert config.blowup_threshold == 1.0e8
        assert (config.horizon, config.n_steps, config.sim.n_paths) == (1.0, 1000, 10000)
        assert config.sweep_values == (0.55, 0.75, 0.95)

    def test_readme_preset_table_gives_each_presets_kind(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split("| preset | kind | what it runs |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()]
        assert {name.strip().strip("`"): kind.strip() for name, kind in rows} == {
            name: load_config(name).kind for name in available_presets()
        }

    @pytest.mark.parametrize("section, key, text, value", [
        ("simulation", "floor", "1e-8", 1e-8),
        ("numerics", "blowup_threshold", "1e12", 1e12),
        ("numerics", "horizon", "'2.5'", 2.5),
        ("simulation", "seed", "'7'", 7),
    ])
    def test_numeric_text_is_read_by_field_type(self, tmp_path, section, key, text, value):
        raw = small_preset("bpt10_wishart") if key == "floor" else vector_config(tmp_path)  # a wishart floor
        raw.setdefault(section, {})[key] = "PROBE"
        config = config_from_dict(yaml.safe_load(yaml.safe_dump(raw).replace("PROBE", text)))
        got = {"floor": config.sim.floor, "blowup_threshold": config.blowup_threshold,
               "horizon": config.horizon, "seed": config.sim.seed}[key]
        assert got == value and type(got) is type(value)


class TestReplaced:
    """``ExperimentConfig.replaced`` loads its config again from the mapping, with the fields written in."""

    @pytest.mark.parametrize("name", available_presets())
    def test_no_fields_give_the_same_config(self, name):
        config = load_config(name)
        again = config.replaced()
        assert again.echo == config.echo
        for f in dataclasses.fields(config):
            if f.name == "model":
                for g in dataclasses.fields(config.model):
                    np.testing.assert_array_equal(getattr(again.model, g.name), getattr(config.model, g.name), strict=True)
            else:
                assert getattr(again, f.name) == getattr(config, f.name)

    @pytest.mark.parametrize(
        "name, fields, keys",
        [
            ("bpt10_alpha_sweep", {"n_steps": 40, "sweep_values": (0.6, 0.9)}, {"numerics.n_steps": 40, "sweep.alpha": [0.6, 0.9]}),
            (
                "rough_heston_1d",
                {"horizon": 0.1, "n_steps": 20, "sim": SimConfig(n_paths=8, seed=5, floor=1e-9, antithetic=True)},
                {"numerics.horizon": 0.1, "numerics.n_steps": 20, "simulation.n_paths": 8, "simulation.seed": 5,
                 "simulation.floor": 1e-9, "simulation.antithetic": True},
            ),
        ],
        ids=["sweep", "mc-check"],
    )
    def test_report_is_that_of_the_overridden_mapping(self, tmp_path, name, fields, keys):
        replaced = load_config(name).replaced(out_dir=tmp_path / "replaced", formats=("csv", "json"), **fields)
        direct = config_from_dict(with_overrides(read_config(name), {
            "output.directory": str(tmp_path / "direct"), "output.formats": ["csv", "json"], **keys,
        }))
        reports = [run(config).outputs[-1] for config in (replaced, direct)]
        assert reports[0].endswith("_report.json")
        assert Path(reports[0]).read_bytes() == Path(reports[1]).read_bytes()

    def test_numpy_values_echo_as_numbers(self):
        raw = read_config("rough_heston_1d")
        raw["model"].update(drift=np.array([[-1.0]]), gamma=np.float32(0.5))
        raw["numerics"]["n_steps"] = np.int64(40)
        config = config_from_dict(raw)
        echo = json.loads(config.echo)
        assert echo["model"]["drift"] == [[-1.0]] and echo["model"]["gamma"] == 0.5
        assert echo["numerics"]["n_steps"] == 40
        again = config.replaced(n_steps=20)
        np.testing.assert_array_equal(again.model.drift, [[-1.0]])
        assert again.model.gamma == 0.5 and again.n_steps == 20

    def test_values_naming_one_file_are_refused(self):
        with pytest.raises(ConfigError) as err:
            load_config("bpt10_alpha_sweep").replaced(sweep_values=(0.6, 0.6))
        assert err.value.problems == ["sweep.alpha 0.6 and 0.6 name the same output file"]

    @pytest.mark.parametrize("field", ["model", "echo", "sweep_axis"])
    def test_a_field_with_no_config_key_is_a_type_error(self, field):
        config = load_config("bpt10_alpha_sweep")
        with pytest.raises(TypeError, match=field):
            config.replaced(**{field: getattr(config, field)})


class TestRunPipelines:
    def test_strategy_csv_schema(self, tmp_path):
        config = config_from_dict(vector_config(tmp_path))
        report = run(config)
        csv = tmp_path / "strategy.csv"
        assert str(csv) in report.outputs
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,pi_1,hedge_1,myopic_1"
        assert len(lines) == 202  # header + 201 nodes

    def test_wishart_strategy_hedge_nonpositive(self, tmp_path):
        config = load_config("bpt10_wishart").replaced(out_dir=tmp_path, n_steps=300)
        report = run(config)
        rows = (tmp_path / "strategy.csv").read_text().splitlines()
        assert rows[0] == "t,pi_1,pi_2,hedge_1,hedge_2,myopic_1,myopic_2"
        data = np.loadtxt(rows[1:], delimiter=",")
        assert data[:, 3].max() <= 0.0 and data[:, 4].max() <= 0.0
        assert report.metrics["max_hedging"] <= 0.0

    def test_value_riskless(self, tmp_path):
        raw = vector_config(tmp_path, kind="value")
        raw["model"]["theta"] = [0.0]
        raw["model"]["rate"] = 0.03
        raw["numerics"] = {"horizon": 1.0, "n_steps": 400}
        report = run(config_from_dict(raw))
        assert report.metrics["value"] == pytest.approx(2.0 * np.exp(0.015), rel=1e-12)
        row = (tmp_path / "value.csv").read_text().splitlines()[1].split(",")
        assert float(row[0]) == 1.0
        assert float(row[1]) == pytest.approx(report.metrics["value"])

    def test_mc_check_schema_and_zscore(self, tmp_path):
        raw = vector_config(tmp_path, kind="mc-check")
        raw["numerics"] = {"horizon": 0.25, "n_steps": 120}
        raw["simulation"] = {"n_paths": 4000, "seed": 3, "antithetic": True}
        report = run(config_from_dict(raw))
        header, row = (tmp_path / "mc-check.csv").read_text().splitlines()
        assert header == "analytic,mc_mean,mc_stderr,z_score,n_paths,seed"
        assert abs(report.metrics["z_score"]) <= 3.0

    def test_bl13_recovery(self, tmp_path):
        config = load_config("bl13_recovery").replaced(out_dir=tmp_path, n_steps=500)
        report = run(config)
        assert report.metrics["rel_sup_diff_psi"] <= 0.02
        assert report.metrics["rel_sup_diff_hedging"] <= 0.02
        assert (tmp_path / "bl13-recovery_volterra.csv").exists()
        assert (tmp_path / "bl13-recovery_reference.csv").exists()

    def test_solve_kind_writes_matrix_components(self, tmp_path):
        config = load_config("bpt10_wishart").replaced(
            kind="solve", out_dir=tmp_path, n_steps=100
        )
        report = run(config)
        header = (tmp_path / "solve.csv").read_text().splitlines()[0]
        assert header == "t,psi_11,psi_12,psi_21,psi_22"
        assert np.isfinite(report.metrics["riccati_residual"])

    def test_solve_kind_vector_single_asset_header(self, tmp_path):
        # a 1-asset vector solve is not a 1x1 matrix solve
        config = config_from_dict(vector_config(tmp_path, kind="solve"))
        run(config)
        header = (tmp_path / "solve.csv").read_text().splitlines()[0]
        assert header == "t,psi_1"

    @pytest.mark.parametrize(
        "overrides, svg",
        [
            ({}, "strategy.svg"),
            ({"kind": "sweep", "sweep": {"gamma": [0.3, 0.5]}}, "sweep_gamma_0_3.svg"),
        ],
        ids=["run", "sweep"],
    )
    def test_svg_and_json_outputs(self, tmp_path, overrides, svg):
        raw = vector_config(tmp_path, **overrides)
        raw["output"]["formats"] = ["csv", "svg", "json"]
        report = run(config_from_dict(raw))
        text = (tmp_path / svg).read_text()
        assert text.startswith("<svg") and "polyline" in text
        target = tmp_path / f"{raw['kind']}_report.json"
        payload = json.loads(target.read_text())
        assert payload["kind"] == raw["kind"]
        assert "runtime_seconds" not in payload
        assert str(target) in report.outputs

    @pytest.mark.parametrize(
        "model, verdict",
        [({}, True), ({"drift": [[0.0]], "rho": [0.0]}, False), (read_config("degenerate_pair_2d")["model"], None)],
        ids=["holds", "fails", "non-diagonal-drift"],
    )
    def test_vector_report_holds_the_global_existence_verdict(self, tmp_path, model, verdict):
        # the drift of degenerate_pair_2d has off-diagonal entries, where the check does not apply
        raw = vector_config(tmp_path, kind="value", model=dict(BASE_VECTOR["model"], **model))
        raw["output"]["formats"] = ["csv", "json"]
        report = run(config_from_dict(raw))
        assert report.metrics["global_existence"] is verdict
        assert json.loads((tmp_path / "value_report.json").read_text())["metrics"]["global_existence"] is verdict

    def test_byte_identical_reruns(self, tmp_path):
        raw = vector_config(tmp_path, kind="mc-check")
        raw["numerics"] = {"horizon": 0.25, "n_steps": 60}
        raw["simulation"] = {"n_paths": 500, "seed": 7, "antithetic": True}
        raw["output"]["formats"] = ["csv", "json"]
        # both runs write into one directory, so every file is compared by name
        snapshots = []
        for _ in range(2):
            run(config_from_dict(raw))
            snapshots.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
        assert sorted(snapshots[0]) == ["mc-check.csv", "mc-check_report.json"]
        assert snapshots[0] == snapshots[1]

    def test_byte_identical_sweep_reruns(self, tmp_path):
        # per-point CSVs and SVGs, the combined CSV and the report, all written by the sweep pool
        config = load_config("bpt10_alpha_sweep").replaced(
            out_dir=tmp_path, n_steps=40, formats=("csv", "svg", "json")
        )
        snapshots = []
        for _ in range(2):
            sweep(config)
            snapshots.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
        assert {Path(name).suffix for name in snapshots[0]} == {".csv", ".svg", ".json"}
        assert len(snapshots[0]) == 3 * 2 + 2
        assert snapshots[0] == snapshots[1]

    def test_report_does_not_depend_on_the_output_directory(self, tmp_path):
        config = load_config("bpt10_alpha_sweep").replaced(n_steps=40, formats=("csv", "json"))
        reports = []
        for name in ("first", "second"):
            report = sweep(config.replaced(out_dir=tmp_path / name))
            assert report.outputs[-1] == str(tmp_path / name / "sweep_report.json")
            reports.append((tmp_path / name / "sweep_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert "sweep_combined.csv" in json.loads(reports[0])["outputs"]

    def test_blowup_raises_for_strategy(self, tmp_path):
        from volterra_merton.riccati import RiccatiBlowUpError

        raw = vector_config(tmp_path)
        raw["model"].update(theta=[3.0], nu=[2.0], drift=[[0.0]], rho=[0.0], gamma=0.9)
        raw["numerics"] = {"horizon": 1.0, "n_steps": 300}
        with pytest.raises(RiccatiBlowUpError):
            run(config_from_dict(raw))

    def test_wishart_mc_check_clips_and_equals_the_bundle(self, tmp_path):
        # the floor clips thousands of eigenvalues; the streamed estimate keeps the bundle route's bits
        config = config_from_dict(wishart_mc_check(tmp_path))
        run(config)
        metrics = json.loads((tmp_path / "mc-check_report.json").read_text())["metrics"]
        model = config.model
        path = solve_riccati_matrix(model.kernel, wishart_rhs(model), config.grid, config.blowup_threshold)
        strat = strategy_wishart(model, path)
        bundle = simulate_bundle(model, config.grid, config.sim)
        est = mc_utility(model, strat, config.sim, config.x0, bundle=bundle)
        assert metrics["psd_violations"] == bundle.psd_violation_count > 0
        assert (metrics["mc_mean"].hex(), metrics["mc_stderr"].hex()) == (est.mean.hex(), est.stderr.hex())


def cell(x) -> str:
    """One float cell of the CSV contract: 17 significant digits."""
    return format(float(x), ".17g")


def csv_text(header, rows) -> str:
    return "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"


def wishart_strategy(config):
    path = solve_riccati_matrix(config.model.kernel, wishart_rhs(config.model), config.grid)
    return strategy_wishart(config.model, path)


class TestCsvText:
    """Exact CSV text, rebuilt cell by cell from the library's own results."""

    def test_strategy_csv(self, tmp_path):
        config = load_config("bpt10_wishart").replaced(out_dir=tmp_path, n_steps=20)
        run(config)
        strat = wishart_strategy(config)
        rows = [
            [cell(t), *map(cell, strat.weights[j]), *map(cell, strat.hedging[j]), *map(cell, strat.myopic)]
            for j, t in enumerate(config.grid.nodes)
        ]
        header = ["t", "pi_1", "pi_2", "hedge_1", "hedge_2", "myopic_1", "myopic_2"]
        assert (tmp_path / "strategy.csv").read_text() == csv_text(header, rows)

    def test_sweep_combined_csv(self, tmp_path):
        # unsorted input with an integer value: points are ordered by value, an int is written as one
        config = load_config("bpt10_horizon_study").replaced(out_dir=tmp_path, n_steps=10)
        config = config.replaced(sweep_values=(2, 0.5, 1.0))
        sweep(config)
        rows = []
        for value in (0.5, 1.0, 2):
            strat = wishart_strategy(config.replaced(horizon=float(value)))
            text = str(value) if isinstance(value, int) else cell(value)
            for j, t in enumerate(strat.grid.nodes):
                for name, series in (("pi", strat.weights), ("hedge", strat.hedging)):
                    rows.extend(["horizon", text, cell(t), f"{name}_{i + 1}", cell(series[j, i])] for i in range(2))
        header = ["sweep_param", "sweep_value", "t", "series", "value"]
        assert (tmp_path / "sweep_combined.csv").read_text() == csv_text(header, rows)

    def test_mc_check_csv_with_large_seed(self, tmp_path):
        seed = 2**100  # a float cell would write it as 1.2676506002282294e+30
        raw = vector_config(tmp_path, kind="mc-check")
        raw["numerics"] = {"horizon": 0.25, "n_steps": 20}
        raw["simulation"] = {"n_paths": 8, "seed": seed, "antithetic": True}
        config = config_from_dict(raw)
        run(config)
        model = config.model
        rhs = vector_rhs_general(model)
        path = solve_riccati_vector(model.kernel, rhs, config.grid)
        analytic = value_general(model, path, config.x0, rhs=rhs).value
        bundle = simulate_bundle(model, config.grid, config.sim)
        est = mc_utility(model, strategy_general(model, path), config.sim, config.x0, bundle=bundle)
        row = [cell(analytic), cell(est.mean), cell(est.stderr), cell(est.z_score(analytic)), "8", str(seed)]
        header = ["analytic", "mc_mean", "mc_stderr", "z_score", "n_paths", "seed"]
        assert (tmp_path / "mc-check.csv").read_text() == csv_text(header, [row])


def combined_blocks(path):
    """The sweep_value of each block of a combined CSV, in file order."""
    values = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
    return [v for i, v in enumerate(values) if i == 0 or values[i - 1] != v]


class TestSweeps:
    def test_alpha_sweep_combined_csv(self, tmp_path):
        config = load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=200)
        report = sweep(config)
        combined = tmp_path / "sweep_combined.csv"
        lines = combined.read_text().splitlines()
        assert lines[0] == "sweep_param,sweep_value,t,series,value"
        # 3 sweep points x 201 nodes x 4 series rows
        assert len(lines) == 1 + 3 * 201 * 4
        assert str(combined) in report.outputs

    def test_alpha_sweep_curvature_ordering(self, tmp_path):
        # rougher kernels bend the hedging demand harder: total slope
        # variation of hedge_1 decreases with alpha
        config = load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=400)
        sweep(config)
        curvature = {}
        for alpha in ("0_55", "0_75", "0_95"):
            data = np.loadtxt(
                (tmp_path / f"sweep_alpha_{alpha}.csv").read_text().splitlines()[1:],
                delimiter=",",
            )
            hedge = data[:, 3]
            slope = np.diff(hedge)
            curvature[alpha] = float(np.abs(np.diff(slope)).sum())
        assert curvature["0_55"] > curvature["0_75"] > curvature["0_95"]

    def test_horizon_regime_study(self, tmp_path):
        config = load_config("bpt10_horizon_study").replaced(out_dir=tmp_path, n_steps=150)
        report = sweep(config)
        combined = tmp_path / "sweep_combined.csv"
        assert combined.exists()
        values = {line.split(",")[1] for line in combined.read_text().splitlines()[1:]}
        assert values == {"0.5", "1", "2"}

    def test_volofvol_scaling_is_linear(self, tmp_path):
        config = load_config("bpt10_volofvol_study").replaced(out_dir=tmp_path, n_steps=120)
        sweep(config)
        lo = np.loadtxt((tmp_path / "sweep_volofvol_scale_0_5.csv").read_text().splitlines()[1:], delimiter=",")
        hi = np.loadtxt((tmp_path / "sweep_volofvol_scale_2_0.csv").read_text().splitlines()[1:], delimiter=",")
        # hedging demand scales linearly in Q up to the Riccati feedback,
        # which is weak at these parameters: ratio close to 4; the terminal
        # node is excluded (hedging there is exactly zero)
        ratio = hi[:-1, 3] / lo[:-1, 3]
        assert np.all(ratio > 2.0) and np.all(ratio < 8.0)

    def test_correlation_study_runs_all_regimes(self, tmp_path):
        config = load_config("bpt10_correlation_study").replaced(out_dir=tmp_path, n_steps=100)
        report = sweep(config)
        for regime in ("positive", "zero", "negative"):
            assert (tmp_path / f"sweep_correlation_{regime}.csv").exists()

    @pytest.mark.parametrize(
        "axis, values", [("correlation", ["positive"]), ("volofvol_scale", [1.0])], ids=["correlation", "volofvol_scale"]
    )
    def test_wishart_only_study_refuses_a_vector_model(self, tmp_path, axis, values):
        raw = vector_config(tmp_path, kind="sweep", sweep={axis: values})
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.problems == [f"sweep.{axis} requires a wishart model"]

    def test_alpha_sweep_on_an_exponential_kernel_is_refused(self, tmp_path):
        # the exponential family has no alpha, so every point would be the same
        raw = vector_config(tmp_path, kind="sweep", sweep={"alpha": [0.6, 1.0]})
        raw["model"]["kernel"] = {"family": "exponential", "c": 1.0, "lam": 1.0}
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert [p.split(":")[0] for p in err.value.problems] == ["sweep.alpha 0.6"]

    def test_empty_sweep_list_is_config_error(self, tmp_path):
        raw = vector_config(tmp_path, kind="sweep")
        raw["sweep"] = {"alpha": []}
        with pytest.raises(ConfigError, match="nonempty"):
            config_from_dict(raw)

    def test_two_swept_parameters_rejected(self, tmp_path):
        raw = vector_config(tmp_path, kind="sweep")
        raw["sweep"] = {"alpha": [0.6, 0.7], "gamma": [0.2]}
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(raw)

    def test_every_output_is_written_atomically(self, tmp_path):
        config = load_config("bpt10_alpha_sweep").replaced(
            out_dir=tmp_path, n_steps=40, formats=("csv", "svg", "json")
        )
        with mock.patch.object(experiments, "_write_atomic", wraps=experiments._write_atomic) as recorder:
            report = sweep(config)
        written = [str(call.args[0]) for call in recorder.call_args_list]
        assert sorted(written) == sorted(report.outputs)
        assert any(path.endswith(".svg") for path in written)

    def test_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"sweep started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = sweep(load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=60))
        assert len([p for p in report.outputs if p.endswith(".csv")]) == 4

    def test_combined_csv_ordered_by_sweep_value(self, tmp_path):
        config = load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=50)
        config = config.replaced(sweep_values=(0.95, 0.55, 0.75))  # unsorted input
        sweep(config)
        seen = combined_blocks(tmp_path / "sweep_combined.csv")
        assert [float(v) for v in seen] == [0.55, 0.75, 0.95]

    def test_combined_csv_orders_a_number_yaml_reads_as_text(self, tmp_path):
        values = tuple(yaml.safe_load("[0.9, 6e-1, 0.75]"))
        assert values[1] == "6e-1"  # YAML 1.1 needs a dot in a float
        sweep(load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=50, sweep_values=values))
        seen = combined_blocks(tmp_path / "sweep_combined.csv")
        assert seen == ["6e-1", "0.75", "0.90000000000000002"]

    # Vol-of-vol scale 5 blows up at t = 0.67 of 200 steps; 1e200 makes Q^T Q
    # overflow, so that point's very first step is non-finite.
    @pytest.mark.parametrize("scales", [(0.5, 5.0), (5.0, 1e200)], ids=["blowup", "blowup-before-nonfinite"])
    def test_failing_point_raises_first_failure_in_config_order(self, tmp_path, scales):
        from volterra_merton.riccati import RiccatiBlowUpError

        config = load_config("bpt10_volofvol_study").replaced(out_dir=tmp_path, n_steps=200, sweep_values=scales)
        model = dataclasses.replace(config.model, vol_of_vol=5.0 * config.model.vol_of_vol)
        want = solve_riccati_matrix(model.kernel, wishart_rhs(model), config.grid).blowup
        assert want is not None and 0.5 < want.detected_at < 1.0
        with pytest.raises(RiccatiBlowUpError) as caught:
            sweep(config)
        assert caught.value.blowup == want
        assert list(tmp_path.glob("*.csv")) == []  # a failing sweep writes no file


class TestCli:
    def test_strategy_roundtrip(self, tmp_path, capsys):
        code = cli_main(["strategy", "--config", "bpt10_wishart", "--out", str(tmp_path), "--steps", "100"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "strategy"
        assert (tmp_path / "strategy.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: strategy\n")
        assert cli_main(["strategy", "--config", str(bad)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["code"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--config", "bl13_recovery", "--steps", "abc"],
            ["solve", "--config", "bl13_recovery", "--bogus", "1"],
            ["solve"],
        ],
        ids=["bad-int", "unknown-flag", "no-config"],
    )
    def test_bad_command_line_is_one_config_record(self, capsys, argv):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["code"] == 1
        assert record["error"]["kind"] == "config"
        assert captured.err == ""

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as caught:
            cli_main(["solve", "--help"])
        assert caught.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_kind_subcommand_mismatch(self, tmp_path, capsys):
        assert cli_main(["value", "--config", "bpt10_wishart", "--out", str(tmp_path)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert "cannot run" in record["error"]["message"]

    def test_blowup_exit_code(self, tmp_path, capsys):
        raw = vector_config(tmp_path)
        raw["model"].update(theta=[3.0], nu=[2.0], drift=[[0.0]], rho=[0.0], gamma=0.9)
        raw["numerics"] = {"horizon": 1.0, "n_steps": 300}
        cfg = tmp_path / "blowup.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        code = cli_main(["strategy", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["code"] == 2
        assert 0.0 < record["error"]["t_max_estimate"] < 1.0

    def test_nonfinite_riccati_step_exit_code(self, tmp_path, capsys):
        # nu**2 overflows, so the first corrector step is NaN while its predictor is finite
        raw = vector_config(tmp_path, kind="mc-check", simulation={"n_paths": 8})
        raw["model"]["nu"] = [1e200]
        raw["numerics"] = {"horizon": 0.25, "n_steps": 20}
        cfg = tmp_path / "nonfinite.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        # pytest's own capture keeps RuntimeWarnings out of capsys
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["mc-check", "--config", str(cfg)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["code"] == 2
        assert record["error"]["kind"] == "riccati-nonfinite"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("scales", [[0.5, 5.0], [5.0, 1e200]], ids=["blowup", "blowup-before-nonfinite"])
    def test_sweep_failure_is_one_blowup_record(self, tmp_path, capsys, scales):
        raw = read_config("bpt10_volofvol_study")
        raw["numerics"]["n_steps"] = 200
        raw["sweep"]["volofvol_scale"] = scales
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["kind"] == "riccati-blowup"
        assert record["error"]["t_max_estimate"] == pytest.approx(0.67)
        assert captured.err == ""

    def test_unexpected_failure_is_one_internal_record(self, tmp_path, capsys, monkeypatch):
        import volterra_merton.cli as cli

        def broken(config):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "run", broken)
        assert cli_main(["strategy", "--config", "bpt10_wishart", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"] == {"code": 1, "kind": "internal", "message": "RuntimeError: unexpected"}
        assert captured.err == ""

    def test_nonfinite_metric_is_strict_json_null(self, tmp_path, capsys):
        # two antithetic paths over five steps give zero stderr and an infinite z-score
        raw = vector_config(tmp_path, kind="mc-check", simulation={"n_paths": 2, "antithetic": True})
        raw["numerics"] = {"horizon": 0.25, "n_steps": 5}
        raw["output"]["formats"] = ["csv", "json"]
        cfg = tmp_path / "mc.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["mc-check", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        report = (tmp_path / "mc-check_report.json").read_text()
        for payload in (strict_json(stdout), strict_json(report)):
            assert payload["metrics"]["z_score"] is None
            assert payload["nonfinite_metrics"] == ["z_score"]
        assert (tmp_path / "mc-check.csv").read_text().splitlines()[1].split(",")[3] == "inf"

    @pytest.mark.parametrize(
        "preset, field, value, nonfinite",
        [
            ("bpt10_wishart", "vol_of_vol", [[1e200, 0.0], [0.0, 0.3]], None),
            ("bpt10_wishart", "rho", [1e200, 0.0], None),
            ("bpt10_wishart", "nnt_from_q", -10.0, None),
            ("degenerate_pair_2d", "v0", [0.04, 1e300], ["certainty_equivalent", "value"]),
            ("rough_heston_1d", "rate", 1e9, ["analytic", "mc_mean", "mc_stderr", "z_score"]),
        ],
        ids=["noise-from-q", "rho-norm", "nnt-from-q-negative", "value", "wealth-and-stderr"],
    )
    def test_overflow_prints_nothing_on_stderr(self, preset, field, value, nonfinite):
        raw = small_preset(preset)
        raw["model"][field] = value
        code, out, err, runtime = cli_probe(raw, raw["kind"])
        record = strict_json(out)
        assert (err, runtime) == ("", [])
        if nonfinite is None:
            assert code == 1 and record["error"]["kind"] == "config"
        else:
            assert code == 0 and record["nonfinite_metrics"] == nonfinite
            assert all(record["metrics"][name] is None for name in nonfinite)

    def test_variance_overflowing_to_minus_inf_is_a_divergence(self):
        # the drift takes v0 = 1e308 past -inf at the first step; clipped to the floor, it would pass as a run
        raw = json.loads(json.dumps(BASE_VECTOR))
        raw["kind"] = "mc-check"
        raw["model"].update(v0=[1.0e308], drift=[[-2.0]], theta=[0.5])
        raw["model"]["kernel"]["alpha"] = 0.6
        raw["numerics"]["n_steps"] = 20
        raw["simulation"] = {"n_paths": 8, "seed": 1}
        code, out, err, runtime = cli_probe(raw, "mc-check")
        assert (code, err, runtime) == (3, "", [])
        assert strict_json(out)["error"] == {
            "code": 3, "kind": "mc-divergence", "message": "non-finite variance at step 1", "path_index": 0
        }

    @pytest.mark.parametrize(
        "fields",
        [{"noise": [[1.0e200, 0.0], [0.0, 1.0]]}, {"vol_of_vol": [[1.0e160, 0.0], [0.0, 0.3]], "nnt_from_q": 10.0}],
        ids=["noise", "nnt-from-q"],
    )
    def test_overflowing_drift_constant_is_a_config_error(self, fields):
        # finite N whose N N^T overflows, given directly or as sqrt(nnt_from_q) Q^T
        raw = small_preset("bpt10_wishart")
        raw["kind"] = "value"
        del raw["model"]["nnt_from_q"]
        raw["model"].update(fields)
        code, out, err, runtime = cli_probe(raw, "value")
        record = strict_json(out)
        assert (code, err, runtime) == (1, "", [])
        assert record["error"]["kind"] == "config"
        assert record["error"]["problems"] == ["N N^T has non-finite entries"]

    @pytest.mark.parametrize(
        "preset, field", [(preset, field) for preset in ("bpt10_wishart", "rough_heston_1d")
                          for field in ("psd_floor", "variance_floor")],
    )
    def test_a_floor_the_model_does_not_read_is_one_config_record(self, preset, field):
        # the two keys that simulation.floor replaced are unknown fields in either family
        raw = small_preset(preset)
        raw.setdefault("simulation", {})[field] = 0.5
        code, out, err, runtime = cli_probe(raw, raw["kind"])
        record = strict_json(out)
        assert (code, err, runtime) == (1, "", [])
        assert record["error"]["kind"] == "config"
        assert record["error"]["problems"] == [f"unknown field simulation.{field} (known: antithetic, floor, n_paths, seed)"]

    @pytest.mark.parametrize("preset", ["bpt10_wishart", "rough_heston_1d"])
    @pytest.mark.parametrize(
        "text, problem",
        [(".nan", "simulation.floor must be finite (got nan)"),
         (".inf", "simulation.floor must be finite (got inf)"),
         ("-0.5", "simulation section: floor must be finite and nonnegative")],
        ids=["nan", "inf", "negative"],
    )
    def test_a_floor_that_is_not_finite_and_nonnegative_is_one_config_record(self, preset, text, problem):
        raw = small_preset(preset)
        raw["kind"] = "mc-check"
        raw["simulation"] = {"n_paths": 8, "floor": "PROBE"}
        code, out, err, runtime = cli_probe(yaml.safe_load(yaml.safe_dump(raw).replace("PROBE", text)), "mc-check")
        assert (code, err, runtime) == (1, "", [])
        assert strict_json(out)["error"]["problems"] == [problem]

    def test_a_floor_that_overflows_sigma0s_root_prints_nothing_on_stderr(self):
        # node 0's root is taken from Sigma0 clipped at the floor, before the first step
        raw = small_preset("bpt10_wishart")
        raw["kind"] = "mc-check"
        raw["simulation"] = {"n_paths": 8, "floor": 1e308}
        code, out, err, runtime = cli_probe(raw, "mc-check")
        assert (code, err, runtime) == (3, "", [])
        assert strict_json(out)["error"] == {
            "code": 3, "kind": "mc-divergence", "message": "non-finite covariance at step 1", "path_index": 0
        }

    @pytest.mark.parametrize("kind", ["value", "mc-check"])
    def test_an_overflowing_input_curve_prints_nothing_on_stderr(self, kind):
        # V0 + b0 int_0^t K passes the float range once int_0^t K exceeds 1
        raw = small_preset("rough_heston_1d")
        raw["kind"] = kind
        raw["numerics"]["horizon"] = 10.0
        raw["model"]["b0"] = [1e308]
        code, out, err, runtime = cli_probe(raw, kind)
        record = strict_json(out)
        assert (err, runtime) == ("", [])
        if kind == "value":
            assert code == 0 and record["metrics"]["value"] is None and "value" in record["nonfinite_metrics"]
        else:
            assert code == 3 and record["error"] == {
                "code": 3, "kind": "mc-divergence", "message": "non-finite variance at step 5", "path_index": 0
            }

    def test_streamed_mc_check_does_not_depend_on_the_workers(self, tmp_path, monkeypatch):
        vector = vector_config(tmp_path, kind="mc-check")
        vector["numerics"] = {"horizon": 0.25, "n_steps": 60}
        vector["simulation"] = {"n_paths": 301, "seed": 4}
        vector["output"]["formats"] = ["csv", "json"]
        for name, raw in (("vector", vector), ("wishart", wishart_mc_check(tmp_path))):
            found = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulate, "_WORKERS", workers)
                out = tmp_path / name / str(workers)
                run(config_from_dict(raw).replaced(out_dir=out))
                found.append([(out / stem).read_bytes() for stem in ("mc-check.csv", "mc-check_report.json")])
            assert found[0] == found[1] == found[2], name

    def test_seed_override_changes_output(self, tmp_path, capsys):
        raw = vector_config(tmp_path, kind="mc-check")
        raw["numerics"] = {"horizon": 0.25, "n_steps": 50}
        raw["simulation"] = {"n_paths": 200, "seed": 1, "antithetic": True}
        cfg = tmp_path / "mc.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["mc-check", "--config", str(cfg), "--out", str(tmp_path / "s1")]) == 0
        assert cli_main(["mc-check", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
        capsys.readouterr()
        a = (tmp_path / "s1" / "mc-check.csv").read_text()
        b = (tmp_path / "s2" / "mc-check.csv").read_text()
        assert a != b

    def test_format_override_rejects_unknown(self, tmp_path, capsys):
        assert cli_main(["strategy", "--config", "bpt10_wishart", "--out", str(tmp_path), "--format", "pdf"]) == 1

    @pytest.mark.parametrize(
        "section, key, text",
        [
            ("numerics", "horizon", ".nan"),
            ("numerics", "horizon", ".inf"),
            ("numerics", "horizon", "abc"),
            ("numerics", "n_steps", "1e9"),
            (None, "x0", ".nan"),
            ("numerics", "blowup_threshold", ".nan"),
            ("simulation", "n_paths", "2.5"),
            ("simulation", "seed", "-1"),
            pytest.param("simulation", "seed", "9" * 400, id="seed-400-digits"),
            pytest.param("numerics", "horizon", "9" * 400, id="horizon-400-digits"),
        ],
    )
    def test_bad_numeric_field_is_one_config_record(self, tmp_path, capsys, section, key, text):
        raw = vector_config(tmp_path)
        (raw.setdefault(section, {}) if section else raw)[key] = "PROBE"
        cfg = tmp_path / "probe.yaml"
        cfg.write_text(yaml.safe_dump(raw).replace("PROBE", text))
        assert cli_main(["strategy", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["code"] == 1
        assert any(key in problem for problem in record["error"]["problems"])
        assert captured.err == ""
        assert not (tmp_path / "strategy.csv").exists()

    @pytest.mark.parametrize(
        "command, field, text, needle",
        [
            pytest.param("sweep", ("sweep", "alpha", 0), ".nan", "sweep.alpha", id="sweep-alpha-nan"),
            pytest.param("sweep", ("sweep", "horizon", 0), "abc", "sweep.horizon", id="sweep-horizon-text"),
            pytest.param("strategy", ("output", "formats"), "5", "output.formats", id="formats-number"),
            pytest.param("strategy", ("output", "directory"), "5", "output.directory", id="directory-number"),
            pytest.param("mc-check", ("model", "v0", 0), ".nan", "v0", id="mc-check-v0-nan"),
            pytest.param("mc-check", ("simulation", "antithetic"), "abc", "antithetic", id="antithetic-text"),
            pytest.param("mc-check", ("simulation", "antithetic"), ".nan", "antithetic", id="antithetic-nan"),
            pytest.param("mc-check", ("simulation", "antithetic"), "2", "antithetic", id="antithetic-2"),
            pytest.param("mc-check", ("simulation", "n_paths"), "1.0e+200", "too large", id="n-paths-1e200"),
            pytest.param("strategy", ("numerics", "n_steps"), "1.0e+200", "too large", id="n-steps-1e200"),
            pytest.param("strategy", ("model", "kernel", "lam"), "2.0", "lam", id="fractional-lam"),
        ],
    )
    def test_bad_field_is_one_config_record(self, tmp_path, capsys, command, field, text, needle):
        kind = {"sweep": "sweep", "mc-check": "mc-check"}.get(command, "strategy")
        raw = vector_config(tmp_path, kind=kind, simulation={"n_paths": 100})
        if command == "sweep":
            raw["sweep"] = {field[1]: [0.5]}
        node = raw
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = "PROBE"
        cfg = tmp_path / "probe.yaml"
        cfg.write_text(yaml.safe_dump(raw).replace("PROBE", text))
        assert cli_main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["code"] == 1
        assert any(needle in problem for problem in record["error"]["problems"])
        assert captured.err == ""

    @pytest.mark.parametrize(
        "kind, axis, values, problems",
        [
            pytest.param("sweep", "horizon", [1.5, "1_5"],
                         ["sweep.horizon 1.5 and '1_5' name the same output file"], id="horizon-1_5"),
            pytest.param("sweep", "alpha", [0.6, 0.6, 0.60000000000000001],
                         ["sweep.alpha 0.6 and 0.6 name the same output file"] * 2, id="alpha-repeated"),
            # the files are horizon_1 and horizon_1_0, but the combined CSV writes both points as 1
            pytest.param("sweep", "horizon", [1, 1.0],
                         ["sweep.horizon 1 and 1.0 share the combined-CSV sweep_value '1'"], id="horizon-1-1_0"),
        ],
    )
    def test_sweep_values_naming_one_file_are_one_config_record(self, tmp_path, capsys, kind, axis, values, problems):
        # each such pair would write one point's files and metrics over another's
        raw = vector_config(tmp_path / "out", kind=kind, sweep={axis: values})
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["kind"] == "config"
        assert record["error"]["problems"] == problems
        assert captured.err == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axis, values",
        [("alpha", [0.6, 0.9]), ("horizon", [0.25, 0.5]), ("gamma", [0.3, 0.5]),
         ("correlation", ["positive", "zero", "negative"]), ("volofvol_scale", [0.5, 2.0])],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_every_axis_runs_through_the_sweep_command(self, tmp_path, capsys, axis, values):
        # the matrix axes on bpt10_wishart, the others on a small vector config
        if axis in ("correlation", "volofvol_scale"):
            raw = with_overrides(read_config("bpt10_wishart"), {"kind": "sweep", "numerics.n_steps": 20})
        else:
            raw = vector_config(tmp_path, kind="sweep", numerics={"horizon": 0.5, "n_steps": 20})
        raw["sweep"] = {axis: values}
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "sweep"
        for value in values:
            assert (out / f"sweep_{axis}_{str(value).replace('.', '_')}.csv").exists()
        rows = (out / "sweep_combined.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {axis}

    @pytest.mark.parametrize(
        "kind, sweep_section",
        [pytest.param(kind, {"alpha": [0.6]}, id=kind) for kind in
         ("sweep-alpha", "sweep-horizon", "sweep-gamma", "regime-study", "correlation-study", "volofvol-study")]
        + [pytest.param("sweep", {"rho": [0.5]}, id="axis-rho")],
    )
    def test_a_retired_kind_or_an_unknown_axis_is_one_config_record(self, tmp_path, capsys, kind, sweep_section):
        # the six kinds that named a sweep's axis are gone: a sweep section's one key names it
        raw = vector_config(tmp_path / "out", kind=kind, sweep=sweep_section)
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["kind"] == "config"
        axes = "alpha, horizon, gamma, correlation, volofvol_scale"
        assert record["error"]["problems"] == [
            f"kind must be one of solve, strategy, value, mc-check, bl13-recovery, sweep (got {kind!r})"
            if kind != "sweep" else f"a sweep section has exactly one key, its axis: {axes} (got {sweep_section!r})"
        ]
        assert captured.err == ""
        assert not (tmp_path / "out").exists()

    def test_vector_bl13_recovery_is_one_config_record(self, tmp_path, capsys):
        # this model's Riccati solution blows up before the horizon, so only a
        # check made at load can keep the run from reporting a blow-up instead
        raw = vector_config(tmp_path / "out", kind="bl13-recovery")
        raw["model"].update(theta=[5.0], nu=[3.0], drift=[[2.0]], rho=[0.9], gamma=0.9)
        raw["numerics"] = {"horizon": 5.0, "n_steps": 200}
        cfg = tmp_path / "bl13.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["strategy", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["kind"] == "config"
        assert record["error"]["problems"] == ["bl13-recovery requires a wishart model"]
        assert captured.err == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("lam", math.nan), ("lam", math.inf), ("c", math.inf)])
    def test_non_finite_kernel_parameter_is_one_config_record(self, tmp_path, capsys, field, value):
        raw = vector_config(tmp_path / "out")
        raw["model"]["kernel"] = {"family": "gamma", "c": 1.0, "alpha": 0.7, "lam": 1.0, field: value}
        cfg = tmp_path / "kernel.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["strategy", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["kind"] == "config"
        (problem,) = record["error"]["problems"]
        assert f"kernel {field} must be finite" in problem
        assert captured.err == ""

    @pytest.mark.parametrize(
        "path, value, needle",
        [
            pytest.param(("numerics", "n_step"), 40, "n_step", id="numerics-n_step"),
            pytest.param(("model", "b_0"), [0.1], "b_0", id="model-b_0"),
            pytest.param(("model", "kernel", "lamda"), 1.0, "lamda", id="kernel-lamda"),
            pytest.param(("simulations",), {"n_paths": 100}, "simulations", id="simulations"),
            pytest.param(("output", "formatz"), ["svg"], "formatz", id="output-formatz"),
            # lam ** (alpha + 1) overflows or underflows to 0, where the weights divide by it
            pytest.param(("model", "kernel"), {"family": "gamma", "c": 1.0, "alpha": 0.7, "lam": 1e200}, "lam",
                         id="gamma-lam-1e200"),
            pytest.param(("model", "kernel"), {"family": "gamma", "c": 1.0, "alpha": 0.7, "lam": 1e-300}, "lam",
                         id="gamma-lam-1e-300"),
            # gammainc(alpha + 1, lam dt) of the first cell is subnormal or 0, where the moments divide it
            pytest.param(("model", "kernel"), {"family": "gamma", "c": 1.0, "alpha": 0.7, "lam": 1e-180}, "lam",
                         id="gamma-lam-1e-180"),
            pytest.param(("model", "kernel"), {"family": "gamma", "c": 1.0, "alpha": 0.7, "lam": 1e-190}, "lam",
                         id="gamma-lam-1e-190"),
            pytest.param(("model", "theta"), [10**400], "int too large", id="theta-400-digits"),
            pytest.param(("model", "kernel", "c"), 10**400, "kernel: int too large", id="kernel-c-400-digits"),
        ],
    )
    def test_bad_entry_is_one_named_config_problem(self, tmp_path, capsys, path, value, needle):
        raw = vector_config(tmp_path / "out")
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "probe.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["strategy", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)  # one document, nothing else
        assert record["error"]["kind"] == "config"
        (problem,) = record["error"]["problems"]
        assert needle in problem
        assert captured.err == ""
        assert not (tmp_path / "out").exists()

    def test_tiny_gamma_lam_runs_as_the_fractional_kernel(self, tmp_path, capsys):
        # the first cell's gammainc(alpha + 1, lam dt) is still a normal float at lam = 1e-170
        curves = []
        for name, kernel in (("gamma", {"family": "gamma", "c": 1.0, "alpha": 0.7, "lam": 1e-170}),
                             ("fractional", {"family": "fractional", "c": 1.0, "alpha": 0.7})):
            raw = vector_config(tmp_path / name)
            raw["model"]["kernel"] = kernel
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(yaml.safe_dump(raw))
            assert cli_main(["strategy", "--config", str(cfg)]) == 0
            assert capsys.readouterr().err == ""
            curves.append(np.loadtxt(tmp_path / name / "strategy.csv", delimiter=",", skiprows=1))
        np.testing.assert_allclose(curves[0], curves[1], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize(
        "model",
        [
            dict(BASE_VECTOR["model"], theta=1.0),
            {
                "type": "wishart",
                "gamma": 0.5,
                "mean_reversion": [[-1.0]],
                "vol_of_vol": 0.2,
                "nnt_from_q": 10.0,
                "rho": [-0.5],
                "market_price": [1.0],
                "sigma0": [[0.04]],
                "kernel": {"family": "fractional", "c": 1.0, "alpha": 0.7},
            },
        ],
        ids=["vector-theta", "wishart-vol-of-vol"],
    )
    def test_scalar_array_field_reads_as_one_asset(self, tmp_path, capsys, model):
        raw = vector_config(tmp_path, model=model)
        cfg = tmp_path / "scalar.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["strategy", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["kind"] == "strategy"
        assert captured.err == ""
        header = (tmp_path / "strategy.csv").read_text().splitlines()[0]
        assert header == "t,pi_1,hedge_1,myopic_1"

    def test_report_config_shows_overrides(self, tmp_path, capsys):
        out = tmp_path / "D"
        args = ["strategy", "--config", "bpt10_wishart", "--steps", "50", "--format", "csv,json", "--out", str(out)]
        assert cli_main(args) == 0
        capsys.readouterr()
        assert len((out / "strategy.csv").read_text().splitlines()) == 1 + 51
        config = json.loads((out / "strategy_report.json").read_text())["config"]
        assert config["numerics"]["n_steps"] == 50
        assert config["output"] == {"formats": ["csv", "json"]}

    def test_report_file_does_not_depend_on_the_out_directory(self, tmp_path, capsys):
        # the report file leaves out output.directory; the stdout record keeps it
        reports = []
        for name in ("figA", "figB"):
            out = tmp_path / name
            args = ["strategy", "--config", "bpt10_wishart", "--steps", "20", "--format", "csv,json", "--out", str(out)]
            assert cli_main(args) == 0
            assert json.loads(capsys.readouterr().out)["config"]["output"]["directory"] == str(out)
            reports.append((out / "strategy_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["output"] == {"formats": ["csv", "json"]}

    def test_malformed_section_keeps_override_unapplied(self, tmp_path, capsys):
        raw = vector_config(tmp_path)
        raw["output"] = []
        cfg = tmp_path / "probe.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli_main(["strategy", "--config", str(cfg), "--out", str(tmp_path / "D")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["problems"] == ["'output' must be a mapping"]
        assert not (tmp_path / "D").exists()

    @given(leaf=st.sampled_from(PRESET_LEAVES), value=st.sampled_from(EDGE_VALUES))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_any_edge_value_in_a_preset_leaf_is_one_record(self, leaf, value):
        name, path = leaf
        raw = copy.deepcopy(PROBE_CONFIGS[name])
        kind, node = raw["kind"], raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
        code, out, err, runtime = cli_probe(raw, kind)
        assert code in (0, 1, 2, 3)
        strict_json(out)
        assert (err, runtime) == ("", [])


def test_reproduce_figures_reports_show_overrides(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--out", str(tmp_path), "--steps", "20"])
    capsys.readouterr()
    for name in script.PRESETS:
        (report,) = (tmp_path / name).glob("*_report.json")
        config = json.loads(report.read_text())["config"]
        assert config["numerics"]["n_steps"] == 20
        assert config["output"] == {"formats": ["csv", "svg", "json"]}
