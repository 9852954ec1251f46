"""Config loading, experiment pipelines, CSV contracts, CLI exit codes."""

import contextlib
import copy
import dataclasses
import importlib.util
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_merton.cli import _SUBCOMMAND_KINDS
from volterra_merton.cli import main as cli_main
from volterra_merton.experiments import (
    THREADS_ENV,
    ConfigError,
    available_presets,
    config_from_dict,
    load_config,
    read_config,
    run,
    sweep,
)
from volterra_merton.merton import strategy_general, strategy_wishart, value_general
from volterra_merton.riccati import (
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_general,
    wishart_rhs,
)
from volterra_merton.simulate import mc_utility, simulate_bundle

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
    sweep pool on one thread.

    Returns the exit code, stdout, stderr and the messages of the RuntimeWarnings raised.
    """
    command = next(command for command, kinds in _SUBCOMMAND_KINDS.items() if kind in kinds)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {THREADS_ENV: "1"}):
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
PRESET_LEAVES = [
    (name, path) for name in available_presets() for path in leaf_paths(read_config(name)) if path[0] != "output"
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
        assert m.gamma == 0.2
        assert m.kernel[0].alpha == 0.99

    def test_defaults_filled(self):
        raw = {k: v for k, v in BASE_VECTOR.items() if k not in ("numerics",)}
        config = config_from_dict(json.loads(json.dumps(raw)))
        assert config.n_steps == 1000
        assert config.sim.seed == 42
        assert config.sim.psd_floor == 0.0
        assert config.sim.variance_floor == 0.0

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

    def test_all_violations_reported_at_once(self, tmp_path):
        raw = vector_config(tmp_path)
        raw["model"]["gamma"] = 1.5
        raw["model"]["theta"] = [-1.0]
        raw["x0"] = -2.0
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert len(err.value.problems) >= 3

    def test_unknown_kind(self, tmp_path):
        raw = vector_config(tmp_path, kind="frobnicate")
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict(raw)

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ConfigError, match="available"):
            load_config("no_such_preset")

    def test_readme_numeric_lines_load(self, tmp_path):
        # YAML reads 1.0e8 (no signed exponent) as a string; float fields still take it
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        raw = vector_config(tmp_path)
        for section in ("numerics", "simulation"):
            (line,) = [ln for ln in lines if ln.startswith(section + ":")]
            raw.update(yaml.safe_load(line))
        assert isinstance(raw["numerics"]["blowup_threshold"], str)
        config = config_from_dict(raw)
        assert config.blowup_threshold == 1.0e8
        assert (config.horizon, config.n_steps, config.sim.n_paths) == (1.0, 1000, 10000)

    @pytest.mark.parametrize("section, key, text, value", [
        ("simulation", "psd_floor", "1e-8", 1e-8),
        ("numerics", "blowup_threshold", "1e12", 1e12),
        ("numerics", "horizon", "'2.5'", 2.5),
        ("simulation", "seed", "'7'", 7),
    ])
    def test_numeric_text_is_read_by_field_type(self, tmp_path, section, key, text, value):
        raw = vector_config(tmp_path)
        raw.setdefault(section, {})[key] = "PROBE"
        config = config_from_dict(yaml.safe_load(yaml.safe_dump(raw).replace("PROBE", text)))
        got = {"psd_floor": config.sim.psd_floor, "blowup_threshold": config.blowup_threshold,
               "horizon": config.horizon, "seed": config.sim.seed}[key]
        assert got == value and type(got) is type(value)


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
        report = run(config, name="solve")
        header = (tmp_path / "solve.csv").read_text().splitlines()[0]
        assert header == "t,psi_11,psi_12,psi_21,psi_22"
        assert np.isfinite(report.metrics["riccati_residual"])

    def test_solve_kind_vector_single_asset_header(self, tmp_path):
        # a 1-asset vector solve is not a 1x1 matrix solve
        config = config_from_dict(vector_config(tmp_path, kind="solve"))
        run(config, name="solve")
        header = (tmp_path / "solve.csv").read_text().splitlines()[0]
        assert header == "t,psi_1"

    @pytest.mark.parametrize(
        "overrides, svg",
        [
            ({}, "strategy.svg"),
            ({"kind": "sweep-gamma", "sweep": {"gamma": [0.3, 0.5]}}, "sweep-gamma_gamma_0_3.svg"),
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

    def test_byte_identical_reruns(self, tmp_path):
        raw = vector_config(tmp_path, kind="mc-check")
        raw["numerics"] = {"horizon": 0.25, "n_steps": 60}
        raw["simulation"] = {"n_paths": 500, "seed": 7, "antithetic": True}
        raw["output"]["formats"] = ["csv", "json"]
        # both runs write into one directory: the JSON report lists absolute output paths
        snapshots = []
        for _ in range(2):
            run(config_from_dict(raw))
            snapshots.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
        assert sorted(snapshots[0]) == ["mc-check.csv", "mc-check_report.json"]
        assert snapshots[0] == snapshots[1]

    def test_blowup_raises_for_strategy(self, tmp_path):
        from volterra_merton.riccati import RiccatiBlowUpError

        raw = vector_config(tmp_path)
        raw["model"].update(theta=[3.0], nu=[2.0], drift=[[0.0]], rho=[0.0], gamma=0.9)
        raw["numerics"] = {"horizon": 1.0, "n_steps": 300}
        with pytest.raises(RiccatiBlowUpError):
            run(config_from_dict(raw))


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
        assert (tmp_path / "regime-study_combined.csv").read_text() == csv_text(header, rows)

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


class TestSweeps:
    def test_alpha_sweep_combined_csv(self, tmp_path):
        config = load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=200)
        report = sweep(config)
        combined = tmp_path / "sweep-alpha_combined.csv"
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
                (tmp_path / f"sweep-alpha_alpha_{alpha}.csv").read_text().splitlines()[1:],
                delimiter=",",
            )
            hedge = data[:, 3]
            slope = np.diff(hedge)
            curvature[alpha] = float(np.abs(np.diff(slope)).sum())
        assert curvature["0_55"] > curvature["0_75"] > curvature["0_95"]

    def test_horizon_regime_study(self, tmp_path):
        config = load_config("bpt10_horizon_study").replaced(out_dir=tmp_path, n_steps=150)
        report = sweep(config)
        combined = tmp_path / "regime-study_combined.csv"
        assert combined.exists()
        values = {line.split(",")[1] for line in combined.read_text().splitlines()[1:]}
        assert values == {"0.5", "1", "2"}

    def test_volofvol_scaling_is_linear(self, tmp_path):
        config = load_config("bpt10_volofvol_study").replaced(out_dir=tmp_path, n_steps=120)
        sweep(config)
        lo = np.loadtxt((tmp_path / "volofvol-study_volofvol_scale_0_5.csv").read_text().splitlines()[1:], delimiter=",")
        hi = np.loadtxt((tmp_path / "volofvol-study_volofvol_scale_2_0.csv").read_text().splitlines()[1:], delimiter=",")
        # hedging demand scales linearly in Q up to the Riccati feedback,
        # which is weak at these parameters: ratio close to 4; the terminal
        # node is excluded (hedging there is exactly zero)
        ratio = hi[:-1, 3] / lo[:-1, 3]
        assert np.all(ratio > 2.0) and np.all(ratio < 8.0)

    def test_correlation_study_runs_all_regimes(self, tmp_path):
        config = load_config("bpt10_correlation_study").replaced(out_dir=tmp_path, n_steps=100)
        report = sweep(config)
        for regime in ("positive", "zero", "negative"):
            assert (tmp_path / f"correlation-study_correlation_{regime}.csv").exists()

    def test_empty_sweep_list_is_config_error(self, tmp_path):
        raw = vector_config(tmp_path, kind="sweep-alpha")
        raw["sweep"] = {"alpha": []}
        with pytest.raises(ConfigError, match="nonempty"):
            config_from_dict(raw)

    def test_two_swept_parameters_rejected(self, tmp_path):
        raw = vector_config(tmp_path, kind="sweep-alpha")
        raw["sweep"] = {"alpha": [0.6, 0.7], "gamma": [0.2]}
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(raw)

    def test_wrong_axis_for_kind(self, tmp_path):
        raw = vector_config(tmp_path, kind="sweep-gamma")
        raw["sweep"] = {"alpha": [0.6, 0.7]}
        with pytest.raises(ConfigError, match="sweeps"):
            config_from_dict(raw)

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOLTERRA_MERTON_THREADS", "1")
        config = load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=60)
        report = sweep(config)
        assert len([p for p in report.outputs if p.endswith(".csv")]) == 4

    def test_concurrent_sweep_deterministic(self, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("VOLTERRA_MERTON_THREADS", threads)
            out = tmp_path / f"t{threads}"
            sweep(load_config("bpt10_alpha_sweep").replaced(out_dir=out, n_steps=60))
            outs.append((out / "sweep-alpha_combined.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_combined_csv_ordered_by_sweep_value(self, tmp_path):
        config = load_config("bpt10_alpha_sweep").replaced(out_dir=tmp_path, n_steps=50)
        config = config.replaced(sweep_values=(0.95, 0.55, 0.75))  # unsorted input
        sweep(config)
        lines = (tmp_path / "sweep-alpha_combined.csv").read_text().splitlines()[1:]
        seen = []
        for line in lines:
            v = line.split(",")[1]
            if not seen or seen[-1] != v:
                seen.append(v)
        assert [float(v) for v in seen] == [0.55, 0.75, 0.95]

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
            ("degenerate_pair_2d", "v0", [0.04, 1e300], ["certainty_equivalent", "value"]),
            ("rough_heston_1d", "rate", 1e9, ["analytic", "mc_mean", "mc_stderr", "z_score"]),
        ],
        ids=["noise-from-q", "rho-norm", "value", "wealth-and-stderr"],
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
        ],
    )
    def test_bad_field_is_one_config_record(self, tmp_path, capsys, command, field, text, needle):
        kind = {"sweep": f"sweep-{field[1]}", "mc-check": "mc-check"}.get(command, "strategy")
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

    def test_report_config_shows_overrides(self, tmp_path, capsys):
        out = tmp_path / "D"
        args = ["strategy", "--config", "bpt10_wishart", "--steps", "50", "--format", "csv,json", "--out", str(out)]
        assert cli_main(args) == 0
        capsys.readouterr()
        assert len((out / "strategy.csv").read_text().splitlines()) == 1 + 51
        config = json.loads((out / "strategy_report.json").read_text())["config"]
        assert config["numerics"]["n_steps"] == 50
        assert config["output"]["formats"] == ["csv", "json"]
        assert config["output"]["directory"] == str(out)

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
        raw = small_preset(name)
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
        assert config["output"] == {"directory": str(tmp_path / name), "formats": ["csv", "svg", "json"]}
