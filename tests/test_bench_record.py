"""scripts/bench_record.py folds paired run records into one summary."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_runs(checkout: Path, workload: str, commit: str, walls: dict[int, float]) -> None:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for seed, wall in walls.items():
        out = checkout / ".perfbench_out" / f"{workload}-s{seed}"
        out.mkdir(parents=True)
        values = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics}
        values["wall_s"]["value"] = wall
        record = {"workload": workload, "seed": seed, "git_commit": commit, "metrics": values}
        (out / "record-trace0.json").write_text(json.dumps(record))


def test_medians_quartiles_and_pairs(bench_record, tmp_path):
    write_runs(tmp_path / "parent", "fine_grid", "aaa", {1: 2.0, 2: 3.0, 3: 2.5, 4: 2.2, 5: 2.8})
    write_runs(tmp_path / "change", "fine_grid", "bbb", {1: 1.9, 2: 2.0, 3: 2.6, 4: 2.0, 6: 1.0})
    write_runs(tmp_path / "parent", "presets", "aaa", {1: 1.0})  # no change run: left out
    target = tmp_path / "BENCH.json"
    bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(target)])
    result = json.loads(target.read_text())["workloads"]
    assert list(result) == ["fine_grid"]
    parent, change = result["fine_grid"]["parent"], result["fine_grid"]["change"]
    assert (parent["commit"], parent["seeds"], change["seeds"]) == ("aaa", [1, 2, 3, 4, 5], [1, 2, 3, 4, 6])
    wall = parent["metrics"]["wall_s"]
    assert wall["values"] == [2.0, 3.0, 2.5, 2.2, 2.8] and wall["unit"] == "s"
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((2.2, 2.5, 2.8))
    assert wall["iqr"] == pytest.approx(0.6)
    # seeds 1-4 ran on both sides; the change is faster on 1, 2 and 4, and ties on pass_ratio count for neither
    assert result["fine_grid"]["paired"]["wall_s"] == {"pairs": 4, "change_better": 3}
    assert result["fine_grid"]["paired"]["pass_ratio"] == {"pairs": 4, "change_better": 0}
