#!/usr/bin/env python3
"""Fold the paired perfbench runs of a parent and a change checkout into one BENCH file.

Each checkout holds the untraced run records that ``perfbench/run.py --trace 0``
leaves in ``.perfbench_out/<workload>-s<seed>/record-trace0.json``; run one
seed per pair on both sides.  For every workload and side the output names the
commit and the seeds, and gives each end-to-end metric of ``BENCHMARK.json``
with its unit, its value per seed, median and quartiles.  For every workload
and metric it also counts the seeds run on both sides and those on which the
change reads better, ties counting for neither side.

    python3 scripts/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_10.json
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the ordered values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def records(checkout: Path) -> dict[str, list[dict]]:
    """The untraced run records of a checkout by workload, in seed order."""
    found: dict[str, list[dict]] = {}
    for path in sorted((checkout / ".perfbench_out").glob("*-s*/record-trace0.json")):
        record = json.loads(path.read_text())
        found.setdefault(record["workload"], []).append(record)
    for runs in found.values():
        runs.sort(key=lambda record: record["seed"])
    return found


def side(runs: list[dict], metrics: list[dict]) -> dict:
    """Commit, seeds and per-metric summary of one workload's runs on one side."""
    commits = sorted({str(record["git_commit"]) for record in runs})
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = [record["metrics"][name]["value"] for record in runs]
        q1, median, q3 = quartiles(values)
        summary[name] = {
            "unit": metric["unit"],
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
        }
    return {"commit": commits[0] if len(commits) == 1 else commits, "seeds": [r["seed"] for r in runs], "metrics": summary}


def paired(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per metric: the seeds run on both sides, and on how many of them the change reads better."""
    by_seed = {record["seed"]: record for record in parent}
    pairs = [(by_seed[record["seed"]], record) for record in change if record["seed"] in by_seed]
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        gaps = [sign * (b["metrics"][name]["value"] - c["metrics"][name]["value"]) for b, c in pairs]
        out[name] = {"pairs": len(gaps), "change_better": sum(gap > 0 for gap in gaps)}
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit, with its .perfbench_out")
    parser.add_argument("change", type=Path, help="checkout of the change, with its .perfbench_out")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = records(args.parent), records(args.change)
    workloads = {}
    for workload in sorted(set(parent) & set(change)):
        workloads[workload] = {
            "parent": side(parent[workload], metrics),
            "change": side(change[workload], metrics),
            "paired": paired(parent[workload], change[workload], metrics),
        }
    args.out.write_text(json.dumps({"workloads": workloads}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {', '.join(workloads) or 'no workload run on both sides'}")


if __name__ == "__main__":
    main()
