#!/usr/bin/env python3
"""Benchmark of volterra-merton: run one workload at one seed and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the benchmark could
not run at all (no package source under ./src, or a worker that crashed or
overran), in which case no result line is printed.

This process only orchestrates: the package is imported by fresh worker
processes (worker.py), one per set-up sample and one that runs the passes.
The end-to-end times are in reference seconds, which take the host's speed
drift out (calibrate.py); the measured seconds are printed beside them and
kept in the run record.  See README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("presets", "fine_grid", "mc_oracle")
# Fresh processes that only set up, run before and after the measuring worker
# (which adds one more sample).  The host's speed drifts over seconds, so the
# samples are spread over the run rather than taken in one burst.
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "tol_used": "ratio",
}
PER_LAYER_UNITS = {
    "package.import_s": "s",
    "experiments.load_config_s": "s",
    "kernels.weights_s": "s",
    "kernels.weights_calls": "count",
    "kernels.resolvent_s": "s",
    "kernels.resolvent_nodes": "count",
    "kernels.mittag_leffler_s": "s",
    "kernels.identity_s": "s",
    "riccati.solve_s": "s",
    "riccati.residual_s": "s",
    "riccati.steps": "count",
    "riccati.solves": "count",
    "models.expected_variance_s": "s",
    "merton.strategy_s": "s",
    "merton.value_s": "s",
    "simulate.vector_s": "s",
    "simulate.wishart_s": "s",
    "simulate.wealth_s": "s",
    "simulate.diagnostic_s": "s",
    "simulate.path_steps": "count",
    "simulate.draws": "count",
    "simulate.bytes_computed": "bytes",
    "simulate.clips": "count",
    "experiments.run_self_s": "s",
    "experiments.sweep_busy_ratio": "ratio",
    "svgplot.render_s": "s",
    "experiments.files_written": "count",
    "experiments.bytes_written": "bytes",
    "experiments.rerun_diff_files": "count",
    "experiments.formats_missing": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "host.calibration_s": "s",
}


def timing(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n > 10:
        k = n - 10  # the k-th smallest sample has n - k = 10 samples beyond it
        tail = {"percentile": 100.0 * k / n, "value": ordered[k - 1]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


def git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def start_worker(args, out: Path, *extra: str) -> subprocess.Popen:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out), *extra]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker overran its {timeout:.0f} s budget") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return stdout


def probe_setup(args, out: Path) -> list[tuple[float, float]]:
    """Set-up times of fresh processes that stop once the inputs are ready, each with its speed factor."""
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        reply = json.loads(finish(start_worker(args, out, "--setup-only"), 60.0).strip().splitlines()[-1])
        samples.append((reply["ready"] - launched, speed_factor(reply["calibration_s"])))
    return samples


def measure(args, out: Path) -> tuple[list[tuple[float, float]], dict]:
    """Set-up samples around the measuring worker, and the worker's record."""
    began = time.monotonic()
    setup = [] if args.trace else probe_setup(args, out)
    launched = time.monotonic()
    finish(start_worker(args, out), RUN_LIMIT_S - (launched - began))
    record = json.loads((out / "worker.json").read_text())
    setup.append((record["ready"] - launched, speed_factor(record["calibration_s"])))
    if not args.trace:
        setup += probe_setup(args, out)
    return setup, record


def speed_factor(calibration: list[float]) -> float:
    """Reference seconds per measured second (see calibrate.py)."""
    return calibrate.REFERENCE_S / statistics.fmean(calibration)


def end_to_end(setup: list[tuple[float, float]], record: dict) -> tuple[dict, dict, dict]:
    """Metrics in reference seconds, their timings, and the timings in measured seconds."""
    passes = [p for p in record["passes"] if not p["traced"]]
    factor = speed_factor(record["calibration_s"])
    raw = {
        "wall_s": timing([p["wall_s"] for p in passes]),
        "cpu_s": timing([p["cpu_s"] for p in passes]),
        "setup_s": timing([seconds for seconds, _ in setup]),
    }
    timings = {
        "wall_s": timing([p["wall_s"] * factor for p in passes]),
        "cpu_s": timing([p["cpu_s"] * factor for p in passes]),
        "setup_s": timing([seconds * f for seconds, f in setup]),
    }
    attempted = sum(p["attempted"] for p in record["passes"])
    failed = sum(p["failed"] for p in record["passes"])
    metrics = {name: t["median"] for name, t in timings.items()}
    metrics["peak_rss_mb"] = record["peak_rss_mb"]
    metrics["pass_ratio"] = 1.0 - failed / attempted
    metrics["tol_used"] = max(p["tol_used"] for p in record["passes"])
    return {k: metrics[k] for k in END_TO_END}, timings, raw


def median(name: str, values: list):
    """Median; counts take the lower middle value so they stay whole numbers."""
    if PER_LAYER_UNITS[name] in ("count", "bytes"):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer(record: dict) -> dict:
    passes = record["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {name: median(name, [p["layers"][name] for p in traced]) for name in traced[0]["layers"]}
    metrics["trace.coverage"] = min(p["layers"]["trace.coverage"] for p in traced)
    for name in ("files_written", "bytes_written", "formats_missing"):
        metrics[f"experiments.{name}"] = median(f"experiments.{name}", [p[name] for p in passes])
    metrics["experiments.rerun_diff_files"] = max(p["rerun_diff_files"] for p in passes)
    metrics["package.import_s"] = record["import_s"]
    metrics["experiments.load_config_s"] = record["load_config_s"]
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    wall_untraced = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.overhead"] = (wall_traced - wall_untraced) / wall_untraced
    metrics["host.calibration_s"] = statistics.fmean(record["calibration_s"])
    return {k: metrics[k] for k in PER_LAYER_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=int, default=35, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "volterra_merton" / "__init__.py").is_file():
        print(f"no package source at {root / 'src' / 'volterra_merton'}; run from a checkout root", file=sys.stderr)
        return 2
    out = root / ".perfbench_out" / f"{args.workload}-s{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        setup, record = measure(args, out)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    passes = record["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    counts_differ = record.get("counts_differ", [])
    correct = failed == 0 and not counts_differ
    if args.trace:
        metrics, timings, raw = per_layer(record), {}, {}
        units = PER_LAYER_UNITS
    else:
        metrics, timings, raw = end_to_end(setup, record)
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  trace {args.trace}")
    for name, value in metrics.items():
        extra = ""
        if name in timings:
            t = timings[name]
            tail = f"p{t['tail']['percentile']:.0f} {t['tail']['value']:.6g}" if t["tail"] else "no tail (n <= 10)"
            extra = f"   median of n={t['n']}, {tail}; {raw[name]['median']:.6g} measured s"
        print(f"{name:32s} {value!r:>24} {units[name]}{extra}")
    print(f"{'fail_ratio':32s} {failed / attempted!r:>24} ratio   {failed} of {attempted} operations failed")
    failures = {}  # passes at one seed repeat the same failures; print each once
    for p in passes:
        for job, info in p["jobs"].items():
            if not info["ok"]:
                bad = [f"{c['name']} ({c['detail']})" for c in info["checks"] if not c["ok"]]
                failures[job] = info["error"].strip().splitlines()[-1] if info["error"] else ", ".join(bad)
    for job, reason in failures.items():
        print(f"FAILED {job}: {reason}")
    if counts_differ:
        print(f"FAILED counts that must repeat at one seed differ: {', '.join(counts_differ)}")

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "environment": record["environment"],
        "setup_samples_s": [seconds for seconds, _ in setup],
        "setup_speed_factors": [f for _, f in setup],
        "timings": timings,
        "raw_timings": raw,
        "calibration_s": record["calibration_s"],
        "reference_s": calibrate.REFERENCE_S,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "fail_ratio": failed / attempted,
        "counts_differ": counts_differ,
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "cpu_s", "attempted", "failed", "tol_used", "jobs")} for p in passes
        ],
    }
    record_path = out / f"record-trace{args.trace}.json"
    record_path.write_text(json.dumps(run_record, indent=1))
    print(f"run record: {record_path.relative_to(root)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
