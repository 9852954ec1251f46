"""One benchmark process: import the package, build a workload's inputs, run passes.

run.py starts this script as a fresh interpreter, the way a CLI call starts,
from the root of a checkout.  With ``--setup-only`` it stops once the inputs
are ready, times the calibration load (calibrate.py) for a moment, and prints
the ready moment on the monotonic clock and the load's times, which run.py
turns into a set-up time in reference seconds.  Otherwise it runs passes of
the workload's jobs back to back for about ``--seconds`` seconds, with the
calibration load between jobs, and writes everything it measured to
``<out>/worker.json``.  With ``--trace 1`` passes alternate untraced and
traced, and the spans go to ``<out>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# A run must end within 180 s; stop starting passes well before that.
HARD_STOP_S = 120.0
# Time spent on the calibration load, as a share of the jobs' time.
CALIBRATION_SHARE = 0.1
# Time a set-up-only process spends on the calibration load once it is ready.
SETUP_CALIBRATION_S = 0.4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _environment(package_file: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "VOLTERRA_MERTON_THREADS": os.environ.get("VOLTERRA_MERTON_THREADS"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package": package_file,
    }


def run_pass(workload, calibration: list[float] | None, last: dict[str, float]) -> dict:
    """Run every job once; wall_s and cpu_s cover the jobs and nothing else.

    With a ``calibration`` list, the calibration load is timed before each
    job, outside the jobs' timed regions, for CALIBRATION_SHARE of the time
    the job took last (``last``, by job name, which this updates), and its
    times are appended to the list.  Traced passes take none, so that their
    spans cover the whole pass.
    """
    import calibrate  # here, so that numpy's import stays in package.import_s

    outcomes = []
    wall = cpu = 0.0
    start = time.perf_counter()
    for job in workload.jobs:
        if calibration is not None:
            calibration += calibrate.slices(CALIBRATION_SHARE * last.get(job.name, 0.0))
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            value, error = job.run(), None
        except Exception:  # a failing job is a failed operation, not a crash
            value, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        cpu += _cpu_seconds() - cpu0
        wall += seconds
        outcomes.append((job, value, error, seconds))
        last[job.name] = seconds
    return {"start": start, "end": time.perf_counter(), "wall_s": wall, "cpu_s": cpu, "outcomes": outcomes}


def check_pass(result: dict) -> dict:
    """Output checks, artifact counts and per-job times of one pass."""
    jobs = {}
    attempted = failed = formats_missing = files = nbytes = 0
    tol_used = 0.0
    for job, value, error, seconds in result.pop("outcomes"):
        checks = []
        if error is None:
            try:
                checks = job.check(value)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        ok = error is None and all(c.ok for c in checks)
        attempted += 1
        failed += not ok
        for c in checks:
            if c.stable and c.ratio is not None:
                tol_used = max(tol_used, c.ratio)
        outputs = getattr(value, "outputs", None)
        if outputs is not None:
            files += len(outputs)
            nbytes += sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
            formats_missing += sum(not any(p.endswith("." + f) for p in outputs) for f in job.formats)
        jobs[job.name] = {
            "seconds": seconds,
            "ok": ok,
            "error": error,
            "checks": [{"name": c.name, "ok": c.ok, "ratio": c.ratio, "detail": c.detail} for c in checks],
        }
    result.update(
        attempted=attempted,
        failed=failed,
        tol_used=tol_used,
        files_written=files,
        bytes_written=nbytes,
        formats_missing=formats_missing,
        jobs=jobs,
    )
    return result


def _keep_passing(passes: list[dict], elapsed: float, seconds: float) -> bool:
    # At least two passes, so that no median rests on one sample and a traced
    # run has an untraced and a traced pass.
    if len(passes) < 2:
        return elapsed < HARD_STOP_S
    typical = statistics.median(p["wall_s"] for p in passes)
    return elapsed + typical <= min(seconds, HARD_STOP_S)


def _repeat_counts(path: Path, counts: list[dict]) -> list[str]:
    """Names of repeating counts that differ across passes or from an earlier run."""
    import spans

    counts = [{k: c[k] for k in spans.REPEATING} for c in counts]
    if path.exists():
        counts.insert(0, json.loads(path.read_text()))
    else:
        path.write_text(json.dumps(counts[0], sort_keys=True))
    return [k for k in spans.REPEATING if len({c[k] for c in counts}) > 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import volterra_merton

    import_s = time.perf_counter() - t0
    if Path(volterra_merton.__file__).resolve().parent != (src / "volterra_merton").resolve():
        print(f"volterra_merton imported from {volterra_merton.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(volterra_merton)
        tracer.install()
    artifacts = args.out / "artifacts"
    workload = workloads.WORKLOADS[args.workload](args.seed, artifacts)
    ready = time.monotonic()
    if args.setup_only:
        import calibrate

        loads = calibrate.slices(SETUP_CALIBRATION_S)
        print(json.dumps({"ready": ready, "calibration_s": loads}))
        return 0
    if tracer is not None:
        tracer.uninstall()

    digest_file = args.out / "digests.json"
    passes: list[dict] = []
    calibration: list[float] = []
    last_seconds: dict[str, float] = {}
    started = time.perf_counter()
    while _keep_passing(passes, time.perf_counter() - started, args.seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        shutil.rmtree(artifacts, ignore_errors=True)
        if traced:
            tracer.run_id = f"pass{len(passes)}"
            tracer.install()
        try:
            result = run_pass(workload, None if traced else calibration, last_seconds)
        finally:
            if traced:
                tracer.uninstall()
        result = check_pass(result)
        workload.state.clear()
        result["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["traced"] = traced
        digests = _digests(artifacts)
        if not digest_file.exists():
            digest_file.write_text(json.dumps(digests, sort_keys=True, indent=1))
        first = json.loads(digest_file.read_text())
        result["rerun_diff_files"] = sum(first.get(k) != digests.get(k) for k in first.keys() | digests.keys())
        if traced:
            mine = [s for s in tracer.spans if s.run_id == tracer.run_id]
            result["layers"] = spans.layer_metrics(mine, result["start"], result["end"])
        passes.append(result)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "ready": ready,
        "calibration_s": calibration,
        # through the first pass, so that the number of passes does not move it
        "peak_rss_mb": passes[0]["max_rss_mb"],
        "environment": _environment(volterra_merton.__file__),
        "passes": passes,
    }
    if tracer is not None:
        setup = [s for s in tracer.spans if s.run_id == "setup"]
        record["load_config_s"] = sum(s.duration for s in setup if s.name == "experiments.load_config")
        record["counts_differ"] = _repeat_counts(
            args.out / "counts.json", [p["layers"] for p in passes if p["traced"]]
        )
        with open(args.out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    (args.out / "worker.json").write_text(json.dumps(record, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
