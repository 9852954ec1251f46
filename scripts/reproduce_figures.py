#!/usr/bin/env python3
"""Run the bundled experiment presets and collect hedging-demand figures.

Writes CSV, SVG and JSON outputs of every bundled preset whose kind draws a
hedging-demand figure (strategy, bl13-recovery and sweep: the BPT10 strategy,
the smooth-kernel recovery check and the roughness, horizon, correlation and
vol-of-vol sweeps) into --out (default ./out), one subdirectory per preset.
"""

import argparse
from pathlib import Path

from volterra_merton.experiments import available_presets, config_from_dict, read_config, run, with_overrides

PRESETS = [name for name in available_presets() if read_config(name)["kind"] in ("strategy", "bl13-recovery", "sweep")]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--steps", type=int, default=None, help="override time steps")
    args = parser.parse_args(argv)
    root = Path(args.out)
    for name in PRESETS:
        config = config_from_dict(with_overrides(read_config(name), {
            "output.directory": str(root / name),
            "output.formats": ["csv", "svg", "json"],
            "numerics.n_steps": args.steps,
        }))
        report = run(config)
        print(f"{name}: {len(report.outputs)} files in {root / name} "
              f"({report.runtime_seconds:.1f}s)")
        for key, value in sorted(report.metrics.items()):
            print(f"    {key} = {value}")


if __name__ == "__main__":
    main()
