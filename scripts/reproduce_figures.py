#!/usr/bin/env python3
"""Run the bundled experiment presets and collect hedging-demand figures.

Writes CSV and SVG outputs for the smooth-kernel recovery check, the
roughness sweep, the horizon regime study, the correlation study, and the
vol-of-vol study into --out (default ./out), one subdirectory per preset.
"""

import argparse
from pathlib import Path

from volterra_merton.experiments import config_from_dict, read_config, run, with_overrides

PRESETS = [
    "bpt10_wishart",
    "bl13_recovery",
    "bpt10_alpha_sweep",
    "bpt10_horizon_study",
    "bpt10_correlation_study",
    "bpt10_volofvol_study",
]


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
