"""Command-line experiment runner.

Subcommands mirror the experiment kinds; the configuration file (or bundled
preset name) supplies the model and numerics, and command-line flags override
selected fields.  Exit codes: 0 success, 1 configuration error, a bad
command line included (or any other failure, reported as kind
``internal``), 2 Riccati blow-up before the horizon or a non-finite Riccati
step, 3 Monte Carlo divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    SWEEP_KINDS,
    ConfigError,
    available_presets,
    config_from_dict,
    read_config,
    run,
    with_overrides,
)
from .riccati import RiccatiBlowUpError
from .simulate import SimulationError

_SUBCOMMAND_KINDS = {
    "solve": ("solve",),
    "strategy": ("strategy", "bl13-recovery"),
    "value": ("value",),
    "mc-check": ("mc-check",),
    "sweep": SWEEP_KINDS,
}


class _ArgumentParser(argparse.ArgumentParser):
    """A bad command line is a configuration error, not usage text and exit 2.

    Subcommand parsers are made with the same class, so theirs is too;
    ``--help`` still prints and exits 0.
    """

    def error(self, message: str):
        raise ConfigError([f"{self.prog}: {message}"])


def _parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="volterra-merton",
        description="Optimal investment in multivariate Volterra volatility models",
        epilog=f"bundled presets: {', '.join(available_presets())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KINDS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="config file path or preset name")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="simulation seed override")
        p.add_argument("--steps", type=int, default=None, help="time steps override")
        p.add_argument(
            "--format",
            default=None,
            help="comma-separated output formats from csv,svg,json",
        )
    return parser


def _error_record(code: int, kind: str, message: str, **extra) -> str:
    record = {"error": {"code": code, "kind": kind, "message": message, **extra}}
    return json.dumps(record, sort_keys=True)


def _config(args):
    formats = None if args.format is None else [f.strip() for f in args.format.split(",") if f.strip()]
    raw = with_overrides(read_config(args.config), {
        "output.directory": args.out,
        "simulation.seed": args.seed,
        "numerics.n_steps": args.steps,
        "output.formats": formats,
    })
    config = config_from_dict(raw)
    allowed = _SUBCOMMAND_KINDS[args.command]
    if config.kind not in allowed:
        raise ConfigError(
            [f"config kind {config.kind!r} cannot run under '{args.command}' "
             f"(allowed: {', '.join(allowed)})"]
        )
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        report = run(_config(_parser().parse_args(argv)))
    except ConfigError as exc:
        print(_error_record(1, "config", str(exc), problems=exc.problems))
        return 1
    except RiccatiBlowUpError as exc:
        print(_error_record(2, "riccati-blowup", str(exc), t_max_estimate=exc.blowup.detected_at))
        return 2
    except FloatingPointError as exc:
        print(_error_record(2, "riccati-nonfinite", str(exc)))
        return 2
    except SimulationError as exc:
        print(_error_record(3, "mc-divergence", str(exc), path_index=exc.path_index))
        return 3
    except Exception as exc:  # anything else still ends in one record, not a traceback
        print(_error_record(1, "internal", f"{type(exc).__name__}: {exc}"))
        return 1
    record = json.loads(report.to_json())
    record["runtime_seconds"] = report.runtime_seconds
    print(json.dumps(record, sort_keys=True, indent=2, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
