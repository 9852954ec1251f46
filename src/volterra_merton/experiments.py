"""Configuration-driven experiment runner.

Experiments are described by a YAML key tree with sections mirroring the
model / numerics / simulation / output records.  ``run`` executes single
experiments (solve, strategy, value, mc-check, bl13-recovery); ``sweep``
executes the list-valued kinds, one pipeline per sweep point, and writes a
combined long-format CSV.  All CSV floats carry 17 significant digits and
files are written atomically, so identical configs reproduce byte-identical
outputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .kernels import Kernel, TimeGrid
from .merton import (
    StrategyPath,
    strategy_general,
    strategy_wishart,
    value_general,
    value_wishart,
)
from .models import VectorModel, WishartModel, validate
from .riccati import (
    DEFAULT_BLOWUP_THRESHOLD,
    MatrixRiccatiRHS,
    RiccatiBlowUpError,
    solve_riccati_batch,
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_general,
    wishart_rhs,
)
from .simulate import SimConfig, mc_utility, simulate_bundle
from .svgplot import render_line_plot

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "load_config",
    "read_config",
    "run",
    "sweep",
    "preset_path",
    "available_presets",
]

SINGLE_KINDS = ("solve", "strategy", "value", "mc-check", "bl13-recovery")
SWEEP_KINDS = (
    "sweep-alpha",
    "sweep-horizon",
    "sweep-gamma",
    "regime-study",
    "correlation-study",
    "volofvol-study",
)
_SWEEP_AXES = {
    "sweep-alpha": "alpha",
    "sweep-horizon": "horizon",
    "sweep-gamma": "gamma",
    "regime-study": "horizon",
    "correlation-study": "correlation",
    "volofvol-study": "volofvol_scale",
}
# correlation-study regimes: factor on the off-diagonal entries of M and Q
_REGIMES = {"positive": 1.0, "zero": 0.0, "negative": -1.0}
THREADS_ENV = "VOLTERRA_MERTON_THREADS"
# strategy CSV series after t, one column per asset each
_STRATEGY_SERIES = ("pi", "hedge", "myopic")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: VectorModel | WishartModel
    horizon: float
    n_steps: int
    blowup_threshold: float
    sim: SimConfig
    out_dir: Path
    formats: tuple[str, ...]
    x0: float
    sweep_axis: str | None
    sweep_values: tuple | None
    echo: str  # canonical resolved-config dump

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)

    def replaced(self, **model_and_numerics) -> "ExperimentConfig":
        """A copy with fields swapped; its ``echo`` is still the mapping it was parsed from."""
        return dataclasses.replace(self, **model_and_numerics)


@dataclass
class ExperimentReport:
    kind: str
    config_echo: str
    outputs: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def to_json(self) -> str:
        """The report file's content as strict JSON: a non-finite metric is null and named in
        ``nonfinite_metrics``; the wall-clock runtime is left out so reruns match."""
        nonfinite = sorted(k for k, v in self.metrics.items() if isinstance(v, float) and not math.isfinite(v))
        payload = {
            "kind": self.kind,
            "outputs": self.outputs,
            "metrics": {key: None if key in nonfinite else value for key, value in self.metrics.items()},
            "config": json.loads(self.config_echo),
        }
        if nonfinite:
            payload["nonfinite_metrics"] = nonfinite
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def available_presets() -> list[str]:
    pkg = resources.files("volterra_merton") / "presets"
    return sorted(p.name[: -len(".yaml")] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def preset_path(name: str) -> Path:
    candidate = resources.files("volterra_merton") / "presets" / f"{name}.yaml"
    with resources.as_file(candidate) as concrete:
        if not concrete.exists():
            raise ConfigError([f"unknown preset {name!r}; available: {', '.join(available_presets())}"])
        return Path(concrete)


def _parse_kernel(node, problems: list[str], d: int) -> list[Kernel]:
    def one(entry) -> Kernel | None:
        if not isinstance(entry, dict) or "family" not in entry:
            problems.append("kernel entries need at least a 'family' key")
            return None
        try:
            return Kernel(
                family=str(entry["family"]),
                c=float(entry.get("c", 1.0)),
                alpha=float(entry.get("alpha", 1.0)),
                lam=float(entry.get("lam", 0.0)),
            )
        except (ValueError, TypeError) as exc:
            problems.append(f"kernel: {exc}")
            return None

    if isinstance(node, dict):
        k = one(node)
        return [k] * d if k is not None else []
    if isinstance(node, list):
        kernels = [one(item) for item in node]
        if any(k is None for k in kernels):
            return []
        if len(kernels) != d:
            problems.append(f"kernel list has {len(kernels)} entries for {d} assets")
            return []
        return kernels  # type: ignore[return-value]
    problems.append("model.kernel must be a mapping or a list of mappings")
    return []


def _build_model(section, problems: list[str]):
    if not isinstance(section, dict):
        problems.append("missing or malformed 'model' section")
        return None
    mtype = section.get("type")
    if mtype not in ("vector", "wishart"):
        problems.append("model.type must be 'vector' or 'wishart'")
        return None
    gamma = section.get("gamma")
    rate = section.get("rate", 0.0)
    try:
        if mtype == "vector":
            theta = np.asarray(section["theta"], dtype=float)
            d = theta.shape[0]
            kernels = _parse_kernel(section.get("kernel"), problems, d)
            if not kernels:
                return None
            model = VectorModel(
                theta=theta,
                nu=np.asarray(section["nu"], dtype=float),
                drift=np.asarray(section["drift"], dtype=float),
                rho=np.asarray(section["rho"], dtype=float),
                v0=np.asarray(section["v0"], dtype=float),
                b0=np.asarray(section["b0"], dtype=float) if "b0" in section else None,
                gamma=float(gamma),
                kernel=kernels,
                rate=float(rate),
            )
        else:
            Q = np.asarray(section["vol_of_vol"], dtype=float)
            d = Q.shape[0]
            kernels = _parse_kernel(section.get("kernel"), problems, d)
            if not kernels:
                return None
            if "noise" in section:
                noise = np.asarray(section["noise"], dtype=float)
            elif "nnt_from_q" in section:
                # drift constant N N^T = factor * Q^T Q; N is its symmetric root
                factor = float(section["nnt_from_q"])
                with np.errstate(over="ignore", invalid="ignore"):  # validation reports a non-finite noise
                    vals, vecs = np.linalg.eigh(factor * (Q.T @ Q))
                noise = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
            else:
                problems.append("wishart model needs 'noise' or 'nnt_from_q'")
                return None
            model = WishartModel(
                mean_reversion=np.asarray(section["mean_reversion"], dtype=float),
                vol_of_vol=Q,
                noise=noise,
                rho=np.asarray(section["rho"], dtype=float),
                market_price=np.asarray(section["market_price"], dtype=float),
                sigma0=np.asarray(section["sigma0"], dtype=float),
                gamma=float(gamma),
                kernel=kernels,
                rate=float(rate),
            )
    except KeyError as exc:
        problems.append(f"model section missing field {exc.args[0]!r}")
        return None
    except (TypeError, ValueError) as exc:
        problems.append(f"model section: {exc}")
        return None
    problems.extend(validate(model))
    return model


def _canonical_echo(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True, default=str)


def load_config(path_or_preset: str | Path) -> ExperimentConfig:
    """Load and fully validate an experiment configuration.

    Accepts a filesystem path or the name of a bundled preset.  Every
    violation is collected and reported in a single ConfigError.
    """
    return config_from_dict(read_config(path_or_preset))


def read_config(path_or_preset: str | Path) -> dict:
    """The configuration mapping of a file or bundled preset, not yet validated."""
    path = Path(path_or_preset)
    if not path.exists() and not str(path_or_preset).endswith((".yaml", ".yml")):
        path = preset_path(str(path_or_preset))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config parse error: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping of sections"])
    return raw


def _section(raw: dict, name: str, problems: list[str]) -> dict:
    """A config section as a mapping; a missing or null one is an empty mapping."""
    node = raw.get(name)
    if node is None:
        return {}
    if not isinstance(node, dict):
        problems.append(f"'{name}' must be a mapping")
        return {}
    return node


def _number(section: dict, key: str, default, problems: list[str], prefix: str = "", integer: bool = False):
    """A finite number (an integral one if ``integer``) from a section, or None after a problem.

    Text is read with ``int`` or ``float`` by the field's type, because YAML loads
    ``1e-8`` and ``1.0e8`` as strings; ``int`` refuses ``1e9``.
    """
    value = section.get(key, default)
    label = prefix + key
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        problems.append(f"{label} must be a number (got {value!r})")
        return None
    try:
        parsed = (int(value) if integer else float(value)) if isinstance(value, str) else value
        number = float(parsed)
    except ValueError:
        problems.append(f"{label} must be {'an integer' if integer else 'a number'} (got {value!r})")
        return None
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        problems.append(f"{label} must be finite (got {value!r})")
        return None
    if integer:
        if not number.is_integer():
            problems.append(f"{label} must be an integer (got {value!r})")
            return None
        return int(parsed)
    return number


def with_overrides(raw: dict, overrides: dict) -> dict:
    """``raw`` with each ``"section.key": value`` of ``overrides`` written in; None values are skipped.

    Overrides go into the mapping before ``config_from_dict``, so they are validated like the
    file's own fields and show in the report's ``config``.  A missing section is created; a
    malformed one is left for validation to report.
    """
    for dotted, value in overrides.items():
        if value is None:
            continue
        section, key = dotted.split(".")
        if raw.get(section) is None:
            raw[section] = {}
        if isinstance(raw[section], dict):
            raw[section][key] = value
    return raw


def _check_sweep_values(axis: str, values: list, model, problems: list[str]) -> None:
    """Report every sweep value that no sweep point could be built from."""
    if axis == "correlation":
        problems.extend(
            f"sweep.correlation values must be positive|zero|negative (got {value!r})"
            for value in values
            if str(value) not in _REGIMES
        )
        return
    for value in values:
        number = _number({axis: value}, axis, None, problems, "sweep.")
        if number is None:
            continue
        if axis == "alpha" and model is not None:
            try:
                for k in model.kernel:
                    Kernel(k.family, k.c, alpha=number, lam=k.lam)
            except ValueError as exc:
                problems.append(f"sweep.alpha {value!r}: {exc}")
        elif axis == "horizon" and number <= 0:
            problems.append(f"sweep.horizon values must be positive (got {value!r})")
        elif axis == "gamma" and not 0.0 < number < 1.0:
            problems.append(f"sweep.gamma values must lie in (0, 1) (got {value!r})")


def config_from_dict(raw: dict) -> ExperimentConfig:
    problems: list[str] = []
    kind = raw.get("kind")
    if kind not in SINGLE_KINDS + SWEEP_KINDS:
        problems.append(
            f"kind must be one of {', '.join(SINGLE_KINDS + SWEEP_KINDS)} (got {kind!r})"
        )
    model = _build_model(raw.get("model"), problems)

    numerics = _section(raw, "numerics", problems)
    horizon = _number(numerics, "horizon", 1.0, problems, "numerics.")
    n_steps = _number(numerics, "n_steps", 1000, problems, "numerics.", integer=True)
    blowup = _number(numerics, "blowup_threshold", DEFAULT_BLOWUP_THRESHOLD, problems, "numerics.")
    if horizon is not None and horizon <= 0:
        problems.append("numerics.horizon must be positive")
    if n_steps is not None and n_steps < 1:
        problems.append("numerics.n_steps must be at least 1")
    if blowup is not None and blowup <= 0:
        problems.append("numerics.blowup_threshold must be positive")

    sim_section = _section(raw, "simulation", problems)
    n_paths = _number(sim_section, "n_paths", 10_000, problems, "simulation.", integer=True)
    seed = _number(sim_section, "seed", 42, problems, "simulation.", integer=True)
    psd_floor = _number(sim_section, "psd_floor", 0.0, problems, "simulation.")
    variance_floor = _number(sim_section, "variance_floor", 0.0, problems, "simulation.")
    sim = SimConfig(n_paths=1)
    if None not in (n_paths, seed, psd_floor, variance_floor):
        try:
            sim = SimConfig(
                n_paths=n_paths,
                seed=seed,
                psd_floor=psd_floor,
                variance_floor=variance_floor,
                antithetic=bool(sim_section.get("antithetic", False)),
            )
        except ValueError as exc:
            problems.append(f"simulation section: {exc}")

    output = _section(raw, "output", problems)
    directory = output.get("directory", "out")
    if not isinstance(directory, str):
        problems.append(f"output.directory must be a path (got {directory!r})")
    out_dir = Path(str(directory))
    formats = output.get("formats", ["csv"])
    if not isinstance(formats, (list, tuple)):
        problems.append(f"output.formats must be a list drawn from csv, svg, json (got {formats!r})")
        formats = ()
    formats = tuple(formats)
    bad = [f for f in formats if f not in ("csv", "svg", "json")]
    if bad:
        problems.append(f"unsupported output formats: {bad}")

    x0 = _number(raw, "x0", 1.0, problems)
    if x0 is not None and x0 <= 0:
        problems.append("x0 must be positive")

    sweep_axis = None
    sweep_values: tuple | None = None
    sweep_section = raw.get("sweep")
    if kind in SWEEP_KINDS:
        expected = _SWEEP_AXES[kind]
        if not isinstance(sweep_section, dict) or not sweep_section:
            problems.append(f"kind {kind} needs a sweep section {{{expected}: [...]}}")
        else:
            keys = sorted(sweep_section)
            if len(keys) != 1:
                problems.append(f"exactly one swept parameter allowed, got {keys}")
            else:
                sweep_axis = keys[0]
                if sweep_axis != expected:
                    problems.append(f"kind {kind} sweeps '{expected}', not '{sweep_axis}'")
                values = sweep_section[sweep_axis]
                if not isinstance(values, list) or not values:
                    problems.append("sweep values must be a nonempty list")
                else:
                    sweep_values = tuple(values)
                    _check_sweep_values(sweep_axis, values, model, problems)
    elif sweep_section:
        problems.append(f"kind {kind} does not take a sweep section")

    if problems or model is None:
        raise ConfigError(problems or ["invalid model"])
    return ExperimentConfig(
        kind=kind,
        model=model,
        horizon=horizon,
        n_steps=n_steps,
        blowup_threshold=blowup,
        sim=sim,
        out_dir=out_dir,
        formats=formats,
        x0=x0,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        echo=_canonical_echo(raw),
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """One cell of a value whose type varies: text as given, an integer in full, a float at 17 digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write a CSV given by columns: a float array at 17 significant digits, anything else as its strings."""
    cells = [list(map("{:.17g}".format, c.tolist())) if isinstance(c, np.ndarray) else c for c in columns]
    _write_atomic(path, "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


def _write_report(config: ExperimentConfig, report: ExperimentReport, stem: str) -> None:
    """Write ``<stem>_report.json`` when json output is requested."""
    if "json" in config.formats:
        target = config.out_dir / f"{stem}_report.json"
        _write_atomic(target, report.to_json() + "\n")
        report.outputs.append(str(target))


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _rhs(model):
    return wishart_rhs(model) if isinstance(model, WishartModel) else vector_rhs_general(model)


def _solve(config: ExperimentConfig):
    model = config.model
    rhs = _rhs(model)
    solve = solve_riccati_matrix if isinstance(model, WishartModel) else solve_riccati_vector
    return rhs, solve(model.kernel, rhs, config.grid, config.blowup_threshold)


def _strategy(config: ExperimentConfig, path) -> StrategyPath:
    if isinstance(config.model, WishartModel):
        return strategy_wishart(config.model, path)
    return strategy_general(config.model, path)


def _value(config: ExperimentConfig, path, rhs):
    if isinstance(config.model, WishartModel):
        return value_wishart(config.model, path, config.x0, rhs=rhs)
    return value_general(config.model, path, config.x0, rhs=rhs)


def _series_names(prefixes, d: int) -> list[str]:
    """Column names of per-asset series: ``<prefix>_1..<prefix>_d`` for each prefix in turn."""
    return [f"{prefix}_{i + 1}" for prefix in prefixes for i in range(d)]


def _write_strategy(config: ExperimentConfig, stem: str, strat: StrategyPath, outputs: list[str], reference=None) -> None:
    """Write ``<stem>.csv`` (t, then the ``_STRATEGY_SERIES``) and, if svg is asked for, ``<stem>.svg``.

    With a ``reference`` strategy the CSVs are ``<stem>_volterra.csv`` for ``strat`` and
    ``<stem>_reference.csv``; the plot shows the hedging demand of ``strat``.
    """
    named = {stem: strat} if reference is None else {f"{stem}_volterra": strat, f"{stem}_reference": reference}
    d = strat.d
    names = _series_names(_STRATEGY_SERIES, d)
    for name, written in named.items():
        target = config.out_dir / f"{name}.csv"
        data = np.hstack([written.weights, written.hedging, np.broadcast_to(written.myopic, written.weights.shape)])
        _write_csv(target, ["t", *names], [written.grid.nodes, *data.T])
        outputs.append(str(target))
    if "svg" in config.formats:
        nodes = strat.grid.nodes.tolist()
        series = {label: (nodes, h.tolist()) for label, h in zip(names[d : 2 * d], strat.hedging.T)}
        target = config.out_dir / f"{stem}.svg"
        render_line_plot(str(target), series, title="hedging demand", xlabel="t", ylabel="weight")
        outputs.append(str(target))


def run(config: ExperimentConfig, name: str | None = None) -> ExperimentReport:
    """Execute one experiment and write its outputs.

    Raises RiccatiBlowUpError, FloatingPointError (a non-finite Riccati step)
    or SimulationError for the documented nonzero exit codes; sweeps are
    dispatched to ``sweep``.
    """
    if config.kind in SWEEP_KINDS:
        return sweep(config)
    started = time.time()
    report = ExperimentReport(kind=config.kind, config_echo=config.echo)
    stem = name or config.kind
    grid = config.grid
    model = config.model
    rhs, path = _solve(config)
    report.metrics["riccati_residual"] = path.residual
    if not isinstance(model, WishartModel):
        from .models import lambda_condition_number

        report.metrics["lambda_condition_number"] = lambda_condition_number(model)
    if path.blowup is not None and config.kind != "solve":
        raise RiccatiBlowUpError(path.blowup)

    if config.kind == "solve":
        is_matrix = path.values.ndim == 3
        vals = path.values.reshape(path.values.shape[0], -1)
        d = model.d
        if is_matrix:
            comp = [f"psi_{a + 1}{b + 1}" for a in range(d) for b in range(d)]
        else:
            comp = [f"psi_{i + 1}" for i in range(vals.shape[1])]
        target = config.out_dir / f"{stem}.csv"
        _write_csv(target, ["t"] + comp, [grid.nodes, *vals.T])
        report.outputs.append(str(target))
        report.metrics["blowup_detected_at"] = path.blowup.detected_at if path.blowup else None
        if path.blowup is not None:
            # truncated path is on disk; surface the divergence for exit code 2
            raise RiccatiBlowUpError(path.blowup)

    elif config.kind == "strategy":
        strat = _strategy(config, path)
        _write_strategy(config, stem, strat, report.outputs)
        report.metrics["max_hedging"] = float(strat.hedging.max())
        report.metrics["min_hedging"] = float(strat.hedging.min())

    elif config.kind == "value":
        rep = _value(config, path, rhs)
        target = config.out_dir / f"{stem}.csv"
        row = np.array([[config.horizon, rep.value, rep.certainty_equivalent]])
        _write_csv(target, ["T", "value", "certainty_equivalent"], row.T)
        report.outputs.append(str(target))
        report.metrics["value"] = rep.value
        report.metrics["certainty_equivalent"] = rep.certainty_equivalent

    elif config.kind == "mc-check":
        rep = _value(config, path, rhs)
        strat = _strategy(config, path)
        bundle = simulate_bundle(model, grid, config.sim)
        est = mc_utility(model, strat, config.sim, config.x0, bundle=bundle)
        z = est.z_score(rep.value)
        target = config.out_dir / f"{stem}.csv"
        row = np.array([[rep.value, est.mean, est.stderr, z]])
        counts = [[str(config.sim.n_paths)], [str(config.sim.seed)]]  # in full: a seed may exceed 17 digits
        _write_csv(target, ["analytic", "mc_mean", "mc_stderr", "z_score", "n_paths", "seed"], [*row.T, *counts])
        report.outputs.append(str(target))
        report.metrics.update(
            analytic=rep.value, mc_mean=est.mean, mc_stderr=est.stderr, z_score=z,
            psd_violations=bundle.psd_violation_count,
        )

    elif config.kind == "bl13-recovery":
        # smooth-kernel limit vs a Runge-Kutta solve of the classical matrix
        # Riccati ODE (the Bauerle-Li Wishart benchmark)
        if not isinstance(model, WishartModel):
            raise ConfigError(["bl13-recovery requires a wishart model"])
        strat = _strategy(config, path)
        ref_path = _rk4_matrix_reference(rhs, grid)
        ref_strat = strategy_wishart(model, ref_path)
        rel_psi = float(
            np.max(np.abs(path.values - ref_path.values)) / max(np.max(np.abs(ref_path.values)), 1e-300)
        )
        rel_hedge = float(
            np.max(np.abs(strat.hedging - ref_strat.hedging)) / max(np.max(np.abs(ref_strat.hedging)), 1e-300)
        )
        _write_strategy(config, stem, strat, report.outputs, reference=ref_strat)
        report.metrics["rel_sup_diff_psi"] = rel_psi
        report.metrics["rel_sup_diff_hedging"] = rel_hedge

    _write_report(config, report, stem)
    report.runtime_seconds = time.time() - started
    return report


def _rk4_matrix_reference(rhs: MatrixRiccatiRHS, grid: TimeGrid):
    from .riccati import RiccatiPath

    h = grid.dt
    d = rhs.dim
    y = np.zeros((d, d))
    out = np.empty((grid.n_steps + 1, d, d))
    out[0] = y
    for n in range(grid.n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # exactly symmetric, as every k is
        out[n + 1] = y
    return RiccatiPath(grid, out, None, 0.0)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _point_config(config: ExperimentConfig, value) -> ExperimentConfig:
    """Sub-config for one sweep point, with kind rewritten to 'strategy'."""
    model = config.model
    axis = config.sweep_axis
    if axis == "alpha":
        kernels = [Kernel(k.family, k.c, alpha=float(value), lam=k.lam) for k in model.kernel]
        model = dataclasses.replace(model, kernel=kernels)
    elif axis == "horizon":
        return config.replaced(kind="strategy", horizon=float(value), sweep_axis=None, sweep_values=None)
    elif axis == "gamma":
        model = dataclasses.replace(model, gamma=float(value))
    elif axis == "volofvol_scale":
        if not isinstance(model, WishartModel):
            raise ConfigError(["volofvol-study requires a wishart model"])
        model = dataclasses.replace(model, vol_of_vol=float(value) * model.vol_of_vol)
    elif axis == "correlation":
        if not isinstance(model, WishartModel):
            raise ConfigError(["correlation-study requires a wishart model"])
        # asset-correlation regime: sign of the off-diagonal entries of M and Q
        # ('zero' drops them, 'negative' flips them, 'positive' keeps them)
        regime = str(value)
        if regime not in _REGIMES:
            raise ConfigError([f"correlation values must be positive|zero|negative, got {regime!r}"])
        factor = _REGIMES[regime]
        def off_scaled(mat):
            out = np.array(mat, dtype=float, copy=True)
            diag = np.diag(np.diag(out))
            return diag + factor * (out - diag)
        model = dataclasses.replace(
            model,
            mean_reversion=off_scaled(model.mean_reversion),
            vol_of_vol=off_scaled(model.vol_of_vol),
        )
    else:
        raise ConfigError([f"unknown sweep axis {axis!r}"])
    return config.replaced(kind="strategy", model=model, sweep_axis=None, sweep_values=None)


def _max_workers(n_points: int) -> int:
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            limit = max(1, int(cap))
        except ValueError:
            limit = 1
    else:
        limit = os.cpu_count() or 1
    return max(1, min(n_points, limit))


def sweep(config: ExperimentConfig) -> ExperimentReport:
    """Run every sweep point and assemble the combined long-format CSV.

    The points share n_steps, so one batched Riccati solve serves them all.
    Their strategies and files are then made on a thread pool capped by
    VOLTERRA_MERTON_THREADS, and the combined file is assembled in sweep-value
    order after all points finish.  A failing point raises its own error; with
    several, the first in config order wins.
    """
    if config.kind not in SWEEP_KINDS:
        raise ConfigError([f"kind {config.kind} is not a sweep"])
    if not config.sweep_values:
        raise ConfigError(["sweep values missing"])
    started = time.time()
    axis = config.sweep_axis
    points = list(config.sweep_values)
    report = ExperimentReport(kind=config.kind, config_echo=config.echo)
    subs = [_point_config(config, value) for value in points]
    paths = solve_riccati_batch(
        [sub.model.kernel for sub in subs],
        [_rhs(sub.model) for sub in subs],
        [sub.grid for sub in subs],
        config.blowup_threshold,
    )

    def run_point(idx_value):
        """One point's strategy, per-point CSV (and SVG if asked)."""
        idx, value = idx_value
        sub = subs[idx]
        stem = f"{config.kind}_{axis}_{_slug(value)}"
        path = paths[idx].require_global()
        strat = _strategy(sub, path)
        outputs: list[str] = []
        _write_strategy(sub, stem, strat, outputs)
        metrics = {"riccati_residual": path.residual, "max_hedging": float(strat.hedging.max())}
        return idx, value, strat, outputs, metrics

    results = []
    with ThreadPoolExecutor(max_workers=_max_workers(len(points))) as pool:
        for item in pool.map(run_point, enumerate(points)):
            results.append(item)
    if all(isinstance(v, (int, float)) for v in points):
        results.sort(key=lambda item: float(item[1]))  # combined CSV by sweep value
    else:
        results.sort(key=lambda item: item[0])

    # long format: per point node-major, then the weight and hedging series of each node
    values, times, series, cells = [], [], [], []
    for _, value, strat, outputs, metrics in results:
        report.outputs.extend(outputs)
        for key, metric in metrics.items():
            report.metrics[f"{key}[{_slug(value)}]"] = metric
        names = _series_names(_STRATEGY_SERIES[:2], strat.d)
        data = np.hstack([strat.weights, strat.hedging])
        values += [_fmt(value)] * data.size
        times.append(np.repeat(strat.grid.nodes, len(names)))
        series += names * len(data)
        cells.append(data.ravel())
    combined = config.out_dir / f"{config.kind}_combined.csv"
    columns = [[axis] * len(series), values, np.concatenate(times), series, np.concatenate(cells)]
    _write_csv(combined, ["sweep_param", "sweep_value", "t", "series", "value"], columns)
    report.outputs.append(str(combined))
    _write_report(config, report, config.kind)
    report.runtime_seconds = time.time() - started
    return report


def _slug(value) -> str:
    text = str(value)
    return "".join(ch if ch.isalnum() else "_" for ch in text)
