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
# Unused here: perfbench's spans.Tracer.install patches this name, and ROADMAP item 1 removes both.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .kernels import Kernel, TimeGrid, block_fft_size
from .merton import (
    StrategyPath,
    strategy_general,
    strategy_wishart,
    value_general,
    value_wishart,
)
from .models import VectorModel, WishartModel, lambda_condition_number, validate
from .riccati import (
    DEFAULT_BLOWUP_THRESHOLD,
    MatrixRiccatiRHS,
    RiccatiBlowUpError,
    RiccatiPath,
    solve_riccati_batch,
    solve_riccati_matrix,
    solve_riccati_vector,
    vector_rhs_general,
    wishart_rhs,
)
from .simulate import SimConfig, _refuse_foreign_floor, mc_utility
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
_SWEEP_AXES = {
    "sweep-alpha": "alpha",
    "sweep-horizon": "horizon",
    "sweep-gamma": "gamma",
    "regime-study": "horizon",
    "correlation-study": "correlation",
    "volofvol-study": "volofvol_scale",
}
SWEEP_KINDS = tuple(_SWEEP_AXES)
_MODELS = {"vector": VectorModel, "wishart": WishartModel}
# Scalar fields, (section, key) -> (default, integer); section "" is the top level.
_SCALARS = {
    ("numerics", "horizon"): (1.0, False),
    ("numerics", "n_steps"): (1000, True),
    ("numerics", "blowup_threshold"): (DEFAULT_BLOWUP_THRESHOLD, False),
    ("simulation", "n_paths"): (10_000, True),
    ("simulation", "seed"): (42, True),
    ("simulation", "psd_floor"): (0.0, False),
    ("simulation", "variance_floor"): (0.0, False),
    ("", "x0"): (1.0, False),
}
# The other keys of each section; the model section and its kernels take their records' fields.
_KEYS = {
    "": ("kind", "model", "numerics", "simulation", "sweep", "output"),
    "numerics": (),
    "simulation": ("antithetic",),
    "output": ("directory", "formats"),
}
# correlation-study regimes: factor on the off-diagonal entries of M and Q
_REGIMES = {"positive": 1.0, "zero": 0.0, "negative": -1.0}
# kinds whose pipeline reads the matrix fields of a wishart model
_WISHART_KINDS = ("bl13-recovery", "correlation-study", "volofvol-study")
# A run whose largest array would take more bytes than this is refused as a
# config error before anything is allocated.
MAX_ARRAY_BYTES = 2**30
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
    sweep_values: tuple | None
    echo: str  # canonical resolved-config dump

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)

    @property
    def sweep_axis(self) -> str | None:
        return _SWEEP_AXES.get(self.kind)

    def replaced(self, **fields) -> "ExperimentConfig":
        """This config with each field written at its config key (``sim`` at every simulation key) into its
        ``echo``, loaded again by ``config_from_dict``; a field with no config key is a TypeError."""
        keys = {"kind": "kind", "x0": "x0", "out_dir": "output.directory", "formats": "output.formats",
                "sweep_values": f"sweep.{self.sweep_axis}",
                **{name: f"numerics.{name}" for name in ("horizon", "n_steps", "blowup_threshold")}}
        sim = dataclasses.asdict(fields.pop("sim")) if "sim" in fields else {}
        if set(fields) - set(keys):
            raise TypeError(f"replaced() got fields with no config key: {', '.join(sorted(set(fields) - set(keys)))}")
        overrides = {keys[name]: value for name, value in fields.items()}
        overrides.update((f"simulation.{key}", value) for key, value in sim.items())
        return config_from_dict(with_overrides(json.loads(self.echo), overrides))


@dataclass
class ExperimentReport:
    kind: str
    config_echo: str
    outputs: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def to_json(self, out_dir: Path | None = None) -> str:
        """The report as strict JSON: a non-finite metric is null and named in ``nonfinite_metrics``;
        the wall-clock runtime is left out so reruns match.  With ``out_dir``, as the report file
        holds them, the outputs are named relative to it and the config leaves out
        ``output.directory`` (and the section, if nothing else is left in it), so that the file
        does not depend on where the run wrote."""
        nonfinite = sorted(k for k, v in self.metrics.items() if isinstance(v, float) and not math.isfinite(v))
        outputs = self.outputs if out_dir is None else [str(Path(p).relative_to(out_dir)) for p in self.outputs]
        config = json.loads(self.config_echo)
        if out_dir is not None and isinstance(config.get("output"), dict):
            config["output"].pop("directory", None)
            if not config["output"]:
                del config["output"]
        payload = {
            "kind": self.kind,
            "outputs": outputs,
            "metrics": {key: None if key in nonfinite else value for key, value in self.metrics.items()},
            "config": config,
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


def _refuse_unknown(mapping: dict, known, prefix: str, problems: list[str]) -> None:
    """Report every key of ``mapping`` outside ``known``: a misspelt field is an error, not a default."""
    problems.extend(
        f"unknown field {prefix}{key} (known: {', '.join(sorted(known))})" for key in mapping if key not in known
    )


def _parse_kernel(node, problems: list[str]):
    """One Kernel for a mapping or a list of them for a list; None after a problem.

    The model record repeats a single kernel over its components and checks a list's length.
    """

    def one(entry) -> Kernel | None:
        if not isinstance(entry, dict) or "family" not in entry:
            problems.append("kernel entries need at least a 'family' key")
            return None
        names = [f.name for f in dataclasses.fields(Kernel)]
        _refuse_unknown(entry, names, "model.kernel.", problems)
        try:
            params = {name: float(entry[name]) for name in names if name in entry and name != "family"}
            return Kernel(str(entry["family"]), **{"c": 1.0, **params})
        except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: an int beyond the float range
            problems.append(f"kernel: {exc}")
            return None

    if isinstance(node, dict):
        return one(node)
    if isinstance(node, list):
        kernels = [one(item) for item in node]
        return None if any(k is None for k in kernels) else kernels
    problems.append("model.kernel must be a mapping or a list of mappings")
    return None


def _build_model(section, problems: list[str]):
    """The model record of the model section, or None after a problem.

    The section holds ``type`` and the record's fields, which go to the record as given
    (it coerces and checks the arrays), besides ``gamma`` and ``rate``, which are read
    with ``_number``, and the kernels.  A wishart model may give ``nnt_from_q`` = f in
    place of ``noise``, which is then N = sqrt(f) Q^T.
    """
    if not isinstance(section, dict):
        problems.append("missing or malformed 'model' section")
        return None
    record = _MODELS.get(str(section.get("type")))
    if record is None:
        problems.append("model.type must be 'vector' or 'wishart'")
        return None
    fields = dataclasses.fields(record)
    from_q = record is WishartModel and "nnt_from_q" in section
    known = ["type", *(f.name for f in fields)] + (["nnt_from_q"] if record is WishartModel else [])
    _refuse_unknown(section, known, "model.", problems)
    before = len(problems)
    values = {f.name: section[f.name] for f in fields if f.name in section}
    for name in ("gamma", "rate"):
        if name in values:
            values[name] = _number(section, name, None, problems, "model.")
    if "kernel" in values:
        values["kernel"] = _parse_kernel(values["kernel"], problems)
    if from_q:
        if "noise" in section:
            problems.append("model gives both noise and nnt_from_q; give one")
        factor = _number(section, "nnt_from_q", None, problems, "model.")
        if factor is not None and not factor >= 0.0:
            problems.append(f"model.nnt_from_q must be nonnegative (got {section['nnt_from_q']!r})")
    problems.extend(
        f"model section missing field {f.name!r}"
        for f in fields
        if f.default is dataclasses.MISSING and f.name not in values and not (f.name == "noise" and from_q)
    )
    if len(problems) > before:
        return None
    try:
        if from_q:
            # N = sqrt(factor) Q^T gives the drift constant N N^T = factor Q^T Q, as any such N does
            values["noise"] = math.sqrt(factor) * np.atleast_2d(np.asarray(values["vol_of_vol"], dtype=float)).T
        model = record(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        problems.append(f"model section: {exc}")
        return None
    violations = validate(model)
    problems.extend(violations)
    return None if violations else model


def _canonical_echo(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True, default=_plain)


def _plain(value):
    """A numpy array or scalar as the list or number a config file holds, anything else as its text."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return str(value)


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
    """``raw`` with each ``"section.key": value`` of ``overrides`` written in, or ``"key": value`` at the
    top level; None values are skipped, a tuple is written as a list and a Path as a string.

    Overrides go into the mapping before ``config_from_dict`` (the CLI's and ``ExperimentConfig.replaced``'s
    too), so they are validated like the file's own fields and show in the report's ``config``.
    A missing section is created; a malformed one is left for validation to report.
    """
    for dotted, value in overrides.items():
        if value is None:
            continue
        value = list(value) if isinstance(value, tuple) else str(value) if isinstance(value, Path) else value
        section, _, key = dotted.rpartition(".")
        if section and raw.get(section) is None:
            raw[section] = {}
        node = raw[section] if section else raw
        if isinstance(node, dict):
            node[key] = value
    return raw


def _sweep_point(model, horizon, axis: str, value):
    """The model and horizon of the sweep point at ``value``, or ValueError with the reason.

    ``value`` is as the config gives it, read with ``float`` on a numeric axis.
    A correlation regime scales the off-diagonal entries of M and Q: 'zero'
    drops them, 'negative' flips them, 'positive' keeps them.  The model must
    suit the axis: a wishart model on the correlation and vol-of-vol axes.
    ``validate`` and ``TimeGrid`` check the point's model and horizon.
    """
    if axis == "correlation":
        factor = _REGIMES.get(str(value))
        if factor is None:
            raise ValueError("a regime is positive, zero or negative")

        def off_scaled(mat):
            diag = np.diag(np.diag(mat))
            return diag + factor * (mat - diag)

        return dataclasses.replace(
            model, mean_reversion=off_scaled(model.mean_reversion), vol_of_vol=off_scaled(model.vol_of_vol)
        ), horizon
    number = float(value)
    if axis == "horizon":
        return model, number
    if axis == "alpha":
        kernels = [Kernel(k.family, k.c, alpha=number, lam=k.lam) for k in model.kernel]
        return dataclasses.replace(model, kernel=kernels), horizon
    if axis == "gamma":
        return dataclasses.replace(model, gamma=number), horizon
    return dataclasses.replace(model, vol_of_vol=number * model.vol_of_vol), horizon  # volofvol_scale


def _grid_problems(model, grid: TimeGrid) -> list[str]:
    """The kernels of ``model`` whose weights on ``grid`` would be wrong, as problems."""
    return [problem for problem in (k.step_problem(grid.dt) for k in model.kernel) if problem]


def config_from_dict(raw: dict) -> ExperimentConfig:
    problems: list[str] = []
    kind = raw.get("kind")
    if kind not in SINGLE_KINDS + SWEEP_KINDS:
        problems.append(
            f"kind must be one of {', '.join(SINGLE_KINDS + SWEEP_KINDS)} (got {kind!r})"
        )
    model = _build_model(raw.get("model"), problems)
    if kind in _WISHART_KINDS and isinstance(model, VectorModel):
        problems.append(f"{kind} requires a wishart model")
        model = None  # so that no sweep point is built from it

    sections = {name: _section(raw, name, problems) if name else raw for name in _KEYS}
    for name, keys in _KEYS.items():
        known = keys + tuple(key for section, key in _SCALARS if section == name)
        _refuse_unknown(sections[name], known, f"{name}." if name else "", problems)
    scalars = {
        key: _number(sections[section], key, default, problems, f"{section}." if section else "", integer)
        for (section, key), (default, integer) in _SCALARS.items()
    }
    horizon, n_steps, blowup, x0 = (scalars[key] for key in ("horizon", "n_steps", "blowup_threshold", "x0"))
    grid = None
    if horizon is not None and n_steps is not None:
        try:
            grid = TimeGrid(horizon, n_steps)
        except ValueError as exc:
            problems.append(f"numerics: {exc}")
    if blowup is not None and blowup <= 0:
        problems.append("numerics.blowup_threshold must be positive")
    if x0 is not None and x0 <= 0:
        problems.append("x0 must be positive")

    sim_fields = {key: scalars[key] for section, key in _SCALARS if section == "simulation"}
    antithetic = sections["simulation"].get("antithetic", False)
    if not isinstance(antithetic, bool):
        problems.append(f"simulation.antithetic must be true or false (got {antithetic!r})")
        antithetic = None
    sim = SimConfig(n_paths=1)
    if None not in (*sim_fields.values(), antithetic):
        try:
            sim = SimConfig(**sim_fields, antithetic=antithetic)
        except ValueError as exc:
            problems.append(f"simulation section: {exc}")
    if model is not None:
        try:
            _refuse_foreign_floor(model, sim)
        except ValueError as exc:
            problems.append(f"simulation.{exc}")

    output = sections["output"]
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

    sweep_values: tuple | None = None
    sweep_section = raw.get("sweep")
    if kind in SWEEP_KINDS:
        axis = _SWEEP_AXES[kind]
        values = sweep_section.get(axis) if isinstance(sweep_section, dict) else None
        if values is None or len(sweep_section) != 1:
            problems.append(f"kind {kind} sweeps exactly one axis: a sweep section {{{axis}: [...]}} (got {sweep_section!r})")
        elif not isinstance(values, list) or not values:
            problems.append("sweep values must be a nonempty list")
        else:
            sweep_values = tuple(values)
            for value in values:
                if axis != "correlation" and _number({axis: value}, axis, None, problems, "sweep.") is None:
                    continue
                if model is None or grid is None:
                    continue
                try:
                    point, point_horizon = _sweep_point(model, horizon, axis, value)
                    reasons = validate(point) + _grid_problems(point, TimeGrid(point_horizon, n_steps))
                except ValueError as exc:
                    reasons = [str(exc)]
                problems.extend(f"sweep.{axis} {value!r}: {reason}" for reason in reasons)
            files: dict[str, object] = {}  # slug -> the first value that names its output file
            labels: dict[str, object] = {}  # combined-CSV sweep_value -> the first value written as it
            for value in values:
                slug = _slug(value)
                label = _fmt(value) if isinstance(value, (str, numbers.Real)) else slug
                if slug in files:
                    problems.append(f"sweep.{axis} {files[slug]!r} and {value!r} name the same output file")
                elif label in labels:
                    shared = f"share the combined-CSV sweep_value {label!r}"
                    problems.append(f"sweep.{axis} {labels[label]!r} and {value!r} {shared}")
                files.setdefault(slug, value)
                labels.setdefault(label, value)
    elif sweep_section:
        problems.append(f"kind {kind} does not take a sweep section")
    if kind not in SWEEP_KINDS and model is not None and grid is not None:
        problems.extend(_grid_problems(model, grid))

    if not problems and model is not None:
        points = len(sweep_values) if sweep_values else 1
        if _largest_array_bytes(kind, model, n_steps, scalars["n_paths"], points) > MAX_ARRAY_BYTES:
            problems.append(
                f"run too large: its largest array would exceed {MAX_ARRAY_BYTES // 2**20} MiB "
                "(numerics.n_steps, simulation.n_paths on mc-check and the sweep points set its size)"
            )
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
        sweep_values=sweep_values,
        echo=_canonical_echo(raw),
    )


def _largest_array_bytes(kind: str, model, n_steps: int, n_paths: int, points: int) -> int:
    """Bytes of a run's largest array, in exact integers so that any count can be weighed.

    That is the Riccati history of every sweep point, two stages of one state
    per node, or on mc-check the normal draws of every path and step if they
    are larger.  On grids whose history sums close blocks they also build a
    complex FFT buffer, 16 bytes for each of size // 2 + 1 frequencies, with
    size = ``block_fft_size(N)``, and each stage and state entry they sum: two
    stages of every sweep point's state in the solver, and on mc-check one
    stage of every path's state in the simulator.
    """
    d = model.d
    wishart = isinstance(model, WishartModel)
    state = d * d if wishart else d
    # a grid longer than MAX_ARRAY_BYTES steps is over the budget by its history alone
    size = block_fft_size(n_steps) if n_steps <= MAX_ARRAY_BYTES else 0
    freqs = size // 2 + 1 if size else 0
    largest = max(8 * 2 * points * (n_steps + 1) * state, 16 * 2 * points * state * freqs)
    if kind == "mc-check":
        draws = 8 * n_paths * n_steps * (state + d if wishart else 2 * d)
        largest = max(largest, draws, 16 * n_paths * state * freqs)
    return largest


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
        _write_atomic(target, report.to_json(config.out_dir) + "\n")
        report.outputs.append(str(target))


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


# model record -> the names of its family's right-hand side, solver, strategy and value in this module
_FAMILIES = {
    VectorModel: ("vector_rhs_general", "solve_riccati_vector", "strategy_general", "value_general"),
    WishartModel: ("wishart_rhs", "solve_riccati_matrix", "strategy_wishart", "value_wishart"),
}


def _family(model) -> list:
    """The right-hand side, solver, strategy and value of the model's family, read from this module's
    globals at call time, so that a wrapper put in place of one of them by name is what runs."""
    return [globals()[name] for name in _FAMILIES[type(model)]]


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
        _write_atomic(target, render_line_plot(series, title="hedging demand", xlabel="t", ylabel="weight"))
        outputs.append(str(target))


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment and write its outputs.

    Raises RiccatiBlowUpError, FloatingPointError (a non-finite Riccati step)
    or SimulationError for the documented nonzero exit codes; sweeps are
    dispatched to ``sweep``.
    """
    if config.kind in SWEEP_KINDS:
        return sweep(config)
    started = time.perf_counter()
    report = ExperimentReport(kind=config.kind, config_echo=config.echo)
    stem = config.kind
    grid = config.grid
    model = config.model
    make_rhs, solve, strategy, value = _family(model)
    rhs = make_rhs(model)
    path = solve(model.kernel, rhs, grid, config.blowup_threshold)
    report.metrics["riccati_residual"] = path.residual
    if not isinstance(model, WishartModel):
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
        strat = strategy(model, path)
        _write_strategy(config, stem, strat, report.outputs)
        report.metrics["max_hedging"] = float(strat.hedging.max())
        report.metrics["min_hedging"] = float(strat.hedging.min())

    elif config.kind == "value":
        rep = value(model, path, config.x0, rhs=rhs)
        target = config.out_dir / f"{stem}.csv"
        row = np.array([[config.horizon, rep.value, rep.certainty_equivalent]])
        _write_csv(target, ["T", "value", "certainty_equivalent"], row.T)
        report.outputs.append(str(target))
        report.metrics["value"] = rep.value
        report.metrics["certainty_equivalent"] = rep.certainty_equivalent

    elif config.kind == "mc-check":
        rep = value(model, path, config.x0, rhs=rhs)
        strat = strategy(model, path)
        est = mc_utility(model, strat, config.sim, config.x0)  # streamed: no path's states are kept
        z = est.z_score(rep.value)
        target = config.out_dir / f"{stem}.csv"
        row = np.array([[rep.value, est.mean, est.stderr, z]])
        counts = [[str(config.sim.n_paths)], [str(config.sim.seed)]]  # in full: a seed may exceed 17 digits
        _write_csv(target, ["analytic", "mc_mean", "mc_stderr", "z_score", "n_paths", "seed"], [*row.T, *counts])
        report.outputs.append(str(target))
        report.metrics.update(
            analytic=rep.value, mc_mean=est.mean, mc_stderr=est.stderr, z_score=z,
            psd_violations=est.psd_violation_count,
        )

    elif config.kind == "bl13-recovery":
        # smooth-kernel limit vs a Runge-Kutta solve of the classical matrix
        # Riccati ODE (the Bauerle-Li Wishart benchmark)
        strat = strategy(model, path)
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
    report.runtime_seconds = time.perf_counter() - started
    return report


def _rk4_matrix_reference(rhs: MatrixRiccatiRHS, grid: TimeGrid):
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


def sweep(config: ExperimentConfig) -> ExperimentReport:
    """Run every sweep point and assemble the combined long-format CSV.

    Each point is a model and horizon from ``_sweep_point``, with the sweep's
    n_steps and outputs, so one batched Riccati solve serves them all.  A
    failing point raises its own error before any file is written; with
    several, the first in config order wins.  The points' strategies and files
    are then made in turn, in sweep-value order (a correlation regime keeps its
    config order), which is also the order of the combined file.
    """
    if config.kind not in SWEEP_KINDS:
        raise ConfigError([f"kind {config.kind} is not a sweep"])
    started = time.perf_counter()
    axis = config.sweep_axis
    points = list(config.sweep_values)
    report = ExperimentReport(kind=config.kind, config_echo=config.echo)
    models, horizons = zip(*(_sweep_point(config.model, config.horizon, axis, value) for value in points))
    make_rhs, _, strategy, _ = _family(config.model)  # every point's model is of the config's family
    paths = solve_riccati_batch(
        [model.kernel for model in models],
        [make_rhs(model) for model in models],
        [TimeGrid(horizon, config.n_steps) for horizon in horizons],
        config.blowup_threshold,
    )
    for path in paths:
        path.require_global()
    rows = list(zip(points, models, paths))
    if axis != "correlation":
        rows.sort(key=lambda row: float(row[0]))  # YAML loads 6e-1 as text

    # long format: per point node-major, then the weight and hedging series of each node
    values, times, series, cells = [], [], [], []
    for value, model, path in rows:
        strat = strategy(model, path)
        _write_strategy(config, f"{config.kind}_{axis}_{_slug(value)}", strat, report.outputs)
        report.metrics[f"riccati_residual[{_slug(value)}]"] = path.residual
        report.metrics[f"max_hedging[{_slug(value)}]"] = float(strat.hedging.max())
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
    report.runtime_seconds = time.perf_counter() - started
    return report


def _slug(value) -> str:
    text = str(value)
    return "".join(ch if ch.isalnum() else "_" for ch in text)
