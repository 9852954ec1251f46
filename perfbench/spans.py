"""Call spans around the package's public functions, and the per-layer metrics
derived from them.

The tracer wraps functions where their callers look them up: the module-level
name in each module that calls it (``kernel_weights`` inside ``riccati``,
``simulate`` and ``models`` as well as ``kernels``; ``fixed_point_residual``
inside ``riccati``; the solver, strategy and value names imported into
``experiments``).  ``install`` swaps the wrappers in and ``uninstall`` puts
the originals back, so untraced passes run the package untouched.

Each call records one span: name, start, end, parent span, run id, thread and
counts taken from the call's result.  Spans stay in memory until the worker
writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

# module -> names wrapped there.  A span is named after the function's home
# module, so kernel_weights is "kernels.kernel_weights" whichever module
# called it.
TARGETS = {
    "kernels": (
        "kernel_weights",
        "mittag_leffler_array",
        "resolvent_second_kind",
        "first_kind_residual",
        "second_kind_residual",
    ),
    "riccati": ("kernel_weights", "solve_riccati_vector", "solve_riccati_matrix", "fixed_point_residual"),
    "models": ("kernel_weights", "expected_variance_curve"),
    "merton": (
        "expected_variance_curve",
        "strategy_general",
        "strategy_degenerate",
        "strategy_wishart",
        "value_general",
        "value_distortion",
        "value_wishart",
    ),
    "simulate": (
        "kernel_weights",
        "simulate_vector",
        "simulate_wishart",
        "simulate_wealth",
        "mc_utility",
        "martingale_diagnostic",
        "compare_strategies",
    ),
    "svgplot": ("render_line_plot",),
    "experiments": (
        "load_config",
        "run",
        "sweep",
        "solve_riccati_vector",
        "solve_riccati_matrix",
        "strategy_general",
        "strategy_wishart",
        "value_general",
        "value_wishart",
        "mc_utility",
        "render_line_plot",
    ),
}


def _solve_counts(path) -> dict:
    return {"steps": path.grid.n_steps}


def _bundle_counts(bundle) -> dict:
    # bytes are computed from the shapes of the arrays the bundle holds
    increments = bundle.increments.values()
    return {
        "path_steps": bundle.states.shape[0] * (bundle.states.shape[1] - 1),
        "draws": sum(a.size for a in increments),
        "bytes": bundle.states.nbytes + sum(a.nbytes for a in increments),
        "clips": bundle.psd_violation_count,
    }


COUNTERS = {
    "kernels.resolvent_second_kind": lambda r: {"nodes": r.values.size},
    "riccati.solve_riccati_vector": _solve_counts,
    "riccati.solve_riccati_matrix": _solve_counts,
    "simulate.simulate_vector": _bundle_counts,
    "simulate.simulate_wishart": _bundle_counts,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.run_id = "setup"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, parent=None, counts=None):
        """Run fn inside a span; ``parent`` applies on threads with no open span."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        found = dict(counts or {})
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            found["raised"] = 1
            raise
        else:
            counter = COUNTERS.get(name)
            if counter is not None:
                found.update(counter(result))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, self.run_id, threading.get_ident(), found)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _pool(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Sweep pool whose points are spans parented to the submitting span."""

            def map(self, fn, *iterables, **kwargs):
                parent = tracer.current()
                counts = {"workers": self._max_workers}

                def point(*args):
                    return tracer.call("experiments.sweep_point", fn, args, {}, parent, counts)

                return super().map(point, *iterables, **kwargs)

        return TracedPool

    def install(self) -> None:
        if self._patched:
            return
        for module_name, names in TARGETS.items():
            module = getattr(self.package, module_name)
            for attr in names:
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(original))
        experiments = self.package.experiments
        self._patched.append((experiments, "ThreadPoolExecutor", experiments.ThreadPoolExecutor))
        experiments.ThreadPoolExecutor = self._pool()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------

# metric -> span names whose self time it sums.  Self time is a span's
# duration minus the part of it that traced child spans cover, so the layers
# partition the traced time of a pass.
SELF_TIME = {
    "kernels.weights_s": ("kernels.kernel_weights",),
    "kernels.resolvent_s": ("kernels.resolvent_second_kind",),
    "kernels.mittag_leffler_s": ("kernels.mittag_leffler_array",),
    "kernels.identity_s": ("kernels.first_kind_residual", "kernels.second_kind_residual"),
    "riccati.solve_s": ("riccati.solve_riccati_vector", "riccati.solve_riccati_matrix"),
    "riccati.residual_s": ("riccati.fixed_point_residual",),
    "models.expected_variance_s": ("models.expected_variance_curve",),
    "merton.strategy_s": ("merton.strategy_general", "merton.strategy_degenerate", "merton.strategy_wishart"),
    "merton.value_s": ("merton.value_general", "merton.value_distortion", "merton.value_wishart"),
    "simulate.vector_s": ("simulate.simulate_vector",),
    "simulate.wishart_s": ("simulate.simulate_wishart",),
    "simulate.wealth_s": ("simulate.simulate_wealth",),
    "simulate.diagnostic_s": ("simulate.mc_utility", "simulate.martingale_diagnostic", "simulate.compare_strategies"),
    "svgplot.render_s": ("svgplot.render_line_plot",),
    "experiments.run_self_s": ("experiments.run", "experiments.sweep", "experiments.sweep_point"),
}

SOLVES = ("riccati.solve_riccati_vector", "riccati.solve_riccati_matrix")
SIMULATIONS = ("simulate.simulate_vector", "simulate.simulate_wishart")

# metric -> (span names, count key); a key of None counts the spans
COUNTS = {
    "kernels.weights_calls": (("kernels.kernel_weights",), None),
    "kernels.resolvent_nodes": (("kernels.resolvent_second_kind",), "nodes"),
    "riccati.steps": (SOLVES, "steps"),
    "riccati.solves": (SOLVES, None),
    "simulate.path_steps": (SIMULATIONS, "path_steps"),
    "simulate.draws": (SIMULATIONS, "draws"),
    "simulate.bytes_computed": (SIMULATIONS, "bytes"),
    "simulate.clips": (SIMULATIONS, "clips"),
}

# counts that must repeat exactly across passes and runs at one seed
REPEATING = (
    "riccati.steps",
    "simulate.path_steps",
    "simulate.draws",
    "kernels.resolvent_nodes",
    "simulate.clips",
)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[Span], pass_start: float, pass_end: float) -> dict:
    """Per-layer metrics of one traced pass from its spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def self_time(span: Span) -> float:
        kids = [(c.start, c.end) for c in children.get(span.id, [])]
        return span.duration - covered(kids, span.start, span.end)

    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_time(s) for s in spans if s.name in names)
    for metric, (names, key) in COUNTS.items():
        chosen = [s for s in spans if s.name in names]
        out[metric] = len(chosen) if key is None else sum(s.counts.get(key, 0) for s in chosen)

    busy = capacity = 0.0
    for sweep in (s for s in spans if s.name == "experiments.sweep"):
        points = [c for c in children.get(sweep.id, []) if c.name == "experiments.sweep_point"]
        if points:
            busy += sum(p.duration for p in points)
            capacity += sweep.duration * max(p.counts["workers"] for p in points)
    out["experiments.sweep_busy_ratio"] = busy / capacity if capacity else 0.0

    roots = [(s.start, s.end) for s in spans if s.parent is None]
    out["trace.coverage"] = covered(roots, pass_start, pass_end) / (pass_end - pass_start)
    return out
