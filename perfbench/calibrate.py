"""A fixed calibration load that measures how fast the host runs at the moment.

The benchmark runs on shared virtual CPUs whose speed drifts by 15-25% over
minutes, in CPU time as much as in wall time: the CPU itself runs slower, and
no time is lost waiting.  A median over a run's passes cannot remove drift
that lasts longer than the run.  So every process that measures also times
this load, which never changes and calls nothing of the package: the
measuring worker before each job of its untraced passes, for about a tenth
of the time the job took in the pass before, and each set-up probe once its
inputs are ready.  run.py reports each end-to-end time in *reference
seconds*: the measured seconds times ``REFERENCE_S`` / the mean time of one
load in the same process, that is the time it would have taken on a host
that runs this load in ``REFERENCE_S``.  One load takes about 40 ms and its
time scatters by 15% from one to the next, as the jobs' times do over a
second; the mean over the 40-130 loads of a run follows the host's drift.
A change to the package moves the jobs' times and leaves the load's alone,
so it shows in full; a slower host moves both.  The measured seconds and
the load's times are kept in the run record.

The load mixes the two kinds of work the workloads do: a Python loop of
small numpy operations, as in a step-by-step Volterra solve, and vectorised
array work over paths, as in a Monte Carlo bundle.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one run of the load is reported as.  It is a fixed constant, near
# what a load takes on the 2-vCPU Xeon virtual machine the benchmark was tuned
# on, so that reference seconds read close to the seconds measured there.
REFERENCE_S = 0.04

_HISTORY = 6000
_WEIGHTS = np.arange(1.0, _HISTORY + 1.0) ** -0.4
_RNG_SEED = 20211102
# Preallocated, so that no load pays for fresh pages.  Batched eigh, which
# the Monte Carlo bundles use, is left out: it allocates its results, and its
# time jumps between two levels from one call to the next.
_DRAWS = np.empty((200, 1000))
_PATHS = np.empty((200, 1000))


def _load() -> float:
    """Run the fixed load once; return a value so that no work is skipped."""
    x = np.zeros(_HISTORY)
    for k in range(1, _HISTORY):
        history = float(np.dot(_WEIGHTS[k - 1 :: -1][:k], x[:k]))
        x[k] = 0.5 - 0.1 * history + 0.05 * x[k - 1] * x[k - 1]
    rng = np.random.Generator(np.random.Philox(_RNG_SEED))
    total = float(x[-1])
    for _ in range(2):
        rng.standard_normal(out=_DRAWS)
        np.cumsum(_DRAWS, axis=1, out=_PATHS)
        np.exp(np.multiply(0.01, _PATHS, out=_PATHS), out=_PATHS)
        total += float(_PATHS.mean())
    return total


def slices(budget_s: float) -> list[float]:
    """Time the load once, and again while the time so spent stays below budget_s."""
    times: list[float] = []
    while not times or sum(times) < budget_s:
        t0 = time.perf_counter()
        _load()
        times.append(time.perf_counter() - t0)
    return times
