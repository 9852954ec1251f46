"""The benchmark's traced run wraps package functions by module and name.

``perfbench/spans.py`` (standard library only) lists them in ``TARGETS``; a
refactor that drops or renames one of those names must fail here rather than
inside ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        f"volterra_merton.{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not hasattr(importlib.import_module(f"volterra_merton.{module}"), name)
    ]
    assert missing == []


def test_tracer_install_round_trip():
    # install() also swaps experiments.ThreadPoolExecutor for the traced sweep pool
    import volterra_merton

    spans = load_spans()
    names = [(module, name) for module, attrs in spans.TARGETS.items() for name in attrs]
    names.append(("experiments", "ThreadPoolExecutor"))
    modules = {module: importlib.import_module(f"volterra_merton.{module}") for module, _ in names}
    originals = {key: getattr(modules[key[0]], key[1]) for key in names}
    tracer = spans.Tracer(volterra_merton)
    tracer.install()
    try:
        patched = [key for key in names if getattr(modules[key[0]], key[1]) is not originals[key]]
    finally:
        tracer.uninstall()
    assert patched == names
    assert [key for key in names if getattr(modules[key[0]], key[1]) is not originals[key]] == []
