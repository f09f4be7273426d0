"""The names the benchmark's tracer (``bench/tracing.py``) resolves in the
program.  The tracer wraps them by name when a traced run starts, so a
renamed or deleted one would break only that run; these tests read the
tracer's tables without installing it."""

import importlib.util
import inspect
from pathlib import Path

from finslerforms.connection import LocalTower

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_class_methods_resolve():
    for (layer, cls_name), methods in load_tracing().CLASS_METHODS.items():
        cls = getattr(importlib.import_module(f"finslerforms.{layer}"), cls_name)
        for name in methods:
            assert callable(getattr(cls, name, None)), f"{layer}.{cls_name}.{name}"


def test_tower_init_takes_the_traced_arguments():
    """The tracer's counting ``__init__`` forwards exactly (s, xs, ys)."""
    assert list(inspect.signature(LocalTower.__init__).parameters) == ["self", "s", "xs", "ys"]
