"""The names the benchmark's tracer (``bench/tracing.py``) resolves in the
program.  The tracer wraps them by name when a traced run starts, so a
renamed or deleted one would break only that run; these tests read the
tracer's tables without installing it."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from finslerforms.connection import LocalTower

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


def test_every_layer_is_an_attribute_after_a_bare_import():
    """The tracer reads each layer as ``getattr(package, layer)``: a fresh
    interpreter that imports only the package must find every one."""
    layers = load_tracing().LAYERS
    code = "import sys, finslerforms; sys.exit([l for l in sys.argv[1:] if not hasattr(finslerforms, l)] != [])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code, *layers], env=env).returncode == 0
