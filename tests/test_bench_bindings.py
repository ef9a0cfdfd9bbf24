"""The benchmark's per-layer tracer wraps package entry points by module and
attribute name.  A binding that a refactor renames or moves is skipped by the
tracer and its layer reads 0, so every binding must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_exists():
    bindings = load_tracer().BINDINGS
    assert bindings
    missing = [
        f"{module_name}.{attr} ({span})"
        for span, module_name, attr in bindings
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
