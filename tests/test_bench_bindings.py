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


def test_every_tracer_binding_is_called(tmp_path, monkeypatch):
    # Existing is not enough: a binding the CLI stops calling through that
    # module attribute also reads 0.  These six small commands reach every
    # layer the benchmark's workloads reach.
    from leakmit.cli import main

    calls = {}
    for span, module_name, attr in load_tracer().BINDINGS:
        module = importlib.import_module(module_name)
        key = f"{module_name}.{attr}"
        calls[key] = 0

        def counted(*args, _fn=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    dataset = tmp_path / "gen" / "dataset.csv"
    commands = [
        ["generate", "--gen", "branch_loop", "--out", str(dataset.parent)],
        ["enforce", "--gen", "mod_exp", "--n-bits", "6", "--algo", "stoch"],
        ["enforce", "--gen", "branch_loop"],
        ["enforce", "--input", str(dataset)],
        ["compare", "--gen", "mod_exp", "--n-bits", "6"],
        ["sweep", "--gen", "branch_loop", "--measure", "shannon",
         "--sweep", "0:0.5:0.25", "--n-starts", "1"],
    ]
    for n, argv in enumerate(commands):
        if "--out" not in argv:
            argv = argv + ["--out", str(tmp_path / f"run-{n}")]
        assert main(argv) == 0
    assert [key for key, count in calls.items() if count == 0] == []
