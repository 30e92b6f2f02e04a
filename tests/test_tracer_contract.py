"""The benchmark's tracer finds every program attribute it patches.

perfbench/tracing.py wraps functions at the module attributes the program
calls them through (``cli.final_states``, ``cli.run_lmc``, ...), so a change
that drops one of them breaks every ``--trace 1`` benchmark run.  This test
reads perfbench/run.py and perfbench/tracing.py as they are and builds the
tracer's patch table, without installing it.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_exists(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_program puts src/ first
    run, tracing = load("run"), load("tracing")
    patches = tracing.Tracer(run.import_program())._patches()
    assert patches and all(callable(getattr(owner, attr)) for owner, attr, _ in patches)
