"""The benchmark's tracer finds every program attribute it patches, and the commands call its wrappers.

perfbench/tracing.py wraps functions at the module attributes the program
calls them through (``cli.final_states``, ``cli.run_lmc``, ...), so a change
that drops one of them breaks every ``--trace 1`` benchmark run, and a
command that calls past them leaves that layer's spans, and its metrics, at
0.  These tests read perfbench/run.py and perfbench/tracing.py as they are.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing():
    return load("tracing")


@pytest.fixture
def tracer(monkeypatch, tracing):
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_program puts src/ first
    return tracing.Tracer(load("run").import_program())


def test_every_patched_attribute_exists(tracer):
    patches = tracer._patches()
    assert patches and all(callable(getattr(owner, attr)) for owner, attr, _ in patches)


def test_traced_commands_record_their_spans(tracer, tracing, tmp_path):
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 1.0], "precision": [[2.0, 0.0], [0.0, 3.0]]}))
    sample = ["sample", "--target", str(quad), "--h", "0.1", "--K", "20", "--out", str(tmp_path / "s.csv")]
    figure = ["figure1", "--eps", "0.5", "--p-values", "1", "--grid-size", "50", "--out", str(tmp_path / "f.csv")]
    cli = tracer.lab.cli
    untraced = cli.main
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in (sample, [*sample, "--replicas", "3"], figure)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0] and cli.main is untraced
    recorded = {tracing.NAMES[int(code)] for code in tracer.spans[2::7]}  # 7 fields a span, the code third
    assert {"cli.main", "targets.load_target", "sampler.final_states", "planner.figure1"} <= recorded
