"""Self-tests of the benchmark: its checks reject corrupted outputs, tracing
changes nothing, and every workload runs clean.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import CODE, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def lab():
    return run.import_program()


def prepare(lab, name, tmp_path):
    workload = WORKLOADS[name](seed=7)
    paths = {}
    for target, payload in workload.target_payloads().items():
        paths[target] = tmp_path / f"{target}.json"
        paths[target].write_text(json.dumps(payload), encoding="utf-8")
    workload.prepare(lab, paths)
    out = tmp_path / "op"
    out.mkdir()
    return workload, out


def run_op(lab, workload, i, out):
    with contextlib.redirect_stdout(io.StringIO()):
        return workload.run(lab, i, out)


def test_certify_rejects_off_by_one_count(lab, tmp_path):
    workload, out = prepare(lab, "certify", tmp_path)
    result = run_op(lab, workload, 0, out)
    workload.check(lab, 0, out, result)
    path = out / "figure1.csv"
    header, row = path.read_text(encoding="utf-8").splitlines()
    fields = row.split(",")
    fields[2] = str(int(fields[2]) + 1)
    path.write_text(header + "\n" + ",".join(fields) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed, match="figure1"):
        workload.check(lab, 0, out, result)


def test_replicas_rejects_mean_shifted_by_ten_standard_errors(lab, tmp_path):
    workload, out = prepare(lab, "replicas_1d", tmp_path)
    run_op(lab, workload, 2, out)
    workload.check(lab, 2, out, None)
    sigma = workload.SIGMAS[2]
    shift = 10.0 * math.sqrt(workload.var[sigma] / workload.R)
    path = out / "finals.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    moved = [f"{r},{float(x) + shift!r}" for r, x in (row.split(",") for row in rows)]
    path.write_text("\n".join([header, *moved]) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed, match="standard errors"):
        workload.check(lab, 2, out, None)


def test_chains_rejects_truncated_trajectory(lab, tmp_path):
    workload, out = prepare(lab, "chains_p100", tmp_path)
    run_op(lab, workload, 1, out)
    workload.check(lab, 1, out, None)
    path = out / "trajectory.csv"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckFailed, match="trajectory.csv"):
        workload.check(lab, 1, out, None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_identical(lab, tmp_path, name):
    workload, out = prepare(lab, name, tmp_path)
    plain = run_op(lab, workload, 3, out)
    plain_files = {f.name: f.read_bytes() for f in out.glob("*.csv")}
    shutil.rmtree(out)
    out.mkdir()
    tracer = Tracer(lab)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            traced = tracer.run_op(3, lambda: workload.run(lab, 3, out))
    finally:
        tracer.uninstall()
    assert plain_files and {f.name: f.read_bytes() for f in out.glob("*.csv")} == plain_files
    assert repr(traced) == repr(plain)
    assert len(tracer.spans) > 7
    assert not hasattr(lab.cli.main, "__wrapped__")


def test_self_time_subtracts_the_union_of_children(lab):
    tracer = Tracer(lab)
    # op 1: root 0..10 > cli.main 1..9 > overlapping loads 2..4 and 3..6
    # op 2: root 20..30 > cli.main 21..22
    for sid, parent, name, op, start, end in [
        (1, 0, "bench.op", 1, 0.0, 10.0),
        (2, 1, "cli.main", 1, 1.0, 9.0),
        (4, 2, "targets.load_target", 1, 3.0, 6.0),
        (3, 2, "targets.load_target", 1, 2.0, 4.0),
        (6, 5, "cli.main", 2, 21.0, 22.0),
        (5, 0, "bench.op", 2, 20.0, 30.0),
    ]:
        tracer.spans.extend((sid, parent, CODE[name], op, start, end, 0))
    metrics = tracer.layer_metrics(ops=2, workers_cap=1, bytes_written=0.0)
    assert metrics["cli.self_s"] == pytest.approx((4.0 + 1.0) / 2)
    assert metrics["targets.load_s"] == pytest.approx(5.0 / 2)
    assert metrics["targets.load_calls"] == 1
    assert metrics["trace.layer_coverage_pct"] == pytest.approx(100.0 * (1 - 11.0 / 21.0))


def bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd or BENCH.parent, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_is_clean(name, trace):
    done = bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = [v["value"] for v in result["metrics"].values()]
    assert all(np.isfinite(values))
    if trace == "0":
        assert all(v > 0 for v in values)
    assert not (BENCH.parent / ".perfbench_work").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spec_names_the_workloads_the_benchmark_runs():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
