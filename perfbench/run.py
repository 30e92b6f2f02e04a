#!/usr/bin/env python3
"""langevin-lab benchmark: seeded closed-loop workloads over the public CLI and API.

Usage (from the repository root):

    python3 perfbench/run.py --workload replicas_1d --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload, one process each

Each workload runs in its own process with one client: the next op
starts when the previous one returns.  The run

1. writes the workload's target JSON files from ``--seed`` into a
   scratch directory inside the checkout (removed at exit);
2. times set-up (``import langevin_lab`` plus ``load_target`` of every
   target) in SETUP_PROBES fresh interpreters and reports the median;
3. imports the program from ``src/``, computes exact references
   (untimed), runs one untimed warm-up op, then runs ops for
   ``--seconds`` seconds, stopping after a whole rotation of op
   variants.  Every op's output is checked after its timing ends;
4. prints every metric by name and unit, an environment record, and as
   its last line a JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.  It exits 1 if any op failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
whole rotations of traced and untraced ops, reports the per-layer
metrics of the traced ones (see tracing.py) and the tracing overhead,
and first proves that tracing leaves op outputs byte-identical.

BLAS threads are pinned so that the program's worker threads times BLAS
threads never exceed the CPUs this process may use.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_work"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("replicas_1d", "chains_p100", "certify")
# Gated end-to-end metrics.  The median op time and the mean rate
# (chain_steps_per_s) are printed but not gated: on a shared 2-CPU VM the
# CPU alternates between fast and slow spells of a few seconds, and over
# ten runs those two spread 0.15-0.3 (IQR/median) with the share of a run
# spent in slow spells, while the 90th percentile, which sits in the slow
# spell, spreads 0.02-0.06.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED_UNITS = {"latency_p50_s": "s", "chain_steps_per_s": "1/s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring window per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for per-layer metrics")
    return ap.parse_args(argv)


def pin_threads() -> dict:
    """Cap worker threads x BLAS threads at the usable CPU count; return the settings."""
    nproc = len(os.sched_getaffinity(0))
    workers = int(os.environ.setdefault("LANGEVIN_LAB_THREADS", str(nproc)))
    blas = max(1, nproc // max(1, workers))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return {"nproc": nproc, "LANGEVIN_LAB_THREADS": workers, "blas_threads_pinned": blas}


def blas_threads_in_use() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return {}
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text(encoding="utf-8").strip() if loose.is_file() else "unknown (packed ref)"


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads_in_use": blas_threads_in_use(),
        **threads,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def import_program() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from langevin_lab import bounds, cli, gaussian_oracle, parallel, planner, sampler, targets, validation

    if Path(cli.__file__).resolve().parent != SRC / "langevin_lab":
        raise RuntimeError(f"langevin_lab was imported from {cli.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        bounds=bounds, cli=cli, gaussian_oracle=gaussian_oracle, parallel=parallel,
        planner=planner, sampler=sampler, targets=targets, validation=validation,
    )


def time_setup(target_paths: list[Path]) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC), *map(str, target_paths)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs ops one at a time in a fresh output directory and counts failures."""

    def __init__(self, workload, lab, out: Path):
        self.workload, self.lab, self.out = workload, lab, out
        self.attempted = 0
        self.failed = 0
        self.result = None
        self.bytes_written = 0

    def attempt(self, i: int, tracer=None):
        """Run and check op i; return its wall time, or None if it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        self.attempted += 1
        sink = io.StringIO()
        call = functools.partial(self.workload.run, self.lab, i, self.out)
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if tracer is None:
                    t0 = perf_counter()
                    result = call()
                    latency = perf_counter() - t0
                else:
                    tracer.install()
                    try:
                        t0 = perf_counter()
                        result = tracer.run_op(i, call)
                        latency = perf_counter() - t0
                    finally:
                        tracer.uninstall()
            self.workload.check(self.lab, i, self.out, result)
        except Exception as exc:  # a failed op is counted and reported; the run goes on
            self.failed += 1
            if self.failed <= 5:
                detail = sink.getvalue().strip().replace("\n", " | ")[-300:]
                print(f"op {i} failed: {type(exc).__name__}: {exc} {detail}", file=sys.stderr)
            return None
        self.result = result
        self.bytes_written = sum(f.stat().st_size for f in self.out.iterdir())
        return latency

    def outputs(self) -> dict[str, bytes]:
        return {f.name: f.read_bytes() for f in sorted(self.out.glob("*.csv"))}


def timed_window(runner: Runner, seconds: float, period: int, step):
    """Call step(i) for i = 1, 2, ... until seconds have passed and i closes a period."""
    start = perf_counter()
    i = 1
    while True:
        step(i)
        if i >= 2 and i % period == 0 and perf_counter() - start >= seconds:
            return i
        i += 1


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple[dict[str, float], int]:
    w = runner.workload
    runner.attempt(0)
    latencies, steps = [], 0

    def step(i):
        nonlocal steps
        latency = runner.attempt(i)
        if latency is not None:
            latencies.append(latency)
            steps += w.steps(i)

    timed_window(runner, seconds, w.rotation, step)
    if len(latencies) < 2:
        return {}, len(latencies)
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "chain_steps_per_s": steps / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, len(latencies)


def per_layer(runner: Runner, seconds: float) -> tuple[dict[str, float], int]:
    from tracing import Tracer, overhead_pct

    w, lab = runner.workload, runner.lab
    # tracing must not change what an op writes or returns
    runner.attempt(0)
    plain = (runner.outputs(), repr(runner.result))
    runner.attempt(0, Tracer(lab))
    if (runner.outputs(), repr(runner.result)) != plain:
        runner.failed += 1
        print("traced op 0 wrote or returned something else than the untraced op", file=sys.stderr)

    tracer = Tracer(lab)
    traced, untraced, written = [], [], []

    def step(i):
        on = ((i - 1) // w.rotation) % 2 == 0
        latency = runner.attempt(i, tracer if on else None)
        if latency is not None:
            (traced if on else untraced).append(latency)
            if on:
                written.append(runner.bytes_written)

    last = timed_window(runner, seconds, 2 * w.rotation, step)
    if not traced or not untraced:
        return {}, 0
    tracemalloc.start()
    tracer.install_memory_probe()
    try:
        for j in range(w.rotation):
            runner.attempt(last + 1 + j)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    metrics = tracer.layer_metrics(len(traced), lab.parallel.thread_cap(), statistics.mean(written))
    metrics["trace.overhead_pct"] = overhead_pct(traced, untraced)
    return metrics, len(traced)


def run_one(args) -> int:
    if not (SRC / "langevin_lab" / "__init__.py").is_file():
        print(f"error: no langevin_lab sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    # numpy (imported by workloads and tracing) must load after the pin
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        scratch.mkdir(parents=True)
        paths = {}
        for name, payload in workload.target_payloads().items():
            paths[name] = scratch / f"{name}.json"
            paths[name].write_text(json.dumps(payload), encoding="utf-8")
        setup_s = time_setup(list(paths.values())) if args.trace == 0 else None
        lab = import_program()
        workload.prepare(lab, paths)
        runner = Runner(workload, lab, scratch / "op")
        if args.trace == 0:
            metrics, ops = end_to_end(runner, args.seconds, setup_s)
            units = END_TO_END_UNITS
        else:
            from tracing import UNITS as units

            metrics, ops = per_layer(runner, args.seconds)
        env = environment(threads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    correct = runner.failed == 0 and bool(metrics)
    print(f"workload {args.workload}, seed {args.seed}, {ops} measured ops of {runner.attempted} attempted")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    for name, unit in PRINTED_UNITS.items():
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:.6g} {unit} (printed, not gated)")
    print(f"  {'error_rate':34s} {runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} ops failed)")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print their results in turn."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
