"""Outside-in tracing of langevin-lab for the benchmark's traced runs.

``Tracer.install`` swaps public functions for timed wrappers at the
module attributes the program calls them through (``cli.final_states``,
``sampler.noise_stream``, ``planner.lmc_value_small_step``, ...), and
``uninstall`` puts the originals back, so untraced ops run the pristine
program.  The program's source is not touched, and wrappers call the
originals with the same arguments, so outputs do not change.

Each wrapped call records a span (id, parent, name, op, start, end,
amount) into one flat in-memory array that is read when the run ends.
``amount`` is the span's work count: rows of a gradient batch, values
drawn, grid points of a bound evaluation, steps of a moment recursion.
Worker threads inherit the span that called ``parallel_map`` as their
parent.  A span's self time is its duration minus the part of it that
its children cover; per-layer ``_s`` metrics sum self times over all
threads.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import statistics
import threading
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

ROOT = "bench.op"

# span name -> per-layer metric that receives its self time
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.trajectory_csv": "cli.trajectory_csv_s",
    "targets.load_target": "targets.load_s",
    "targets.grad": "targets.grad_s",
    "targets.obs_grad": "targets.obs_grad_s",
    "sampler.final_states": "sampler.self_s",
    "sampler.run_chain": "sampler.self_s",
    "sampler.parallel_map": "sampler.self_s",
    "sampler.block": "sampler.self_s",
    "sampler.noise_stream": "sampler.stream_setup_s",
    "sampler.draw": "sampler.noise_draw_s",
    "bounds.vector": "bounds.vector_s",
    "bounds.scalar": "bounds.scalar_s",
    "planner.figure1": "planner.self_s",
    "planner.search": "planner.self_s",
    "planner.parallel_map": "planner.self_s",
    "planner.item": "planner.self_s",
    "gaussian_oracle.moments": "gaussian_oracle.moments_s",
    "gaussian_oracle.w2": "gaussian_oracle.w2_s",
    "gaussian_oracle.law_build": "gaussian_oracle.law_build_s",
    "gaussian_oracle.law_ctor": "gaussian_oracle.law_build_s",
    "validation.sweep": "validation.self_s",
}
NAMES = [ROOT, *SELF_METRIC]
CODE = {name: float(i) for i, name in enumerate(NAMES)}

# inclusive span durations, children included
INCLUSIVE_METRIC = {
    "sampler.final_states": "sampler.final_states_s",
    "sampler.run_chain": "sampler.run_chain_s",
    "planner.search": "planner.search_s",
    "validation.sweep": "validation.sweep_s",
}
# metric -> (span name, "calls" for the span count or "amount" for summed work)
COUNT_METRIC = {
    "targets.load_calls": ("targets.load_target", "calls"),
    "targets.grad_calls": ("targets.grad", "calls"),
    "targets.grad_rows": ("targets.grad", "amount"),
    "targets.obs_grad_calls": ("targets.obs_grad", "calls"),
    "sampler.streams_opened": ("sampler.noise_stream", "calls"),
    "sampler.noise_values": ("sampler.draw", "amount"),
    "sampler.noise_draw_calls": ("sampler.draw", "calls"),
    "sampler.blocks": ("sampler.block", "calls"),
    "bounds.vector_calls": ("bounds.vector", "calls"),
    "bounds.grid_points": ("bounds.vector", "amount"),
    "bounds.scalar_calls": ("bounds.scalar", "calls"),
    "planner.searches": ("planner.search", "calls"),
    "gaussian_oracle.moment_steps": ("gaussian_oracle.moments", "amount"),
    "gaussian_oracle.w2_calls": ("gaussian_oracle.w2", "calls"),
    "gaussian_oracle.law_builds": ("gaussian_oracle.law_build", "calls"),
    "validation.cells": ("validation.sweep", "amount"),
}
# metric -> unit, in the order results are printed
UNITS = {
    "cli.self_s": "s",
    "cli.trajectory_csv_s": "s",
    "cli.bytes_written": "bytes",
    "targets.load_s": "s",
    "targets.load_calls": "count",
    "targets.grad_s": "s",
    "targets.grad_calls": "count",
    "targets.grad_rows": "count",
    "targets.obs_grad_s": "s",
    "targets.obs_grad_calls": "count",
    "sampler.streams_opened": "count",
    "sampler.stream_setup_s": "s",
    "sampler.noise_values": "count",
    "sampler.noise_draw_calls": "count",
    "sampler.noise_draw_s": "s",
    "sampler.noise_values_per_step": "count",
    "sampler.final_states_s": "s",
    "sampler.run_chain_s": "s",
    "sampler.self_s": "s",
    "sampler.blocks": "count",
    "sampler.workers": "count",
    "sampler.peak_traced_mb": "MB",
    "bounds.vector_calls": "count",
    "bounds.grid_points": "count",
    "bounds.vector_s": "s",
    "bounds.scalar_calls": "count",
    "bounds.scalar_s": "s",
    "planner.searches": "count",
    "planner.search_s": "s",
    "planner.self_s": "s",
    "planner.grid_points_per_search": "count",
    "gaussian_oracle.moment_steps": "count",
    "gaussian_oracle.moments_s": "s",
    "gaussian_oracle.w2_calls": "count",
    "gaussian_oracle.w2_s": "s",
    "gaussian_oracle.law_builds": "count",
    "gaussian_oracle.law_build_s": "s",
    "validation.cells": "count",
    "validation.sweep_s": "s",
    "validation.self_s": "s",
    "trace.layer_coverage_pct": "%",
    "trace.overhead_pct": "%",
}


# work counts: each takes the wrapped call's arguments and result
def _result_size(args, result) -> int:
    return int(np.size(result))


def _batch_rows(args, result) -> int:
    return 1 if np.ndim(args[0]) <= 1 else len(args[0])


def _grid_size(args, result) -> int:
    return int(np.size(args[2]))


class _TracedGenerator:
    """A noise stream whose draws are recorded as ``sampler.draw`` spans."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def _draw(self, method, args, kwargs):
        return self._tracer.call("sampler.draw", getattr(self._gen, method), args, kwargs, amount=_result_size)

    def standard_normal(self, *args, **kwargs):
        return self._draw("standard_normal", args, kwargs)

    def integers(self, *args, **kwargs):
        return self._draw("integers", args, kwargs)

    def choice(self, *args, **kwargs):
        return self._draw("choice", args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Span recorder plus the wrappers it installs into the program."""

    def __init__(self, lab):
        self.lab = lab
        self.spans = array("d")
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.peak_bytes = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, amount=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            n = amount(args, result) if amount is not None and result is not None else 0
            # one C-level extend per span keeps records whole across threads
            self.spans.extend((sid, parent, CODE[name], self.op, t0, t1, n))

    def wrap(self, name, fn, amount=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, amount)

        return traced

    def run_op(self, op: int, fn):
        """Run fn() as op number op under a root span."""
        self.op = op
        return self.call(ROOT, fn, (), {})

    # -- wrappers that need more than timing --------------------------------

    def _load_target(self, load):
        def traced_load(*args, **kwargs):
            target = self.call("targets.load_target", load, args, kwargs)
            parts = target.parts
            if parts is not None:
                obs = self.wrap("targets.obs_grad", parts.obs_grad, amount=lambda a, r: len(a[1]))
                parts = dataclasses.replace(parts, obs_grad=obs)
            grad = self.wrap("targets.grad", target.grad, amount=_batch_rows)
            return dataclasses.replace(target, grad=grad, parts=parts)

        return traced_load

    def _noise_stream(self, make):
        def traced_stream(*args, **kwargs):
            return _TracedGenerator(self.call("sampler.noise_stream", make, args, kwargs), self)

        return traced_stream

    def _parallel_map(self, name, item_name, pmap):
        def traced_map(fn, items):
            def run(items):
                parent = self._stack()[-1]

                def item(x):
                    stack = self._stack()
                    saved = stack[:]
                    stack[:] = [parent]
                    try:
                        return self.call(item_name, fn, (x,), {})
                    finally:
                        stack[:] = saved

                return pmap(item, items)

            return self.call(name, run, (list(items),), {}, amount=lambda a, r: len(a[0]))

        return traced_map

    # -- install / uninstall -----------------------------------------------

    def _patches(self):
        lab = self.lab
        cli, sampler, planner = lab.cli, lab.sampler, lab.planner
        validation, oracle = lab.validation, lab.gaussian_oracle
        w = self.wrap
        law = oracle.GaussianMoments
        return [
            (cli, "main", w("cli.main", cli.main)),
            (cli, "trajectory_to_csv", w("cli.trajectory_csv", cli.trajectory_to_csv)),
            (cli, "load_target", self._load_target(cli.load_target)),
            (cli, "final_states", w("sampler.final_states", cli.final_states,
                                    amount=lambda a, r: a[3] * a[1].K * a[0].dim)),
            (cli, "run_lmc", w("sampler.run_chain", cli.run_lmc, amount=lambda a, r: a[1].K * a[0].dim)),
            (cli, "run_nlmc", w("sampler.run_chain", cli.run_nlmc, amount=lambda a, r: a[1].K * a[0].dim)),
            (cli, "figure1_curves", w("planner.figure1", cli.figure1_curves)),
            (sampler, "noise_stream", self._noise_stream(sampler.noise_stream)),
            (sampler, "parallel_map", self._parallel_map("sampler.parallel_map", "sampler.block", sampler.parallel_map)),
            (planner, "parallel_map", self._parallel_map("planner.parallel_map", "planner.item", planner.parallel_map)),
            (planner, "minimal_k_lmc", w("planner.search", planner.minimal_k_lmc)),
            (planner, "minimal_k_baseline", w("planner.search", planner.minimal_k_baseline)),
            (planner, "lmc_value_small_step", w("bounds.vector", planner.lmc_value_small_step,
                                                amount=_grid_size)),
            (planner, "baseline_value", w("bounds.vector", planner.baseline_value,
                                          amount=_grid_size)),
            (planner, "lmc_bound", w("bounds.scalar", planner.lmc_bound)),
            (validation, "lmc_bound", w("bounds.scalar", validation.lmc_bound)),
            (validation, "noisy_lmc_bound", w("bounds.scalar", validation.noisy_lmc_bound)),
            (validation, "check_lmc_bound_validity", w("validation.sweep", validation.check_lmc_bound_validity,
                                                       amount=lambda a, r: r.cells)),
            (validation, "gaussian_w2", w("gaussian_oracle.w2", validation.gaussian_w2)),
            (validation, "stationary_moments", w("gaussian_oracle.law_ctor", validation.stationary_moments)),
            (oracle, "gaussian_w2", w("gaussian_oracle.w2", oracle.gaussian_w2)),
            (oracle, "stationary_moments", w("gaussian_oracle.law_ctor", oracle.stationary_moments)),
            (oracle, "point_mass", w("gaussian_oracle.law_ctor", oracle.point_mass)),
            (oracle, "moments_after_k", w("gaussian_oracle.moments", oracle.moments_after_k,
                                          amount=lambda a, r: int(a[3]))),
            (law, "__post_init__", w("gaussian_oracle.law_build", law.__post_init__)),
        ]

    def install(self) -> None:
        for owner, attr, wrapper in self._patches():
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install_memory_probe(self) -> None:
        """Record the peak traced allocation inside each sampler call."""
        cli = self.lab.cli

        def probe(fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - base)

            return probed

        for attr in ("final_states", "run_lmc", "run_nlmc"):
            original = getattr(cli, attr)
            self._saved.append((cli, attr, original))
            setattr(cli, attr, probe(original))

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, ops: int, workers_cap: int, bytes_written: float) -> dict[str, float]:
        """Per-op layer metrics over the ops recorded so far."""
        rec = np.frombuffer(self.spans, dtype=float).reshape(-1, 7)
        sid, parent, code, amount = rec[:, 0], rec[:, 1], rec[:, 2], rec[:, 6]
        start, end = rec[:, 4] - rec[:, 4].min(), rec[:, 5] - rec[:, 4].min()
        duration = end - start
        # child intervals clipped to their parent, sorted by parent then start
        by_id = np.argsort(sid)
        kids = np.flatnonzero(parent > 0)
        owner = by_id[np.searchsorted(sid[by_id], parent[kids])]
        a = np.maximum(start[kids], start[owner])
        b = np.minimum(end[kids], end[owner])
        order = np.lexsort((a, owner))
        owner, a, b = owner[order], a[order], b[order]
        # shift each parent's children past the previous parent's, so one running
        # maximum of interval ends serves every group; the union length is then
        # the sum over intervals of the part beyond the furthest end before it
        group = np.cumsum(np.diff(owner, prepend=owner[:1]) != 0)
        shift = group * (float(end.max()) + 1.0)
        reach = np.maximum.accumulate(b + shift)
        before = np.concatenate(([-np.inf], reach[:-1]))
        gain = np.maximum(0.0, b + shift - np.maximum(a + shift, before))
        covered = np.bincount(owner, weights=gain, minlength=len(rec))
        self_time = duration - covered

        def select(name):
            return code == CODE[name]

        out = {name: 0.0 for name in UNITS}
        for name, metric in SELF_METRIC.items():
            out[metric] += float(self_time[select(name)].sum())
        for name, metric in INCLUSIVE_METRIC.items():
            out[metric] = float(duration[select(name)].sum())
        for metric, (name, kind) in COUNT_METRIC.items():
            mask = select(name)
            out[metric] = float(mask.sum() if kind == "calls" else amount[mask].sum())
        for metric in out:
            out[metric] /= ops
        maps = amount[select("sampler.parallel_map")]
        out["sampler.workers"] = float(np.minimum(maps, workers_cap).mean()) if maps.size else 0.0
        coordinate_steps = float(amount[select("sampler.final_states") | select("sampler.run_chain")].sum()) / ops
        out["sampler.noise_values_per_step"] = out["sampler.noise_values"] / coordinate_steps if coordinate_steps else 0.0
        if out["planner.searches"]:
            out["planner.grid_points_per_search"] = out["bounds.grid_points"] / out["planner.searches"]
        out["sampler.peak_traced_mb"] = self.peak_bytes / 2**20
        out["cli.bytes_written"] = bytes_written
        total = float(self_time.sum())
        out["trace.layer_coverage_pct"] = 100.0 * (1.0 - float(self_time[select(ROOT)].sum()) / total)
        return out


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Traced-versus-untraced median op time, as a percentage of the untraced median."""
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base
