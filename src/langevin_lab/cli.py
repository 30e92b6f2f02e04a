"""Command line interface.

Subcommands:

  sample    run a chain on a JSON-described target and export it
  bound     evaluate one of the closed-form W2 bounds
  plan      choose (h, K) for a requested precision
  figure1   iteration-count comparison curves across dimensions
  validate  bound-versus-oracle invariant sweep

Every file-producing subcommand writes a ``<output>.manifest.json``
next to its outputs with the parameters, wall time, and sha256 digest
of each file, so results can be traced back to the exact invocation.
Exit codes, set in main alone: 0 on success, 2 for a ValueError (a value
the library refuses; one about a target file starts with its path), 1
for anything else, such as an unreachable precision or a diverging chain.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundInputs, baseline_bound, lmc_bound, noisy_lmc_bound
from .planner import (
    DEFAULT_GRID_SIZE,
    DEFAULT_GRID_SPAN,
    UnreachablePrecisionError,
    figure1_curves,
    plan_for_epsilon,
)
from ._scalars import count, finite, nonnegative, positive
from .sampler import GradientOracle, LmcConfig, final_states, write_trajectory, _replacing, _write_theta_csv
# run_lmc, run_nlmc and trajectory_to_csv are unused here but stay module
# attributes: perfbench/tracing.py patches them by name, so without them
# every `--trace 1` benchmark run stops with AttributeError.  They can go
# once the tracer no longer looks them up.
from .sampler import run_lmc, run_nlmc, trajectory_to_csv  # noqa: F401
from .targets import load_target
from .validation import run_all_checks


def _flag(rule, *bounds):
    """Flag type applying the _scalars rule with these bounds; argparse names the flag.

    A count reads its text with int() first, so "1e308" is no count and a
    seed near 2**64 stays exact.
    """

    def convert(text: str):
        try:
            value = int(text) if rule is count else text
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        try:
            return rule("", value, *bounds)
        except ValueError as exc:  # "<name> must be ..., got ..." with an empty name
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None

    return convert


def _list_of(convert):
    """Comma-separated flag type applying convert to each part."""

    def convert_list(text: str) -> list:
        return [convert(part) for part in text.split(",") if part != ""]

    return convert_list


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    buf = bytearray(1 << 16)  # one fixed 64 KB buffer, whatever the file size
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _write_manifest(anchor: Path, args: argparse.Namespace, outputs: list[Path], started: float) -> Path:
    """Write <anchor>.manifest.json: every parsed flag but --out, wall time and output digests."""
    manifest = {
        "tool": "langevin-lab",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("subcommand", "func", "out")},
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": [
            {"path": out.name, "sha256": _sha256(out)} for out in outputs
        ],
    }
    return _write_json(anchor.with_name(anchor.name + ".manifest.json"), manifest)


def _write_json(path: Path, payload: dict) -> Path:
    """Write payload to path as indented JSON (see _replacing) and return path."""
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return path


def _emit_json(args: argparse.Namespace, payload: dict, started: float) -> int:
    """Print payload as JSON and, with --out, also write it there with its manifest."""
    print(json.dumps(payload, indent=2))
    if args.out is not None:
        out = Path(args.out)
        _write_json(out, payload)
        _write_manifest(out, args, [out], started)
    return 0


# A diverging chain overflows before its noise block ends and then raises
# FloatingPointError, so numpy's overflow and invalid-value warnings, from
# this thread or final_states' workers, would only repeat that error.
@np.errstate(over="ignore", invalid="ignore")
def cmd_sample(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    oracle = GradientOracle(
        mode=args.oracle, sigma=args.sigma, batch=args.batch, noise=args.noise
    )
    config = LmcConfig(h=args.h, K=args.K, seed=args.seed, oracle=oracle)
    target = load_target(args.target)
    initial = np.zeros(target.dim) if args.init is None else args.init

    out = Path(args.out)
    try:
        if args.replicas == 1:
            summary = write_trajectory(target, config, initial, out)
            ran = f"{config.K} steps, dim {target.dim}"
        else:
            finals = final_states(target, config, initial, args.replicas)
            _write_theta_csv(out, "replica", finals, target.dim)
            summary = {
                "dim": target.dim,
                "iterations": config.K,
                "seed": config.seed,
                "oracle": args.oracle,
                "sigma": args.sigma,
                "replicas": args.replicas,
                "final_mean": [float(x) for x in finals.mean(axis=0)],
                "final_variance": [float(x) for x in finals.var(axis=0, ddof=1)],
            }
            ran = f"{args.replicas} replicas, {config.K} steps"
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"{exc} (--h {args.h!r}; the chain is stable only for h < 2/M = {2.0 / target.M:.6g})"
        ) from None
    summary_path = _write_json(out.with_name(out.stem + ".summary.json"), summary)
    manifest = _write_manifest(out, args, [out, summary_path], started)
    print(f"wrote {out} and {summary_path} ({ran}); manifest {manifest}")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inputs = BoundInputs(
        m=args.m, M=args.M, h=args.h, K=args.K, p=args.p, w2_init=args.w2init, sigma=args.sigma
    )
    if args.kind == "lmc":
        payload = lmc_bound(inputs).as_dict()
    elif args.kind == "noisy":
        payload = noisy_lmc_bound(inputs).as_dict()
    else:
        payload = {"value": baseline_bound(inputs)}
    return _emit_json(args, payload, started)


def cmd_plan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    plan = plan_for_epsilon(args.m, args.M, args.p, args.w2init, args.eps)
    return _emit_json(args, plan.as_dict(), started)


def cmd_figure1(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    points = figure1_curves(
        m=args.m,
        M=args.M,
        epsilons=args.eps,
        p_values=args.p_values,
        grid_size=args.grid_size,
        span=args.span,
    )
    out = Path(args.out)
    header = "p,epsilon,k_lmc,k_baseline,log10_k_lmc,log10_k_baseline,ratio"
    with _replacing(out) as fh:
        fh.write(header + "\n")
        for point in points:
            log_l = math.log10(point.k_lmc) if point.k_lmc > 0 else math.nan
            log_b = math.log10(point.k_baseline) if point.k_baseline > 0 else math.nan
            fh.write(
                f"{point.p},{point.epsilon!r},{point.k_lmc},{point.k_baseline},"
                f"{log_l!r},{log_b!r},{point.ratio!r}\n"
            )
    manifest = _write_manifest(out, args, [out], started)
    print(f"wrote {out} ({len(points)} points); manifest {manifest}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_all_checks(seed=args.seed)
    for result in results:
        print(result)
    if all(r.passed for r in results):
        print("all checks passed")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langevin-lab",
        description="Langevin Monte Carlo with computable Wasserstein-2 guarantees",
    )
    parser.add_argument("--version", action="version", version=f"langevin-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sample = sub.add_parser("sample", help="run a chain and export the trajectory or finals")
    p_sample.add_argument("--target", required=True, help="path to a JSON target description")
    p_sample.add_argument("--h", required=True, type=_flag(positive), help="step size")
    p_sample.add_argument("--K", required=True, type=_flag(count), help="iteration count")
    p_sample.add_argument("--seed", type=_flag(count), default=0, help="stream seed")
    p_sample.add_argument("--sigma", type=_flag(nonnegative), default=0.0, help="gradient noise scale")
    p_sample.add_argument(
        "--oracle",
        choices=("exact", "gaussian", "subsampled"),
        default="exact",
        help="gradient oracle",
    )
    p_sample.add_argument(
        "--noise",
        choices=("gaussian", "rademacher"),
        default="gaussian",
        help="law of the additive gradient noise",
    )
    p_sample.add_argument("--batch", type=_flag(count, 1), default=1, help="subsample size")
    p_sample.add_argument("--replicas", type=_flag(count, 1), default=1, help="independent chains")
    p_sample.add_argument("--init", type=_list_of(_flag(finite)), default=None, help="comma-separated start")
    p_sample.add_argument("--out", default="sample.csv", help="output CSV path")
    p_sample.set_defaults(func=cmd_sample)

    p_bound = sub.add_parser("bound", help="evaluate a closed-form W2 bound")
    p_bound.add_argument("--kind", choices=("lmc", "noisy", "baseline"), default="lmc")
    p_bound.add_argument("--m", required=True, type=_flag(positive), help="strong convexity")
    p_bound.add_argument("--M", required=True, type=_flag(positive), help="gradient Lipschitz")
    p_bound.add_argument("--h", required=True, type=_flag(positive), help="step size")
    p_bound.add_argument("--K", required=True, type=_flag(count), help="iteration count")
    p_bound.add_argument("--p", required=True, type=_flag(count, 1), help="dimension")
    p_bound.add_argument("--w2init", required=True, type=_flag(nonnegative), help="initial W2")
    p_bound.add_argument("--sigma", type=_flag(nonnegative), default=0.0, help="gradient noise scale")
    p_bound.add_argument("--out", default=None, help="optional JSON output path")
    p_bound.set_defaults(func=cmd_bound)

    p_plan = sub.add_parser("plan", help="choose (h, K) for a requested precision")
    p_plan.add_argument("--m", required=True, type=_flag(positive), help="strong convexity")
    p_plan.add_argument("--M", required=True, type=_flag(positive), help="gradient Lipschitz")
    p_plan.add_argument("--p", required=True, type=_flag(count, 1), help="dimension")
    p_plan.add_argument("--eps", required=True, type=_flag(positive), help="target W2 precision")
    p_plan.add_argument("--w2init", required=True, type=_flag(nonnegative), help="initial W2")
    p_plan.add_argument("--out", default=None, help="optional JSON output path")
    p_plan.set_defaults(func=cmd_plan)

    p_fig = sub.add_parser("figure1", help="iteration-count comparison curves")
    p_fig.add_argument("--m", type=_flag(positive), default=4.0, help="strong convexity")
    p_fig.add_argument("--M", type=_flag(positive), default=5.0, help="gradient Lipschitz")
    p_fig.add_argument("--eps", type=_list_of(_flag(positive)), default=(0.1, 0.3),
                       help="comma-separated precisions")
    p_fig.add_argument("--p-values", type=_list_of(_flag(count, 1)), default=(10, 100, 1000, 10000),
                       help="comma-separated dimensions")
    p_fig.add_argument("--grid-size", type=_flag(count, 1), default=DEFAULT_GRID_SIZE,
                       help="step-grid resolution")
    p_fig.add_argument("--span", type=_flag(positive), default=DEFAULT_GRID_SPAN,
                       help="ratio between largest and smallest grid step")
    p_fig.add_argument("--out", default="figure1.csv", help="output CSV path")
    p_fig.set_defaults(func=cmd_figure1)

    p_val = sub.add_parser("validate", help="bound-versus-oracle invariant sweep")
    p_val.add_argument("--seed", type=_flag(count, 0, 2**64), default=0, help="sweep seed")
    p_val.set_defaults(func=cmd_validate)

    return parser


# Built on first use, not at import, and reused by every later call:
# parsing never mutates it, and its list defaults are immutable tuples.
@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # the module docstring states the exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) and not isinstance(exc, UnreachablePrecisionError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
