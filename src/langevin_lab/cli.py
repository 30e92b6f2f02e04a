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
Every file, manifests included, is written by ``outputs``, and so is
every summary: ``sample`` only picks the writer and the sampler call.
Exit codes, set in main alone: 0 on success, 2 for a ValueError (a value
the library refuses; one about a target file starts with its path), 1
for anything else, such as an unreachable precision or a diverging chain.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, _lazy_getattr

if TYPE_CHECKING:
    import argparse

# The library names the commands call, by module.  A command looks each one
# up on this module, _cli, when it runs, and the first lookup imports the
# name's module: `import langevin_lab.cli` loads none of them, and a name
# rebound here is the one the commands call.  perfbench/tracing.py rebinds
# run_lmc, run_nlmc and trajectory_to_csv too, so they stay listed although
# no command calls them.
__getattr__ = _lazy_getattr(globals(), {
    "bounds": ("BoundInputs", "baseline_bound", "lmc_bound", "noisy_lmc_bound"),
    "planner": ("DEFAULT_GRID_SIZE", "DEFAULT_GRID_SPAN", "UnreachablePrecisionError", "figure1_curves",
                "plan_for_epsilon"),
    "outputs": ("json_text", "trajectory_to_csv", "write_figure1_csv", "write_finals", "write_json",
                "write_manifest", "write_trajectory"),
    "sampler": ("GradientOracle", "LmcConfig", "chain_states", "final_states", "run_lmc", "run_nlmc"),
    "targets": ("load_target",),
    "validation": ("run_all_checks",),
})
_cli = sys.modules[__name__]


def _list_of(convert):
    """Comma-separated flag type applying convert to each part."""

    def convert_list(text: str) -> list:
        return [convert(part) for part in text.split(",") if part != ""]

    convert_list.__name__ = f"comma-separated {convert.__name__}"  # argparse's "invalid ... value"
    return convert_list


def _emit_json(args: argparse.Namespace, payload: dict, started: float) -> int:
    """Print payload as strict JSON and, with --out, also write it there with its manifest."""
    print(_cli.json_text(payload))
    if args.out is not None:
        out = Path(args.out)
        _cli.write_json(out, payload)
        _cli.write_manifest(out, args, [out], started)
    return 0


# A diverging chain overflows before its noise block ends and then raises
# FloatingPointError, so numpy's overflow and invalid-value warnings, from
# this thread or final_states' workers, would only repeat that error.
@np.errstate(over="ignore", invalid="ignore")
def cmd_sample(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    oracle = _cli.GradientOracle(
        mode=args.oracle, sigma=args.sigma, batch=args.batch, noise=args.noise
    )
    config = _cli.LmcConfig(h=args.h, K=args.K, seed=args.seed, oracle=oracle)
    target = _cli.load_target(args.target)
    initial = np.zeros(target.dim) if args.init is None else args.init

    out = Path(args.out)
    try:
        if args.replicas == 1:
            summary = _cli.write_trajectory(out, config, _cli.chain_states(target, config, initial), target.dim)
            ran = f"{config.K} steps, dim {target.dim}"
        else:
            summary = _cli.write_finals(out, config, _cli.final_states(target, config, initial, args.replicas))
            ran = f"{args.replicas} replicas, {config.K} steps"
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"{exc} (--h {args.h!r}; the chain is stable only for h < 2/M = {2.0 / target.M:.6g})"
        ) from None
    summary_path = _cli.write_json(out.with_name(out.stem + ".summary.json"), summary)
    manifest = _cli.write_manifest(out, args, [out, summary_path], started)
    print(f"wrote {out} and {summary_path} ({ran}); manifest {manifest}")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inputs = _cli.BoundInputs(
        m=args.m, M=args.M, h=args.h, K=args.K, p=args.p, w2_init=args.w2init, sigma=args.sigma
    )
    if args.kind == "lmc":
        payload = _cli.lmc_bound(inputs).as_dict()
    elif args.kind == "noisy":
        payload = _cli.noisy_lmc_bound(inputs).as_dict()
    else:
        payload = {"value": _cli.baseline_bound(inputs)}
    return _emit_json(args, payload, started)


def cmd_plan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    plan = _cli.plan_for_epsilon(args.m, args.M, args.p, args.w2init, args.eps)
    return _emit_json(args, plan.as_dict(), started)


def cmd_figure1(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.grid_size is None:
        args.grid_size = _cli.DEFAULT_GRID_SIZE
    if args.span is None:
        args.span = _cli.DEFAULT_GRID_SPAN
    points = _cli.figure1_curves(
        m=args.m,
        M=args.M,
        epsilons=args.eps,
        p_values=args.p_values,
        grid_size=args.grid_size,
        span=args.span,
    )
    out = Path(args.out)
    _cli.write_figure1_csv(out, points)
    manifest = _cli.write_manifest(out, args, [out], started)
    print(f"wrote {out} ({len(points)} points); manifest {manifest}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = _cli.run_all_checks(seed=args.seed)
    for result in results:
        print(result)
    if all(r.passed for r in results):
        print("all checks passed")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="langevin-lab",
        description="Langevin Monte Carlo with computable Wasserstein-2 guarantees",
    )
    parser.add_argument("--version", action="version", version=f"langevin-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sample = sub.add_parser("sample", help="run a chain and export the trajectory or finals")
    p_sample.add_argument("--target", required=True, help="path to a JSON target description")
    p_sample.add_argument("--h", required=True, type=float, help="step size")
    p_sample.add_argument("--K", required=True, type=int, help="iteration count")
    p_sample.add_argument("--seed", type=int, default=0, help="stream seed")
    p_sample.add_argument("--sigma", type=float, default=0.0, help="gradient noise scale")
    # GradientOracle checks the oracle and noise names, and the error lists the options
    p_sample.add_argument("--oracle", default="exact", help="gradient oracle: exact, gaussian or subsampled")
    p_sample.add_argument("--noise", default="gaussian", help="law of the gradient noise: gaussian or rademacher")
    p_sample.add_argument("--batch", type=int, default=1, help="subsample size")
    p_sample.add_argument("--replicas", type=int, default=1, help="independent chains")
    p_sample.add_argument("--init", type=_list_of(float), default=None, help="comma-separated start")
    p_sample.add_argument("--out", default="sample.csv", help="output CSV path")
    p_sample.set_defaults(func=cmd_sample)

    p_bound = sub.add_parser("bound", help="evaluate a closed-form W2 bound")
    p_bound.add_argument("--kind", choices=("lmc", "noisy", "baseline"), default="lmc")
    p_bound.add_argument("--m", required=True, type=float, help="strong convexity")
    p_bound.add_argument("--M", required=True, type=float, help="gradient Lipschitz")
    p_bound.add_argument("--h", required=True, type=float, help="step size")
    p_bound.add_argument("--K", required=True, type=int, help="iteration count")
    p_bound.add_argument("--p", required=True, type=int, help="dimension")
    p_bound.add_argument("--w2init", required=True, type=float, help="initial W2")
    p_bound.add_argument("--sigma", type=float, default=0.0, help="gradient noise scale")
    p_bound.add_argument("--out", default=None, help="optional JSON output path")
    p_bound.set_defaults(func=cmd_bound)

    p_plan = sub.add_parser("plan", help="choose (h, K) for a requested precision")
    p_plan.add_argument("--m", required=True, type=float, help="strong convexity")
    p_plan.add_argument("--M", required=True, type=float, help="gradient Lipschitz")
    p_plan.add_argument("--p", required=True, type=int, help="dimension")
    p_plan.add_argument("--eps", required=True, type=float, help="target W2 precision")
    p_plan.add_argument("--w2init", required=True, type=float, help="initial W2")
    p_plan.add_argument("--out", default=None, help="optional JSON output path")
    p_plan.set_defaults(func=cmd_plan)

    p_fig = sub.add_parser("figure1", help="iteration-count comparison curves")
    p_fig.add_argument("--m", type=float, default=4.0, help="strong convexity")
    p_fig.add_argument("--M", type=float, default=5.0, help="gradient Lipschitz")
    p_fig.add_argument("--eps", type=_list_of(float), default=(0.1, 0.3),
                       help="comma-separated precisions")
    p_fig.add_argument("--p-values", type=_list_of(int), default=(10, 100, 1000, 10000),
                       help="comma-separated dimensions")
    # None stands for the planner's defaults, which cmd_figure1 fills in
    # before the manifest records them, so parsing does not import the planner
    p_fig.add_argument("--grid-size", type=int, default=None, help="step-grid resolution")
    p_fig.add_argument("--span", type=float, default=None,
                       help="ratio between largest and smallest grid step")
    p_fig.add_argument("--out", default="figure1.csv", help="output CSV path")
    p_fig.set_defaults(func=cmd_figure1)

    p_val = sub.add_parser("validate", help="bound-versus-oracle invariant sweep")
    p_val.add_argument("--seed", type=int, default=0, help="sweep seed")
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
        return 2 if isinstance(exc, ValueError) and not isinstance(exc, _cli.UnreachablePrecisionError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
