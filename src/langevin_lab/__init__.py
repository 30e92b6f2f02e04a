"""Langevin Monte Carlo with computable Wasserstein-2 guarantees.

The pieces fit together like this: ``targets`` describes the densities
(strongly convex potential plus curvature constants), ``sampler`` runs
the chains, ``bounds`` evaluates closed-form W2 error guarantees,
``planner`` inverts them into (step size, iteration count) choices,
``gaussian_oracle`` supplies exact reference laws on quadratic targets,
and ``validation`` sweeps the bounds against that reference.

Each name in ``__all__`` is imported from its submodule on first use,
so ``import langevin_lab`` loads none of them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundInputs", "BoundReport", "LARGE_STEP", "SMALL_STEP", "baseline_bound", "contraction_factor",
        "init_w2_from_f", "init_w2_from_mean", "lmc_bound", "noisy_lmc_bound",
    ),
    "gaussian_oracle": (
        "GaussianMoments", "empirical_w2_1d", "gaussian_w2", "moments_after_k", "point_mass",
        "stationary_moments", "w2_init_exact",
    ),
    "planner": (
        "CurvePoint", "Plan", "UnreachablePrecisionError", "default_h_grid", "figure1_curves",
        "minimal_k_baseline", "minimal_k_lmc", "plan_for_epsilon",
    ),
    "sampler": (
        "GradientOracle", "LmcConfig", "Trajectory", "final_states", "gradient_descent", "lmc_step",
        "noise_stream", "oracle_gradient", "run_lmc", "run_nlmc", "run_tempered_lmc",
    ),
    "targets": (
        "QuadraticSpec", "SumStructure", "TargetPotential", "check_curvature", "custom_target",
        "load_target", "logistic_target", "quadratic_target", "target_from_dict", "temper",
    ),
}


def _lazy_getattr(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` (PEP 562) for namespace serving the names in exports.

    exports maps a submodule of this package to the names taken from it.
    The first lookup of a name imports its submodule and binds the name in
    namespace, so later lookups, and any rebinding of the name, bypass
    ``__getattr__``.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{home[name]}"), name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _EXPORTS)
__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
