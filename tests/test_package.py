"""The package's public names, and what importing it loads.

``__all__`` is one list; each name is its submodule's own object, bound on
first use.  ``import langevin_lab.cli`` and ``load_target`` load only the
CLI, ``targets`` and ``_scalars``: a command imports the rest when it runs.
"""

import importlib
import json
import subprocess
import sys

import pytest

import langevin_lab
from conftest import subprocess_env

API = {
    "bounds": ["BoundInputs", "BoundReport", "LARGE_STEP", "SMALL_STEP", "baseline_bound", "contraction_factor",
               "init_w2_from_f", "init_w2_from_mean", "lmc_bound", "noisy_lmc_bound"],
    "gaussian_oracle": ["GaussianMoments", "empirical_w2_1d", "gaussian_w2", "moments_after_k", "point_mass",
                        "stationary_moments", "w2_init_exact"],
    "planner": ["CurvePoint", "Plan", "UnreachablePrecisionError", "default_h_grid", "figure1_curves",
                "minimal_k_baseline", "minimal_k_lmc", "plan_for_epsilon"],
    "sampler": ["GradientOracle", "LmcConfig", "Trajectory", "final_states", "gradient_descent", "lmc_step",
                "noise_stream", "oracle_gradient", "run_lmc", "run_nlmc", "run_tempered_lmc"],
    "targets": ["QuadraticSpec", "SumStructure", "TargetPotential", "check_curvature", "custom_target",
                "load_target", "logistic_target", "quadratic_target", "target_from_dict", "temper"],
}


def test_all_lists_the_api_in_order():
    assert langevin_lab.__all__ == ["__version__", *(name for names in API.values() for name in names)]


def test_every_name_is_its_submodule_object_by_every_route():
    assert set(langevin_lab.__all__) <= set(dir(langevin_lab))
    namespace = {}
    exec("from langevin_lab import *", namespace)
    assert namespace["__version__"] == langevin_lab.__version__
    for module, names in API.items():
        source = importlib.import_module(f"langevin_lab.{module}")
        for name in names:
            assert namespace[name] is getattr(source, name) is getattr(langevin_lab, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'langevin_lab' has no attribute 'no_such_name'"):
        langevin_lab.no_such_name
    with pytest.raises(AttributeError, match="module 'langevin_lab.cli' has no attribute 'no_such_name'"):
        importlib.import_module("langevin_lab.cli").no_such_name


_LOADED = """
import sys
import langevin_lab{module}

for path in sys.argv[1:]:
    langevin_lab.targets.load_target(path)
print(set(langevin_lab.__all__) <= set(dir(langevin_lab)),
      *sorted(name for name in sys.modules
              if name.split(".")[0] == "langevin_lab"
              or name in ("numpy.random", "concurrent.futures", "hashlib", "argparse")))
"""


def loaded(module: str, *targets: str) -> list[str]:
    """Whether dir() lists __all__, then the modules of interest loaded after
    `import langevin_lab<module>` and load_target of targets."""
    if targets:
        module += ", langevin_lab.targets"
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(module=module), *targets],
                          capture_output=True, text=True, timeout=60, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_bare_import_loads_no_submodule_yet_dir_lists_the_api():
    assert loaded("") == ["True", "langevin_lab"]


def test_loading_targets_through_the_cli_loads_no_command_code(tmp_path):
    # what the benchmark's set-up probe times: the CLI import plus load_target of each target
    quad, logit = tmp_path / "quad.json", tmp_path / "logit.json"
    quad.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 1.0], "precision": [[2.0, 0.0], [0.0, 3.0]]}))
    logit.write_text(json.dumps({"type": "logistic", "X": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]],
                                 "y": [0, 1, 1, 0], "ridge": 0.5}))
    assert loaded(".cli", str(quad), str(logit)) == [
        "True", "langevin_lab", "langevin_lab._scalars", "langevin_lab.cli", "langevin_lab.targets"]
