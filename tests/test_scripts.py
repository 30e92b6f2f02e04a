"""The experiment scripts under scripts/ run end to end on small inputs."""

import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]
RUNS = {
    # eps = 5 certifies with K_lmc = 0 at p = 1 and 10, whose ratio the table must print
    "iteration_ratio_table.py": ["--dims", "1,10", "--eps", "5,0.3", "--grid-size", "1000"],
    "bound_vs_exact_error.py": ["--p", "1", "--replicas", "200", "--checkpoints", "1,5"],
    "noise_floor_sweep.py": ["--K", "20", "--replicas", "500", "--sigmas", "0,1"],
    "power_crosscheck.py": ["--n", "40000", "--seed", "0"],
    "expit_crosscheck.py": ["--n", "40000", "--seed", "0"],
}


def test_experiment_scripts_exit_zero():
    env = subprocess_env()
    procs = {  # side by side: most spend their time importing scipy
        name: subprocess.Popen([sys.executable, str(ROOT / "scripts" / name), *argv], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, argv in RUNS.items()
    }
    outputs = {}
    for name, proc in procs.items():
        outputs[name], err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (name, err)
    assert "ratio range: 1.000 .. inf" in outputs["iteration_ratio_table.py"]
    assert "identical to np.power" in outputs["power_crosscheck.py"]
    assert "within 4 ulps of scipy" in outputs["expit_crosscheck.py"]
