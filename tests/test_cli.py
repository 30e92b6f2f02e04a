import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from langevin_lab import __version__
from langevin_lab.cli import _json_text, build_parser, main
from langevin_lab.sampler import GradientOracle, LmcConfig, final_states, run_lmc
from langevin_lab.gaussian_oracle import gaussian_w2, moments_after_k, stationary_moments, w2_init_exact
from langevin_lab.planner import CurvePoint
from langevin_lab.targets import QuadraticSpec, load_target


@pytest.fixture
def quad_target_file(tmp_path):
    spec = {
        "type": "quadratic",
        "mean": [1.0, -1.0],
        "precision": [[2.0, 0.5], [0.5, 1.0]],
    }
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def logit_target_file(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    spec = {
        "type": "logistic",
        "X": rng.standard_normal((8, 2)).tolist(),
        "y": [0, 1, 0, 1, 1, 0, 1, 0],
        "ridge": 0.5,
    }
    path = tmp_path / "logit.json"
    path.write_text(json.dumps(spec))
    return path


def read_manifest(out_path):
    return json.loads(out_path.with_name(out_path.name + ".manifest.json").read_text())


class TestExitCodes:
    def test_unparsable_flag_exits_two(self, capsys):
        # a value the library refuses exits 2 with its message; text argparse cannot read exits 2 there
        assert main(["bound", "--kind", "lmc", "--m", "4", "--M", "5",
                     "--h", "-1", "--K", "1", "--p", "1", "--w2init", "1"]) == 2
        assert "error: step size h must be positive and finite, got -1.0" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--kind", "lmc", "--m", "4", "--M", "5",
                  "--h", "0.1", "--K", "1e5", "--p", "1", "--w2init", "1"])
        assert exc.value.code == 2
        assert "argument --K: invalid int value: '1e5'" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_unusable_flag_combination_returns_two(self, quad_target_file, tmp_path, capsys):
        code = main(["sample", "--target", str(quad_target_file), "--h", "0.1", "--K", "5",
                     "--sigma", "1.0", "--oracle", "exact",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "sigma must be 0 for the exact oracle" in capsys.readouterr().err

    def test_missing_target_file_returns_one(self, tmp_path, capsys):
        code = main(["sample", "--target", str(tmp_path / "nope.json"),
                     "--h", "0.1", "--K", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, named", [
        ({"type": "quadratic", "mean": [1.0, float("nan")], "precision": [[2.0, 0.5], [0.5, 1.0]]},
         "mean[1] must be finite, got nan"),
        ({"type": "quadratic", "mean": [1.0, -1.0], "precision": [[2.0, float("nan")], [float("nan"), 1.0]]},
         "precision[0, 1] must be finite, got nan"),
        ({"type": "logistic", "X": [[1.0, 0.0], [0.0, float("inf")]], "y": [0, 1], "ridge": 0.5},
         "X[1, 1] must be finite, got inf"),
    ])
    def test_non_finite_target_data_returns_two(self, payload, named, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))  # NaN / Infinity literals, as Python's json reads them
        code = main(["sample", "--target", str(path), "--h", "0.05", "--K", "5",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_underflowing_plan_step_returns_two(self, capsys):
        code = main(["plan", "--m", "4", "--M", "5", "--p", "10", "--eps", "1e-300", "--w2init", "1"])
        assert code == 2
        assert "epsilon=1e-300 is too small" in capsys.readouterr().err

    def test_overflowing_m_squared_plan_names_m(self, capsys):
        code = main(["plan", "--m", "4", "--M", "1e308", "--p", "10", "--eps", "0.1", "--w2init", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "M=1e+308 is too large to plan for: 14 M^2 p overflows" in err
        assert "epsilon" not in err

    def test_unreachable_precision_returns_one(self, tmp_path, capsys):
        code = main(["figure1", "--m", "4", "--M", "5", "--eps", "1e-9",
                     "--p-values", "10", "--grid-size", "50", "--span", "10",
                     "--out", str(tmp_path / "fig.csv")])
        assert code == 1
        assert "unreachable" in capsys.readouterr().err


class TestBoundCommand:
    def test_lmc_bound_json(self, capsys):
        code = main(["bound", "--kind", "lmc", "--m", "4", "--M", "5",
                     "--h", "0.2222222222222222", "--K", "10", "--p", "1", "--w2init", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1.0724452850863944
        assert payload["regime"] == "small_step"
        assert set(payload) == {"value", "regime", "gamma", "contraction_term", "bias_term"}

    def test_noisy_bound_json(self, capsys):
        code = main(["bound", "--kind", "noisy", "--m", "4", "--M", "5",
                     "--h", "0.2222222222222222", "--K", "0", "--p", "1",
                     "--w2init", "0", "--sigma", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1.5138251770487456
        assert payload["regime"] == "small_step"

    def test_baseline_bound_json(self, capsys):
        code = main(["bound", "--kind", "baseline", "--m", "4", "--M", "5",
                     "--h", "0.2222222222222222", "--K", "10", "--p", "1", "--w2init", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"value": 2.005299661143275}

    # m = 1e-320 makes M/m overflow in the small-step bias; at h = 2/M the noisy bias is inf by design
    @pytest.mark.parametrize("argv", [
        ["--m", "1e-320", "--M", "5", "--h", "0.2", "--K", "10", "--p", "3", "--w2init", "1"],
        ["--kind", "noisy", "--m", "4", "--M", "5", "--h", "0.4", "--K", "10", "--p", "3", "--w2init", "1"],
    ])
    def test_infinite_bound_is_strict_json_null(self, argv, tmp_path, capsys):
        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        out = tmp_path / "b.json"
        assert main(["bound", *argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        payload = json.loads(printed, parse_constant=refuse)
        assert payload["value"] is None and payload["bias_term"] is None and payload["gamma"] == 1.0
        json.loads(out.with_name(out.name + ".manifest.json").read_text(), parse_constant=refuse)

    def test_json_text_nulls_every_non_finite_float(self):
        # a summary's path_mean can hold an inf where its in-order sum overflows
        payload = {"path_mean": [1.5, math.inf, {"v": np.float64("nan")}], "t": (-math.inf, 2), "s": "x", "b": True}
        assert json.loads(_json_text(payload)) == {"path_mean": [1.5, None, {"v": None}], "t": [None, 2],
                                                   "s": "x", "b": True}

    def test_out_of_range_step_returns_two(self, capsys):
        code = main(["bound", "--kind", "lmc", "--m", "4", "--M", "5",
                     "--h", "0.5", "--K", "1", "--p", "1", "--w2init", "1"])
        assert code == 2
        assert "2/M" in capsys.readouterr().err

    def test_optional_json_output_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "bound.json"
        code = main(["bound", "--kind", "lmc", "--m", "4", "--M", "5",
                     "--h", "0.1", "--K", "3", "--p", "2", "--w2init", "1",
                     "--out", str(out)])
        assert code == 0
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(capsys.readouterr().out)
        manifest = read_manifest(out)
        assert manifest["subcommand"] == "bound"
        assert manifest["outputs"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


class TestPlanCommand:
    def test_plan_json(self, capsys):
        code = main(["plan", "--m", "4", "--M", "5", "--p", "10",
                     "--eps", "0.1", "--w2init", "3.5355339059327378"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == 23290
        assert payload["h"] == 4.571428571428572e-05
        assert payload["binding"] == "bias"
        assert payload["predicted_bound"] <= 0.1
        assert payload["zero_iterations"] is False

    def test_invalid_curvature_returns_two(self, capsys):
        code = main(["plan", "--m", "5", "--M", "4", "--p", "1",
                     "--eps", "0.1", "--w2init", "1"])
        assert code == 2
        assert "0 < m <= M" in capsys.readouterr().err


class TestSampleCommand:
    def test_single_trajectory_files(self, quad_target_file, tmp_path, capsys):
        out = tmp_path / "chain.csv"
        code = main(["sample", "--target", str(quad_target_file), "--h", "0.05",
                     "--K", "10", "--seed", "3", "--out", str(out)])
        assert code == 0
        target = load_target(quad_target_file)
        expected = run_lmc(target, LmcConfig(h=0.05, K=10, seed=3), np.zeros(2))
        back = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 1:], expected.iterates)
        summary = json.loads((tmp_path / "chain.summary.json").read_text())
        assert summary["dim"] == 2 and summary["iterations"] == 10
        assert summary["final"] == [float(x) for x in expected.final]
        manifest = read_manifest(out)
        assert manifest["tool"] == "langevin-lab"
        assert manifest["parameters"]["seed"] == 3
        digests = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        assert digests["chain.csv"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert "chain.summary.json" in digests

    def test_replicated_finals(self, quad_target_file, tmp_path):
        out = tmp_path / "finals.csv"
        code = main(["sample", "--target", str(quad_target_file), "--h", "0.05",
                     "--K", "8", "--seed", "1", "--replicas", "5",
                     "--init", "0.5,0.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replica,theta_0,theta_1"
        assert len(lines) == 6
        target = load_target(quad_target_file)
        expected = final_states(
            target, LmcConfig(h=0.05, K=8, seed=1), np.array([0.5, 0.5]), 5
        )
        back = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 1:], expected)
        summary = json.loads((tmp_path / "finals.summary.json").read_text())
        assert len(summary["final_mean"]) == 2
        assert len(summary["final_variance"]) == 2

    def test_noisy_oracle_run(self, quad_target_file, tmp_path):
        out = tmp_path / "noisy.csv"
        code = main(["sample", "--target", str(quad_target_file), "--h", "0.05",
                     "--K", "5", "--sigma", "0.5", "--oracle", "gaussian",
                     "--noise", "rademacher", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_subsampled_oracle_run(self, logit_target_file, tmp_path):
        out = tmp_path / "sgld.csv"
        code = main(["sample", "--target", str(logit_target_file), "--h", "0.01",
                     "--K", "5", "--oracle", "subsampled", "--batch", "3",
                     "--replicas", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_subsampled_needs_finite_sum_target(self, quad_target_file, tmp_path, capsys):
        code = main(["sample", "--target", str(quad_target_file), "--h", "0.01",
                     "--K", "5", "--oracle", "subsampled", "--batch", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "finite-sum" in capsys.readouterr().err

    def test_subsampled_batch_capped_by_data(self, logit_target_file, tmp_path, capsys):
        code = main(["sample", "--target", str(logit_target_file), "--h", "0.01",
                     "--K", "5", "--oracle", "subsampled", "--batch", "20",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "batch 20 exceeds the observation count 8" in capsys.readouterr().err

    def test_init_dimension_mismatch_returns_two(self, quad_target_file, tmp_path, capsys):
        code = main(["sample", "--target", str(quad_target_file), "--h", "0.05",
                     "--K", "5", "--init", "1,2,3", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "dimension" in capsys.readouterr().err


# main's one exit rule: a ValueError from the library exits 2 with its message,
# an unreachable precision and every other failure exit 1
BOUND = ["bound", "--kind", "baseline", "--m", "1", "--M", "2", "--h", "0.5", "--K", "2000", "--p", "1"]
EXIT_RULE = [
    (BOUND + ["--w2init", "1e308"], 2, "w2_init=1e+308 is too large"),
    (["plan", "--m", "4", "--M", "5", "--p", "10", "--eps", "0.3", "--w2init", "1e308"], 2, "w2_init=1e+308"),
    # 2 w2_init is finite, so the epsilon is what overflows 2 w2_init / epsilon
    (["plan", "--m", "4", "--M", "5", "--p", "10", "--eps", "1e-320", "--w2init", "1"], 2,
     "epsilon=1e-320 is too small to plan for: 2 w2_init / epsilon overflows"),
    (["figure1", "--span", "1", "--out", "fig.csv"], 2, "grid span must exceed 1"),
    # 2/(m+M) rounds to 2/M: the step grid is refused, not a step the user never passed
    (["figure1", "--m", "1", "--M", "1e16", "--eps", "0.5", "--p-values", "1", "--out", "fig.csv"], 2,
     "M/m = 1e+16 is too large for a step grid"),
    # past M/m ~ 4.5e6 rounding alone can part the regime branches at the float boundary step
    (["figure1", "--m", "1", "--M", "1e9", "--eps", "0.5", "--p-values", "1", "--out", "fig.csv"], 2,
     "M/m = 1e+09 is too ill-conditioned for the boundary step"),
    (["figure1", "--m", "1", "--M", "1e15", "--eps", "0.5", "--p-values", "1", "--out", "fig.csv"], 2,
     "M/m = 1e+15 is too ill-conditioned for the boundary step"),
    (["bound", "--m", "1", "--M", "1e9", "--h", "1.999999998e-09", "--K", "10", "--p", "1", "--w2init", "1"], 2,
     "M/m = 1e+09 is too ill-conditioned for the boundary step"),
    (["figure1", "--grid-size", "99999999999999999999", "--out", "fig.csv"], 2,
     "grid size=99999999999999999999 is too large to hold"),
    (["sample", "--target", "quad.json", "--h", "0.1", "--K", "5", "--seed", str(2**64)], 2, "seed must be"),
    (["sample", "--target", "quad.json", "--h", "0.1", "--K", "0", "--oracle", "subsampled"], 2,
     "target has no finite-sum structure"),
    # the oracle checks its own string choices, so argparse does not restate them
    (["sample", "--target", "quad.json", "--h", "0.1", "--K", "5", "--oracle", "x"], 2,
     "oracle mode must be 'exact', 'gaussian' or 'subsampled', got 'x'"),
    (["sample", "--target", "quad.json", "--h", "0.1", "--K", "5", "--oracle", "gaussian", "--noise", "x"], 2,
     "noise law must be 'gaussian' or 'rademacher', got 'x'"),
    (["sample", "--target", "quad.json", "--h", "0.1", "--K", "5", "--replicas", "99999999999999999999"], 2,
     "replicas=99999999999999999999 is too many to hold: Maximum allowed dimension exceeded"),
    (["figure1", "--eps", "1e-9", "--p-values", "10", "--grid-size", "100", "--out", "fig.csv"], 1,
     "epsilon=1e-09 is unreachable"),
    (["sample", "--target", "stiff.json", "--h", "0.5", "--K", "2000"], 1, "chain diverged"),
    (BOUND + ["--w2init", "1", "--out", "nodir/b.json"], 1, "No such file or directory: 'nodir/b.json'"),
    (["sample", "--target", "quad.json", "--h", "0.1", "--K", "5", "--out", "nodir/x.csv"], 1,
     "No such file or directory: 'nodir/x.csv'"),
    # a subnormal epsilon is named as passed, not as :g's 9.99989e-321
    (["plan", "--m", "4", "--M", "5", "--p", "10", "--eps", "1e-320", "--w2init", "1e-320"], 2,
     "epsilon=1e-320 is too small to plan for: the step"),
    (["figure1", "--eps", "1e-320", "--p-values", "1", "--grid-size", "50", "--out", "fig.csv"], 1,
     "precision epsilon=1e-320 is unreachable"),
    # curvature so small that 14 M^2 p underflows to 0, or 2/(m+M) overflows, is named as such
    (["plan", "--m", "1e-200", "--M", "1e-200", "--p", "10", "--eps", "0.1", "--w2init", "1"], 2,
     "m=1e-200 and M=1e-200 are too small to plan for: 14 M^2 p underflows to 0"),
    (["figure1", "--m", "1e-310", "--M", "1e-308", "--eps", "0.1", "--p-values", "3", "--out", "fig.csv"], 2,
     "m=1e-310 and M=1e-308 are too small for a step grid: 2/(m+M) overflows"),
]


@pytest.mark.filterwarnings("ignore:step size h=0.5 is at or beyond 2/M")
@pytest.mark.parametrize("argv, code, message", EXIT_RULE)
def test_exit_rule(argv, code, message, quad_target_file, tmp_path, monkeypatch, capsys):
    (tmp_path / "stiff.json").write_text(json.dumps({"type": "quadratic", "mean": [0.0, 0.0],
                                                     "precision": [[1.0, 0.0], [0.0, 5.0]]}))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and ".partial" not in err, err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["quad.json", "stiff.json"]


class TestFigureCommand:
    def test_csv_schema_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["figure1", "--m", "2", "--M", "6", "--eps", "0.5,1.0",
                     "--p-values", "1,2", "--grid-size", "200", "--span", "1e6",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,epsilon,k_lmc,k_baseline,log10_k_lmc,log10_k_baseline,ratio"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("1", "0.5"), ("2", "0.5"), ("1", "1.0"), ("2", "1.0")
        ]
        for r in rows:
            assert int(r[2]) <= int(r[3])
        manifest = read_manifest(out)
        assert manifest["parameters"]["eps"] == [0.5, 1.0]
        assert manifest["outputs"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_thread_count_does_not_change_the_file(self, tmp_path, monkeypatch):
        def run(name):
            out = tmp_path / name
            code = main(["figure1", "--m", "2", "--M", "6", "--eps", "0.5,1.0",
                         "--p-values", "1,2", "--grid-size", "200", "--span", "1e6",
                         "--out", str(out)])
            assert code == 0
            return out.read_bytes()

        monkeypatch.setenv("LANGEVIN_LAB_THREADS", "1")
        serial = run("serial.csv")
        monkeypatch.setenv("LANGEVIN_LAB_THREADS", "4")
        threaded = run("threaded.csv")
        assert serial == threaded

    def test_a_failed_rerun_leaves_the_earlier_files_alone(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "fig.csv"
        argv = ["figure1", "--m", "2", "--M", "6", "--eps", "0.5", "--p-values", "1,2",
                "--grid-size", "200", "--out", str(out)]
        assert main(argv) == 0
        files = [out, out.with_name(out.name + ".manifest.json")]
        before = [path.read_bytes() for path in files]
        real, written = CurvePoint.ratio.fget, []

        def ratio(point):
            written.append(point)
            if len(written) == 2:
                raise RuntimeError("disk full")
            return real(point)

        monkeypatch.setattr(CurvePoint, "ratio", property(ratio))
        assert main(argv) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert [path.read_bytes() for path in files] == before
        assert sorted(tmp_path.iterdir()) == sorted(files)


class TestValidateCommand:
    def test_green_sweep_exits_zero(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert out.count(": ok") == 5

    def test_every_64_bit_seed_parses_exactly(self):
        assert build_parser().parse_args(["validate", "--seed", "18446744073709551615"]).seed == 2**64 - 1

    def test_out_of_range_seed_exits_two_and_names_the_flag(self, capsys):
        assert main(["validate", "--seed", "99999999999999999999999"]) == 2
        assert ("error: seed must be an integer in [0, 18446744073709551616), "
                "got 99999999999999999999999") in capsys.readouterr().err


def test_plan_then_sample_round_trip(tmp_path, capsys):
    # the README quick start: start (3, -1) on diag(4, 5) planned for eps = 0.3
    spec = QuadraticSpec(np.zeros(2), np.diag([4.0, 5.0]))
    start = np.array([3.0, -1.0])
    target = tmp_path / "diag45.json"
    target.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 0.0], "precision": [[4.0, 0.0], [0.0, 5.0]]}))
    assert main(["plan", "--m", "4", "--M", "5", "--p", "2", "--eps", "0.3",
                 "--w2init", repr(w2_init_exact(spec, start))]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["h"] == pytest.approx(0.002057, abs=5e-7) and plan["K"] == 374
    R, z_limit = 4000, 5.0  # a statistic more than 5 standard errors off fails
    out = tmp_path / "finals.csv"
    assert main(["sample", "--target", str(target), "--h", repr(plan["h"]), "--K", str(plan["K"]),
                 "--replicas", str(R), "--init", "3,-1", "--seed", "8", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "finals.summary.json").read_text())
    law = moments_after_k(spec, start, plan["h"], plan["K"])
    var = np.diag(law.cov)
    z_mean = np.abs(np.array(summary["final_mean"]) - law.mean) / np.sqrt(var / R)
    z_var = np.abs(np.array(summary["final_variance"]) - var) / (var * np.sqrt(2.0 / (R - 1)))
    assert z_mean.max() <= z_limit and z_var.max() <= z_limit, (z_mean, z_var)
    assert gaussian_w2(law, stationary_moments(spec)) <= 0.3


def test_parser_is_built_once_and_calls_share_no_state(quad_target_file, tmp_path, monkeypatch):
    from langevin_lab import cli

    cli._parser.cache_clear()
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    first, second = tmp_path / "s1.csv", tmp_path / "s2.csv"
    fig_a, fig_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--target", str(quad_target_file), "--h", "0.05", "--K", "3",
                 "--seed", "7", "--init", "1,2", "--out", str(first)]) == 0
    assert main(["figure1", "--m", "2", "--M", "6", "--eps", "0.5", "--p-values", "3",
                 "--grid-size", "300", "--out", str(fig_a)]) == 0
    assert main(["sample", "--target", str(quad_target_file), "--h", "0.05", "--K", "3",
                 "--out", str(second)]) == 0
    assert main(["figure1", "--out", str(fig_b)]) == 0
    assert built == [1]
    sample = read_manifest(second)["parameters"]
    assert (sample["seed"], sample["init"]) == (0, None)
    assert read_manifest(fig_b)["parameters"] == {
        "m": 4.0, "M": 5.0, "eps": [0.1, 0.3], "p_values": [10, 100, 1000, 10000],
        "grid_size": 10_000, "span": 1e9,
    }


def test_manifest_parameters_record_every_parsed_flag(quad_target_file, tmp_path):
    target = str(quad_target_file)
    sample = {"target": target, "h": 0.05, "K": 4, "seed": 2, "oracle": "gaussian", "sigma": 0.5,
              "batch": 1, "noise": "rademacher", "init": [0.5, -1.0]}
    flags = ["--target", target, "--h", "0.05", "--K", "4", "--seed", "2", "--oracle", "gaussian",
             "--sigma", "0.5", "--noise", "rademacher", "--init", "0.5,-1"]
    for replicas in (1, 6):
        out = tmp_path / f"s{replicas}.csv"
        assert main(["sample", *flags, "--replicas", str(replicas), "--out", str(out)]) == 0
        assert read_manifest(out)["parameters"] == {**sample, "replicas": replicas}
    out = tmp_path / "defaults.csv"
    assert main(["sample", "--target", target, "--h", "0.1", "--K", "2", "--out", str(out)]) == 0
    assert read_manifest(out)["parameters"] == {
        "target": target, "h": 0.1, "K": 2, "seed": 0, "oracle": "exact", "sigma": 0.0,
        "batch": 1, "noise": "gaussian", "replicas": 1, "init": None,
    }
    out = tmp_path / "bound.json"
    assert main(["bound", "--kind", "noisy", "--m", "4", "--M", "5", "--h", "0.1", "--K", "3",
                 "--p", "2", "--w2init", "1.5", "--sigma", "0.25", "--out", str(out)]) == 0
    assert read_manifest(out)["parameters"] == {
        "kind": "noisy", "m": 4.0, "M": 5.0, "h": 0.1, "K": 3, "p": 2, "w2init": 1.5, "sigma": 0.25,
    }
    out = tmp_path / "plan.json"
    assert main(["plan", "--m", "4", "--M", "5", "--p", "10", "--eps", "0.1",
                 "--w2init", "2", "--out", str(out)]) == 0
    assert read_manifest(out)["parameters"] == {"m": 4.0, "M": 5.0, "p": 10, "eps": 0.1, "w2init": 2.0}
    out = tmp_path / "fig.csv"
    assert main(["figure1", "--m", "2", "--M", "6", "--eps", "0.5,1.0", "--p-values", "1,2",
                 "--grid-size", "200", "--span", "1e6", "--out", str(out)]) == 0
    assert read_manifest(out)["parameters"] == {
        "m": 2.0, "M": 6.0, "eps": [0.5, 1.0], "p_values": [1, 2], "grid_size": 200, "span": 1e6,
    }


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "langevin_lab", "--version"],
        capture_output=True, text=True, timeout=60, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"langevin-lab {__version__}"


class TestChainHealth:
    @pytest.mark.parametrize("replicas", ["1", "3"])
    def test_diverging_chain_exits_one_and_names_the_replica(self, replicas, tmp_path, capsys):
        target = tmp_path / "m5.json"  # M = 5, so h = 0.5 is beyond 2/M = 0.4
        target.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 0.0],
                                      "precision": [[1.0, 0.0], [0.0, 5.0]]}))
        out = tmp_path / "chain.csv"
        with pytest.warns(RuntimeWarning, match="2/M"):
            code = main(["sample", "--target", str(target), "--h", "0.5", "--K", "2000",
                         "--replicas", replicas, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "chain diverged: replica 0 is not finite after steps 1..2000" in captured.err
        assert "--h 0.5" in captured.err
        assert captured.out == ""
        assert not out.exists()
        assert not (tmp_path / "chain.summary.json").exists()
        assert not (tmp_path / "chain.csv.manifest.json").exists()

    @pytest.mark.parametrize("replicas", ["1", "600"])
    def test_diverging_run_prints_no_numpy_warnings(self, replicas, tmp_path):
        # 600 replicas run in three chunks, so two worker threads share them
        target = tmp_path / "d54.json"
        target.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 0.0],
                                      "precision": [[5.0, 0.0], [0.0, 4.0]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "langevin_lab", "sample", "--target", str(target), "--h", "0.5",
             "--K", "2000", "--replicas", replicas, "--out", str(tmp_path / "chain.csv")],
            capture_output=True, text=True, timeout=60,
            env=subprocess_env(LANGEVIN_LAB_THREADS="2"),
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert "encountered" not in proc.stderr, proc.stderr
        warned = [line for line in lines if "Warning" in line]
        assert len(warned) == 1 and "RuntimeWarning: step size h=0.5 is at or beyond 2/M" in warned[0]
        assert [line for line in lines if line.startswith("error:")] == [
            "error: chain diverged: replica 0 is not finite after steps 1..2000 "
            "(--h 0.5; the chain is stable only for h < 2/M = 0.4)"]

    @pytest.mark.parametrize("replicas", ["1", "3"])
    def test_diverging_rerun_leaves_the_previous_outputs_as_they_were(self, replicas, tmp_path, capsys):
        target = tmp_path / "m5.json"
        target.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 0.0],
                                      "precision": [[1.0, 0.0], [0.0, 5.0]]}))
        out = tmp_path / "chain.csv"
        args = ["sample", "--target", str(target), "--K", "50", "--replicas", replicas, "--out", str(out)]
        assert main(args + ["--h", "0.1"]) == 0
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        with pytest.warns(RuntimeWarning, match="2/M"):
            assert main(args + ["--h", "0.5", "--K", "2000"]) == 1
        capsys.readouterr()
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("replicas", ["1", "3"])
    def test_out_that_cannot_be_written_is_left_alone(self, replicas, tmp_path, capsys):
        target = tmp_path / "m5.json"
        target.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 0.0],
                                      "precision": [[1.0, 0.0], [0.0, 5.0]]}))
        out = tmp_path / "chain.csv"
        out.mkdir()
        code = main(["sample", "--target", str(target), "--h", "0.1", "--K", "50",
                     "--replicas", replicas, "--out", str(out)])
        capsys.readouterr()
        assert code == 1
        assert out.is_dir() and list(out.iterdir()) == []
        assert sorted(f.name for f in tmp_path.iterdir()) == ["chain.csv", "m5.json"]


def test_figure1_point_where_the_baseline_needs_fewer_iterations(tmp_path, capsys):
    # k_lmc <= k_baseline is not a theorem: at M/m = 3.5 the squared form certifies sooner
    out = tmp_path / "fig.csv"
    code = main(["figure1", "--m", "2", "--M", "7", "--eps", "0.1", "--p-values", "3",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    row = out.read_text().splitlines()[1].split(",")
    assert row[:4] == ["3", "0.1", "40123", "39595"]
