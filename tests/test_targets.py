import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_spd, philox, subprocess_env
from langevin_lab.targets import (
    QuadraticSpec,
    _expit,
    check_curvature,
    custom_target,
    load_target,
    logistic_target,
    quadratic_target,
    target_from_dict,
    temper,
)


class TestQuadratic:
    def test_eval_and_grad_match_definition(self, rng):
        p = 4
        A = make_spd(rng, p)
        mu = rng.standard_normal(p)
        t = quadratic_target(mu, A)
        x = rng.standard_normal(p)
        d = x - mu
        assert t.eval(x) == pytest.approx(0.5 * d @ A @ d, rel=1e-12)
        np.testing.assert_allclose(t.grad(x), A @ d, rtol=1e-12)

    def test_batch_axis_vectorizes(self, rng):
        t = quadratic_target(rng.standard_normal(3), make_spd(rng, 3))
        xs = rng.standard_normal((7, 3))
        fs = t.eval(xs)
        gs = t.grad(xs)
        assert fs.shape == (7,)
        assert gs.shape == (7, 3)
        for i in range(7):
            assert fs[i] == pytest.approx(float(t.eval(xs[i])), rel=1e-12)
            np.testing.assert_allclose(gs[i], t.grad(xs[i]), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 200), rows=st.one_of(st.none(), st.integers(1, 5000)), strided=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(p=1, rows=4096, strided=False, seed=0)  # a replicas_1d batch
    @example(p=100, rows=32, strided=False, seed=0)  # chains_p100's replicas and trajectory
    @example(p=100, rows=None, strided=False, seed=0)
    def test_grad_has_the_bits_of_the_matmul_form(self, p, rows, strided, seed):
        r = philox(seed)
        t = quadratic_target(r.standard_normal(p), make_spd(r, p))
        shape = (p,) if rows is None else (rows, p)
        x = r.standard_normal((2 * shape[0], *shape[1:]))[::-2] if strided else r.standard_normal(shape)
        spec = t.oracle_meta
        assert np.array_equal(t.grad(x), (x - spec.mean) @ spec.precision)

    def test_curvature_constants_are_extreme_eigenvalues(self, rng):
        A = make_spd(rng, 5, 2.0, 9.0)
        t = quadratic_target(np.zeros(5), A)
        w = np.linalg.eigvalsh(A)
        assert t.m == pytest.approx(w[0], rel=1e-12)
        assert t.M == pytest.approx(w[-1], rel=1e-12)
        assert t.kappa == pytest.approx(w[-1] / w[0], rel=1e-12)

    def test_rejects_asymmetric_precision(self):
        with pytest.raises(ValueError, match="symmetric"):
            quadratic_target(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_precision(self):
        with pytest.raises(ValueError, match="positive definite"):
            quadratic_target(np.zeros(2), np.diag([1.0, -0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            QuadraticSpec(np.zeros(3), np.eye(2))

    def test_rejects_non_finite_mean_naming_the_entry(self):
        with pytest.raises(ValueError, match=r"mean\[1\] must be finite, got nan"):
            quadratic_target(np.array([0.0, np.nan]), np.eye(2))

    def test_rejects_non_finite_precision_naming_the_entry(self):
        A = np.eye(3)
        A[1, 2] = A[2, 1] = np.inf
        with pytest.raises(ValueError, match=r"precision\[1, 2\] must be finite, got inf"):
            quadratic_target(np.zeros(3), A)

    def test_spec_arrays_are_read_only_copies(self, rng):
        mean, A = rng.standard_normal(3), make_spd(rng, 3)
        spec = QuadraticSpec(mean, A)
        lam, V = spec.eigenbasis
        for frozen in (spec.mean, spec.precision, lam, V):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 1.0
        mean[0] += 1.0  # the caller's arrays stay theirs
        A[0, 0] += 1.0
        assert spec.mean[0] == mean[0] - 1.0
        assert spec.eigenbasis is spec.eigenbasis
        np.testing.assert_allclose((V * lam) @ V.T, spec.precision, atol=1e-12)


class TestLogistic:
    @pytest.fixture
    def data(self):
        r = philox(7)
        X = r.standard_normal((20, 3)) / 2.0
        y = (r.uniform(size=20) < 0.5).astype(float)
        return X, y

    def test_gradient_matches_finite_differences(self, data):
        X, y = data
        t = logistic_target(X, y, ridge=0.7)
        theta = philox(8).standard_normal(3) / 2.0
        g = t.grad(theta)
        eps = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            num = (float(t.eval(theta + e)) - float(t.eval(theta - e))) / (2.0 * eps)
            assert g[j] == pytest.approx(num, rel=1e-5, abs=1e-7)

    def test_curvature_constants(self, data):
        X, y = data
        ridge = 0.3
        t = logistic_target(X, y, ridge)
        assert t.m == ridge
        top = float(np.linalg.eigvalsh(X.T @ X)[-1])
        assert t.M == pytest.approx(ridge + top / 4.0, rel=1e-12)

    def test_full_batch_subsample_equals_gradient(self, data):
        X, y = data
        t = logistic_target(X, y, ridge=0.5)
        theta = philox(9).standard_normal(3)
        idx = philox(10).permutation(len(y))
        full = t.parts.obs_grad(theta, idx).sum(axis=0) + t.parts.common_grad(theta)
        np.testing.assert_allclose(full, t.grad(theta), rtol=1e-10)

    def test_rejects_bad_labels(self, data):
        X, y = data
        y = y.copy()
        y[3] = 2.0
        with pytest.raises(ValueError, match=r"y\[3\]"):
            logistic_target(X, y, ridge=1.0)

    def test_rejects_nonpositive_ridge(self, data):
        X, y = data
        with pytest.raises(ValueError, match="ridge"):
            logistic_target(X, y, ridge=0.0)

    def test_rejects_mismatched_shapes(self, data):
        X, y = data
        with pytest.raises(ValueError, match="shape"):
            logistic_target(X, y[:-1], ridge=1.0)

    def test_rejects_non_finite_design_naming_the_entry(self, data):
        X, y = data
        X = X.copy()
        X[4, 2] = np.inf
        with pytest.raises(ValueError, match=r"X\[4, 2\] must be finite, got inf"):
            logistic_target(X, y, ridge=1.0)

    def test_rejects_non_finite_ridge(self, data):
        X, y = data
        with pytest.raises(ValueError, match="ridge .* finite, got nan"):
            logistic_target(X, y, ridge=float("nan"))


class TestCustomAndTemper:
    @pytest.mark.parametrize("grad", [
        lambda x: np.asarray(x, dtype=float),
        lambda x: [x[0], x[1]],
        lambda x: (x[0], x[1]),
        lambda x: np.multiply(x, 1.0, out=x),  # edits its argument in place
    ])
    def test_custom_target_lifts_scalar_callables(self, grad):
        def value(x):
            assert x.dtype == float  # an integer batch reaches the callables as floats
            return 0.5 * float(x @ x)

        t = custom_target(2, 1.0, 1.0, eval=value, grad=grad, vectorized=False)
        for xs in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1, 2], [3, 4]])):
            np.testing.assert_allclose(t.eval(xs), [2.5, 12.5])
            for theta in (xs, xs[0]):
                np.testing.assert_array_equal(t.grad(theta), theta)
                assert t.grad(theta).dtype == float
            np.testing.assert_array_equal(xs, [[1, 2], [3, 4]])

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError, match="0 < m <= M"):
            custom_target(1, 2.0, 1.0, eval=lambda x: x, grad=lambda x: x)
        with pytest.raises(ValueError, match="0 < m <= M"):
            custom_target(1, 0.0, 1.0, eval=lambda x: x, grad=lambda x: x)

    def test_temper_scales_everything(self, rng):
        A = make_spd(rng, 3)
        t = quadratic_target(rng.standard_normal(3), A)
        s = temper(t, 4.0)
        x = rng.standard_normal(3)
        assert s.m == pytest.approx(t.m / 4.0, rel=1e-12)
        assert s.M == pytest.approx(t.M / 4.0, rel=1e-12)
        assert float(s.eval(x)) == pytest.approx(float(t.eval(x)) / 4.0, rel=1e-12)
        np.testing.assert_allclose(s.grad(x), t.grad(x) / 4.0, rtol=1e-12)
        np.testing.assert_allclose(s.oracle_meta.precision, A / 4.0, rtol=1e-12)
        assert s.temperature == 4.0

    def test_temper_composes_multiplicatively(self, rng):
        t = quadratic_target(np.zeros(2), make_spd(rng, 2))
        s = temper(temper(t, 2.0), 3.0)
        assert s.temperature == 6.0
        assert s.m == pytest.approx(t.m / 6.0, rel=1e-12)

    def test_temper_rejects_nonpositive_tau(self, rng):
        t = quadratic_target(np.zeros(2), make_spd(rng, 2))
        with pytest.raises(ValueError, match="tau"):
            temper(t, 0.0)

    def test_temper_preserves_sum_structure(self):
        r = philox(11)
        X = r.standard_normal((10, 2))
        y = (r.uniform(size=10) < 0.5).astype(float)
        t = logistic_target(X, y, ridge=1.0)
        s = temper(t, 2.0)
        theta = np.array([0.3, -0.2])
        idx = np.arange(10)
        np.testing.assert_allclose(
            s.parts.obs_grad(theta, idx), t.parts.obs_grad(theta, idx) / 2.0, rtol=1e-12
        )


class TestSerialization:
    def test_quadratic_round_trip(self, tmp_path, rng):
        A = make_spd(rng, 2)
        payload = {"type": "quadratic", "mean": [1.0, -2.0], "precision": A.tolist()}
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(payload))
        t = load_target(path)
        assert t.dim == 2
        np.testing.assert_allclose(t.oracle_meta.mean, [1.0, -2.0])

    def test_logistic_from_dict(self):
        r = philox(12)
        X = r.standard_normal((6, 2))
        y = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
        t = target_from_dict({"type": "logistic", "X": X.tolist(), "y": y, "ridge": 0.5})
        assert t.dim == 2
        assert t.parts.n_obs == 6

    def test_unknown_type_names_the_type(self):
        with pytest.raises(ValueError, match="banana"):
            target_from_dict({"type": "banana"})

    def test_missing_fields_are_named(self):
        with pytest.raises(ValueError, match="precision"):
            target_from_dict({"type": "quadratic", "mean": [0.0]})


class TestCheckCurvature:
    def test_accepts_true_constants(self, rng):
        t = quadratic_target(rng.standard_normal(4), make_spd(rng, 4))
        out = check_curvature(t, trials=500, seed=3)
        assert out["pairs"] == 500
        assert out["max_lipschitz_ratio"] <= t.M * (1.0 + 1e-9)

    def test_detects_inflated_m(self, rng):
        A = make_spd(rng, 3)
        good = quadratic_target(rng.standard_normal(3), A)
        bad = custom_target(3, good.m * 1.5, good.M, eval=good.eval, grad=good.grad)
        with pytest.raises(ValueError, match="strong convexity"):
            check_curvature(bad, trials=500, seed=4)

    def test_detects_understated_lipschitz(self, rng):
        A = make_spd(rng, 3)
        good = quadratic_target(rng.standard_normal(3), A)
        bad = custom_target(3, good.m, good.m, eval=good.eval, grad=good.grad)
        with pytest.raises(ValueError, match="Lipschitz"):
            check_curvature(bad, trials=500, seed=5)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 6),
    scale=st.floats(0.1, 3.0),
)
def test_quadratic_curvature_inequalities_hold(seed, p, scale):
    """Declared (m, M) of a quadratic satisfy both defining inequalities."""
    r = philox(seed, 77)
    t = quadratic_target(r.standard_normal(p), make_spd(r, p, 0.5, 8.0))
    x = scale * r.standard_normal(p)
    y = scale * r.standard_normal(p)
    dx = y - x
    lower = float(t.eval(x)) + float(t.grad(x) @ dx) + 0.5 * t.m * float(dx @ dx)
    assert float(t.eval(y)) >= lower - 1e-9 * max(1.0, abs(lower))
    lip = float(np.linalg.norm(t.grad(x) - t.grad(y)))
    assert lip <= t.M * float(np.linalg.norm(dx)) * (1.0 + 1e-9) + 1e-12


_SAMPLE_RUNS = """
import sys
import langevin_lab.cli as cli
from langevin_lab.targets import load_target

quad, logit, out = sys.argv[1:]
load_target(quad), load_target(logit)
for argv in ([quad], [quad, "--replicas", "3"], [quad, "--oracle", "gaussian", "--sigma", "0.5"],
             [logit], [logit, "--replicas", "3"], [logit, "--oracle", "subsampled", "--batch", "2"],
             [logit, "--oracle", "subsampled", "--batch", "2", "--replicas", "3"]):
    assert cli.main(["sample", "--target", argv[0], "--h", "0.1", "--K", "20", "--out", out, *argv[1:]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_runtime_path_imports_scipy(tmp_path):
    quad, logit = tmp_path / "quad.json", tmp_path / "logit.json"
    quad.write_text(json.dumps({"type": "quadratic", "mean": [0.0, 1.0], "precision": [[2.0, 0.0], [0.0, 3.0]]}))
    logit.write_text(json.dumps({"type": "logistic", "X": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]],
                                 "y": [0, 1, 1, 0], "ridge": 0.5}))
    proc = subprocess.run(
        [sys.executable, "-c", _SAMPLE_RUNS, str(quad), str(logit), str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=60, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# the whole line, the band where exp(-z) overflows, subnormals and the specials
_EXPIT_VALUES = st.one_of(
    st.floats(),
    st.floats(-800.0, 800.0),
    st.floats(-745.2, -709.79),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, -709.79, -745.2]),
)
_EXPIT_SHAPES = st.one_of(st.just(()), hnp.array_shapes(min_dims=1, max_dims=2, max_side=40))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, _EXPIT_SHAPES, elements=_EXPIT_VALUES))
def test_expit_is_within_4_ulps_of_scipy(z):
    got, want = np.asarray(_expit(z)), np.asarray(scipy.special.expit(z))
    assert got.shape == z.shape and got.dtype == np.float64
    for special in (0.0, 1.0):
        assert np.array_equal(got == special, want == special)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    # both lie in [0, 1], where the bit patterns order like the doubles
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert (ulps[~np.isnan(want)] <= 4).all(), z[ulps > 4]
