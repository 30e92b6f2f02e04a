"""Array arguments of the public API, one bad value at a time.

Every call either returns finite values or raises ValueError whose
message names the argument at fault.  It never raises TypeError, never
passes numpy's own conversion message through, and never returns NaN.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langevin_lab import (
    GaussianMoments,
    LmcConfig,
    QuadraticSpec,
    empirical_w2_1d,
    final_states,
    gaussian_w2,
    gradient_descent,
    lmc_step,
    logistic_target,
    minimal_k_baseline,
    minimal_k_lmc,
    moments_after_k,
    point_mass,
    quadratic_target,
    run_lmc,
    run_tempered_lmc,
    stationary_moments,
    target_from_dict,
    w2_init_exact,
)
from langevin_lab._scalars import symmetrized

from test_scalar_args import finite_values, names

QUAD = quadratic_target(np.zeros(2), np.diag([1.0, 2.0]))
SPEC = QUAD.oracle_meta
CONFIG = LmcConfig(h=0.1, K=3)
MEAN, PRECISION = np.array([0.5, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
X = np.array([[0.5, -1.0], [1.0, 0.2], [-0.3, 0.8]])
Y = np.array([0.0, 1.0, 1.0])
GRID = np.array([0.01, 0.05, 0.1])


def from_dict(**fields):
    kind = "logistic" if "X" in fields else "quadratic"
    return target_from_dict({"type": kind, **fields})


# entry point, valid keyword arguments, and each array argument to fuzz with
# the words an error about it may contain: its own name, and for an argument
# whose length is free, the argument whose shape must match it
ENTRIES = {
    "QuadraticSpec": (QuadraticSpec, dict(mean=MEAN, precision=PRECISION),
                      dict(mean=("mean", "precision"), precision=("precision",))),
    "logistic_target": (logistic_target, dict(X=X, y=Y, ridge=0.5), dict(X=("X", "y"), y=("y",))),
    "target_from_dict(quadratic)": (from_dict, dict(mean=MEAN.tolist(), precision=PRECISION.tolist()),
                                    dict(mean=("mean", "precision"), precision=("precision",))),
    "target_from_dict(logistic)": (from_dict, dict(X=X.tolist(), y=Y.tolist(), ridge=0.5),
                                   dict(X=("X", "y"), y=("y",), ridge=("ridge",))),
    "GaussianMoments": (GaussianMoments, dict(mean=MEAN, cov=PRECISION), dict(mean=("mean", "cov"), cov=("cov",))),
    "point_mass": (point_mass, dict(theta=MEAN), dict(theta=("theta",))),
    "lmc_step": (lmc_step, dict(state=MEAN, target=QUAD, h=0.1, noise=np.array([1.0, -0.5])), dict(noise=("noise",))),
    "moments_after_k": (moments_after_k, dict(spec=SPEC, init=MEAN, h=0.1, k=4), dict(init=("init",))),
    "w2_init_exact": (w2_init_exact, dict(spec=SPEC, theta0=MEAN), dict(theta0=("theta0",))),
    "empirical_w2_1d": (empirical_w2_1d, dict(xs=[0.3, -1.0, 2.0], ys=[1.0, 0.0, 0.5]),
                        dict(xs=("xs", "ys"), ys=("ys",))),
    "run_lmc": (run_lmc, dict(target=QUAD, config=CONFIG, initial=MEAN), dict(initial=("initial state",))),
    "final_states": (final_states, dict(target=QUAD, config=CONFIG, initial=MEAN, replicas=3),
                     dict(initial=("initial state",))),
    "final_states(callable)": (lambda initial, **kw: final_states(initial=lambda rng: initial, **kw),
                               dict(target=QUAD, config=CONFIG, initial=MEAN, replicas=3),
                               dict(initial=("initial state",))),
    "gradient_descent": (gradient_descent, dict(target=QUAD, h=0.1, K=3, initial=MEAN),
                         dict(initial=("initial state",))),
    "run_tempered_lmc": (run_tempered_lmc, dict(target=QUAD, tau=0.5, K=3, seed=1, initial=MEAN),
                         dict(initial=("initial state",))),
    "minimal_k_lmc": (minimal_k_lmc, dict(m=1.0, M=2.0, p=3, w2_init=1.0, epsilon=3.0, h_grid=GRID, k_cap=1000),
                      dict(h_grid=("h_grid",))),
    "minimal_k_baseline": (minimal_k_baseline, dict(m=1.0, M=2.0, p=3, w2_init=1.0, epsilon=5.0, h_grid=GRID,
                                                    k_cap=1000),
                           dict(h_grid=("h_grid",))),
}

KINDS = ["nan entry", "inf entry", "empty", "ragged", "more dimensions", "fewer dimensions", "longer",
         "abc", "None", "{}"]
# lmc_step adds the noise it is given, so a non-finite entry there is passed through
UNCHECKED_ENTRIES = {"noise"}
NUMPY_WORDS = ("could not convert", "setting an array element", "inhomogeneous", "float() argument")


def bad_value(valid, kind: str, index: int):
    """valid (a number or a nested list of them) spoiled in one way."""
    a = np.asarray(valid, dtype=float)
    if kind in ("nan entry", "inf entry"):
        a = a.copy()
        a.flat[index % a.size] = math.nan if kind == "nan entry" else -math.inf if index % 2 else math.inf
        return a if isinstance(valid, np.ndarray) else a.tolist()
    if kind == "empty":
        return np.empty((0,) * max(a.ndim, 1))
    if kind == "ragged":
        rows = a.tolist() if a.ndim == 2 else [[x] for x in np.ravel(a).tolist()]
        return [rows[0] + [1.0]] + rows[1:] if len(rows) > 1 else [rows[0], []]
    if kind == "more dimensions":
        return a[None]
    if kind == "fewer dimensions":
        return a.ravel() if a.ndim > 1 else np.float64(a.ravel()[0]) if a.ndim == 1 else a.reshape(1, 1)
    if kind == "longer":
        return np.concatenate([a, a[-1:] * 1.5]) if a.ndim else np.array([float(a), 1.0])
    return {"abc": "abc", "None": None, "{}": {}}[kind]


@st.composite
def bad_call(draw):
    entry = draw(st.sampled_from(sorted(ENTRIES)))
    fn, kwargs, fuzzed = ENTRIES[entry]
    arg = draw(st.sampled_from(sorted(fuzzed)))
    kind = draw(st.sampled_from([k for k in KINDS if not (arg in UNCHECKED_ENTRIES and k.endswith("entry"))]))
    value = bad_value(kwargs[arg], kind, draw(st.integers(0, 5)))
    return entry, fn, dict(kwargs, **{arg: value}), arg, kind, fuzzed[arg]


@settings(max_examples=300, deadline=None)
@given(case=bad_call())
def test_array_arguments_return_finite_values_or_name_the_argument(case):
    entry, fn, kwargs, arg, kind, words = case
    try:
        result = fn(**kwargs)
    except ValueError as exc:
        message = str(exc)
        assert any(names(message, w) for w in words), (entry, arg, kind, message)
        assert not any(w in message for w in NUMPY_WORDS), (entry, arg, kind, message)
        return
    # only a free length may pass, and h_grid=None, which takes the default grid
    assert kind in ("longer", "fewer dimensions") or (kind, arg) == ("None", "h_grid"), (entry, arg, kind)
    assert all(math.isfinite(v) for v in finite_values(result)), (entry, arg, kind, result)


# each input below returned NaN, passed NaN into a law, or raised numpy's own message
@pytest.mark.parametrize("call, message", [
    (lambda: gaussian_w2(point_mass([math.nan, 0.0]), stationary_moments(SPEC)), "theta[0] must be finite, got nan"),
    (lambda: GaussianMoments(np.zeros(2), np.array([[1.0, math.nan], [math.nan, 1.0]])),
     "cov[0, 1] must be finite, got nan"),
    (lambda: final_states(QUAD, CONFIG, "ab", 2), "initial state must be numbers in a rectangular array, got 'ab'"),
    (lambda: minimal_k_lmc(1.0, 2.0, 3, 1.0, 0.5, h_grid=["a"]),
     "h_grid must be numbers in a rectangular array, got ['a']"),
    (lambda: quadratic_target([0.0, 1.0], [[1.0, 0.0], [0.0]]),
     "precision must be numbers in a rectangular array, got [[1.0, 0.0], [0.0]]"),
])
def test_inputs_that_were_mishandled_now_raise_naming_the_argument(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert message in str(exc.value)


# the symmetry rule: max |S - S'| <= 1e-12 max(|S|, 1), then (S + S') / 2
SYMMETRIC = [(lambda S: QuadraticSpec(MEAN, S).precision, "precision"), (lambda S: GaussianMoments(MEAN, S).cov, "cov")]


@pytest.mark.parametrize("build, name", SYMMETRIC)
def test_nearly_symmetric_matrices_are_symmetrized(build, name):
    S = PRECISION.copy()
    S[0, 1] += 1e-13
    got = build(S)
    assert np.array_equal(got, got.T) and np.array_equal(got, symmetrized(S)), name


@pytest.mark.parametrize("build, name", SYMMETRIC)
@pytest.mark.parametrize("S, gap", [
    ([[2.0, 0.6], [0.5, 1.0]], "1.000e-01"),
    ([[2.0, 0.5 + 1e-11], [0.5, 1.0]], "1.000e-11"),
    ([[0.0, 1.7e308], [-1.7e308, 0.0]], "inf"),  # S - S' overflows, quietly
])
def test_asymmetric_matrices_are_refused_without_a_warning(build, name, S, gap):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            build(np.array(S))
    assert f"{name} is not symmetric: max |S - S'| = {gap}" in str(exc.value)


@pytest.mark.parametrize("state, noise, message", [
    (MEAN, np.ones(3), "noise must have shape (2,) to match state, got shape (3,)"),
    (np.zeros((4, 2)), np.ones(2), "noise must be a 2-d array to match state, got shape (2,)"),
    (MEAN, "ab", "noise must be numbers in a rectangular array, got 'ab'"),
])
def test_step_noise_must_match_the_state(state, noise, message):
    with pytest.raises(ValueError) as exc:
        lmc_step(state, QUAD, 0.1, noise)
    assert message in str(exc.value)
