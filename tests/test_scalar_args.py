"""Scalar arguments of the public API, one bad value at a time.

Every call either returns finite values or raises ValueError whose
message names the argument at fault.  It never raises OverflowError or
TypeError, and a non-integral count is never truncated.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langevin_lab import (
    BoundInputs,
    GradientOracle,
    LmcConfig,
    SumStructure,
    TargetPotential,
    UnreachablePrecisionError,
    check_curvature,
    default_h_grid,
    final_states,
    init_w2_from_f,
    init_w2_from_mean,
    lmc_bound,
    lmc_step,
    logistic_target,
    minimal_k_lmc,
    moments_after_k,
    noise_stream,
    plan_for_epsilon,
    quadratic_target,
    run_tempered_lmc,
    target_from_dict,
    temper,
)
from langevin_lab.cli import main
from langevin_lab.parallel import ENV_THREADS, thread_cap
from langevin_lab.validation import (
    check_init_bound_ordering,
    check_lmc_bound_validity,
    check_noise_dominance,
    check_regime_continuity,
    check_stationary_gradient_norm,
    run_all_checks,
)

QUAD = quadratic_target(np.zeros(2), np.diag([1.0, 2.0]))
X = np.array([[0.5, -1.0], [1.0, 0.2], [-0.3, 0.8]])
Y = np.array([0.0, 1.0, 1.0])
PARTS = dict(obs_grad=lambda theta, idx: np.zeros((len(idx), 2)), common_grad=lambda theta: theta)
CALLS = dict(eval=lambda x: np.zeros(np.shape(x)[:-1]), grad=lambda x: np.asarray(x, dtype=float))


def sweep(check):
    """check, with the worst margin of an empty sweep (-inf, the max over no cells) left out."""
    def run(**kwargs):
        result = check(**kwargs)
        return result if result.cells else dataclasses.replace(result, worst=None)
    return run


def lmc_validity(dims_entry, **kwargs):
    return check_lmc_bound_validity(dims=(1, dims_entry), **kwargs)


def typed_target(type, **fields):
    return target_from_dict({"type": type, **fields})


# entry point, valid keyword arguments, and each scalar argument to fuzz
# with the word an error about it must contain
ENTRIES = {
    "BoundInputs": (BoundInputs, dict(m=1.0, M=2.0, h=0.1, K=10, p=3, w2_init=1.0, sigma=0.5),
                    dict(m="m", M="M", h="h", K="K", p="p", w2_init="w2_init", sigma="sigma")),
    "init_w2_from_mean": (init_w2_from_mean, dict(dist2_to_mean=2.0, p=3, m=1.0),
                          dict(dist2_to_mean="dist2_to_mean", p="p", m="m")),
    "init_w2_from_f": (init_w2_from_f, dict(f_at_theta0=2.0, p=3, m=1.0, f_lower_bound=0.5),
                       dict(f_at_theta0="f_at_theta0", p="p", m="m", f_lower_bound="f_lower_bound")),
    "GradientOracle": (GradientOracle, dict(mode="subsampled", batch=2, noise="rademacher"),
                       dict(batch="batch", mode="mode", noise="noise")),
    "lmc_bound": (lmc_bound, dict(inputs=BoundInputs(m=1.0, M=2.0, h=0.1, K=10, p=3, w2_init=1.0), regime="small_step"),
                  dict(regime="regime")),
    "target_from_dict": (typed_target, dict(type="quadratic", mean=[0.5], precision=[[2.0]]), dict(type="type")),
    "GradientOracle(gaussian)": (GradientOracle, dict(mode="gaussian", sigma=0.5), dict(sigma="sigma")),
    "LmcConfig": (LmcConfig, dict(h=0.1, K=10, seed=3), dict(h="h", K="K", seed="seed")),
    "lmc_step": (lmc_step, dict(state=np.array([0.3, -0.7]), target=QUAD, h=0.1, noise=np.array([1.0, 0.0])),
                 dict(h="h")),
    "run_tempered_lmc": (run_tempered_lmc, dict(target=QUAD, tau=0.5, K=3, seed=1, initial=np.ones(2), replica=2),
                         dict(tau="tau", K="K", seed="seed", replica="replica")),
    "final_states": (final_states, dict(target=QUAD, config=LmcConfig(h=0.1, K=3), initial=np.ones(2), replicas=3),
                     dict(replicas="replicas")),
    "noise_stream": (noise_stream, dict(seed=3, replica=5, channel=1),
                     dict(seed="seed", replica="replica", channel="channel")),
    "plan_for_epsilon": (plan_for_epsilon, dict(m=1.0, M=2.0, p=3, w2_init=1.0, epsilon=0.5),
                         dict(m="m", M="M", p="p", w2_init="w2_init", epsilon="epsilon")),
    "minimal_k_lmc": (minimal_k_lmc, dict(m=1.0, M=2.0, p=3, w2_init=1.0, epsilon=0.5, k_cap=1000),
                      dict(p="p", w2_init="w2_init", epsilon="epsilon", k_cap="k_cap")),
    "default_h_grid": (default_h_grid, dict(m=1.0, M=2.0, size=5, span=10.0),
                       dict(m="m", M="M", size="size", span="span")),
    "moments_after_k": (moments_after_k, dict(spec=QUAD.oracle_meta, init=np.ones(2), h=0.1, k=4),
                        dict(h="h", k="k")),
    "TargetPotential": (TargetPotential, dict(dim=2, m=1.0, M=2.0, temperature=1.5, **CALLS),
                        dict(dim="dim", m="m", M="M", temperature="temperature")),
    "SumStructure": (SumStructure, dict(n_obs=4, **PARTS), dict(n_obs="n_obs")),
    "temper": (temper, dict(target=QUAD, tau=2.0), dict(tau="tau")),
    "logistic_target": (logistic_target, dict(X=X, y=Y, ridge=0.5), dict(ridge="ridge")),
    "check_curvature": (check_curvature, dict(target=QUAD, trials=20, seed=4, scale=1.5, rel_slack=1e-9),
                        dict(trials="trials", seed="seed", scale="scale", rel_slack="rel_slack")),
    "check_lmc_bound_validity": (sweep(lmc_validity), dict(dims_entry=2, targets_per_dim=1, n_steps=3, slack=1e-10,
                                                          checkpoints=(1, 10), seed=2),
                                 dict(dims_entry="dims", targets_per_dim="targets_per_dim", n_steps="n_steps",
                                      slack="slack", seed="seed")),
    "check_regime_continuity": (sweep(check_regime_continuity), dict(seed=1, trials=5, rtol=1e-12),
                                dict(seed="seed", trials="trials", rtol="rtol")),
    "check_noise_dominance": (sweep(check_noise_dominance), dict(seed=1, trials=5), dict(seed="seed", trials="trials")),
    "check_stationary_gradient_norm": (sweep(check_stationary_gradient_norm), dict(seed=1, trials=3, rtol=1e-12),
                                       dict(seed="seed", trials="trials", rtol="rtol")),
    "check_init_bound_ordering": (sweep(check_init_bound_ordering), dict(seed=1, trials=3, rtol=1e-12),
                                  dict(seed="seed", trials="trials", rtol="rtol")),
}
COUNTS = {"K", "p", "seed", "replica", "replicas", "batch", "channel", "k_cap", "size", "k", "dim", "n_obs",
          "trials", "dims_entry", "targets_per_dim", "n_steps"}
# valid values whose run would take too long or too much memory
TOO_BIG = {"K", "replicas", "trials", "size", "k_cap", "dims_entry", "targets_per_dim", "n_steps"}

HUGE = [1e308, 1e5, 2**63]
BAD = HUGE + [math.nan, math.inf, -math.inf, -1e308, 5e-324, 0, 0.0, -0.0, -1, 1, 2.5, 2.7, 3.0, 10**400,
              None, "abc", "2", [1.0], np.float64(2.5), np.float64(math.nan), np.int64(3), np.float64(4.0)]


def finite_values(result):
    """Every number result holds: fields of a dataclass, entries of an array."""
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from finite_values(getattr(result, field.name))
    elif isinstance(result, (int, float, np.ndarray, np.number)) and not isinstance(result, bool):
        yield from np.ravel(np.asarray(result, dtype=float)).tolist()


def names(message: str, word: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(word)}(?!\w)", message) is not None


@st.composite
def bad_call(draw):
    entry = draw(st.sampled_from(sorted(ENTRIES)))
    fn, kwargs, fuzzed = ENTRIES[entry]
    arg = draw(st.sampled_from(sorted(fuzzed)))
    values = BAD[len(HUGE):] if arg in TOO_BIG else BAD
    return entry, fn, dict(kwargs, **{arg: draw(st.sampled_from(values))}), arg, fuzzed[arg]


@settings(max_examples=400, deadline=None)
@given(case=bad_call())
def test_scalar_arguments_return_finite_values_or_name_the_argument(case):
    entry, fn, kwargs, arg, word = case
    value = kwargs[arg]
    try:
        result = fn(**kwargs)
    except UnreachablePrecisionError:  # a precision out of reach within k_cap
        return
    except ValueError as exc:
        assert names(str(exc), word), (entry, arg, value, str(exc))
        return
    truncated = arg in COUNTS and isinstance(value, (float, np.floating)) and not float(value).is_integer()
    assert not truncated, (entry, arg, value)
    values = list(finite_values(result))
    assert all(math.isfinite(v) for v in values), (entry, arg, value, result)


# each input below was truncated, overflowed, returned a wrong value or blamed another argument
@pytest.mark.parametrize("call, message", [
    (lambda: BoundInputs(m=1.0, M=2.0, h=0.1, K=2.7, p=1, w2_init=1.0), "iteration count K must be an integer >= 0"),
    (lambda: LmcConfig(h=0.1, K=2.7), "iteration count K must be an integer >= 0, got 2.7"),
    (lambda: final_states(QUAD, LmcConfig(h=0.1, K=2), np.zeros(2), replicas=2.5), "replicas must be an integer >= 1"),
    # (replicas, 2) outputs numpy cannot size, or the address space cannot hold: np.empty
    # refuses both before any memory is touched
    (lambda: final_states(QUAD, LmcConfig(h=0.1, K=2), np.zeros(2), replicas=99999999999999999999),
     "replicas=99999999999999999999 is too many to hold: Maximum allowed dimension exceeded"),
    (lambda: final_states(QUAD, LmcConfig(h=0.1, K=2), np.zeros(2), replicas=576460752303423487),
     "replicas=576460752303423487 is too many to hold: Unable to allocate"),
    (lambda: plan_for_epsilon(1.0, 2.0, 2.5, 1.0, 0.5), "dimension p must be an integer >= 1, got 2.5"),
    (lambda: BoundInputs(m=1.0, M=2.0, h=0.1, K=math.inf, p=1, w2_init=1.0), "iteration count K must be an integer"),
    (lambda: GradientOracle(mode="subsampled", batch=math.inf), "batch must be an integer >= 1, got inf"),
    (lambda: moments_after_k(QUAD.oracle_meta, np.zeros(2), 0.1, math.inf), "step count k must be an integer"),
    (lambda: plan_for_epsilon(1.0, 2.0, math.inf, 1.0, 0.5), "dimension p must be an integer >= 1, got inf"),
    (lambda: init_w2_from_mean(1.0, math.inf, 1.0), "dimension p must be an integer >= 1, got inf"),
    (lambda: BoundInputs(m=1.0, M=2.0, h=0.1, K=math.nan, p=1, w2_init=1.0), "iteration count K must be an integer"),
    (lambda: BoundInputs(m=1.0, M=2.0, h=None, K=1, p=1, w2_init=1.0), "step size h must be a real number, got None"),
    (lambda: init_w2_from_f(math.nan, 1, 1.0), "f_at_theta0 must be finite, got nan"),
    (lambda: init_w2_from_mean(1.0, 1, math.inf), "m must be positive and finite, got inf"),
    (lambda: TargetPotential(dim=1, m=1.0, M=2.0, eval=abs, grad=abs, temperature=math.inf),
     "temperature must be positive and finite, got inf"),
    (lambda: temper(QUAD, math.inf), "tau must be positive and finite, got inf"),
    (lambda: temper(QUAD, math.nan), "tau must be positive and finite, got nan"),
    (lambda: default_h_grid(1.0, 2.0, 10, math.inf), "grid span must be finite, got inf"),
    (lambda: lmc_step(np.zeros(2), QUAD, math.inf, np.zeros(2)), "step size h must be positive and finite, got inf"),
    (lambda: noise_stream(0, 1.5, 0), "replica must be an integer >= 0, got 1.5"),
    (lambda: check_curvature(QUAD, trials=0), "trials must be an integer >= 1, got 0"),
    (lambda: minimal_k_lmc(1.0, 2.0, 2, 1.0, 0.5, k_cap=2.5), "k_cap must be an integer >= 0, got 2.5"),
    (lambda: run_all_checks(seed=2.5), "seed must be an integer in [0, 18446744073709551616), got 2.5"),
    (lambda: check_regime_continuity(rtol=math.nan), "rtol must be finite, got nan"),
])
def test_inputs_that_were_mishandled_now_raise_naming_the_argument(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert message in str(exc.value)


# each string choice names every option it takes
@pytest.mark.parametrize("call, message", [
    (lambda: GradientOracle(mode="x"), "oracle mode must be 'exact', 'gaussian' or 'subsampled', got 'x'"),
    (lambda: GradientOracle(mode="gaussian", noise="x"), "noise law must be 'gaussian' or 'rademacher', got 'x'"),
    (lambda: lmc_bound(BoundInputs(m=1.0, M=2.0, h=0.1, K=1, p=1, w2_init=1.0), regime="x"),
     "regime must be 'small_step' or 'large_step', got 'x'"),
    (lambda: target_from_dict({"type": "x"}), "target type must be 'quadratic' or 'logistic', got 'x'"),
    (lambda: target_from_dict({}), "target type must be 'quadratic' or 'logistic', got None"),
    (lambda: GradientOracle(mode=np.array(["exact", "gaussian"])), "oracle mode must be 'exact', 'gaussian' or"),
])
def test_choices_name_the_argument_and_its_options(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert message in str(exc.value)


@pytest.mark.parametrize("raw, message", [
    ("0", "LANGEVIN_LAB_THREADS must be an integer >= 1, got 0"),
    ("-1", "LANGEVIN_LAB_THREADS must be an integer >= 1, got -1"),
    ("abc", "LANGEVIN_LAB_THREADS must be a real number, got 'abc'"),
    ("2.5", "LANGEVIN_LAB_THREADS must be an integer >= 1, got 2.5"),
])
def test_thread_variable_is_a_count(raw, message, monkeypatch):
    monkeypatch.setenv(ENV_THREADS, raw)
    with pytest.raises(ValueError) as exc:
        thread_cap()
    assert message in str(exc.value)


@pytest.mark.parametrize("raw", ["2", "2.0"])
def test_thread_variable_takes_integral_values(raw, monkeypatch):
    monkeypatch.setenv(ENV_THREADS, raw)
    assert thread_cap() == 2


def test_counts_take_integral_floats_and_numpy_integers():
    a = BoundInputs(m=1.0, M=2.0, h=0.1, K=1e5, p=np.int64(3), w2_init=1.0)
    b = BoundInputs(m=1.0, M=2.0, h=0.1, K=100000, p=3, w2_init=1.0)
    assert a == b and type(a.K) is int and type(a.p) is int
    assert LmcConfig(h=0.1, K=3, seed=2**62 - 1).seed == 2**62 - 1  # not rounded through a float


def test_plan_names_the_curvature_ratio_when_no_step_contracts(capsys):
    with pytest.raises(ValueError, match=r"M/m = 2\.5e\+149 is too large to plan for \(m=4, M=1e\+150\)"):
        plan_for_epsilon(4.0, 1e150, 10, 1.0, 0.1)
    code = main(["plan", "--m", "4", "--M", "1e150", "--p", "10", "--eps", "0.1", "--w2init", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "M/m" in err and "epsilon" not in err, err
