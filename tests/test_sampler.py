import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import langevin_lab.outputs as outputs_mod
import langevin_lab.parallel as parallel_mod
import langevin_lab.sampler as sampler_mod
from langevin_lab.sampler import (
    GradientOracle,
    INIT_STREAM,
    LmcConfig,
    Trajectory,
    XI_STREAM,
    ZETA_STREAM,
    chain_states,
    final_states,
    gradient_descent,
    lmc_step,
    noise_stream,
    oracle_gradient,
    run_lmc,
    run_nlmc,
    run_tempered_lmc,
)
from langevin_lab.outputs import trajectory_summary, trajectory_to_csv
from langevin_lab.targets import logistic_target, quadratic_target, temper

from conftest import make_spd


@pytest.fixture
def gauss2(rng):
    A = make_spd(rng, 2)
    return quadratic_target(np.array([1.0, -2.0]), A)


@pytest.fixture
def logit():
    r = np.random.Generator(np.random.Philox(key=[7, 7]))
    X = r.standard_normal((40, 3))
    y = (r.random(40) < 0.5).astype(float)
    return logistic_target(X, y, ridge=0.5)


def write_trajectory(target, config, initial, path):
    """The trajectory CSV and summary `sample --replicas 1` writes: replica 0's states streamed to outputs."""
    return outputs_mod.write_trajectory(path, config, chain_states(target, config, initial), target.dim)


def small_config(**kw):
    base = dict(h=0.05, K=30, seed=11)
    base.update(kw)
    return LmcConfig(**base)


class TestNoiseStream:
    def test_same_triple_reproduces(self):
        a = noise_stream(3, 5, XI_STREAM).standard_normal(8)
        b = noise_stream(3, 5, XI_STREAM).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_triples_differ(self):
        base = noise_stream(3, 5, XI_STREAM).standard_normal(8)
        for seed, rep, ch in [(4, 5, XI_STREAM), (3, 6, XI_STREAM), (3, 5, ZETA_STREAM)]:
            assert not np.array_equal(base, noise_stream(seed, rep, ch).standard_normal(8))

    def test_channel_and_replica_validation(self):
        with pytest.raises(ValueError, match="channel"):
            noise_stream(0, 0, 4)
        with pytest.raises(ValueError, match="channel"):
            noise_stream(0, 0, -1)
        with pytest.raises(ValueError, match="replica"):
            noise_stream(0, -1, 0)

    def test_key_overflow_names_the_replica(self, gauss2):
        # 4 * replica + channel is the second key word; 2**62 - 1 with channel 3 is the last key
        noise_stream(0, 2**62 - 1, 3)
        with pytest.raises(ValueError, match=f"replica {2**62} is too large"):
            noise_stream(0, 2**62, XI_STREAM)
        with pytest.raises(ValueError, match=f"replica {2**62} is too large"):
            run_lmc(gauss2, small_config(K=1), np.zeros(2), replica=2**62)


def reference_draws(seed, replica, channel, law, K, p):
    g = noise_stream(seed, replica, channel)
    if law == "gaussian":
        return g.standard_normal((K, p))
    return 2.0 * g.integers(0, 2, size=(K, p)).astype(float) - 1.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**62 - 4),
    n=st.integers(1, 4),
    channel=st.integers(0, 3),
    law=st.sampled_from(["gaussian", "rademacher"]),
    K=st.integers(1, 12),
    p=st.integers(1, 3),
    budget=st.integers(1, 40),
)
def test_rekeyed_rows_repeat_noise_stream(seed, start, n, channel, law, K, p, budget):
    replicas = range(start, start + n)
    shape = (p,) if n == 1 else (n, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler_mod, "_NOISE_BUDGET", budget)  # K-blocks of budget // (n * p) steps
        keys = sampler_mod._stream_keys(seed, replicas, channel)
        steps = [x.copy() for x in sampler_mod._noise(keys, shape, K, law)]
    draws = np.stack(steps).reshape(K, n, p)
    for j, r in enumerate(replicas):
        assert np.array_equal(draws[:, j], reference_draws(seed, r, channel, law, K, p))


_BLOCK_TARGET = quadratic_target(np.array([1.0, -2.0]), np.array([[3.0, 0.5], [0.5, 2.0]]))


@settings(max_examples=30, deadline=None)
@given(
    budget=st.integers(1, 48),
    chunk=st.integers(1, 5),
    K=st.integers(1, 20),
    seed=st.integers(0, 2**20),
    noise=st.sampled_from(["gaussian", "rademacher"]),
)
def test_final_states_do_not_depend_on_block_size(budget, chunk, K, seed, noise):
    cfg = small_config(K=K, seed=seed, oracle=GradientOracle(mode="gaussian", sigma=0.6, noise=noise))
    init = np.array([0.5, 0.5])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler_mod, "_chunk_rows", lambda K, p: chunk)
        whole = final_states(_BLOCK_TARGET, cfg, init, replicas=7)
        path = run_nlmc(_BLOCK_TARGET, cfg, init, replica=3).iterates
        mp.setattr(sampler_mod, "_NOISE_BUDGET", budget)
        assert np.array_equal(final_states(_BLOCK_TARGET, cfg, init, replicas=7), whole)
        assert np.array_equal(run_nlmc(_BLOCK_TARGET, cfg, init, replica=3).iterates, path)


@settings(max_examples=200, deadline=None)
@given(K=st.integers(0, 10**7), p=st.integers(1, 20_000), budget=st.integers(1, 2**16))
def test_chunk_noise_stays_within_the_chunk_cap(K, p, budget):
    # rows x one block of noise fit _CHUNK_VALUES whatever the noise budget,
    # unless a single row's block is already larger
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler_mod, "_NOISE_BUDGET", budget)
        rows, block = sampler_mod._chunk_rows(K, p), sampler_mod._block_steps(K, p) * p
    assert rows == 1 or rows * block <= sampler_mod._CHUNK_VALUES


class TestConfigs:
    def test_oracle_validation(self):
        with pytest.raises(ValueError, match="mode"):
            GradientOracle(mode="psychic")
        with pytest.raises(ValueError, match="sigma must be 0"):
            GradientOracle(mode="exact", sigma=0.5)
        with pytest.raises(ValueError, match="sigma"):
            GradientOracle(mode="gaussian", sigma=-1.0)
        with pytest.raises(ValueError, match="batch"):
            GradientOracle(mode="subsampled", batch=0)
        with pytest.raises(ValueError, match="noise law"):
            GradientOracle(mode="gaussian", noise="cauchy")

    def test_lmc_config_validation(self):
        with pytest.raises(ValueError, match="step size"):
            LmcConfig(h=0.0, K=1)
        with pytest.raises(ValueError, match="K"):
            LmcConfig(h=0.1, K=-1)
        with pytest.raises(ValueError, match="seed"):
            LmcConfig(h=0.1, K=1, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            LmcConfig(h=0.1, K=1, seed=2**64)
        assert LmcConfig(h=0.1, K=1, seed=2**64 - 1).seed == 2**64 - 1  # the seed is a whole key word


class TestLmcStep:
    def test_matches_update_formula(self, gauss2):
        state = np.array([0.3, -0.7])
        noise = np.array([1.0, 2.0])
        h = 0.04
        expected = state - h * gauss2.grad(state) + math.sqrt(2 * h) * noise
        assert np.array_equal(lmc_step(state, gauss2, h, noise), expected)

    def test_batched_states(self, gauss2):
        states = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -2.0]])
        noise = np.zeros_like(states)
        out = lmc_step(states, gauss2, 0.05, noise)
        for row_in, row_out in zip(states, out):
            assert np.allclose(row_out, lmc_step(row_in, gauss2, 0.05, noise[0]), rtol=1e-14)

    def test_shape_validation(self, gauss2):
        with pytest.raises(ValueError, match="dimension"):
            lmc_step(np.zeros(3), gauss2, 0.05, np.zeros(3))
        with pytest.raises(ValueError, match="noise"):
            lmc_step(np.zeros(2), gauss2, 0.05, np.zeros(3))
        with pytest.raises(ValueError, match="step size"):
            lmc_step(np.zeros(2), gauss2, 0.0, np.zeros(2))


class TestRunLmc:
    def test_shape_and_reproducibility(self, gauss2):
        cfg = small_config()
        t1 = run_lmc(gauss2, cfg, np.zeros(2))
        t2 = run_lmc(gauss2, cfg, np.zeros(2))
        assert t1.iterates.shape == (31, 2)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.final, t1.iterates[-1])

    def test_replicas_and_seeds_decorrelate(self, gauss2):
        cfg = small_config()
        base = run_lmc(gauss2, cfg, np.zeros(2)).iterates
        other_rep = run_lmc(gauss2, cfg, np.zeros(2), replica=1).iterates
        other_seed = run_lmc(gauss2, small_config(seed=12), np.zeros(2)).iterates
        assert not np.array_equal(base[1:], other_rep[1:])
        assert not np.array_equal(base[1:], other_seed[1:])

    def test_zero_steps_returns_initial_only(self, gauss2):
        t = run_lmc(gauss2, small_config(K=0), np.array([3.0, 4.0]))
        assert t.iterates.shape == (1, 2)
        assert np.array_equal(t.final, [3.0, 4.0])

    def test_callable_initial_uses_init_channel(self, gauss2):
        cfg = small_config(K=0, seed=21)
        t = run_lmc(gauss2, cfg, lambda g: g.standard_normal(2), replica=3)
        expected = noise_stream(21, 3, INIT_STREAM).standard_normal(2)
        assert np.array_equal(t.final, expected)

    def test_manual_replay_from_streams(self, gauss2):
        cfg = small_config(K=5, seed=9)
        t = run_lmc(gauss2, cfg, np.zeros(2))
        g = noise_stream(9, 0, XI_STREAM)
        theta = np.zeros(2)
        for k in range(5):
            theta = lmc_step(theta, gauss2, cfg.h, g.standard_normal(2))
            assert np.array_equal(t.iterates[k + 1], theta)

    def test_rejects_noisy_oracle(self, gauss2):
        cfg = small_config(oracle=GradientOracle(mode="gaussian", sigma=1.0))
        with pytest.raises(ValueError, match="run_nlmc"):
            run_lmc(gauss2, cfg, np.zeros(2))

    def test_initial_shape_mismatch(self, gauss2):
        with pytest.raises(ValueError, match="dimension"):
            run_lmc(gauss2, small_config(), np.zeros(5))

    def test_warns_beyond_stability_limit(self, gauss2):
        h = 2.0 / gauss2.M
        with pytest.warns(RuntimeWarning, match="2/M"):
            run_lmc(gauss2, small_config(h=h, K=2), np.zeros(2))


class TestNoisyOracle:
    def test_sigma_zero_matches_exact_chain_bitwise(self, gauss2):
        cfg_exact = small_config()
        cfg_noisy = small_config(oracle=GradientOracle(mode="gaussian", sigma=0.0))
        a = run_lmc(gauss2, cfg_exact, np.zeros(2)).iterates
        b = run_nlmc(gauss2, cfg_noisy, np.zeros(2)).iterates
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sigma_zero_replicas_match_exact_and_draw_no_zeta(self, monkeypatch, threads):
        target = quadratic_target(np.array([0.5]), np.array([[2.0]]))
        cfg = LmcConfig(h=0.1, K=4096, seed=5)
        assert sampler_mod._chunk_rows(cfg.K, 1) < 300  # 600 replicas run in several chunks
        monkeypatch.setenv("LANGEVIN_LAB_THREADS", threads)
        exact = final_states(target, cfg, np.zeros(1), replicas=600)
        channels = []
        keys = sampler_mod._stream_keys
        monkeypatch.setattr(sampler_mod, "_stream_keys", lambda s, r, c: channels.append(c) or keys(s, r, c))
        noisy = LmcConfig(h=0.1, K=4096, seed=5, oracle=GradientOracle(mode="gaussian", sigma=0.0))
        assert np.array_equal(final_states(target, noisy, np.zeros(1), replicas=600), exact)
        assert channels and ZETA_STREAM not in channels

    def test_positive_sigma_changes_the_path(self, gauss2):
        a = run_lmc(gauss2, small_config(), np.zeros(2)).iterates
        cfg = small_config(oracle=GradientOracle(mode="gaussian", sigma=0.8))
        b = run_nlmc(gauss2, cfg, np.zeros(2)).iterates
        assert not np.array_equal(a[1:], b[1:])

    def test_rejects_exact_oracle(self, gauss2):
        with pytest.raises(ValueError, match="noisy oracle"):
            run_nlmc(gauss2, small_config(), np.zeros(2))

    def test_rademacher_noise_is_plus_minus_sigma(self, gauss2):
        oracle = GradientOracle(mode="gaussian", sigma=0.5, noise="rademacher")
        state = np.array([0.2, 0.4])
        g = gauss2.grad(state)
        y = oracle_gradient(gauss2, oracle, state, noise_stream(0, 0, ZETA_STREAM))
        assert np.all(np.isin(np.round((y - g) / 0.5, 12), [-1.0, 1.0]))

    def test_noisy_oracle_requires_stream(self, gauss2):
        oracle = GradientOracle(mode="gaussian", sigma=1.0)
        with pytest.raises(ValueError, match="noise stream"):
            oracle_gradient(gauss2, oracle, np.zeros(2), None)


class TestSubsampledOracle:
    def test_full_batch_equals_exact_gradient(self, logit):
        n = logit.parts.n_obs
        oracle = GradientOracle(mode="subsampled", batch=n)
        state = np.array([0.1, -0.2, 0.3])
        y = oracle_gradient(logit, oracle, state, noise_stream(0, 0, ZETA_STREAM))
        assert np.allclose(y, logit.grad(state), rtol=1e-9, atol=1e-12)

    def test_full_batch_chain_tracks_exact_chain(self, logit):
        cfg = LmcConfig(
            h=0.02, K=25, seed=5,
            oracle=GradientOracle(mode="subsampled", batch=logit.parts.n_obs),
        )
        noisy = run_nlmc(logit, cfg, np.zeros(3)).iterates
        exact = run_lmc(logit, LmcConfig(h=0.02, K=25, seed=5), np.zeros(3)).iterates
        assert np.allclose(noisy, exact, rtol=1e-8, atol=1e-10)

    def test_minibatch_estimator_is_unbiased(self, logit):
        oracle = GradientOracle(mode="subsampled", batch=5)
        state = np.array([0.3, 0.1, -0.4])
        rng = noise_stream(123, 0, ZETA_STREAM)
        draws = np.stack([oracle_gradient(logit, oracle, state, rng) for _ in range(4000)])
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - logit.grad(state)) < 5.0 * se)

    def test_batch_larger_than_data_rejected(self, logit):
        oracle = GradientOracle(mode="subsampled", batch=41)
        with pytest.raises(ValueError, match="observation count"):
            oracle_gradient(logit, oracle, np.zeros(3), noise_stream(0, 0, ZETA_STREAM))

    def test_requires_finite_sum_structure(self, gauss2):
        oracle = GradientOracle(mode="subsampled", batch=1)
        with pytest.raises(ValueError, match="finite-sum"):
            oracle_gradient(gauss2, oracle, np.zeros(2), noise_stream(0, 0, ZETA_STREAM))

    def test_rejects_batched_states(self, logit):
        oracle = GradientOracle(mode="subsampled", batch=2)
        with pytest.raises(ValueError, match="single states"):
            oracle_gradient(logit, oracle, np.zeros((4, 3)), noise_stream(0, 0, ZETA_STREAM))


class TestGradientDescent:
    def test_converges_to_minimizer(self, gauss2):
        path = gradient_descent(gauss2, 1.0 / gauss2.M, 400, np.zeros(2))
        assert path.shape == (401, 2)
        mean = gauss2.oracle_meta.mean
        assert np.linalg.norm(path[-1] - mean) < 1e-8
        assert np.linalg.norm(path[-1] - mean) < np.linalg.norm(path[0] - mean)

    def test_matches_manual_iteration(self, gauss2):
        h = 0.07
        path = gradient_descent(gauss2, h, 3, np.array([1.0, 1.0]))
        theta = np.array([1.0, 1.0])
        for k in range(3):
            theta = theta - h * gauss2.grad(theta)
            assert np.array_equal(path[k + 1], theta)

    def test_validation(self, gauss2):
        with pytest.raises(ValueError, match="step size"):
            gradient_descent(gauss2, -0.1, 3, np.zeros(2))
        with pytest.raises(ValueError, match="K"):
            gradient_descent(gauss2, 0.1, -3, np.zeros(2))


class TestChainStates:
    def test_checks_at_the_call_and_yields_the_recorded_iterates(self, gauss2):
        with pytest.warns(RuntimeWarning, match="2/M"):
            chain_states(gauss2, small_config(h=3.0 / gauss2.M), np.zeros(2))  # no state taken
        with pytest.raises(ValueError, match="initial state must have shape"):
            chain_states(gauss2, small_config(), np.zeros(3))
        cfg = small_config(K=9)
        states = list(chain_states(gauss2, cfg, np.ones(2), replica=2))
        assert np.array_equal(states, run_lmc(gauss2, cfg, np.ones(2), replica=2).iterates)


class TestTemperedChain:
    def test_zero_temperature_is_descent_with_step_one_over_m(self, gauss2):
        t = run_tempered_lmc(gauss2, 0.0, 20, seed=3, initial=np.array([2.0, 2.0]))
        gd = gradient_descent(gauss2, 1.0 / gauss2.M, 20, np.array([2.0, 2.0]))
        assert np.array_equal(t.iterates, gd)
        assert t.tau == 0.0
        assert t.config.h == 1.0 / gauss2.M

    def test_tau_equal_m_is_unit_step_chain_on_rescaled_target(self, gauss2):
        M = gauss2.M
        init = np.array([1.5, -0.5])
        t = run_tempered_lmc(gauss2, M, 40, seed=17, initial=init)
        ref = run_lmc(temper(gauss2, M), LmcConfig(h=1.0, K=40, seed=17), init)
        assert np.array_equal(t.iterates, ref.iterates)
        assert t.tau == M
        assert t.config.h == pytest.approx(1.0, rel=1e-15)

    def test_recovered_noise_does_not_depend_on_tau(self, gauss2):
        # same seed means the same xi draws; inverting the update must
        # return them no matter the temperature
        init = np.array([0.5, 0.5])
        M = gauss2.M

        def recover(tau):
            t = run_tempered_lmc(gauss2, tau, 30, seed=2, initial=init)
            g = gauss2.grad(t.iterates[:-1])
            return (t.iterates[1:] - t.iterates[:-1] + g / M) / math.sqrt(2.0 * tau / M)

        a, b = recover(0.7), recover(3.1)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_callable_start_draws_from_seed_and_replica_at_every_tau(self, gauss2):
        start = noise_stream(5, 3, INIT_STREAM).standard_normal(2)
        for tau in (0.0, 1e-300, 0.5):
            t = run_tempered_lmc(gauss2, tau, 3, seed=5, replica=3, initial=lambda rng: rng.standard_normal(2))
            assert np.array_equal(t.iterates[0], start), tau

    def test_validation(self, gauss2):
        with pytest.raises(ValueError, match="tau"):
            run_tempered_lmc(gauss2, -1.0, 5, initial=np.zeros(2))
        with pytest.raises(TypeError, match="keyword-only argument: 'initial'"):
            run_tempered_lmc(gauss2, 1.0, 5)


class TestFinalStates:
    def test_matches_single_chain_runs(self, gauss2):
        cfg = small_config(K=40)
        outs = final_states(gauss2, cfg, np.zeros(2), replicas=6)
        assert outs.shape == (6, 2)
        for r in range(6):
            single = run_lmc(gauss2, cfg, np.zeros(2), replica=r).final
            assert np.allclose(outs[r], single, rtol=1e-12, atol=1e-14)

    def test_prefix_stable_in_replica_count(self, gauss2):
        cfg = small_config(K=25)
        few = final_states(gauss2, cfg, np.zeros(2), replicas=3)
        many = final_states(gauss2, cfg, np.zeros(2), replicas=9)
        assert np.array_equal(many[:3], few)

    def test_chunked_evaluation_is_seamless(self, gauss2, monkeypatch):
        # shrink the chunk so several blocks cover eight replicas
        cfg = small_config(K=12)
        whole = final_states(gauss2, cfg, np.zeros(2), replicas=8)
        monkeypatch.setattr(sampler_mod, "_chunk_rows", lambda K, p: 3)
        pieces = final_states(gauss2, cfg, np.zeros(2), replicas=8)
        assert np.allclose(pieces, whole, rtol=1e-12, atol=1e-14)

    def test_thread_count_does_not_change_results(self, gauss2, monkeypatch):
        cfg = small_config(K=12)
        monkeypatch.setattr(sampler_mod, "_chunk_rows", lambda K, p: 2)
        monkeypatch.setenv("LANGEVIN_LAB_THREADS", "1")
        serial = final_states(gauss2, cfg, np.zeros(2), replicas=10)
        monkeypatch.setenv("LANGEVIN_LAB_THREADS", "4")
        threaded = final_states(gauss2, cfg, np.zeros(2), replicas=10)
        assert np.array_equal(serial, threaded)

    def test_noisy_batch_matches_single_chains(self, gauss2):
        cfg = small_config(K=30, oracle=GradientOracle(mode="gaussian", sigma=0.7))
        outs = final_states(gauss2, cfg, np.zeros(2), replicas=5)
        for r in range(5):
            single = run_nlmc(gauss2, cfg, np.zeros(2), replica=r).final
            assert np.allclose(outs[r], single, rtol=1e-12, atol=1e-14)

    def test_subsampled_falls_back_to_per_chain_runs(self, logit):
        cfg = LmcConfig(h=0.02, K=10, seed=3, oracle=GradientOracle(mode="subsampled", batch=4))
        outs = final_states(logit, cfg, np.zeros(3), replicas=4)
        for r in range(4):
            single = run_nlmc(logit, cfg, np.zeros(3), replica=r).final
            assert np.array_equal(outs[r], single)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_subsampled_replicas_ride_the_chunked_kernel(self, logit, monkeypatch, chunk, threads):
        # each row draws its batch from its replica's own stream, so chunking,
        # threads and the replica count cannot change a replica's chain
        cfg = LmcConfig(h=0.02, K=15, seed=8, oracle=GradientOracle(mode="subsampled", batch=5))
        singles = np.stack([run_nlmc(logit, cfg, np.zeros(3), replica=r).final for r in range(7)])
        if chunk is not None:
            monkeypatch.setattr(sampler_mod, "_chunk_rows", lambda K, p: chunk)
        monkeypatch.setenv("LANGEVIN_LAB_THREADS", threads)
        assert np.array_equal(final_states(logit, cfg, np.zeros(3), replicas=7), singles)
        assert np.array_equal(final_states(logit, cfg, np.zeros(3), replicas=4), singles[:4])

    def test_callable_initial_per_replica(self, gauss2):
        cfg = small_config(K=0)
        outs = final_states(gauss2, cfg, lambda g: g.standard_normal(2), replicas=4)
        assert len({tuple(row) for row in outs}) == 4

    def test_peak_memory_does_not_grow_with_k(self, rng):
        # noise must be drawn in K-blocks, not materialised for all K steps
        target = quadratic_target(np.zeros(100), make_spd(rng, 100))

        def peak(K):
            tracemalloc.start()
            try:
                final_states(target, LmcConfig(h=0.5 / target.M, K=K), np.zeros(100), replicas=16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(800), peak(8000)
        assert abs(large - small) <= 0.1 * small, (small, large)

    def test_replica_count_validation(self, gauss2):
        with pytest.raises(ValueError, match="replicas"):
            final_states(gauss2, small_config(), np.zeros(2), replicas=0)


class TestThreadCap:
    def test_unset_variable_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(parallel_mod.ENV_THREADS, raising=False)
        assert parallel_mod.thread_cap() == max(1, os.cpu_count() or 1)
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 3)
        assert parallel_mod.thread_cap() == 3
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: None)
        assert parallel_mod.thread_cap() == 1


class TestTrajectoryIo:
    def test_csv_round_trips_bit_for_bit(self, gauss2, tmp_path):
        t = run_lmc(gauss2, small_config(K=7), np.zeros(2))
        path = tmp_path / "chain.csv"
        trajectory_to_csv(t, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,theta_0,theta_1"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], np.arange(8.0))
        assert np.array_equal(back[:, 1:], t.iterates)

    def test_summary_fields(self, gauss2):
        t = run_lmc(gauss2, small_config(K=4, seed=8), np.ones(2))
        s = trajectory_summary(t)
        assert s["dim"] == 2 and s["iterations"] == 4
        assert s["h"] == 0.05 and s["seed"] == 8
        assert s["oracle"] == "exact" and s["sigma"] == 0.0
        assert s["final"] == [float(x) for x in t.final]
        assert np.allclose(s["path_mean"], t.iterates.mean(axis=0), rtol=1e-15)
        assert "tau" not in s

    def test_summary_includes_tau_for_tempered_chains(self, gauss2):
        t = run_tempered_lmc(gauss2, 2.0, 3, seed=1, initial=np.zeros(2))
        assert trajectory_summary(t)["tau"] == 2.0


class TestBoundedMemory:
    def test_final_states_noise_buffers_are_per_replica_blocks(self, rng):
        # 32 replicas x K=1000 x p=100: about 4096 noise values per replica per block,
        # not a buffer filled for the whole chunk (8.2 MB traced before)
        target = quadratic_target(np.zeros(100), make_spd(rng, 100))
        config = LmcConfig(h=0.5 / target.M, K=1000)
        final_states(target, config, np.zeros(100), replicas=2)  # warm caches outside the trace
        tracemalloc.start()
        try:
            final_states(target, config, np.zeros(100), replicas=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak

    def test_streamed_trajectory_memory_does_not_grow_with_k(self, rng, tmp_path):
        target = quadratic_target(np.zeros(20), make_spd(rng, 20))

        def peak(K):
            config = LmcConfig(h=0.5 / target.M, K=K)
            tracemalloc.start()
            try:
                write_trajectory(target, config, np.zeros(20), tmp_path / "chain.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)
        small, large = peak(300), peak(3000)
        assert abs(large - small) <= 0.1 * small, (small, large)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 3),
    K=st.integers(0, 700),
    seed=st.integers(0, 2**20),
    oracle=st.sampled_from(["exact", "gaussian", "rademacher"]),
    budget=st.integers(1, 400),
)
def test_streamed_trajectory_equals_the_recorded_one(p, K, seed, oracle, budget, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stream")
    target = quadratic_target(np.arange(1.0, p + 1.0), np.diag(np.linspace(1.0, 4.0, p)))
    if oracle == "exact":
        cfg, runner = LmcConfig(h=0.1, K=K, seed=seed), run_lmc
    else:
        law = GradientOracle(mode="gaussian", sigma=0.4, noise="gaussian" if oracle == "gaussian" else oracle)
        cfg, runner = LmcConfig(h=0.1, K=K, seed=seed, oracle=law), run_nlmc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler_mod, "_NOISE_BUDGET", budget)
        mp.setattr(outputs_mod, "_BLOCK_VALUES", budget)  # CSV blocks of budget // p rows
        streamed = write_trajectory(target, cfg, np.full(p, -0.5), tmp / "streamed.csv")
    traj = runner(target, cfg, np.full(p, -0.5))
    trajectory_to_csv(traj, tmp / "recorded.csv")
    assert (tmp / "streamed.csv").read_bytes() == (tmp / "recorded.csv").read_bytes()
    recorded = trajectory_summary(traj)
    del streamed["wall_time_s"], recorded["wall_time_s"]
    assert streamed == recorded and list(streamed) == list(recorded)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20_000), p=st.integers(1, 3), seed=st.integers(0, 2**20))
def test_path_mean_is_the_in_order_row_sum(n, p, seed):
    # every p sums rows in order from +0.0; numpy's mean does so only for p > 1
    r = np.random.Generator(np.random.Philox(key=[seed, 3]))
    rows = r.standard_normal((n, p)) * np.exp(4.0 * r.standard_normal((n, p)))
    run = outputs_mod.RunSummary(n, p)
    total = np.zeros(p)
    for row in rows:
        run.add(row)
        total = total + row
    summary = run.summary(LmcConfig(h=0.1, K=n - 1), 0, 0.0)
    assert summary["path_mean"] == list(total / n) and summary["final"] == list(rows[-1])
    if p > 1:
        assert summary["path_mean"] == list(rows.mean(axis=0))


def test_a_negative_zero_start_has_a_positive_zero_path_mean(tmp_path):
    # numpy's mean of the rows also starts from +0.0, so p > 1 summaries keep their bits
    for p in (1, 2, 3):
        target = quadratic_target(np.zeros(p), np.eye(p))
        summary = write_trajectory(target, LmcConfig(h=0.1, K=0), np.full(p, -0.0), tmp_path / "c.csv")
        assert [math.copysign(1.0, x) for x in summary["final"]] == [-1.0] * p
        assert [math.copysign(1.0, x) for x in summary["path_mean"]] == [1.0] * p
        assert np.mean(np.full((1, p), -0.0), axis=0).tobytes() == np.array(summary["path_mean"]).tobytes()


class TestChainHealth:
    def test_kernel_names_the_first_non_finite_replica_and_block(self, monkeypatch):
        monkeypatch.setattr(sampler_mod, "_NOISE_BUDGET", 3)  # p = 1: blocks of 3 steps
        growth = np.array([[0.0], [-1e100], [0.0]])  # replica 11 grows 1e100-fold per step
        states = sampler_mod._advance(np.ones((3, 1)), 10, 1.0, lambda x, z: growth * x,
                                      replicas=range(10, 13))
        with pytest.raises(FloatingPointError, match=r"replica 11 is not finite after steps 4\.\.6"):
            list(states)

    def test_diverging_replicas_raise(self, gauss2):
        with pytest.warns(RuntimeWarning, match="2/M"):
            with pytest.raises(FloatingPointError, match=r"replica 0 is not finite"):
                final_states(gauss2, small_config(h=3.0 / gauss2.M, K=3000), np.zeros(2), replicas=3)

    def test_diverging_trajectory_raises_and_leaves_no_file(self, gauss2, tmp_path):
        out = tmp_path / "chain.csv"
        with pytest.warns(RuntimeWarning, match="2/M"):
            with pytest.raises(FloatingPointError, match=r"replica 0 is not finite"):
                write_trajectory(gauss2, small_config(h=3.0 / gauss2.M, K=3000), np.zeros(2), out)
        assert list(tmp_path.iterdir()) == []

    def test_diverging_trajectory_leaves_an_existing_file_as_it_was(self, gauss2, tmp_path):
        out = tmp_path / "chain.csv"
        write_trajectory(gauss2, small_config(K=5), np.zeros(2), out)
        before = out.read_bytes()
        with pytest.warns(RuntimeWarning, match="2/M"):
            with pytest.raises(FloatingPointError, match=r"replica 0 is not finite"):
                write_trajectory(gauss2, small_config(h=3.0 / gauss2.M, K=3000), np.zeros(2), out)
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]


class TestCsvReplacement:
    def test_unopenable_path_is_left_alone(self, gauss2, tmp_path):
        out = tmp_path / "chain.csv"
        out.mkdir()
        with pytest.raises(IsADirectoryError):
            write_trajectory(gauss2, small_config(K=5), np.zeros(2), out)
        assert out.is_dir() and list(out.iterdir()) == []
        assert list(tmp_path.iterdir()) == [out]

    def test_partial_file_is_not_left_behind_after_a_failed_replace(self, gauss2, tmp_path, monkeypatch):
        out = tmp_path / "chain.csv"
        out.write_text("previous run\n")

        def refuse(src, dst):
            raise PermissionError("no")

        monkeypatch.setattr(outputs_mod.os, "replace", refuse)
        with pytest.raises(PermissionError):
            write_trajectory(gauss2, small_config(K=5), np.zeros(2), out)
        assert out.read_text() == "previous run\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_writes_through_a_symlink_and_keeps_the_file_mode(self, gauss2, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        real.chmod(0o640)
        link.symlink_to(real)
        traj = run_lmc(gauss2, small_config(K=5), np.zeros(2))
        trajectory_to_csv(traj, link)
        assert link.is_symlink()
        assert real.read_text().startswith("k,theta_0,theta_1\n")
        assert real.stat().st_mode & 0o777 == 0o640
        assert sorted(tmp_path.iterdir()) == [link, real]

    def test_non_finite_initial_state_is_rejected(self, gauss2):
        with pytest.raises(ValueError, match=r"initial state\[1\] must be finite, got nan"):
            run_lmc(gauss2, small_config(), np.array([0.0, np.nan]))
