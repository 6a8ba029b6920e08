"""Counter-based RNG streams and the event-driven Monte Carlo simulator."""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from aimdexit import (ExitKind, ExitSpec, McConfig, ModelParams, Side,
                      ValidationError, default_horizon_cap, evaluate, mc_lst,
                      run_suite, z_up)
from aimdexit.rng import exponentials, path_keys, uniforms
from aimdexit import simulator
from aimdexit.simulator import _CHUNK, simulate_exit

SEED = 90210


def _cfg(w, n_paths, lam=1.0, seed=SEED, cap=None):
    if cap is None:
        cap = default_horizon_cap(w, lam)
    return McConfig(n_paths=n_paths, seed=seed, horizon_cap=cap, w=w)


class TestCounterRng:
    def test_uniforms_live_in_unit_interval(self):
        u = uniforms(path_keys(SEED, np.arange(100_000, dtype=np.uint64)), 0)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0

    def test_uniforms_pass_ks_across_paths(self):
        u = uniforms(path_keys(SEED, np.arange(200_000, dtype=np.uint64)), 0)
        assert stats.kstest(u, "uniform").pvalue > 1e-4

    def test_uniforms_pass_ks_across_draws(self):
        u = uniforms(path_keys(SEED, 7), np.arange(200_000, dtype=np.uint64))
        assert stats.kstest(u, "uniform").pvalue > 1e-4

    def test_exponentials_pass_ks(self):
        e = exponentials(path_keys(SEED + 1, np.arange(200_000, dtype=np.uint64)), 0, rate=2.0)
        assert stats.kstest(e, "expon", args=(0.0, 0.5)).pvalue > 1e-4

    def test_variates_are_pure_functions_of_counters(self):
        idx = np.arange(64, dtype=np.uint64)
        block = uniforms(path_keys(SEED, idx), 3)
        singles = np.array([float(uniforms(path_keys(SEED, int(i)), 3)) for i in idx])
        np.testing.assert_array_equal(block, singles)
        # evaluation order is irrelevant: a permuted request permutes values
        perm = idx[::-1]
        np.testing.assert_array_equal(uniforms(path_keys(SEED, perm), 3), block[::-1])

    def test_distinct_seeds_give_distinct_streams(self):
        a = uniforms(path_keys(1, np.arange(16, dtype=np.uint64)), 0)
        b = uniforms(path_keys(2, np.arange(16, dtype=np.uint64)), 0)
        assert not np.any(a == b)

    def test_adjacent_paths_are_decorrelated(self):
        u = uniforms(path_keys(SEED, np.arange(100_001, dtype=np.uint64)), 0)
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.01

    @pytest.mark.parametrize("draw", [0, 1, 2**40])
    def test_exponentials_into_a_buffer_match_the_allocating_call(self, draw):
        keys = path_keys(SEED, np.arange(1000, dtype=np.uint64))
        want = exponentials(keys, draw, 1.5).view(np.uint64)
        buf, scratch = np.full(4096, np.nan), np.empty(4096, np.uint64)
        for m in (1000, 37):  # slices of larger buffers, as the kernel hands them
            got = exponentials(keys[:m], draw, 1.5, out=buf[:m], scratch=scratch[:m])
            assert np.shares_memory(got, buf)
            np.testing.assert_array_equal(got.view(np.uint64), want[:m])
        assert np.isnan(buf[1000:]).all()
        got = exponentials(keys, draw, 1.5, out=np.empty(1000))  # hash scratch allocated
        np.testing.assert_array_equal(got.view(np.uint64), want)

    def test_path_keys_into_a_buffer_match_the_allocating_call(self):
        index = np.arange(2**40, 2**40 + 500, dtype=np.uint64)
        want = path_keys(SEED, index)
        out, scratch = np.empty(800, np.uint64), index.copy()
        # the index array itself may be the scratch, as in mc_lst's chunks
        np.testing.assert_array_equal(path_keys(SEED, scratch, out=out[:500], scratch=scratch),
                                      want)

    def test_exponential_sample_mean(self):
        e = exponentials(path_keys(SEED + 2, np.arange(100_000, dtype=np.uint64)), 0, rate=0.5)
        # Exp(0.5): mean 2, sd 2 -> standard error 2/sqrt(n)
        assert abs(float(e.mean()) - 2.0) < 5 * 2.0 / math.sqrt(100_000)


_M64 = (1 << 64) - 1


def _splitmix64(z):
    """One splitmix64 round in Python integers, modulo 2^64."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _reference_uniform(seed, path, draw):
    """The stream's definition, one triple at a time: three chained rounds
    over (seed, path, draw), top 53 bits scaled to [0, 1)."""
    key = _splitmix64(_splitmix64((seed & _M64) ^ 0x8BADF00DDEADBEEF) ^ path)
    return (_splitmix64(key ^ draw) >> 11) * 2.0 ** -53


class TestStreamReference:
    # a negative seed, seeds at and past 2^63, paths near 2^64 - 1, and draws
    # 0 and 10^6
    TRIPLES = [(SEED, 0, 0), (-7, 12_345, 1), (2**63 + 11, 3, 10**6),
               (1, 2**64 - 1, 0), (-(2**40), 2**64 - 2, 10**6), (2**64 - 1, 2**63, 17)]

    @pytest.mark.parametrize("seed, path, draw", TRIPLES)
    def test_variates_match_the_scalar_integer_reference(self, seed, path, draw):
        keys = path_keys(seed, np.array([path], dtype=np.uint64))
        u = _reference_uniform(seed, path, draw)
        assert float(uniforms(keys, draw)[0]).hex() == u.hex()
        for rate in (1.5, 0.37):
            # -log1p(-U)/rate through the same log1p as the library, so the
            # comparison sees the hashing and the sign handling only
            want = float(-np.log1p(np.array([-u]))[0] / rate)
            assert float(exponentials(keys, draw, rate)[0]).hex() == want.hex()


# one spec per kernel step, each exiting after a few jumps so the scalar
# replay stays cheap
REPLAY_CASES = [
    ("up-one", ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0), 1.0, 0.5),
    ("down-one", ExitSpec(ExitKind.DOWN_ONE, x=2.0, b=0.5), 1.5, 0.5),
    ("two-sided-up", ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=2.0, b=0.5), 1.0, 0.5),
    ("two-sided-down", ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.0, a=2.0, b=0.5), 1.0, 0.5),
    ("refl-upper-down", ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1.5, a=2.0, c=1.2), 1.0, 0.5),
    ("refl-lower-up", ExitSpec(ExitKind.REFL_LOWER_UP, x=1.0, b=0.5, c=2.0), 1.0, 0.5),
    ("drawdown", ExitSpec(ExitKind.DRAWDOWN, x=3.0, c=1.2), 1.0, 0.5),
    ("drawdown-xbar0", ExitSpec(ExitKind.DRAWDOWN, x=3.0, c=1.2, xbar0=3.8), 1.0, 0.5),
    ("drawup", ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5), 1.0, 0.5),
]


class TestSimulateExit:
    def test_replay_is_deterministic(self):
        spec = ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=2.0, b=0.5)
        params = ModelParams(lam=1.0, p=0.5)
        first = [simulate_exit(spec, params, i, SEED) for i in range(32)]
        second = [simulate_exit(spec, params, i, SEED) for i in range(32)]
        assert first == second
        assert len({t for t, _ in first if math.isfinite(t)}) > 16

    def test_pure_drift_up_one_is_exact(self):
        spec = ExitSpec(ExitKind.UP_ONE, x=0.75, a=2.0)
        tau, side = simulate_exit(spec, ModelParams(lam=0.0, p=0.5), 0, SEED)
        assert tau == 1.25
        assert side is Side.UP

    def test_pure_drift_down_one_never_exits(self):
        spec = ExitSpec(ExitKind.DOWN_ONE, x=2.0, b=1.0)
        tau, side = simulate_exit(spec, ModelParams(lam=0.0, p=0.5), 0, SEED)
        assert math.isinf(tau)
        assert side is Side.CENSORED

    def test_pure_drift_respects_slope(self):
        spec = ExitSpec(ExitKind.UP_ONE, x=0.0, a=1.0)
        tau, side = simulate_exit(spec, ModelParams(lam=0.0, p=0.5, beta=2.0), 0, SEED)
        assert tau == 0.5
        assert side is Side.UP

    def test_slope_rescaling_matches_normalized_run_pathwise(self):
        # slope beta with rate lam is, pathwise on the same draws, the
        # unit-slope process with rate lam/beta run at beta x the speed
        spec = ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=2.0, b=0.5)
        fast = ModelParams(lam=1.0, p=0.5, beta=2.0)
        slow = ModelParams(lam=0.5, p=0.5, beta=1.0)
        for i in range(40):
            tau2, side2 = simulate_exit(spec, fast, i, SEED, w=1.0)
            tau1, side1 = simulate_exit(spec, slow, i, SEED, w=0.5)
            assert side2 is side1
            if math.isfinite(tau1):
                assert tau2 == tau1 / 2.0

    @pytest.mark.parametrize("spec, params", [
        pytest.param(spec, ModelParams(lam=lam, p=p), id=name)
        for name, spec, lam, p in REPLAY_CASES])
    def test_scalar_replay_reproduces_vector_statistics(self, spec, params):
        w, n = 0.7, 4096
        cfg = _cfg(w, n)
        est = mc_lst(spec, params, cfg)
        want = {ExitKind.TWO_SIDED_UP: Side.UP,
                ExitKind.TWO_SIDED_DOWN: Side.DOWN}.get(spec.kind)
        assert est.n_censored == 0
        acc = 0.0
        for i in range(n):
            tau, side = simulate_exit(spec, params, i, SEED, cfg.horizon_cap, w)
            if want is None or side is want:  # a censored tau is inf and adds 0
                acc += math.exp(-w * tau)
        assert math.isclose(est.mean, acc / n, rel_tol=1e-12)


class TestPathwiseCoupling:
    def test_extra_barrier_only_stops_paths_earlier(self):
        # identical draw schedule: the two-sided exit from (b, a) happens no
        # later than the one-sided passage to a, and when it exits upward
        # the two times coincide
        two = ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=2.0, b=0.6)
        up = ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0)
        params = ModelParams(lam=1.2, p=0.5)
        hits = 0
        for i in range(300):
            tau2, side2 = simulate_exit(two, params, i, SEED, horizon_cap=4000.0)
            tau1, side1 = simulate_exit(up, params, i, SEED, horizon_cap=4000.0)
            assert tau2 <= tau1 * (1 + 1e-12) or math.isinf(tau1)
            if side2 is Side.UP and side1 is Side.UP:
                assert math.isclose(tau2, tau1, rel_tol=1e-12)
                hits += 1
        assert hits > 20


class TestMcConfig:
    def test_rejects_nonpositive_paths(self):
        with pytest.raises(ValidationError):
            McConfig(n_paths=0, seed=1, horizon_cap=10.0, w=0.0)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValidationError):
            McConfig(n_paths=10, seed=1, horizon_cap=0.0, w=0.0)

    def test_rejects_negative_w(self):
        with pytest.raises(ValidationError):
            McConfig(n_paths=10, seed=1, horizon_cap=10.0, w=-1.0)

    def test_rejects_cap_with_visible_censoring_bias(self):
        # e^{-w cap} = e^{-10} ~ 4.5e-5 dwarfs 1e-3 x (0.5/sqrt(1e6)) = 5e-7
        with pytest.raises(ValidationError):
            McConfig(n_paths=1_000_000, seed=1, horizon_cap=10.0, w=1.0)

    def test_default_cap_always_satisfies_the_invariant(self):
        for w in (1e-3, 0.1, 1.0, 25.0):
            for n in (1, 10_000, 100_000_000):
                McConfig(n_paths=n, seed=1, horizon_cap=default_horizon_cap(w, 1.0), w=w)


class TestMcLst:
    def test_matches_up_one_transform(self):
        spec = ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0)
        params = ModelParams(lam=1.0, p=0.5)
        est = mc_lst(spec, params, _cfg(1.0, 200_000), threads=2)
        exact = z_up(1.0, 0.5, 1.0, 2.0)
        assert abs(est.mean - exact) < 4.0 * est.std_error
        assert est.std_error < 2e-3

    def test_thread_count_never_changes_the_result(self):
        spec = ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.0, a=2.0, b=0.5)
        params = ModelParams(lam=2.0, p=0.4)
        runs = [mc_lst(spec, params, _cfg(0.5, 100_000, lam=2.0), threads=t)
                for t in (1, 4, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_chunk_boundaries_are_invisible(self):
        spec = ExitSpec(ExitKind.UP_ONE, x=1.0, a=1.5)
        params = ModelParams(lam=1.0, p=0.5)
        for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
            est = mc_lst(spec, params, _cfg(1.0, n))
            assert est.n_paths == n
            assert 0.0 < est.mean < 1.0

    def test_two_sided_sides_partition_the_paths(self):
        # at w = 0 each exited path contributes 1 to exactly one side and
        # each censored path half to both, so the means add to 1
        spec_up = ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=2.0, b=0.5)
        spec_dn = ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.0, a=2.0, b=0.5)
        params = ModelParams(lam=1.0, p=0.5)
        cfg = _cfg(0.0, 50_000)
        up = mc_lst(spec_up, params, cfg)
        dn = mc_lst(spec_dn, params, cfg)
        assert math.isclose(up.mean + dn.mean, 1.0, rel_tol=1e-12)

    def test_censoring_accounting_matches_scalar_replay(self):
        spec = ExitSpec(ExitKind.DOWN_ONE, x=1.0, b=0.25)
        params = ModelParams(lam=1.0, p=0.5)
        n, cap = 2048, 3.0
        cfg = McConfig(n_paths=n, seed=SEED, horizon_cap=cap, w=0.0)
        est = mc_lst(spec, params, cfg)
        assert 0 < est.n_censored < n
        exited = sum(1 for i in range(n)
                     if simulate_exit(spec, params, i, SEED, cap)[1] is not Side.CENSORED)
        assert est.mean == pytest.approx((exited + 0.5 * est.n_censored) / n, rel=1e-12)
        assert est.n_censored == n - exited
        assert est.std_error >= est.n_censored / n

    def test_lambda_zero_runs_are_exact(self):
        params = ModelParams(lam=0.0, p=0.5)
        up = mc_lst(ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0), params, _cfg(1.0, 1000))
        assert up.mean == math.exp(-1.0)
        assert up.std_error == 0.0
        assert up.n_censored == 0
        dn = mc_lst(ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.0, a=2.0, b=0.5),
                    params, _cfg(1.0, 1000))
        assert dn.mean == 0.0  # drift-only paths always leave upward
        never = mc_lst(ExitSpec(ExitKind.DOWN_ONE, x=2.0, b=1.0), params, _cfg(1.0, 1000))
        assert never.n_censored == 1000
        assert never.mean == 0.5 * math.exp(-default_horizon_cap(1.0, 0.0))

    def test_drawdown_already_open_stops_at_time_zero(self):
        # the recorded drawdown xbar0 - x reaches c before any jump: every
        # path exits at once, as evaluate() and the lam = 0 rule say
        params = ModelParams(lam=1.0, p=0.5)
        for xbar0 in (2.5, 2.6):
            spec = ExitSpec(ExitKind.DRAWDOWN, x=1.5, c=1.0, xbar0=xbar0)
            est = mc_lst(spec, params, _cfg(0.5, 4000, seed=1))
            assert (est.mean, est.std_error, est.n_censored) == (1.0, 0.0, 0)
            assert est.mean == evaluate(params, spec, 0.5)
            assert simulate_exit(spec, params, 7, 1, w=0.5) == (0.0, Side.DOWN)

    @pytest.mark.parametrize("u", [0.0, 1.0])
    def test_drawup_past_its_window_stops_at_time_zero(self, u):
        # x - u already exceeds c before any jump: every path exits upward at
        # once, as evaluate() says (the creeping gap was negative and gave
        # negative exit times)
        params = ModelParams(lam=1.0, p=0.5)
        spec = ExitSpec(ExitKind.DRAWUP, x=3.0, u=u, c=0.5)
        for threads in (1, 2):
            est = mc_lst(spec, params, _cfg(0.5, 1000, seed=1), threads=threads)
            assert (est.mean, est.std_error, est.n_censored) == (1.0, 0.0, 0)
        assert est.mean == evaluate(params, spec, 0.5)
        assert simulate_exit(spec, params, 7, 1, w=0.5) == (0.0, Side.UP)
        (row,) = run_suite([(params, spec, 0.5)], n_paths=1000)
        assert row.verdict == "pass"

    def test_slope_parameter_reduces_to_normalized_run(self):
        spec = ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=2.0, b=0.5)
        fast = mc_lst(spec, ModelParams(lam=1.0, p=0.5, beta=2.0),
                      McConfig(n_paths=20_000, seed=SEED, horizon_cap=50.0, w=1.0))
        slow = mc_lst(spec, ModelParams(lam=0.5, p=0.5, beta=1.0),
                      McConfig(n_paths=20_000, seed=SEED, horizon_cap=100.0, w=0.5))
        assert fast == slow


# (mean, std_error, n_censored) of mc_lst at 4,096 paths and seed 4242,
# recorded as float.hex: any change to the kernels' arithmetic or to their
# draw schedule shows up here bit for bit
PINNED = [
    ("up-one", ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0), 1.0, 0.5, 0.5, None, 1,
     ("0x1.7e8a70c913503p-2", "0x1.a4ea38e190f6dp-9", 0)),
    ("down-one", ExitSpec(ExitKind.DOWN_ONE, x=2.0, b=0.5), 1.5, 0.6, 0.3, None, 1,
     ("0x1.879f87bb85a96p-3", "0x1.e929f1bea5961p-9", 0)),
    ("down-one-censored", ExitSpec(ExitKind.DOWN_ONE, x=1.0, b=0.5), 1.0, 0.5, 0.0, 3.0, 1,
     ("0x1.5c90000000000p-1", "0x1.4ab817f53d01ap-1", 2615)),
    ("two-sided-up", ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=2.0, b=0.5), 1.0, 0.5, 0.7,
     None, 1, ("0x1.fdfa397cb637cp-3", "0x1.ae0e2dea682fep-9", 0)),
    ("two-sided-down", ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.0, a=2.0, b=0.5), 1.0, 0.5, 0.7,
     None, 2, ("0x1.4c819a05cd8fcp-3", "0x1.1c1175aa54d4ap-8", 0)),
    ("refl-upper-down", ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1.5, a=2.0, c=0.6), 1.0, 0.7,
     0.4, None, 1, ("0x1.04e6b981a3896p-6", "0x1.695f673db3bb6p-10", 1975)),
    ("refl-lower-up", ExitSpec(ExitKind.REFL_LOWER_UP, x=1.0, b=0.5, c=2.5), 2.0, 0.5, 0.4,
     None, 1, ("0x1.3fce2b6f87ec7p-4", "0x1.27640a2d0f2c1p-9", 4)),
    ("drawdown", ExitSpec(ExitKind.DRAWDOWN, x=3.0, c=1.2), 1.0, 0.7, 0.3, None, 1,
     ("0x1.393bdbcac9b19p-1", "0x1.7db833d527eafp-9", 0)),
    ("drawdown-xbar0", ExitSpec(ExitKind.DRAWDOWN, x=3.0, c=1.2, xbar0=3.8), 1.0, 0.7, 0.3,
     None, 1, ("0x1.80dca3f566c58p-1", "0x1.93970b1ba3dafp-9", 0)),
    ("drawup", ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5), 1.0, 0.5, 0.3, None, 1,
     ("0x1.25814ea945ad9p-1", "0x1.c3425e3535eb1p-9", 0)),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("spec, lam, p, w, cap, threads, expected", [
        pytest.param(*case[1:], id=case[0]) for case in PINNED])
    def test_estimate_is_bit_identical_to_the_recorded_one(
            self, spec, lam, p, w, cap, threads, expected):
        cfg = _cfg(w, 4096, lam=lam, seed=4242, cap=cap)
        est = mc_lst(spec, ModelParams(lam=lam, p=p), cfg, threads=threads)
        mean, se, n_cens = expected
        assert (est.mean, est.std_error, est.n_censored) == \
            (float.fromhex(mean), float.fromhex(se), n_cens)


# (mean, std_error, n_censored) of mc_lst at 2 * _CHUNK + 1 paths (two full
# chunks and one of a single path) and seed 4242, recorded as float.hex
# before the alive set was kept compact: a creeping kind and a jumping kind
# across chunk boundaries and the fixed-order reduction
PINNED_MULTI_CHUNK = [
    ("drawup", ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5), 1.0, 0.5, 0.3,
     ("0x1.293ec5b45c5ffp-1", "0x1.c2413d6265cd2p-11", 0)),
    ("down-one", ExitSpec(ExitKind.DOWN_ONE, x=2.0, b=0.5), 1.5, 0.6, 0.3,
     ("0x1.7b282ab1642dfp-3", "0x1.e18bd1c22be57p-11", 0)),
]


class TestPinnedMultiChunk:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec, lam, p, w, expected", [
        pytest.param(*case[1:], id=case[0]) for case in PINNED_MULTI_CHUNK])
    def test_estimate_is_bit_identical_to_the_recorded_one(
            self, spec, lam, p, w, expected, threads):
        cfg = _cfg(w, 2 * _CHUNK + 1, lam=lam, seed=4242)
        est = mc_lst(spec, ModelParams(lam=lam, p=p), cfg, threads=threads)
        mean, se, n_cens = expected
        assert (est.mean, est.std_error, est.n_censored) == \
            (float.fromhex(mean), float.fromhex(se), n_cens)


class TestWorkspacePool:
    @staticmethod
    def run(spec, lam, p, w):
        cfg = _cfg(w, 2 * _CHUNK + 1, lam=lam, seed=4242)
        return mc_lst(spec, ModelParams(lam=lam, p=p), cfg, threads=2)

    def test_concurrent_callers_get_the_sequential_estimates(self):
        # four callers at once, each with two chunk threads: more workspaces
        # in use than the pool keeps, every one bit-identical to the pins
        cases = [case[1:5] for case in PINNED_MULTI_CHUNK]
        sequential = [self.run(*case) for case in cases]
        for est, case in zip(sequential, PINNED_MULTI_CHUNK):
            mean, se, n_cens = case[5]
            assert (est.mean, est.std_error, est.n_censored) == \
                (float.fromhex(mean), float.fromhex(se), n_cens)
        barrier, results = threading.Barrier(4), {}

        def caller(i):
            order = cases if i % 2 == 0 else cases[::-1]
            barrier.wait()
            results[i] = [self.run(*case) for case in order]
        workers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the pool's lock too
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for i in range(4):
            assert (results[i] if i % 2 == 0 else results[i][::-1]) == sequential, i

    def test_warm_rounds_allocate_less_than_one_chunk_array(self):
        # the rounds write into the pooled workspace: what numpy still
        # allocates (nonzero's index arrays of the drops, its cast buffers)
        # stays below one chunk-length float64 array at all times
        spec, params = ExitSpec(ExitKind.UP_ONE, x=1.0, a=6.0), ModelParams(lam=1.0, p=0.7)
        cfg = _cfg(0.5, _CHUNK)
        mc_lst(spec, params, cfg)  # the pool holds a workspace from here on
        tracemalloc.start()
        try:
            mc_lst(spec, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _CHUNK

    def test_pool_keeps_at_most_one_idle_workspace_per_cpu(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        spec = ExitSpec(ExitKind.UP_ONE, x=1.0, a=1.5)
        mc_lst(spec, ModelParams(lam=1.0, p=0.5), _cfg(1.0, 4 * _CHUNK), threads=4)
        assert 1 <= len(simulator._POOL) <= cpus

    def test_chunk_threads_are_capped_at_the_cpu_count(self, monkeypatch):
        # past one thread per CPU each call would build fresh workspaces;
        # the estimate is the same at any thread count
        seen, real = [], simulator.ThreadPoolExecutor

        def recording(max_workers):
            seen.append(max_workers)
            return real(max_workers=max_workers)
        monkeypatch.setattr(simulator, "ThreadPoolExecutor", recording)
        spec, params = ExitSpec(ExitKind.UP_ONE, x=1.0, a=1.5), ModelParams(lam=1.0, p=0.5)
        cfg = _cfg(1.0, 3 * _CHUNK + 1)
        cap = simulator._POOL_MAX
        ests = {t: mc_lst(spec, params, cfg, threads=t) for t in (1, 2, cap + 2)}
        # threads 1 runs in the caller, as does any count capped to one
        assert seen == [n for n in (min(2, cap), cap) if n > 1]
        hexes = {t: (e.mean.hex(), e.std_error.hex(), e.n_censored) for t, e in ests.items()}
        assert len(set(hexes.values())) == 1, hexes


class TestDefaultHorizonCap:
    def test_discounted_cap_tracks_w(self):
        assert default_horizon_cap(2.0, 1.0) == 25.0
        assert default_horizon_cap(0.5, 1.0) == 100.0

    def test_undiscounted_cap_tracks_jump_rate(self):
        assert default_horizon_cap(0.0, 2.0) == 4000.0
        assert default_horizon_cap(0.0, 0.0) == 64000.0
