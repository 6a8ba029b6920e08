"""Counter-based RNG streams and the event-driven Monte Carlo simulator."""

import math

import numpy as np
import pytest
from scipy import stats

from aimdexit import (ExitKind, ExitSpec, McConfig, ModelParams, Side,
                      ValidationError, default_horizon_cap, mc_lst,
                      simulate_exit, z_up)
from aimdexit.rng import exponentials, substream_seed, uniforms
from aimdexit.simulator import _CHUNK

SEED = 90210


def _cfg(w, n_paths, lam=1.0, seed=SEED, cap=None):
    if cap is None:
        cap = default_horizon_cap(w, lam)
    return McConfig(n_paths=n_paths, seed=seed, horizon_cap=cap, w=w)


class TestCounterRng:
    def test_uniforms_live_in_unit_interval(self):
        s0 = substream_seed(SEED)
        u = uniforms(s0, np.arange(100_000, dtype=np.uint64), 0)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0

    def test_uniforms_pass_ks_across_paths(self):
        s0 = substream_seed(SEED)
        u = uniforms(s0, np.arange(200_000, dtype=np.uint64), 0)
        assert stats.kstest(u, "uniform").pvalue > 1e-4

    def test_uniforms_pass_ks_across_draws(self):
        s0 = substream_seed(SEED)
        u = uniforms(s0, 7, np.arange(200_000, dtype=np.uint64))
        assert stats.kstest(u, "uniform").pvalue > 1e-4

    def test_exponentials_pass_ks(self):
        s0 = substream_seed(SEED + 1)
        e = exponentials(s0, np.arange(200_000, dtype=np.uint64), 0, rate=2.0)
        assert stats.kstest(e, "expon", args=(0.0, 0.5)).pvalue > 1e-4

    def test_variates_are_pure_functions_of_counters(self):
        s0 = substream_seed(SEED)
        idx = np.arange(64, dtype=np.uint64)
        block = uniforms(s0, idx, 3)
        singles = np.array([float(uniforms(s0, int(i), 3)) for i in idx])
        np.testing.assert_array_equal(block, singles)
        # evaluation order is irrelevant: a permuted request permutes values
        perm = idx[::-1]
        np.testing.assert_array_equal(uniforms(s0, perm, 3), block[::-1])

    def test_distinct_seeds_give_distinct_streams(self):
        a = uniforms(substream_seed(1), np.arange(16, dtype=np.uint64), 0)
        b = uniforms(substream_seed(2), np.arange(16, dtype=np.uint64), 0)
        assert not np.any(a == b)

    def test_adjacent_paths_are_decorrelated(self):
        s0 = substream_seed(SEED)
        u = uniforms(s0, np.arange(100_001, dtype=np.uint64), 0)
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.01

    def test_exponential_sample_mean(self):
        s0 = substream_seed(SEED + 2)
        e = exponentials(s0, np.arange(100_000, dtype=np.uint64), 0, rate=0.5)
        # Exp(0.5): mean 2, sd 2 -> standard error 2/sqrt(n)
        assert abs(float(e.mean()) - 2.0) < 5 * 2.0 / math.sqrt(100_000)


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
        exact = z_up(1.0, 1.0, 0.5, 1.0, 2.0)
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


class TestDefaultHorizonCap:
    def test_discounted_cap_tracks_w(self):
        assert default_horizon_cap(2.0, 1.0) == 25.0
        assert default_horizon_cap(0.5, 1.0) == 100.0

    def test_undiscounted_cap_tracks_jump_rate(self):
        assert default_horizon_cap(0.0, 2.0) == 4000.0
        assert default_horizon_cap(0.0, 0.0) == 64000.0
