"""The evaluate() entry point: pinned values, the fold of ``lam``, and the drift-only rule."""

import math

import pytest

from aimdexit import (ExitKind, ExitSpec, McConfig, ModelParams, ValidationError,
                      default_grid, default_horizon_cap, evaluate, mc_lst)

# (id, spec, lam, p, w, value as float.hex).  The escalated cases reach the
# arbitrary-precision paths: the downward-series constant and z_down
# (down-one), and the reciprocal scale-function tables (two-sided-up).
PINNED = [
    ("up-one", ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0), 2.0, 0.5, 0.5,
     "0x1.5182029083255p-3"),
    ("down-one", ExitSpec(ExitKind.DOWN_ONE, x=2.5, b=1.0), 0.7, 0.5, 0.8,
     "0x1.1d92aea01014ep-3"),
    ("down-one-escalated", ExitSpec(ExitKind.DOWN_ONE, x=3.0, b=1.0), 1.5, 0.9, 0.6,
     "0x1.31d142b4eda73p-34"),
    ("two-sided-up", ExitSpec(ExitKind.TWO_SIDED_UP, x=1.5, a=2.5, b=1.0), 1.5, 0.6, 0.5,
     "0x1.6cedc1022ca3ep-3"),
    # both K(x) and K(a) escalate, for the cancellation of their recursion
    # (float64 K(a) is 9.2e-12 off); the pin is the 150-digit value
    ("two-sided-up-escalated", ExitSpec(ExitKind.TWO_SIDED_UP, x=4.0, a=6.0, b=1.0),
     1.5, 0.9, 0.6, "0x1.30b6466b5132ap-4"),
    ("two-sided-down", ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.5, a=2.5, b=1.0),
     1.5, 0.6, 0.5, "0x1.e43a749847e25p-2"),
    ("refl-upper-down", ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1.5, a=2.5, c=1.0),
     0.8, 0.5, 0.5, "0x1.d520bb8166e99p-2"),
    ("refl-lower-up", ExitSpec(ExitKind.REFL_LOWER_UP, x=1.5, c=2.5, b=1.0),
     0.8, 0.5, 0.5, "0x1.a5a3422d50c65p-2"),
    ("drawdown", ExitSpec(ExitKind.DRAWDOWN, x=2.0, c=1.2), 0.7, 0.5, 0.5,
     "0x1.ed79beeabf290p-2"),
    # the value of a reference with twice the rule's nodes on four times its
    # panels, too
    ("drawdown-xbar0", ExitSpec(ExitKind.DRAWDOWN, x=2.0, c=1.2, xbar0=2.3),
     0.7, 0.5, 0.5, "0x1.1536b6d2082a3p-1"),
    ("drawup", ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5), 1.5, 0.5, 0.5,
     "0x1.4c95b3d3d596dp-2"),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("spec, lam, p, w, expected", [
        pytest.param(*case[1:], id=case[0]) for case in PINNED])
    def test_value_is_bit_identical_to_the_recorded_one(self, spec, lam, p, w, expected):
        assert evaluate(ModelParams(lam=lam, p=p), spec, w) == float.fromhex(expected)


# one default_grid() row per kind, plus drawdown with xbar0 (row 134); each
# of 25, 48, 65, 96, 105, 121 and 142 read differently at 2 lam or lam/2
# while lam still ran through the evaluators.  The slow drawup rows are left out
RESCALED_ROWS = [5, 25, 48, 65, 96, 105, 121, 134, 142]


class TestJumpRateFold:
    @pytest.mark.parametrize("row", RESCALED_ROWS)
    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_rescaled_problem_gives_the_same_bits(self, row, factor):
        # the same problem at jump rate lam' = factor * lam: every level
        # times lam/lam', w times lam'/lam.  Powers of two scale exactly, so
        # the evaluators see the same w/lam and lam * levels
        params, spec, w = default_grid()[row]
        new_lam = factor * params.lam
        scale = params.lam / new_lam
        moved = ExitSpec(kind=spec.kind, **{k: v * scale for k, v in spec.levels().items()})
        assert evaluate(ModelParams(lam=new_lam, p=params.p), moved, w / scale) \
            == evaluate(params, spec, w)


# (id, spec, drift-only exit time on the wanted side, or None where there is none)
DRIFT_ONLY = [
    ("up-one", ExitSpec(ExitKind.UP_ONE, x=1.0, a=3.5), 2.5),
    ("down-one", ExitSpec(ExitKind.DOWN_ONE, x=1.5, b=1.0), None),
    ("two-sided-up", ExitSpec(ExitKind.TWO_SIDED_UP, x=1.5, a=2.5, b=1.0), 1.0),
    # leaves through a, never through b
    ("two-sided-down", ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.5, a=2.5, b=1.0), None),
    ("refl-upper-down", ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1.5, a=2.0, c=1.0), None),
    ("refl-lower-up", ExitSpec(ExitKind.REFL_LOWER_UP, x=1.2, c=2.0, b=1.0), 0.8),
    ("drawdown", ExitSpec(ExitKind.DRAWDOWN, x=1.5, c=1.0), None),
    ("drawdown-xbar0", ExitSpec(ExitKind.DRAWDOWN, x=1.5, c=1.0, xbar0=2.0), None),
    # the recorded drawdown xbar0 - x already reaches c: the exit is immediate
    ("drawdown-window-open", ExitSpec(ExitKind.DRAWDOWN, x=1.5, c=1.0, xbar0=2.6), 0.0),
    ("drawup", ExitSpec(ExitKind.DRAWUP, x=1.2, u=1.0, c=1.0), 0.8),
    ("drawup-u0", ExitSpec(ExitKind.DRAWUP, x=0.6, u=0.0, c=1.4), 0.8),
]


class TestDriftOnly:
    @pytest.mark.parametrize("spec, tau", [pytest.param(*case[1:], id=case[0])
                                           for case in DRIFT_ONLY])
    # lam = 5e-324 makes w/lam overflow: an exit that needs a jump then
    # weighs less than lam/w, far below the smallest float64
    @pytest.mark.parametrize("lam, w", [(0.0, 0.0), (0.0, 0.7), (5e-324, 0.7)],
                             ids=["lam0-w0", "lam0-w0.7", "lam-tiny-w0.7"])
    def test_value_is_the_deterministic_exit(self, spec, tau, lam, w):
        # no jumps: the level creeps up at unit slope, so only the upward
        # exits happen, at a known time
        expected = 0.0 if tau is None else math.exp(-w * tau)
        assert math.isclose(evaluate(ModelParams(lam=lam, p=0.5), spec, w), expected,
                            rel_tol=1e-14)


# each kind with a level (0.05) that lam = 5e-324 scales to 0
UNDERFLOWING = [
    ("up-one", ExitSpec(ExitKind.UP_ONE, x=0.05, a=2.0)),
    ("down-one", ExitSpec(ExitKind.DOWN_ONE, x=2.0, b=0.05)),
    ("refl-upper-down", ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1.5, a=2.0, c=0.05)),
    ("refl-lower-up", ExitSpec(ExitKind.REFL_LOWER_UP, x=1.0, c=2.0, b=0.05)),
    ("drawdown", ExitSpec(ExitKind.DRAWDOWN, x=2.0, c=0.05)),
    ("drawdown-xbar0", ExitSpec(ExitKind.DRAWDOWN, x=2.0, c=0.05, xbar0=2.01)),
    ("drawup", ExitSpec(ExitKind.DRAWUP, x=1.0, u=0.05, c=2.0)),
]
TWO_SIDED = [
    ("two-sided-up", ExitSpec(ExitKind.TWO_SIDED_UP, x=1.5, a=2.5, b=0.05)),
    ("two-sided-down", ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.5, a=2.5, b=0.05)),
]


class TestLevelUnderflow:
    @pytest.mark.parametrize("spec", [pytest.param(s, id=i) for i, s in UNDERFLOWING])
    def test_single_exit_at_w_zero_is_certain_before_the_fold(self, spec):
        # the exit happens almost surely, whatever the levels scale to
        assert evaluate(ModelParams(lam=5e-324, p=0.5), spec, 0.0) == 1.0
        assert evaluate(ModelParams(lam=1.0, p=0.5), spec, 0.0) == 1.0

    @pytest.mark.parametrize("spec", [pytest.param(s, id=i) for i, s in TWO_SIDED])
    def test_two_sided_split_names_the_underflow(self, spec):
        with pytest.raises(ValidationError, match="b=0.05 underflows"):
            evaluate(ModelParams(lam=5e-324, p=0.5), spec, 0.0)

    def test_positive_w_names_the_underflow(self):
        # w/lam = 2 is finite, so the levels are folded, and b folds to 0
        with pytest.raises(ValidationError, match="b=0.05 underflows"):
            evaluate(ModelParams(lam=5e-324, p=0.5), UNDERFLOWING[1][1], 1e-323)

    def test_a_level_that_overflows_is_rejected(self):
        # lam * a is inf: the K tables would index an infinite level
        spec = ExitSpec(ExitKind.TWO_SIDED_UP, x=54859657.955245435, a=1085682367.6748738,
                        b=33550382.806013245)
        with pytest.raises(ValidationError, match="a=1085682367.6748738 overflows"):
            evaluate(ModelParams(lam=1e300, p=1e-300), spec, 7.155556342243033e-07)


class TestDownOneAtBarrier:
    def test_start_at_the_barrier_is_the_right_limit(self):
        # a crossing needs a jump, so the transform is right-continuous at b;
        # the value at b is the limit itself, not a value a little above b
        params, w = ModelParams(lam=1.0, p=0.5), 0.5
        spec = ExitSpec(ExitKind.DOWN_ONE, x=1.0, b=1.0)
        value = evaluate(params, spec, w)
        above = evaluate(params, ExitSpec(ExitKind.DOWN_ONE, x=1.0 + 1e-15, b=1.0), w)
        assert abs(value - above) <= 1e-14 * value
        assert math.isclose(value, 0.599058, rel_tol=1e-6)
        est = mc_lst(spec, params, McConfig(n_paths=100_000, seed=20260815, w=w,
                                            horizon_cap=default_horizon_cap(w, 1.0)))
        assert abs(value - est.mean) <= 4.0 * est.std_error, (value, est)
