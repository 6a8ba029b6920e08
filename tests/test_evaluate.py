"""The evaluate() entry point: analytic values pinned to the last bit."""

import pytest

from aimdexit import ExitKind, ExitSpec, ModelParams, evaluate

# (id, spec, lam, p, w, value as float.hex).  The escalated cases reach the
# arbitrary-precision paths: the downward-series constant and z_down
# (down-one), and the reciprocal scale-function tables (two-sided-up).
PINNED = [
    ("up-one", ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0), 2.0, 0.5, 0.5,
     "0x1.5182029083255p-3"),
    ("down-one", ExitSpec(ExitKind.DOWN_ONE, x=2.5, b=1.0), 0.7, 0.5, 0.8,
     "0x1.1d92aea010146p-3"),
    ("down-one-escalated", ExitSpec(ExitKind.DOWN_ONE, x=3.0, b=1.0), 1.5, 0.9, 0.6,
     "0x1.31d142b4eda73p-34"),
    ("two-sided-up", ExitSpec(ExitKind.TWO_SIDED_UP, x=1.5, a=2.5, b=1.0), 1.5, 0.6, 0.5,
     "0x1.6cedc1022ca39p-3"),
    ("two-sided-up-escalated", ExitSpec(ExitKind.TWO_SIDED_UP, x=4.0, a=6.0, b=1.0),
     1.5, 0.9, 0.6, "0x1.30b6466b3dd78p-4"),
    ("two-sided-down", ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.5, a=2.5, b=1.0),
     1.5, 0.6, 0.5, "0x1.e43a749847e26p-2"),
    ("refl-upper-down", ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1.5, a=2.5, c=1.0),
     0.8, 0.5, 0.5, "0x1.d520bb8166e9bp-2"),
    ("refl-lower-up", ExitSpec(ExitKind.REFL_LOWER_UP, x=1.5, c=2.5, b=1.0),
     0.8, 0.5, 0.5, "0x1.a5a3422d509d2p-2"),
    ("drawdown", ExitSpec(ExitKind.DRAWDOWN, x=2.0, c=1.2), 0.7, 0.5, 0.5,
     "0x1.ed79beeabf293p-2"),
    ("drawdown-xbar0", ExitSpec(ExitKind.DRAWDOWN, x=2.0, c=1.2, xbar0=2.3),
     0.7, 0.5, 0.5, "0x1.1536b6d2082a3p-1"),
    ("drawup", ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5), 1.5, 0.5, 0.5,
     "0x1.4c95b3d3d596ep-2"),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("spec, lam, p, w, expected", [
        pytest.param(*case[1:], id=case[0]) for case in PINNED])
    def test_value_is_bit_identical_to_the_recorded_one(self, spec, lam, p, w, expected):
        assert evaluate(ModelParams(lam=lam, p=p), spec, w) == float.fromhex(expected)
