"""The strip collocation solver behind drawup, checked without pinned values."""

import numpy as np
import pytest

import aimdexit._drawup as drawup
from aimdexit import ExitKind, ExitSpec, ModelParams, evaluate, l_down, l_up
from aimdexit._drawup import _StripSolver, _interp_rows
from aimdexit.reflected import lst_drawup

from unit_rate import at_rate

# (w, p, m, c, x): one strip [m, m + c] at jump rate 1, started at x
STRIPS = [
    (0.5, 0.95, 2.0, 1.0, 2.9),
    (0.5, 0.9, 1.0, 19.0, 5.0),
    (0.5, 0.5, 1.0, 1.0, 1.5),
    (0.3, 0.6, 0.7, 1.2, 1.1),
    (1.0, 0.8, 0.4, 2.0, 1.9),
]


def _solve(w, p, m, c, fresh):
    return _StripSolver(w, p, m, c, lambda ys: np.full(ys.size, fresh))


class TestStripSolver:
    @pytest.mark.parametrize("w, p, m, c, x", STRIPS)
    def test_constant_fresh_start_gives_the_two_sided_exit(self, w, p, m, c, x):
        # a landing at or below m scores psi: psi = 0 leaves the up exit of
        # (m, m + c), psi = 1 adds the down exit to it
        up = l_up(w, p, x, m + c, m)
        assert abs(_solve(w, p, m, c, 0.0).eval(x) - up) <= 1e-10
        assert abs(_solve(w, p, m, c, 1.0).eval(x) - (up + l_down(w, p, x, m + c, m))) <= 1e-10

    @pytest.mark.parametrize("w, p, m, c, x", STRIPS)
    def test_eval_returns_the_collocation_value_at_every_node(self, w, p, m, c, x):
        # a panel edge is one node shared by the two panels it bounds
        strip = _solve(w, p, m, c, 1.0)
        assert np.unique(strip.V).size == strip.V.size
        for i, v in enumerate(strip.V):
            if v < strip.top:
                assert strip.eval(v) == strip.g[i]

    def test_interp_rows_per_point_panels_match_scalar_panels(self):
        edges = np.array([0.3, 0.45, 0.9, 1.7])
        rng = np.random.default_rng(7)
        pan = rng.integers(0, 3, 40)
        yq = edges[pan] + rng.random(40) * np.diff(edges)[pan]
        nodes = edges[:-1, None] + np.diff(edges)[:, None] * (drawup._CHX + 1.0) / 2.0
        yq[:6] = nodes[pan[:6], [0, 3, 9, 1, 5, 8]]  # exact node hits
        batched = _interp_rows(yq, edges[pan], edges[pan + 1])
        for y, q, row in zip(yq, pan, batched):
            assert np.array_equal(row, _interp_rows(np.array([y]), edges[q], edges[q + 1])[0])
        assert np.array_equal(batched[:6] != 0.0, np.eye(10, dtype=bool)[[0, 3, 9, 1, 5, 8]])


class TestCascade:
    def test_deep_levels_take_the_ascent_transform_and_keep_the_frozen_value(self, monkeypatch):
        # the three virtual levels below the cutoff call z_up once each; any
        # further call is psi_eval's branch for landings below the cutoff
        calls, z_up = [], drawup.z_up

        def counted(*args, **kwargs):
            calls.append(args)
            return z_up(*args, **kwargs)

        monkeypatch.setattr(drawup, "z_up", counted)
        value = at_rate(lst_drawup, 3.0, 0.5, 0.3, 2.1, 2.0, 1.0)
        assert len(calls) > 3
        assert abs(value - 0.047648) <= 1.5e-6  # TestDrawup's frozen value

    def test_pinned_case_solves_the_recorded_number_of_strips(self):
        diag = {}
        evaluate(ModelParams(lam=1.5, p=0.5), ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5),
                 0.5, diagnostics=diag)
        assert (diag["generations"], diag["grid_levels"], diag["panels_final"]) == (18, 127, 2)
