"""The strip collocation solver behind drawup, and `float.hex` pins of its values."""

import math

import numpy as np
import pytest

import aimdexit._drawup as drawup
from aimdexit import (ExitKind, ExitSpec, ModelParams, default_grid, evaluate, l_down,
                      l_up)
from aimdexit._drawup import _panel_nodes, _StripSolver, _interp_rows
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
        nodes = _panel_nodes(edges[:-1], edges[1:])  # one column per panel
        yq[:6] = nodes[[0, 3, 9, 1, 5, 8], pan[:6]]  # exact node hits
        batched = _interp_rows(yq, _panel_nodes(edges[pan], edges[pan + 1])).T  # row per point
        for y, q, row in zip(yq, pan, batched):
            assert np.array_equal(row, _interp_rows(np.array([y]), nodes[:, q:q + 1])[:, 0])
        assert np.array_equal(batched[:6] != 0.0, np.eye(10, dtype=bool)[[0, 3, 9, 1, 5, 8]])


class TestCascade:
    def test_deep_levels_take_the_ascent_transform_and_keep_the_frozen_value(self, monkeypatch):
        # the three virtual levels below the cutoff call z_up once each;
        # landings below the cutoff go through the array ascent series
        calls, z_up = [], drawup.z_up
        batches, series = [], drawup._log_up_denominators

        def counted(*args, **kwargs):
            calls.append(args)
            return z_up(*args, **kwargs)

        def counted_series(w, p, xs):
            batches.append(xs.size)
            return series(w, p, xs)

        monkeypatch.setattr(drawup, "z_up", counted)
        monkeypatch.setattr(drawup, "_log_up_denominators", counted_series)
        value = at_rate(lst_drawup, 3.0, 0.5, 0.3, 2.1, 2.0, 1.0)
        assert len(calls) == 3
        assert batches and min(batches) >= 1
        assert abs(value - 0.047648) <= 1.5e-6  # TestDrawup's frozen value

    def test_pinned_case_solves_the_recorded_number_of_strips(self):
        diag = {}
        evaluate(ModelParams(lam=1.5, p=0.5), ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5),
                 0.5, diagnostics=diag)
        assert (diag["generations"], diag["grid_levels"], diag["panels_final"]) == (18, 127, 2)


class TestBitPins:
    """``float.hex`` pins of the strip solve and the cascade.

    Recorded before the strip assembly, the stencil and the deep landings
    were rewritten along the long axis; each rewrite keeps every bit.
    """

    @pytest.mark.parametrize("w, p, m, c, size, expected", [
        # deep: 15 panels
        (0.5, 0.8, 0.01, 1.75, 136, ("0x1.66ab49cb4db32p-2", "0x1.b74250e8f4491p-2",
                                     "0x1.ff459919fd61cp-1", "0x1.16668e74a2ee9p+6")),
        # every landing falls below m: no weight reaches the g side
        (0.5, 0.3, 1.0, 1.0, 10, ("0x1.2221d9127c554p-1", "0x1.7033e9b9b2612p-1",
                                  "0x1.f1ae0f5abc89bp-1", "0x1.d7fed8f3b21d0p+2")),
        (0.5, 0.95, 2.0, 1.0, 73, ("0x1.0c8e31a63d3b0p-1", "0x1.76515e46cc585p-1",
                                   "0x1.fec6a6db67d19p-1", "0x1.b402c1976e9b0p+5")),
    ])
    def test_strip_solution(self, w, p, m, c, size, expected):
        # three nodes, and the correctly rounded sum of all of them
        g = _StripSolver(w, p, m, c, lambda ys: np.exp(-ys)).g
        assert g.size == size
        assert (g[0].hex(), g[size // 2].hex(), g[size - 2].hex(),
                math.fsum(g).hex()) == expected

    @pytest.mark.parametrize("row, expected", [
        (152, "0x1.dc887165f8957p-2"),  # p = 0.3, x = u
        (141, "0x1.0a75e3fc0d9dcp-3"),  # p = 0.5, x > u
        (145, "0x1.3520b669b84adp-2"),  # p = 0.8, x > u
    ])
    def test_default_grid_rows(self, row, expected):
        params, spec, w = default_grid()[row]
        assert spec.kind is ExitKind.DRAWUP
        assert evaluate(params, spec, w).hex() == expected
