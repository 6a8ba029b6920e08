"""The strip collocation solver behind drawup, and `float.hex` pins of its values."""

import hashlib
import math
import tracemalloc
import types

import numpy as np
import pytest

import aimdexit._drawup as drawup
from aimdexit import (ConvergenceError, ExitKind, ExitSpec, ModelParams, ValidationError,
                      default_grid, evaluate, l_down, l_up)
from aimdexit._drawup import _interp_rows, _panel_nodes, _strip_edges, _Strips
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


def _numpy_spying_on_solve(spy):
    """A copy of the ``numpy`` namespace whose ``linalg.solve`` first hands
    its matrix and right-hand side to ``spy``, as the benchmark's layer
    trace patches it."""
    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(vars(np.linalg))

    def solve(K, rhs):
        spy(K, rhs)
        return np.linalg.solve(K, rhs)
    linalg.solve = solve
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(vars(np))
    proxy.linalg = linalg
    return proxy


def _solve(w, p, m, c, fresh):
    """The strip [m, m + c] as a one-strip ``_Strips``, and its nodal
    solution with the fresh-start values ``fresh(ys)`` at its landings."""
    strip = _Strips(1.0 + w, p, np.array([m]), _strip_edges(1.0 + w, p, m, m + c)[None])
    return strip, strip.solve(0, fresh(strip.ys))


class TestStripSolver:
    @pytest.mark.parametrize("w, p, m, c, x", STRIPS)
    def test_constant_fresh_start_gives_the_two_sided_exit(self, w, p, m, c, x):
        # a landing at or below m scores psi: psi = 0 leaves the up exit of
        # (m, m + c), psi = 1 adds the down exit to it
        up = l_up(w, p, x, m + c, m)
        strip, g = _solve(w, p, m, c, np.zeros_like)
        assert abs(strip.value(0, g, x) - up) <= 1e-10
        strip, g = _solve(w, p, m, c, np.ones_like)
        assert abs(strip.value(0, g, x) - (up + l_down(w, p, x, m + c, m))) <= 1e-10

    @pytest.mark.parametrize("w, p, m, c, x", STRIPS)
    def test_eval_returns_the_collocation_value_at_every_node(self, w, p, m, c, x):
        # a panel edge is one node shared by the two panels it bounds
        strip, g = _solve(w, p, m, c, np.ones_like)
        (V,) = strip.V
        assert np.unique(V).size == V.size
        for i, v in enumerate(V):
            if v < m + c:
                assert strip.value(0, g, v) == g[i]

    def test_interp_rows_per_point_panels_match_scalar_panels(self):
        edges = np.array([0.3, 0.45, 0.9, 1.7])
        rng = np.random.default_rng(7)
        pan = rng.integers(0, 3, 40)
        yq = edges[pan] + rng.random(40) * np.diff(edges)[pan]
        nodes = _panel_nodes(edges[:-1], edges[1:])  # one column per panel
        yq[:6] = nodes[[0, 3, 9, 1, 5, 8], pan[:6]]  # exact node hits
        batched = _interp_rows(yq - _panel_nodes(edges[pan], edges[pan + 1])).T  # row per point
        for y, q, row in zip(yq, pan, batched):
            assert np.array_equal(row, _interp_rows(np.array([y]) - nodes[:, q:q + 1])[:, 0])
        assert np.array_equal(batched[:6] != 0.0, np.eye(10, dtype=bool)[[0, 3, 9, 1, 5, 8]])

    def test_top_most_kinks_are_kept_past_any_count(self):
        # 269 kinks m p^-j lie inside this strip; the cap keeps m / p and the
        # 13 top-most, found by the same repeated division
        w, p, m, c = 0.02, 0.95, 1e-6, 1.0
        kinks, e = [], m / p
        while e < (m + c) * (1.0 - 1e-13):
            kinks.append(e)
            e /= p
        assert len(kinks) == 269
        edges = _strip_edges(1.0 + w, p, m, m + c)
        assert edges.tolist() == [m] + kinks[:1] + kinks[-13:] + [m + c]
        # the top panel is one kink gap wide (it covered 78 % of the strip
        # when the scan stopped at 240 kinks)
        assert edges[-1] - edges[-2] < 0.02 * c

    def test_a_kink_next_to_the_infimum_is_dropped_not_the_infimum(self):
        # at p = 1e-9 the first kink m / p lies 1e-16 above m = 1e-25, below
        # 1e-13 of the top: the strip still starts at m, on the next kink
        m, top = 1e-25, 3.0 + 1e-25
        edges = _strip_edges(1.001, 1e-9, m, top)
        assert (edges[0], edges[-1]) == (m, top)
        assert math.isclose(edges[1], 1e-7)
        assert np.all(np.diff(edges) > 0.0)

    def test_stacked_strips_solve_as_lone_strips(self):
        # three deep levels of the p = 0.8 cascade, 15 panels each, assembled
        # together: every matrix entry and every solution keeps the bits of
        # the strip assembled alone
        w, p, c = 0.5, 0.8, 1.75
        ms = 4.0 * 0.8 ** (np.arange(100, 103) / 4.0)
        edges = np.array([_strip_edges(1.0 + w, p, m, m + c) for m in ms])
        assert edges.shape == (3, 16)
        stacked = _Strips(1.0 + w, p, ms, edges)
        fresh = np.exp(-stacked.ys)
        for b in range(ms.size):
            lone = _Strips(1.0 + w, p, ms[b:b + 1], edges[b:b + 1])
            assert np.array_equal(stacked.K[b], lone.K[0])
            ys = stacked.ys[stacked.bounds[b]:stacked.bounds[b + 1]]
            assert np.array_equal(ys, lone.ys)
            assert np.array_equal(stacked.solve(b, fresh), lone.solve(0, np.exp(-ys)))


class TestCascade:
    def test_deep_levels_take_the_ascent_transform_and_keep_the_frozen_value(self, monkeypatch):
        # at p = 0.3 a factor 1/p of depth is n_per = 13 levels: the lowest
        # strip lands down to 13 levels below the cutoff, and the 4-point
        # stencil reaches two more, so z_up seeds 15 virtual levels, once each
        calls, z_up = [], drawup.z_up

        def counted(*args, **kwargs):
            calls.append(args)
            return z_up(*args, **kwargs)

        monkeypatch.setattr(drawup, "z_up", counted)
        value = at_rate(lst_drawup, 3.0, 0.5, 0.3, 2.1, 2.0, 1.0)
        assert len(calls) == 15
        # psi(y) = z_up(y, y + c) at 15 distinct levels (c = 0.5 at rate 1)
        assert len({y for _, _, y, _ in calls}) == 15
        assert all(a == y + 0.5 for _, _, y, a in calls)
        assert abs(value - 0.047648) <= 1.5e-6  # TestDrawup's frozen value

    def test_the_cutoff_leaves_every_default_grid_cascade_at_its_tol_1e12_bits(self):
        # the depth the truncation bound picks at the default tol moves no
        # bit of any default-grid cascade against a far deeper one
        cascades = [at_rate(lambda *args: args, w, params.lam, params.p,
                            spec.x, spec.u, spec.c)
                    for params, spec, w in default_grid()
                    if spec.kind is ExitKind.DRAWUP and w > 0.0
                    and 0.0 < spec.u and spec.x < spec.u + spec.c]
        assert len(cascades) == 12
        for args in cascades:
            shallow, deep = {}, {}
            value = drawup.drawup_lst(*args, diagnostics=shallow)
            assert drawup.drawup_lst(*args, tol=1e-12, diagnostics=deep).hex() == value.hex()
            assert deep["grid_levels"] > shallow["grid_levels"]

    def test_one_linear_solve_per_level_through_the_module_numpy(self, monkeypatch):
        # the benchmark counts strip solves and times np.linalg.solve through
        # the module's ``np``; every level costs exactly one solve
        solves = []
        monkeypatch.setattr(drawup, "np", _numpy_spying_on_solve(lambda K, rhs: solves.append(K)))
        for args in [(0.5, 0.8, 4.6125, 4.0, 1.75), (1.0, 0.3, 1.2, 1.1, 1.0)]:
            solves.clear()
            diag = {}
            drawup.drawup_lst(*args, diagnostics=diag)
            assert len(solves) == diag["grid_levels"]

    def test_assembly_memory_is_bounded(self):
        # the deepest default-grid cascade (p = 0.8, 15-panel strips) holds
        # a bounded window of assembled systems, not the whole cascade
        drawup.drawup_lst(0.5, 0.8, 4.6125, 4.0, 1.75)
        tracemalloc.start()
        try:
            drawup.drawup_lst(0.5, 0.8, 4.6125, 4.0, 1.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("x, u, c", [(1.0, -1.0, 3.0), (-2.0, -3.0, 1.0)])
    def test_a_negative_infimum_is_rejected(self, x, u, c):
        # the infimum of a path on [0, inf) is never below 0, with x above
        # 0 or not
        with pytest.raises(ValidationError, match="0 <= u <= x"):
            lst_drawup(0.5, 0.5, x, u, c)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_a_tolerance_that_is_not_positive_is_rejected(self, tol):
        # no generation meets it: the cascade would run to its 160-generation cap
        with pytest.raises(ValidationError, match="tol must be > 0"):
            lst_drawup(0.5, 0.5, 0.8, 0.8, 0.5, tol=tol)

    def test_pinned_case_solves_the_recorded_number_of_strips(self):
        diag = {}
        evaluate(ModelParams(lam=1.5, p=0.5), ExitSpec(ExitKind.DRAWUP, x=1.5, u=0.8, c=1.5),
                 0.5, diagnostics=diag)
        assert (diag["generations"], diag["grid_levels"], diag["panels_final"]) == (9, 64, 2)
        assert diag["truncation_bound"] <= diag["tol"] == 1e-7

    def test_a_capped_cascade_reports_the_bound_it_reached(self):
        # at p = 0.99 and w = 0.05 from u = 10 the bound is still 8.6e-4 at
        # the 160-generation cap (641 levels, kept cheap by narrow strips):
        # the cascade raises, with the value there as the partial result
        diag = {}
        with pytest.raises(ConvergenceError, match=r"bound 0\.00086 exceeds tol=1e-07 "
                           r"at its 160-generation cap") as err:
            drawup.drawup_lst(0.05, 0.99, 10.02, 10.0, 0.05, diagnostics=diag)
        assert 0.0 < err.value.partial < 1.0
        assert (diag["generations"], diag["grid_levels"]) == (160, 641)
        assert 1e-4 < diag["truncation_bound"] < 1e-3

    def test_tiny_p_cascades_keep_every_landing_in_a_strip(self):
        # deep levels whose strip's first kink lies within 1e-13 top of the
        # infimum; both used to raise numpy's ValueError from a landing
        # binned at panel -1.  p = 1e-9 and 1e-6 differ by 1.1e-8
        params = [ModelParams(lam=1.0, p=p) for p in (1e-9, 1e-6)]
        spec = ExitSpec(ExitKind.DRAWUP, x=2.0, u=1.0, c=3.0)
        tiny, small = (evaluate(params_, spec, 0.001) for params_ in params)
        assert math.isclose(tiny, 0.98291922479, rel_tol=1e-10)
        assert math.isclose(small, 0.98291923590, rel_tol=1e-10)
        assert 0.0 < drawup.drawup_lst(2.0, 1e-12, 0.01, 0.005, 0.5) < 1.0

    def test_a_value_next_to_certainty_is_capped_at_one(self):
        # both read 1.0000000000000002 before the clamp
        assert drawup.drawup_lst(2.5450351779494355e-15, 0.14542479665855712,
                                 0.015033053188439827, 0.012608654334927758,
                                 0.025287886754315647) == 1.0
        spec = ExitSpec(ExitKind.DRAWUP, x=0.6211736416153865, u=0.0288329532440504,
                        c=1.6925471014264963)
        assert evaluate(ModelParams(lam=1e-200, p=0.5), spec, 1e-310) == 1.0

    @pytest.mark.parametrize("x, u, c, w, expected", [
        # the cascade came out NaN; at jump rate 1 the drift reaches u + c
        # after t = 1.1e-300, so the value is e^{-(w/lam + 1) t}
        (0.6211736416153865, 0.0288329532440504, 1.6925471014264963, 1e-3,
         0.9989003985921233),
        # a strip's matrix was singular (numpy's LinAlgError)
        (0.00014328489570023447, 8.446465183481979e-07, 11.168172331224724, 5e-324, 1.0),
    ])
    def test_levels_near_1e_300_take_the_drift_alone(self, x, u, c, w, expected):
        spec = ExitSpec(ExitKind.DRAWUP, x=x, u=u, c=c)
        assert evaluate(ModelParams(lam=1e-300, p=1e-12), spec, w) == expected

    @pytest.mark.parametrize("fault, message", [("singular", "strip system"),
                                                ("nan", "cascade came out nan")])
    def test_a_failed_strip_solve_raises_convergence_error(self, monkeypatch, fault, message):
        # the calls above reached these guards before they took the drift
        # alone; the module's numpy now fails a solve, or makes it NaN
        def spy(K, rhs):
            if fault == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            rhs[:] = np.nan
        monkeypatch.setattr(drawup, "np", _numpy_spying_on_solve(spy))
        with pytest.raises(ConvergenceError, match=message):
            drawup.drawup_lst(0.5, 0.8, 4.6125, 4.0, 1.75)


class TestGenerations:
    """The cascade depth from the descent-chain truncation bound."""

    @pytest.mark.parametrize("w, p, u, depth", [
        (1e-3, 0.95, 1.0, 29),  # the discount-only rule ran to its cap, 160
        (0.05, 0.3, 1.0, 7),  # it took 15
        (0.5, 0.95, 100.0, 48),  # it took 40: the stencil's 15 costs depth
        (3.0, 0.8, 10.0, 14),  # it took 12
    ])
    def test_pinned_depths(self, w, p, u, depth):
        G, bound = drawup._generations(w, p, u, 1e-7)
        assert G == depth
        assert bound <= 1e-7 < drawup._generations(w, p, u, 1e-7, cap=G - 1)[1]

    @pytest.mark.parametrize("w", [1e-300, 5e-324])
    def test_a_tiny_discount_gives_a_finite_bound(self, w):
        # (1+w)/w is 1e300, or overflows at 5e-324, where the chain product
        # is not used: no inf * 0
        G, bound = drawup._generations(w, 0.5, 1.0, 1e-7)
        assert math.isfinite(bound) and 0.0 <= bound
        assert bound <= 1e-7 if w == 1e-300 else (G, bound) == (160, 15.0)

    @pytest.mark.parametrize("w, p, u", [(1e-3, 0.95, 1.0), (0.5, 0.3, 1000.0),
                                         (0.05, 0.99, 10.0), (3.0, 0.8, 0.01)])
    def test_the_bound_does_not_rise_with_depth(self, w, p, u):
        # tol = 0 is met only by a bound of 0, so cap = G gives bound(G)
        bounds = [drawup._generations(w, p, u, 0.0, cap=G)[1] for G in range(1, 161)]
        assert all(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:]))
        assert bounds[-1] < bounds[0]


class TestBitPins:
    """``float.hex`` pins of the strip solve and the cascade.

    Recorded before the strip assembly, the stencil and the deep landings
    were rewritten along the long axis; the 20 drawup rows of
    ``default_grid()``, the matrix and the two random cascade points were
    recorded before the strips were assembled in stacked batches.  Each
    rewrite keeps every bit, as does interpolating every landing, when the
    deep strip's system hashes were recorded.
    """

    @pytest.mark.parametrize("w, p, m, c, size, expected", [
        # deep: 15 panels.  The last bit of its solution follows OpenBLAS's
        # thread count (g[0] ends in ...31p-2 on one thread, ...32p-2 on
        # two), so its pin is the system handed to the solver: sha256
        # prefixes of I - K and of the right-hand side
        (0.5, 0.8, 0.01, 1.75, 136, ("b90d2cc6bb9104aa", "54ef34d477401b5c")),
        # every landing falls below m: no weight reaches the g side
        (0.5, 0.3, 1.0, 1.0, 10, ("0x1.2221d9127c554p-1", "0x1.7033e9b9b2612p-1",
                                  "0x1.f1ae0f5abc89bp-1", "0x1.d7fed8f3b21d0p+2")),
        (0.5, 0.95, 2.0, 1.0, 73, ("0x1.0c8e31a63d3b0p-1", "0x1.76515e46cc585p-1",
                                   "0x1.fec6a6db67d19p-1", "0x1.b402c1976e9b0p+5")),
    ])
    def test_strip_solution(self, monkeypatch, w, p, m, c, size, expected):
        # the nodes are np.linalg.solve of the system handed to it, in this
        # process; pinned are three nodes and the correctly rounded sum of
        # all of them, or for the deep strip the system itself
        systems = []
        monkeypatch.setattr(drawup, "np", _numpy_spying_on_solve(
            lambda K, rhs: systems.append((K.copy(), rhs.copy()))))
        g = _solve(w, p, m, c, lambda ys: np.exp(-ys))[1]
        ((K, rhs),) = systems
        assert g.size == size
        assert np.array_equal(g, np.linalg.solve(K, rhs))
        if len(expected) == 2:
            pinned = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (K, rhs))
        else:
            pinned = (g[0].hex(), g[size // 2].hex(), g[size - 2].hex(), math.fsum(g).hex())
        assert pinned == expected

    def test_matrix_handed_to_the_solver(self, monkeypatch):
        # I - K itself, taken from the solve call: in this strip 12 entries
        # would move if bincount summed the weights node by node with each
        # panel's first node first, though the solution would not
        matrices = []
        spy = _numpy_spying_on_solve(lambda K, rhs: matrices.append(K.copy()))
        monkeypatch.setattr(drawup, "np", spy)
        _solve(1.0, 0.5, 4.882812500000002e-05, 1.75, lambda ys: np.exp(-ys))
        (K,) = matrices
        assert K.shape == (136, 136)
        assert hashlib.sha256(K.tobytes()).hexdigest()[:16] == "cb86b64911d4baae"

    @pytest.mark.parametrize("args, expected", [
        # seeded random points whose values move if the stencil's four terms
        # are summed in another order
        ((0.024406226487371546, 0.6979662243079519, 2.6137717643834018,
          2.6137717643834018, 3.002461737758588), "0x1.8bb444914a6b3p-1"),
        ((1.0580743891889413, 0.24704402566564101, 0.04455528215381194,
          0.04455528215381194, 0.4366351862759115), "0x1.2794d13752bb6p-1"),
    ])
    def test_cascade_value(self, args, expected):
        assert drawup.drawup_lst(*args).hex() == expected

    @pytest.mark.parametrize("row, expected", [
        (140, "0x1.0000000000000p+0"),  # w = 0
        (141, "0x1.0a75e3fc0d9dcp-3"),  # p = 0.5, x > u
        (142, "0x1.b89f7f0d44a92p-4"),
        (143, "0x1.33252bbd7a56ep-6"),  # u = 0: plain ascent
        (144, "0x1.0000000000000p+0"),
        (145, "0x1.3520b669b84adp-2"),  # p = 0.8, x > u
        (146, "0x1.6d4ff8a712efdp-2"),
        (147, "0x1.c6ded7a90191ap-2"),
        (148, "0x1.0000000000000p+0"),
        (149, "0x1.22f168c5c8e63p-5"),
        (150, "0x1.57e6f2d28531dp-8"),
        (151, "0x1.0000000000000p+0"),
        (152, "0x1.dc887165f8957p-2"),  # p = 0.3, x = u
        (153, "0x1.7f327b13512e2p-3"),
        (154, "0x1.9a396bef609acp-5"),
        (155, "0x1.0000000000000p+0"),
        (156, "0x1.5781d48e6a5cep-1"),
        (157, "0x1.3520b669b84adp-2"),  # row 145 rescaled to lam = 2
        (158, "0x1.0000000000000p+0"),
        (159, "0x1.0c4c5ceecc576p-1"),
    ])
    def test_default_grid_rows(self, row, expected):
        params, spec, w = default_grid()[row]
        assert spec.kind is ExitKind.DRAWUP
        assert evaluate(params, spec, w).hex() == expected
