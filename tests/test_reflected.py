"""Reflected passage times, drawdown/drawup transforms, and the level solver."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from aimdexit import (ConvergenceError, ExitKind, ExitSpec, McConfig,
                      ModelParams, QuadratureControl, ValidationError,
                      default_grid, default_horizon_cap, evaluate,
                      l_down, l_up, lst_drawup, mc_lst, solve_a, z_down, z_up)
from aimdexit import reflected, scalefn
from aimdexit.reflected import (hazard, lst_drawdown, lst_reflected_lower,
                                lst_reflected_upper)
from aimdexit.scalefn import (_k_log_slope, _k_tables_mp, _log_k_from_b, interval_index,
                              z_down_slope)
from unit_rate import at_rate


class TestReflectedUpper:
    def test_w_zero_is_one(self):
        assert lst_reflected_upper(0.0, 0.5, 1.5, 2.0, 1.0) == 1.0

    def test_both_refresh_branches_evaluate(self):
        # jump from the cap lands above c (refresh possible) or below c
        above = lst_reflected_upper(0.5, 0.5, 1.5, 2.0, 0.8)  # p*a > c
        below = lst_reflected_upper(0.5, 0.5, 1.5, 2.0, 1.2)  # p*a < c
        assert 0.0 < above < 1.0 and 0.0 < below < 1.0
        assert above < below  # lower barrier is harder to cross

    def test_first_jump_exits_once_cap_jump_clears_window(self):
        # once p*a <= c, a jump from any level y <= a lands at p*y <= c, so
        # the exit time is exactly the first jump time and the transform is
        # lam/(lam+w) regardless of x, a, c.  (The value is genuinely
        # discontinuous across p*a = c: the cap is an atom of the level, so
        # whether jumps from it land inside or outside the window is not a
        # measure-zero distinction.)
        for (w, lam, p, x, a, c) in [(0.5, 1.0, 0.5, 1.5, 2.0, 1.0),
                                     (0.5, 1.0, 0.5, 1.5, 2.0, 1.2),
                                     (1.0, 2.0, 0.3, 4.0, 5.0, 1.5),
                                     (2.0, 0.7, 0.8, 0.9, 1.0, 0.85)]:
            assert p * a <= c
            got = at_rate(lst_reflected_upper, w, lam, p, x, a, c)
            assert math.isclose(got, lam / (lam + w), rel_tol=1e-12)

    def test_interior_cap_landing_prolongs_the_exit(self):
        # with p*a > c a jump from the cap lands inside the window and the
        # race continues, so the transform sits strictly below 1/(1+w)
        w, p, a = 0.5, 0.5, 2.0
        val = lst_reflected_upper(w, p, 1.5, a, 0.6)
        assert val < 1.0 / (1.0 + w) - 1e-3

    @pytest.mark.parametrize("lam, w", [(0.5, 1e-300), (1.0, 1e-17)])
    def test_restart_weight_at_one_raises(self, lam, w):
        # l_up(p a) / (w + 1) rounds to 1, or to 1 - 2.2e-16: the restart
        # denominator is zero, or rounding alone
        spec = ExitSpec(ExitKind.REFL_UPPER_DOWN, x=0.1, a=1.0, c=0.001)
        with pytest.raises(ConvergenceError, match="restart weight too close to 1"):
            evaluate(ModelParams(lam=lam, p=0.5), spec, w)

    def test_decreasing_in_w(self):
        vals = [lst_reflected_upper(w, 0.5, 1.5, 2.0, 1.0)
                for w in (0.25, 0.5, 1.0, 2.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))


class TestReflectedLower:
    def test_w_zero_is_one(self):
        assert lst_reflected_lower(0.0, 0.5, 1.2, 2.0, 1.0) == 1.0

    def test_reflection_beats_absorption(self):
        # resetting at b instead of exiting there can only shorten the climb
        w, p, x, c, b = 0.5, 0.5, 1.2, 2.0, 1.0
        reflected = lst_reflected_lower(w, p, x, c, b)
        absorbed = l_up(w, p, x, c, b)
        assert reflected > absorbed

    def test_decreasing_in_target(self):
        vals = [lst_reflected_lower(0.5, 0.5, 1.2, c, 1.0)
                for c in (1.5, 2.0, 3.0, 4.5)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))


class TestHazard:
    def test_constant_rate_beyond_the_log_linear_knee(self):
        # once every single jump achieves the drawdown, the exit happens at
        # the first epoch, so the hazard equals the total event rate (in
        # units of lam)
        for (w, lam, p, c) in [(0.5, 1.0, 0.5, 1.0), (1.0, 2.0, 0.8, 0.5)]:
            z1 = c / (1.0 - p)
            assert math.isclose(at_rate(hazard, w, lam, p, 1.5 * z1, c), w / lam + 1.0,
                                rel_tol=1e-12)

    @pytest.mark.parametrize("w, p, z, c", [
        (0.4249942959798767, 0.32642356055739563, 9.87e10, 9.87e10 - 0.5647587048282834),
        (1.0, 0.3, 1e12, 1e12 - 0.7),
        (0.5, 0.5, 1e9, 1e9 - 1.0),
    ])
    def test_ratio_stays_relative_at_very_large_levels(self, w, p, z, c):
        # log K and log K' are near 1e11 here, where float64 holds them to
        # 1e-5: the ratio K'/K is formed before either log rounds.  These were
        # 1.1e-5, 3.2e-5 and 1.8e-8 off; the reference sums the 150-digit table
        b = z - c
        k = interval_index(z, b, p)
        tab = _k_tables_mp(w, p, b, k, 150)
        with mp.workdps(150):
            rates = [(mp.mpf(w) + 1) * mp.mpf(p) ** n for n in range(k + 1)]
            terms = [a * mp.exp(r * mp.mpf(z)) for a, r in zip(tab, rates)]
            ref = float(mp.fdot(rates, terms) / mp.fsum(terms))
        assert math.isclose(hazard(w, p, z, c), ref, rel_tol=1e-12)

    @pytest.mark.parametrize("w, p, c, k", [(0.5, 0.5, 1.0, 1), (0.0, 0.8, 1.5, 1),
                                            (2.0, 0.9, 1.0, 1), (0.5, 0.8, 3.0, 3),
                                            (1.0, 0.3, 1.2, 2), (2.0, 0.9, 1.0, 8)])
    def test_right_slope_at_a_breakpoint(self, monkeypatch, w, p, c, k):
        # z = c/(1 - p^k) is the breakpoint b p^-k of its own barrier b = z - c,
        # which interval_index ties to interval k - 1: the slope of log K
        # that the hazard reads takes the right slope, from interval k's
        # table.  K' jumps only at b/p (k = 1, the knee, where the hazard
        # itself is w + 1), where K(p x) leaves 0; further up it is continuous
        real, tables = scalefn._log_k_sums, []

        def spy(w_, p_, b_, x, k_, slope):
            tables.append(k_)
            return real(w_, p_, b_, x, k_, slope)
        monkeypatch.setattr(scalefn, "_log_k_sums", spy)
        z = c / (1.0 - p ** k)
        b = z - c

        def slope_mp(interval):
            tab = _k_tables_mp(w, p, b, interval, 60)
            with mp.workdps(60):
                rates = [(mp.mpf(w) + 1) * mp.mpf(p) ** n for n in range(interval + 1)]
                terms = [a * mp.exp(r * mp.mpf(z)) for a, r in zip(tab, rates)]
                return float(mp.fdot(rates, terms) / mp.fsum(terms))
        h, right, left = _k_log_slope(w, p, b, z), slope_mp(k), slope_mp(k - 1)
        assert tables == [k]
        assert k == 1 or hazard(w, p, z, c) == h
        assert math.isclose(h, right, rel_tol=1e-13)
        assert (abs(left - right) > 1e-3 * right) if k == 1 else \
            math.isclose(left, right, rel_tol=1e-13)

    @pytest.mark.parametrize("z", [2.0, 2.0 * (1.0 + 1e-15)])
    def test_total_rate_at_and_just_above_the_knee(self, z):
        # from the knee z = c/(1 - p) on, any jump achieves the drawdown, so
        # the hazard is the total rate w + 1 there, not the limit from below,
        # 1.2768698398515703, the right slope of interval 1's table at b/p
        assert (1.0 - 0.5) * z >= 1.0
        assert hazard(0.5, 0.5, z, 1.0) == 1.5

    def test_positive_and_finite_below_knee(self):
        for z in (1.3, 1.6, 1.9):
            h = hazard(0.5, 0.5, z, 1.0)
            assert 0.0 < h < 10.0

    def test_matches_richardson_quotient_of_log_k(self):
        # the p=0.8 drawdown row of the default grid (x=4.35, c=3, knee 15):
        # deep intervals, where the float tables cancel the most.  The
        # quotient's step balances its O(step^2) error against the rounding
        # of log K, which dominates where h_0 is small (1e-2 at z=4.4)
        p, c = 0.8, 3.0

        def richardson(w, z):
            b, step = z - c, 1e-4 * z

            def quot(dd):
                return (_log_k_from_b(w, p, b, z + dd) - _log_k_from_b(w, p, b, z)) / dd
            return 2.0 * quot(step / 2.0) - quot(step)

        def exact_mp(w, z):
            b = z - c
            k = interval_index(z, b, p)
            tab = _k_tables_mp(w, p, b, k, 60)
            with mp.workdps(60):
                g, p_ = mp.mpf(w) + 1, mp.mpf(p)
                terms = [a * mp.e ** (g * p_ ** n * z) for n, a in enumerate(tab)]
                return float(mp.fsum(g * p_ ** n * t for n, t in enumerate(terms))
                             / mp.fsum(terms))

        for w in (0.5, 0.0):
            for z in (4.4, 5.0, 7.3, 11.0, 14.5):
                b = z - c
                k = interval_index(z, b, p)
                assert interval_index(z * (1 + 2e-4), b, p) == k  # no kink inside
                h = hazard(w, p, z, c)
                assert math.isclose(h, richardson(w, z), rel_tol=1e-7), (w, z)
                assert math.isclose(h, exact_mp(w, z), rel_tol=1e-12), (w, z)


    # (w, lam, p, c) below the knee; the p=0.8 rows reach the escalated
    # z_down near z = c
    FIRST_STEP = [(0.5, 1.0, 0.5, 1.0), (0.0, 1.0, 0.5, 1.0), (1.0, 2.0, 0.3, 0.6),
                  (0.5, 1.0, 0.8, 3.0), (0.0, 1.0, 0.8, 3.0), (0.5, 0.5, 0.8, 6.0)]

    @staticmethod
    def _levels(p, c):
        knee = c / (1.0 - p)
        return [c + f * (knee - c) for f in (0.05, 0.25, 0.5, 0.75, 0.98)]

    @pytest.mark.parametrize("w, lam, p, c", FIRST_STEP)
    def test_matches_first_step_through_the_up_exit(self, w, lam, p, c):
        # at the top z of the strip (z - c, z) the race ends at rate w + 1
        # (jump rate 1) unless the jump to p z climbs back to z first.
        # Absolute tolerance: h_0 goes to 0 near z = c
        w, c = w / lam, lam * c
        for z in self._levels(p, c):
            first_step = (w + 1.0) - l_up(w, p, p * z, z, z - c)
            assert abs(hazard(w, p, z, c) - first_step) <= 1e-12 * (w + 1.0), z

    @pytest.mark.parametrize("w, lam, p, c", [case for case in FIRST_STEP if case[0] > 0.0])
    def test_drawdown_integrand_matches_first_step_through_the_down_exit(self, w, lam, p, c):
        # h Z - Z' is the rate of leaving (y - c, y) downward from the top
        # y: a jump to p y, then the down exit before y comes back.  (At
        # w = 0 the integrand is h_0 itself and the check above covers it.)
        escalated = 0
        w, c = w / lam, lam * c
        for y in self._levels(p, c):
            diags = {}
            z_down(w, p, y, y - c, diagnostics=diags)
            escalated += diags["escalated_digits"] > 0
            zd, dzd = z_down_slope(w, p, y, y - c)
            integrand = hazard(w, p, y, c) * zd - dzd
            first_step = l_down(w, p, p * y, y, y - c)
            assert abs(integrand - first_step) <= 1e-14, y
        assert escalated or p < 0.8  # the p=0.8 rows reach mpmath

    @pytest.mark.parametrize("w, p, y0, c", [(0.5, 0.5, 2.0, 1.2), (0.5, 0.8, 3.0, 1.5),
                                             (1.0, 0.3, 1.5, 1.2), (0.5, 0.8, 4.35, 3.0),
                                             (0.1, 0.9, 5.0, 2.0)])
    def test_drawdown_integrand_matches_the_k_family_resolvent(self, w, p, y0, c):
        # below the knee, with b = y0 - c and h_y = K_y'/K_y,
        #   h_b Z(y0; b) - Z'(y0; b) = int_b^{b/p} K_y(y0) [h_y(y0) - h_b(y0)] dy,
        # whose right side uses neither C~ nor the z_down series.  quad
        # settles on each piece between the kinks y0 p^k of K_y(y0) in y;
        # the two sides agree within 9.4e-16 at these points.  (Where K_y is
        # large, as at w = 2 or 3, h_y - h_b cancels and quad reports roundoff.)
        b = y0 - c
        assert y0 < c / (1.0 - p)
        h_b = _k_log_slope(w, p, b, y0)
        zd, dzd = z_down_slope(w, p, y0, b)

        def resolvent(y):
            return math.exp(_log_k_from_b(w, p, y, y0)) * (_k_log_slope(w, p, y, y0) - h_b)

        cuts = [b] + sorted(y0 * p ** k for k in range(1, 64) if b < y0 * p ** k < b / p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            rhs = sum(quad(resolvent, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                      for lo, hi in zip(cuts, cuts[1:] + [b / p]))
        assert abs((h_b * zd - dzd) - rhs) <= 5e-15


class TestDrawdown:
    def test_first_jump_closed_form_beyond_knee(self):
        # x >= c/(1-p): any jump (and the ratchet before it) achieves the
        # drawdown, so the exit time is exactly the first epoch
        for (w, lam, p, c) in [(1.0, 1.0, 0.5, 1.0), (0.5, 2.0, 0.8, 0.4),
                               (3.0, 0.5, 0.3, 2.0)]:
            x = 1.25 * c / (1.0 - p)
            assert math.isclose(at_rate(lst_drawdown, w, lam, p, x, c),
                                lam / (lam + w), rel_tol=1e-12)

    def test_continuity_at_the_knee(self):
        w, p, c = 1.0, 0.5, 1.0
        knee = c / (1.0 - p)
        below = lst_drawdown(w, p, knee * (1 - 1e-6), c)
        assert math.isclose(below, 1.0 / (1.0 + w), rel_tol=1e-4)

    def test_w_zero_is_one(self):
        assert lst_drawdown(0.0, 0.5, 1.5, 1.0) == 1.0

    def test_decreasing_in_window(self):
        # keep every c above (1-p)x so none of the points sit in the
        # saturated first-jump regime where the value no longer depends on c
        vals = [lst_drawdown(0.5, 0.5, 2.2, c) for c in (1.2, 1.5, 1.8, 2.1)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_start_next_to_the_window_settles_past_underflowing_nodes(self, monkeypatch):
        # a start 1e-18 above c: the Gauss node nearest it puts the barrier
        # y - c some 8e-18 above 0, 31 intervals below y, where z_down is
        # below float64's range, and five more nodes are out of range too.
        # They settle at 0 (their weight is negligible) instead of failing
        # the whole integral.  A start 1e-16 above c, whose nodes all stay
        # in range, is the reference
        w, p, c = 5.0, 0.5, 1e-8
        zeros = []

        def counted(*args):
            out = z_down_slope(*args)
            zeros.append(out[0] == 0.0)
            return out
        monkeypatch.setattr(reflected, "z_down_slope", counted)
        near = lst_drawdown(w, p, c * (1.0 + 1e-10), c)
        assert any(zeros)
        monkeypatch.undo()
        assert abs(near - lst_drawdown(w, p, c * (1.0 + 1e-8), c)) <= 1e-15

    def test_window_saturation_below_first_jump_knee(self):
        # for c <= (1-p)x the exit happens at the first jump whatever c is
        v1 = lst_drawdown(0.5, 0.5, 4.0, 0.5)
        v2 = lst_drawdown(0.5, 0.5, 4.0, 2.0)
        assert v1 == v2 == 1.0 / 1.5

    def test_decreasing_in_w(self):
        vals = [lst_drawdown(w, 0.5, 1.5, 1.0) for w in (0.25, 0.5, 1.0, 2.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_deep_corner_is_scale_invariant_and_matches_monte_carlo(self):
        # nine kink levels between x and the knee, where most float sums
        # escalate; rescaling levels by lam (and w by 1/lam) fixes the value
        w, lam, p, x, c = 0.5, 0.5, 0.8, 6.9, 6.0
        spec = ExitSpec(kind=ExitKind.DRAWDOWN, x=x, c=c)
        val = evaluate(ModelParams(lam=lam, p=p), spec, w)
        unit = ExitSpec(kind=ExitKind.DRAWDOWN, x=lam * x, c=lam * c)
        assert abs(val - evaluate(ModelParams(lam=1.0, p=p), unit, w / lam)) <= 1e-9
        est = mc_lst(spec, ModelParams(lam=lam, p=p),
                     McConfig(n_paths=400_000, seed=20260815,
                              horizon_cap=default_horizon_cap(w, lam), w=w))
        assert est.std_error > 0.0
        assert abs(val - est.mean) <= 4.0 * est.std_error, (val, est)

    @pytest.mark.parametrize("x, p, c, panels", [(1.5, 0.5, 1.0, 1), (3.0, 0.8, 1.5, 3)])
    def test_one_hazard_call_per_gauss_node(self, monkeypatch, x, p, c, panels):
        # the cumulative hazard and the error estimate come from the hazard
        # values at the panel's own Gauss nodes; a round-1 answer is one
        # pass, one call a node
        calls = []

        def counted(*args):
            calls.append(args)
            return hazard(*args)
        monkeypatch.setattr(reflected, "hazard", counted)
        diags = {}
        lst_drawdown(0.5, p, x, c, diagnostics=diags)
        assert diags["refinement_rounds"] == 1
        assert len(calls) == reflected._GAUSS_N * panels == 15 * panels

    def test_unsettled_refinement_raises_with_the_last_raw_integral(self, monkeypatch):
        # an integral whose error estimate never shrinks never settles: after
        # _MAX_ROUNDS passes (the last on panels split 2^(_MAX_ROUNDS-1)-fold)
        # the last value is the partial result
        monkeypatch.setattr(reflected, "_drawdown_value",
                            lambda *args: (0.5 / args[-1], 1.0))
        with pytest.raises(ConvergenceError) as info:
            lst_drawdown(0.5, 0.5, 1.5, 1.0)
        assert info.value.partial == 0.5 / 2 ** (reflected._MAX_ROUNDS - 1)

    def test_the_user_tolerance_governs_the_kronrod_estimate(self):
        # the estimate is at rounding level here, 6.5e-16 to 2.7e-15 over
        # the six passes (the panels' sums and the coefficient tails' noise),
        # never below 1e-300 times the value, so that tolerance exhausts
        # every pass; the defaults settle in the first
        args = (0.5, 0.5, 1.5, 1.0)
        strict = QuadratureControl(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(ConvergenceError) as info:
            lst_drawdown(*args, strict)
        assert math.isfinite(info.value.partial) and 0.0 < info.value.partial < 1.0
        diags = {}
        value = lst_drawdown(*args, diagnostics=diags)
        assert diags["refinement_rounds"] == 1
        default = QuadratureControl()
        assert diags["quad_error"] < max(default.abs_tol, default.rel_tol * value)
        assert abs(info.value.partial - value) <= 1e-14

    def test_quadrature_path_returns_builtin_float(self):
        # the Gauss weights are numpy scalars; a leaked np.float64 would
        # round-trip through repr() as "np.float64(...)" in CSV output
        diags = {}
        val = lst_drawdown(1.0, 0.5, 2.0, 1.5, diagnostics=diags)
        assert type(val) is float
        assert type(diags["quad_error"]) is float


class TestDrawdownReference:
    """Every default-grid drawdown row that reaches the quadrature (nine, one
    of them an xbar0 row through its inner lst_drawdown) against a
    reference with twice the rule's nodes on four times the panels."""

    @pytest.fixture(scope="class")
    def reached(self):
        """``(row, value, diagnostics, reference)`` per row that reaches the
        quadrature, and the hazard calls of the rule's pass over them all."""
        rows = [row for row in default_grid() if row[1].kind is ExitKind.DRAWDOWN]
        real, out, calls, passes = reflected._drawdown_value, [], [], []
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(reflected, "hazard", lambda *args: calls.append(args) or hazard(*args))
            mp_.setattr(reflected, "_drawdown_value",
                        lambda *args: passes.append(args) or real(*args))
            for row in rows:
                diags, before = {}, len(passes)
                value = evaluate(*row, diagnostics=diags)
                if len(passes) > before:
                    out.append([row, value, diags])
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(reflected, "_RULE", reflected._gauss_rule(2 * reflected._GAUSS_N))
            mp_.setattr(reflected, "_drawdown_value",
                        lambda w, p, x, c, split: real(w, p, x, c, 4 * split))
            for entry in out:
                entry.append(evaluate(*entry[0]))
        return out, len(calls)

    def test_grid_rows_match_a_refined_reference_within_1e_13(self, reached):
        rows, _ = reached
        assert (len(rows), sum(row[1].xbar0 is not None for row, *_ in rows)) == (9, 1)
        for row, value, _, reference in rows:
            assert abs(value - reference) <= 1e-13, row

    def test_the_estimate_covers_the_error_and_each_row_settles_in_one_pass(self, reached):
        # the xbar0 row reports its inner integral's estimate, which covers
        # the composed value's error too: the integral enters it times l_up
        for row, value, diags, reference in reached[0]:
            assert diags["refinement_rounds"] == 1, row
            assert diags["quad_error"] >= abs(value - reference), row

    def test_hazard_calls_of_the_nine_rows(self, reached):
        # 21 kink-free panels, one call at each of their 15 nodes
        assert reached[1] == 315


class TestDrawdownRule:
    """The 15-point Gauss-Legendre rule behind the drawdown quadrature: its
    Legendre transform, its cumulative matrix and its error estimate."""

    NODES, WEIGHTS, LEGENDRE, CUM = reflected._RULE
    N = reflected._GAUSS_N

    def test_legendre_transform_recovers_each_legendre_polynomial(self):
        values = np.polynomial.legendre.legvander(self.NODES, self.N - 1)
        assert np.max(np.abs(self.LEGENDRE @ values - np.eye(self.N))) <= 1e-13

    def test_cumulative_matrix_is_exact_to_degree_n_minus_1(self):
        x = self.NODES
        for d in range(self.N):
            exact = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert np.max(np.abs(self.CUM @ x ** d - exact)) <= 1e-14, d

    @pytest.mark.parametrize("f, exact", [
        (lambda t: np.exp(3.0 * t), (math.exp(3.0) - math.exp(-3.0)) / 3.0),
        (lambda t: 1.0 / (1.0 + 4.0 * t * t), math.atan(2.0)),   # poles at +-i/2
        (lambda t: 1.0 / (1.2 - t), math.log(2.2 / 0.2)),        # a pole past 1
        (lambda t: 1.0 / (1.02 - t), math.log(2.02 / 0.02)),     # and just past
        (lambda t: np.abs(t) ** 3, 0.5)])                        # a kink in f''
    def test_error_estimate_covers_the_rule_and_overshoots_it_at_most_1e3_fold(self, f, exact):
        # the truncation error, which the estimate covers, falls
        # geometrically with a pole's Bernstein ellipse (the estimate reads
        # 1.7 to 300 times it), algebraically for |t|^3 (99 times) and faster
        # than geometrically for the entire exp(3 t), whose error is rounding
        values = f(self.NODES)
        error = abs(self.WEIGHTS @ values - exact)
        rounding = 8 * 2.2e-16 * abs(exact)
        estimate = reflected._gauss_error(self.LEGENDRE @ values)
        assert error <= estimate + rounding
        assert estimate <= 1e3 * max(error, rounding)

    def test_error_estimate_of_a_cubic_is_the_transform_rounding(self):
        # the coefficients past degree 3 are rounding, which does not fall
        assert reflected._gauss_error(self.LEGENDRE @ (1.0 + self.NODES ** 3)) <= 1e-13


class TestDrawdownGeneralStart:
    """A supremum ``xbar0 >= x`` on record, which ``evaluate`` composes from
    the fresh-supremum drawdown and the two-sided parts."""

    @staticmethod
    def general(w, p, x, xbar0, c):
        return evaluate(ModelParams(lam=1.0, p=p),
                        ExitSpec(ExitKind.DRAWDOWN, x=x, c=c, xbar0=xbar0), w)

    def test_plain_start_matches_specialization(self):
        w, p, x, c = 0.7, 0.5, 1.5, 1.0
        general = self.general(w, p, x, x, c)
        plain = lst_drawdown(w, p, x, c)
        assert math.isclose(general, plain, rel_tol=1e-12)

    def test_inherited_supremum_already_exceeded(self):
        assert self.general(0.7, 0.5, 1.0, 2.2, 0.9) == 1.0

    def test_increasing_in_inherited_supremum(self):
        # keep (1-p)*xbar0 < c so no point saturates at the first-jump value
        w, p, x, c = 0.7, 0.5, 1.5, 1.0
        vals = [self.general(w, p, x, xbar0, c)
                for xbar0 in (1.5, 1.65, 1.8, 1.95)]
        assert all(v1 > v0 for v0, v1 in zip(vals, vals[1:]))

    def test_composes_the_exit_from_the_recorded_window(self):
        # leaving (xbar0 - c, xbar0) below ends the drawdown, leaving it
        # above restarts the fresh-supremum problem at xbar0
        w, p, x, xbar0, c = 0.7, 0.5, 1.5, 1.8, 1.0
        want = l_down(w, p, x, xbar0, xbar0 - c) \
            + l_up(w, p, x, xbar0, xbar0 - c) * lst_drawdown(w, p, xbar0, c)
        assert self.general(w, p, x, xbar0, c) == want

    def test_saturates_at_first_jump_value_for_deep_supremum(self):
        # once (1-p)*xbar0 >= c every jump ends the race, whether it fires
        # during the inherited window or after a fresh supremum forms
        w, p, x, c = 0.7, 0.5, 1.5, 1.0
        for xbar0 in (2.0, 2.1, 2.4):
            v = self.general(w, p, x, xbar0, c)
            assert math.isclose(v, 1.0 / (1.0 + w), rel_tol=1e-12)

    def test_supremum_at_or_below_window_is_rejected(self):
        # xbar0 <= c puts the window floor at or below zero, which the level
        # never reaches in finite time; the start must lie above the window
        # (x > c), so the spec refuses the corner
        with pytest.raises(ValidationError):
            self.general(0.7, 0.5, 0.3, 0.5, 1.0)
        with pytest.raises(ValidationError):
            self.general(0.7, 0.5, 0.5, 1.0, 1.0)

    def test_w_zero_is_one(self):
        assert self.general(0.0, 0.5, 1.5, 2.0, 1.0) == 1.0


class TestDrawup:
    # frozen values, each confirmed by a 4*10^6-path Monte Carlo run
    # (|z| <= 0.9) during development
    REGIMES = [
        ((1.0, 1.0, 0.5, 1.5, 1.0, 1.0), 0.444329),
        ((0.5, 1.0, 0.5, 1.3, 1.0, 0.8), 0.672075),
        ((2.0, 2.0, 0.8, 2.2, 2.0, 0.6), 0.270022),
        ((1.0, 1.0, 0.5, 1.0, 1.0, 1.0), 0.240982),
        ((1.0, 1.0, 0.5, 5.5, 5.0, 1.0), 0.443401),
        ((1.0, 1.0, 0.5, 0.5, 0.05, 1.0), 0.464713),
        ((0.5, 2.0, 0.8, 1.2, 1.0, 0.5), 0.774243),
        ((3.0, 0.5, 0.3, 2.1, 2.0, 1.0), 0.047648),
        ((0.5, 0.5, 0.3, 1.05, 0.9, 0.4), 0.867576),
        ((1.0, 2.0, 0.5, 2.9, 2.0, 1.0), 0.765170),
    ]

    @pytest.mark.parametrize("args,expected", REGIMES)
    def test_frozen_regimes(self, args, expected):
        assert abs(at_rate(lst_drawup, *args) - expected) <= 1.5e-6

    def test_window_already_open_is_immediate(self):
        assert lst_drawup(1.0, 0.5, 2.0, 1.0, 1.0) == 1.0
        assert lst_drawup(1.0, 0.5, 2.5, 1.0, 1.0) == 1.0

    def test_zero_infimum_reduces_to_ascent(self):
        # with the infimum pinned at zero the drawup is a plain level hit
        w, p, x, c = 0.8, 0.5, 0.6, 1.4
        assert lst_drawup(w, p, x, 0.0, c) == z_up(w, p, x, c)

    def test_w_zero_is_one(self):
        assert lst_drawup(0.0, 0.5, 1.2, 1.0, 1.0) == 1.0

    def test_tolerance_tightening_is_stable(self):
        args = (1.0, 0.5, 1.5, 1.0, 1.0)
        coarse = lst_drawup(*args, tol=1e-6)
        fine = lst_drawup(*args, tol=1e-9)
        assert abs(coarse - fine) <= 1e-6

    def test_decreasing_in_w(self):
        vals = [lst_drawup(w, 0.5, 1.5, 1.0, 1.0)
                for w in (0.25, 0.5, 1.0, 2.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))


class TestSolveA:
    def test_balances_the_two_sided_split(self):
        for (w, lam, p, c, u) in [(1.0, 1.0, 0.5, 1.0, 1.0),
                                  (0.5, 2.0, 0.8, 0.6, 2.0),
                                  (3.0, 0.5, 0.3, 1.0, 2.0)]:
            w, c, u = w / lam, lam * c, lam * u  # at jump rate 1
            a = solve_a(w, p, c, u)
            assert a > u + c
            residual = abs(l_up(w, p, u + c, a, u) - (1.0 - z_down(w, p, u + c, u)))
            assert residual <= 1e-10, (w, lam, p, c, u)

    def test_tightening_tolerance_barely_moves_the_root(self):
        coarse = solve_a(1.0, 0.5, 1.0, 1.0, tol=1e-10)
        fine = solve_a(1.0, 0.5, 1.0, 1.0, tol=1e-13)
        assert abs(coarse - fine) <= 1e-8

    def test_rejects_w_zero(self):
        with pytest.raises(ValidationError):
            solve_a(0.0, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-12])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        with pytest.raises(ValidationError, match="tol must be > 0"):
            solve_a(0.5, 0.5, 1.0, 1.0, tol=tol)

    def test_a_tolerance_no_float_root_meets_raises_with_the_midpoint(self):
        # the residual near the root is 2.2e-16 at best: the bracket closes
        # to adjacent floats without meeting 1e-17, and the final bracket's
        # midpoint is the partial result
        with pytest.raises(ConvergenceError, match="after 51 halvings") as err:
            solve_a(0.5, 0.5, 1.0, 1.0, tol=1e-17)
        assert abs(err.value.partial - solve_a(0.5, 0.5, 1.0, 1.0)) <= 1e-10

    def test_each_level_is_tried_at_most_once(self, monkeypatch):
        # bisection stops once the bracket holds no float between its ends,
        # so no l_up call repeats a level
        levels, l_up_ = [], reflected.l_up

        def counted(w, p, x, a, b):
            levels.append(a)
            return l_up_(w, p, x, a, b)

        monkeypatch.setattr(reflected, "l_up", counted)
        with pytest.raises(ConvergenceError):
            solve_a(0.5, 0.5, 1.0, 1.0, tol=1e-17)
        assert len(levels) == len(set(levels)) == 52


class TestControls:
    def test_quadrature_control_validation(self):
        with pytest.raises(ValidationError):
            QuadratureControl(abs_tol=0.0)
        with pytest.raises(ValidationError):
            QuadratureControl(rel_tol=0.0)
