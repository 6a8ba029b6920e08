"""Reflected passage times, drawdown/drawup transforms, and the level solver."""

import math

import mpmath as mp
import pytest

from aimdexit import (ConvergenceError, ExitKind, ExitSpec, McConfig,
                      ModelParams, QuadratureControl, ValidationError,
                      default_horizon_cap, hazard, l_down, l_up, lst_drawdown,
                      lst_drawdown_general_start, lst_drawup,
                      lst_reflected_lower, lst_reflected_upper, mc_lst,
                      solve_a, z_down, z_up)
from aimdexit import reflected
from aimdexit.scalefn import (_k_tables_mp, _log_k_from_b, interval_index,
                              z_down_slope)


class TestReflectedUpper:
    def test_w_zero_is_one(self):
        assert lst_reflected_upper(0.0, 1.0, 0.5, 1.5, 2.0, 1.0) == 1.0

    def test_pure_drift_never_crosses_down(self):
        assert lst_reflected_upper(1.0, 0.0, 0.5, 1.5, 2.0, 1.0) == 0.0

    def test_both_refresh_branches_evaluate(self):
        # jump from the cap lands above c (refresh possible) or below c
        above = lst_reflected_upper(0.5, 1.0, 0.5, 1.5, 2.0, 0.8)  # p*a > c
        below = lst_reflected_upper(0.5, 1.0, 0.5, 1.5, 2.0, 1.2)  # p*a < c
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
            got = lst_reflected_upper(w, lam, p, x, a, c)
            assert math.isclose(got, lam / (lam + w), rel_tol=1e-12)

    def test_interior_cap_landing_prolongs_the_exit(self):
        # with p*a > c a jump from the cap lands inside the window and the
        # race continues, so the transform sits strictly below lam/(lam+w)
        w, lam, p, a = 0.5, 1.0, 0.5, 2.0
        val = lst_reflected_upper(w, lam, p, 1.5, a, 0.6)
        assert val < lam / (lam + w) - 1e-3

    def test_decreasing_in_w(self):
        vals = [lst_reflected_upper(w, 1.0, 0.5, 1.5, 2.0, 1.0)
                for w in (0.25, 0.5, 1.0, 2.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))


class TestReflectedLower:
    def test_w_zero_is_one(self):
        assert lst_reflected_lower(0.0, 1.0, 0.5, 1.2, 2.0, 1.0) == 1.0

    def test_pure_drift_reaches_target_deterministically(self):
        v = lst_reflected_lower(0.7, 0.0, 0.5, 1.2, 2.0, 1.0)
        assert math.isclose(v, math.exp(-0.7 * 0.8), rel_tol=1e-13)

    def test_reflection_beats_absorption(self):
        # resetting at b instead of exiting there can only shorten the climb
        w, lam, p, x, c, b = 0.5, 1.0, 0.5, 1.2, 2.0, 1.0
        reflected = lst_reflected_lower(w, lam, p, x, c, b)
        absorbed = l_up(w, lam, p, x, c, b)
        assert reflected > absorbed

    def test_decreasing_in_target(self):
        vals = [lst_reflected_lower(0.5, 1.0, 0.5, 1.2, c, 1.0)
                for c in (1.5, 2.0, 3.0, 4.5)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))


class TestHazard:
    def test_constant_rate_beyond_the_log_linear_knee(self):
        # once every single jump achieves the drawdown, the exit happens at
        # the first epoch, so the hazard equals the total event rate
        for (w, lam, p, c) in [(0.5, 1.0, 0.5, 1.0), (1.0, 2.0, 0.8, 0.5)]:
            z1 = c / (1.0 - p)
            assert math.isclose(hazard(w, lam, p, 1.5 * z1, c), w + lam,
                                rel_tol=1e-12)

    def test_positive_and_finite_below_knee(self):
        for z in (1.3, 1.6, 1.9):
            h = hazard(0.5, 1.0, 0.5, z, 1.0)
            assert 0.0 < h < 10.0

    def test_matches_richardson_quotient_of_log_k(self):
        # the p=0.8 drawdown row of the default grid (x=4.35, c=3, knee 15):
        # deep intervals, where the float tables cancel the most.  The
        # quotient's step balances its O(step^2) error against the rounding
        # of log K, which dominates where h_0 is small (1e-2 at z=4.4)
        lam, p, c = 1.0, 0.8, 3.0

        def richardson(w, z):
            b, step = z - c, 1e-4 * z

            def quot(dd):
                return (_log_k_from_b(w, lam, p, b, z + dd)
                        - _log_k_from_b(w, lam, p, b, z)) / dd
            return 2.0 * quot(step / 2.0) - quot(step)

        def exact_mp(w, z):
            b = z - c
            k = interval_index(z, b, p)
            tab = _k_tables_mp(w, lam, p, b, k, 60)[k]
            with mp.workdps(60):
                g, p_ = mp.mpf(w) + lam, mp.mpf(p)
                terms = [a * mp.e ** (g * p_ ** n * z) for n, a in enumerate(tab)]
                return float(mp.fsum(g * p_ ** n * t for n, t in enumerate(terms))
                             / mp.fsum(terms))

        for w in (0.5, 0.0):
            for z in (4.4, 5.0, 7.3, 11.0, 14.5):
                b = z - c
                k = interval_index(z, b, p)
                assert interval_index(z * (1 + 2e-4), b, p) == k  # no kink inside
                h = hazard(w, lam, p, z, c)
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
        # at the top z of the strip (z - c, z) the race ends at rate w + lam
        # unless the jump to p z climbs back to z first.  Absolute
        # tolerance: h_0 goes to 0 near z = c
        for z in self._levels(p, c):
            first_step = (w + lam) - lam * l_up(w, lam, p, p * z, z, z - c)
            assert abs(hazard(w, lam, p, z, c) - first_step) <= 1e-12 * (w + lam), z

    @pytest.mark.parametrize("w, lam, p, c", [case for case in FIRST_STEP if case[0] > 0.0])
    def test_drawdown_integrand_matches_first_step_through_the_down_exit(self, w, lam, p, c):
        # h Z - Z' is the rate of leaving (y - c, y) downward from the top
        # y: a jump to p y, then the down exit before y comes back.  (At
        # w = 0 the integrand is h_0 itself and the check above covers it.)
        escalated = 0
        for y in self._levels(p, c):
            diags = {}
            z_down(w, lam, p, y, y - c, diagnostics=diags)
            escalated += diags["escalated_digits"] > 0
            zd, dzd = z_down_slope(w, lam, p, y, y - c)
            integrand = hazard(w, lam, p, y, c) * zd - dzd
            first_step = lam * l_down(w, lam, p, p * y, y, y - c)
            assert abs(integrand - first_step) <= 1e-14 * lam, y
        assert escalated or p < 0.8  # the p=0.8 rows reach mpmath


class TestDrawdown:
    def test_first_jump_closed_form_beyond_knee(self):
        # x >= c/(1-p): any jump (and the ratchet before it) achieves the
        # drawdown, so the exit time is exactly the first epoch
        for (w, lam, p, c) in [(1.0, 1.0, 0.5, 1.0), (0.5, 2.0, 0.8, 0.4),
                               (3.0, 0.5, 0.3, 2.0)]:
            x = 1.25 * c / (1.0 - p)
            assert math.isclose(lst_drawdown(w, lam, p, x, c),
                                lam / (lam + w), rel_tol=1e-12)

    def test_continuity_at_the_knee(self):
        w, lam, p, c = 1.0, 1.0, 0.5, 1.0
        knee = c / (1.0 - p)
        below = lst_drawdown(w, lam, p, knee * (1 - 1e-6), c)
        assert math.isclose(below, lam / (lam + w), rel_tol=1e-4)

    def test_w_zero_is_one(self):
        assert lst_drawdown(0.0, 1.0, 0.5, 1.5, 1.0) == 1.0

    def test_pure_drift_never_draws_down(self):
        assert lst_drawdown(1.0, 0.0, 0.5, 1.5, 1.0) == 0.0

    def test_decreasing_in_window(self):
        # keep every c above (1-p)x so none of the points sit in the
        # saturated first-jump regime where the value no longer depends on c
        vals = [lst_drawdown(0.5, 1.0, 0.5, 2.2, c) for c in (1.2, 1.5, 1.8, 2.1)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_window_saturation_below_first_jump_knee(self):
        # for c <= (1-p)x the exit happens at the first jump whatever c is
        v1 = lst_drawdown(0.5, 1.0, 0.5, 4.0, 0.5)
        v2 = lst_drawdown(0.5, 1.0, 0.5, 4.0, 2.0)
        assert v1 == v2 == 1.0 / 1.5

    def test_decreasing_in_w(self):
        vals = [lst_drawdown(w, 1.0, 0.5, 1.5, 1.0) for w in (0.25, 0.5, 1.0, 2.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_deep_corner_is_scale_invariant_and_matches_monte_carlo(self):
        # nine kink levels between x and the knee, where most float sums
        # escalate; rescaling levels by lam (and w by 1/lam) fixes the value
        w, lam, p, x, c = 0.5, 0.5, 0.8, 6.9, 6.0
        val = lst_drawdown(w, lam, p, x, c)
        assert abs(val - lst_drawdown(w / lam, 1.0, p, lam * x, lam * c)) <= 1e-9
        est = mc_lst(ExitSpec(kind=ExitKind.DRAWDOWN, x=x, c=c), ModelParams(lam=lam, p=p),
                     McConfig(n_paths=400_000, seed=20260815,
                              horizon_cap=default_horizon_cap(w, lam), w=w))
        assert est.std_error > 0.0
        assert abs(val - est.mean) <= 4.0 * est.std_error, (val, est)

    @pytest.mark.parametrize("x, p, c, panels", [(1.5, 0.5, 1.0, 1), (3.0, 0.8, 1.5, 3)])
    def test_one_hazard_call_per_gauss_node(self, monkeypatch, x, p, c, panels):
        # the cumulative hazard comes from the hazard values at the panel's
        # own 24 Gauss nodes; a round-1 answer evaluates every panel whole
        # and halved, so 3 * 24 nodes per panel
        calls = []

        def counted(*args):
            calls.append(args)
            return hazard(*args)
        monkeypatch.setattr(reflected, "hazard", counted)
        diags = {}
        lst_drawdown(0.5, 1.0, p, x, c, diagnostics=diags)
        assert diags["refinement_rounds"] == 1
        assert len(calls) == 3 * 24 * panels

    def test_unsettled_refinement_raises_with_the_last_raw_integral(self, monkeypatch):
        # an integral that halves with every panel split never settles
        monkeypatch.setattr(reflected, "_drawdown_value", lambda *args: 0.5 / args[-1])
        with pytest.raises(ConvergenceError) as info:
            lst_drawdown(0.5, 1.0, 0.5, 1.5, 1.0)
        assert info.value.partial == 0.5 / 2 ** reflected._MAX_ROUNDS

    def test_quadrature_path_returns_builtin_float(self):
        # the Gauss weights are numpy scalars; a leaked np.float64 would
        # round-trip through repr() as "np.float64(...)" in CSV output
        diags = {}
        val = lst_drawdown(1.0, 1.0, 0.5, 2.0, 1.5, diagnostics=diags)
        assert type(val) is float
        assert type(diags["quad_error"]) is float


class TestDrawdownGeneralStart:
    def test_plain_start_matches_specialization(self):
        w, lam, p, x, c = 0.7, 1.0, 0.5, 1.5, 1.0
        general = lst_drawdown_general_start(w, lam, p, x, x, c)
        plain = lst_drawdown(w, lam, p, x, c)
        assert math.isclose(general, plain, rel_tol=1e-12)

    def test_inherited_supremum_already_exceeded(self):
        assert lst_drawdown_general_start(0.7, 1.0, 0.5, 1.0, 2.2, 1.0) == 1.0

    def test_increasing_in_inherited_supremum(self):
        # keep (1-p)*xbar0 < c so no point saturates at the first-jump value
        w, lam, p, x, c = 0.7, 1.0, 0.5, 1.5, 1.0
        vals = [lst_drawdown_general_start(w, lam, p, x, xbar0, c)
                for xbar0 in (1.5, 1.65, 1.8, 1.95)]
        assert all(v1 > v0 for v0, v1 in zip(vals, vals[1:]))

    def test_saturates_at_first_jump_value_for_deep_supremum(self):
        # once (1-p)*xbar0 >= c every jump ends the race, whether it fires
        # during the inherited window or after a fresh supremum forms
        w, lam, p, x, c = 0.7, 1.0, 0.5, 1.5, 1.0
        for xbar0 in (2.0, 2.1, 2.4):
            v = lst_drawdown_general_start(w, lam, p, x, xbar0, c)
            assert math.isclose(v, lam / (lam + w), rel_tol=1e-12)

    def test_supremum_at_or_below_window_is_rejected(self):
        # xbar0 <= c puts the window floor at or below zero, which the level
        # never reaches in finite time; the evaluator refuses the corner
        with pytest.raises(ValidationError):
            lst_drawdown_general_start(0.7, 1.0, 0.5, 0.3, 0.5, 1.0)
        with pytest.raises(ValidationError):
            lst_drawdown_general_start(0.7, 1.0, 0.5, 0.5, 1.0, 1.0)

    def test_w_zero_is_one(self):
        assert lst_drawdown_general_start(0.0, 1.0, 0.5, 1.5, 2.0, 1.0) == 1.0


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
        w, lam, p, x, u, c = args
        assert abs(lst_drawup(w, lam, p, x, u, c) - expected) <= 1.5e-6

    def test_window_already_open_is_immediate(self):
        assert lst_drawup(1.0, 1.0, 0.5, 2.0, 1.0, 1.0) == 1.0
        assert lst_drawup(1.0, 1.0, 0.5, 2.5, 1.0, 1.0) == 1.0

    def test_zero_infimum_reduces_to_ascent(self):
        # with the infimum pinned at zero the drawup is a plain level hit
        w, lam, p, x, c = 0.8, 1.0, 0.5, 0.6, 1.4
        assert lst_drawup(w, lam, p, x, 0.0, c) == z_up(w, lam, p, x, c)

    def test_pure_drift_climbs_deterministically(self):
        v = lst_drawup(0.8, 0.0, 0.5, 1.2, 1.0, 1.0)
        assert math.isclose(v, math.exp(-0.8 * 0.8), rel_tol=1e-13)

    def test_w_zero_is_one(self):
        assert lst_drawup(0.0, 1.0, 0.5, 1.2, 1.0, 1.0) == 1.0

    def test_tolerance_tightening_is_stable(self):
        args = (1.0, 1.0, 0.5, 1.5, 1.0, 1.0)
        coarse = lst_drawup(*args, tol=1e-6)
        fine = lst_drawup(*args, tol=1e-9)
        assert abs(coarse - fine) <= 1e-6

    def test_decreasing_in_w(self):
        vals = [lst_drawup(w, 1.0, 0.5, 1.5, 1.0, 1.0)
                for w in (0.25, 0.5, 1.0, 2.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))


class TestSolveA:
    def test_balances_the_two_sided_split(self):
        for (w, lam, p, c, u) in [(1.0, 1.0, 0.5, 1.0, 1.0),
                                  (0.5, 2.0, 0.8, 0.6, 2.0),
                                  (3.0, 0.5, 0.3, 1.0, 2.0)]:
            a = solve_a(w, lam, p, c, u)
            assert a > u + c
            residual = abs(l_up(w, lam, p, u + c, a, u)
                           - (1.0 - z_down(w, lam, p, u + c, u)))
            assert residual <= 1e-10, (w, lam, p, c, u)

    def test_tightening_tolerance_barely_moves_the_root(self):
        coarse = solve_a(1.0, 1.0, 0.5, 1.0, 1.0, tol=1e-10)
        fine = solve_a(1.0, 1.0, 0.5, 1.0, 1.0, tol=1e-13)
        assert abs(coarse - fine) <= 1e-8

    def test_rejects_w_zero(self):
        with pytest.raises(ValidationError):
            solve_a(0.0, 1.0, 0.5, 1.0, 1.0)


class TestControls:
    def test_quadrature_control_validation(self):
        with pytest.raises(ValidationError):
            QuadratureControl(abs_tol=0.0)
        with pytest.raises(ValidationError):
            QuadratureControl(rel_tol=0.0)
