"""One-sided and two-sided scale-function evaluators."""

import contextlib
import importlib
import math
import pkgutil
import random
import sys
import threading
import tracemalloc
import types

import mpmath as mp
import pytest

import aimdexit
from aimdexit import (ConvergenceError, ExitKind, ExitSpec, ModelParams,
                      ValidationError, default_grid, evaluate, interval_index,
                      k_up_coeffs, l_down, l_up, l_up_from_b, scalefn, simulator,
                      z_down, z_up)
from aimdexit.reflected import hazard
from aimdexit.scalefn import (_log_add, _log_up_denominator,
                              _signed_logsumexp, _z_down_mp, c_tilde, z_down_slope)
from oracles import c_tilde_statement_oracle, z_down_renewal_residual
from unit_rate import at_rate


class TestSignedLogArithmetic:
    @staticmethod
    def pair(v):
        return (0, -math.inf) if v == 0.0 else ((1 if v > 0 else -1), math.log(abs(v)))

    def test_log_add_matches_direct_sum(self):
        for a, b in [(2.5, 0.75), (2.5, -0.75), (-0.75, 2.5), (-3.0, -1e-200), (1e-300, 4.0)]:
            s, L = _log_add(*self.pair(a), *self.pair(b))
            assert s == (1 if a + b > 0 else -1)
            assert math.isclose(s * math.exp(L), a + b, rel_tol=1e-14), (a, b)

    def test_log_add_beyond_float64(self):
        # 1e600 - 1e599 overflows float64, not the log form
        s, L = _log_add(1, 600 * math.log(10), -1, 599 * math.log(10))
        assert s == 1
        assert math.isclose(L, 600 * math.log(10) + math.log(0.9), rel_tol=1e-14)

    def test_signed_logsumexp_matches_direct(self):
        vals = [3.0, -1.25, 0.5, -2.0]
        sign, log_sum = _signed_logsumexp([1 if v > 0 else -1 for v in vals],
                                          [math.log(abs(v)) for v in vals])
        direct = sum(vals)
        assert math.isclose(sign * math.exp(log_sum), direct, rel_tol=1e-14)


class TestSignedLogProduct:
    """The zero and the exact cancellation of ``(sign, log)`` pairs."""

    def test_zero(self):
        # (0, -inf) is the zero: the identity of _log_add on either side,
        # and what an empty or all-zero signed sum returns
        assert _log_add(0, -math.inf, -1, 2.0) == (-1, 2.0)
        assert _log_add(1, 2.0, 0, -math.inf) == (1, 2.0)
        assert _log_add(0, -math.inf, 0, -math.inf) == (0, -math.inf)
        assert _signed_logsumexp([], []) == (0, -math.inf)
        assert _signed_logsumexp([0, 0], [-math.inf, -math.inf]) == (0, -math.inf)

    def test_signed_sum_cancellation(self):
        assert _log_add(1, 0.0, -1, 0.0) == (0, -math.inf)
        assert _log_add(-1, 5.0, 1, 5.0) == (0, -math.inf)
        assert _signed_logsumexp([1, -1], [0.0, 0.0]) == (0, -math.inf)


class TestZUp:
    def test_golden_value_ascent_from_zero(self):
        # frozen from an arbitrary-precision evaluation of the ascent series
        assert math.isclose(z_up(1.0, 0.5, 0.0, 1.0),
                            0.28507397014103575, rel_tol=1e-13)

    def test_matches_arbitrary_precision_series(self):
        # 1/value = 1 + w sum_{n>=1} x^n/n! prod_{i=1}^{n-1}(w + lam - lam p^i)
        for (w, lam, p, x) in [(0.5, 2.0, 0.8, 1.5), (3.0, 0.5, 0.3, 2.0),
                               (1.0, 1.0, 0.5, 20.0)]:
            with mp.workdps(60):
                g = mp.mpf(w) + lam
                term = mp.mpf(x)
                series = term
                for n in range(2, 3000):
                    term *= mp.mpf(x) * (g - lam * mp.mpf(p) ** (n - 1)) / n
                    series += term
                    if term < mp.mpf(10) ** -50 * series and n > 8:
                        break
                ref = float(1 / (1 + w * series))
            assert math.isclose(at_rate(z_up, w, lam, p, 0.0, x), ref,
                                rel_tol=1e-12), (w, lam, p, x)

    def test_w_zero_is_one(self):
        assert z_up(0.0, 0.5, 1.0, 2.0) == 1.0

    def test_multiplicative_in_the_upper_level(self):
        w, lam, p = 0.7, 1.3, 0.6
        whole = at_rate(z_up, w, lam, p, 0.5, 4.0)
        split = at_rate(z_up, w, lam, p, 0.5, 2.0) * at_rate(z_up, w, lam, p, 2.0, 4.0)
        assert math.isclose(whole, split, rel_tol=1e-13)

    def test_decreasing_in_w(self):
        vals = [z_up(w, 0.5, 1.0, 2.0) for w in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_exponent_regime_no_overflow(self):
        v = at_rate(z_up, 3.0, 2.0, 0.8, 1.0, 120.0)  # gamma * a = 600
        assert 0.0 < v < 1e-200

    def test_series_diagnostics_reported(self):
        diag = {}
        z_up(1.0, 0.5, 0.0, 1.0, diagnostics=diag)
        assert diag["series_terms"] > 4

    def test_a_level_past_the_term_cap_raises(self):
        with pytest.raises(ConvergenceError, match="upward series not converged"):
            _log_up_denominator(10.0, 0.95, 2000.0)


class TestCTilde:
    def test_golden_value(self):
        assert math.isclose(c_tilde(1.0, 0.5, 1.0),
                            0.07746815831385567, rel_tol=1e-13)

    def test_matches_statement_form_oracle(self):
        for (w, lam, p, b) in [(1.0, 1.0, 0.5, 1.0), (0.5, 2.0, 0.8, 0.3),
                               (3.0, 0.5, 0.3, 2.0), (1e-6, 1.0, 0.5, 1.0),
                               (3.0, 2.0, 0.8, 5.0), (0.25, 1.0, 0.3, 0.05)]:
            prod = at_rate(c_tilde, w, lam, p, b)
            oracle = c_tilde_statement_oracle(w, lam, p, b)
            assert math.isclose(prod, oracle, rel_tol=1e-11), (w, lam, p, b)

    def test_constant_past_float64_range_is_zero(self):
        # b g / p overflows: every numerator term underflows, and the walk over
        # them never ended (10,000 terms, then ConvergenceError); C~, near
        # e^{-b g (1/p - 1)} / g, is 0.0 in float64
        assert c_tilde(1e308, 0.5, 10.0) == 0.0
        assert c_tilde(1e307, 0.5, 10.0) == 0.0
        assert math.isclose(c_tilde(1e300, 0.5, 1e-300), math.exp(-1.0) / 1e300,
                            rel_tol=1e-13)
        spec = ExitSpec(ExitKind.DOWN_ONE, x=15.0, b=10.0)
        assert 0.0 <= evaluate(ModelParams(lam=1.0, p=0.5), spec, 1e308) <= 1e-308

    def test_vanishes_without_jumps(self):
        # as lam -> 0 only the one-jump term is left: (lam/w) e^{-b w (1/p - 1)}
        w, p, b = 1.0, 0.5, 1.0
        for lam in (1e-10, 1e-100, 1e-300):
            assert math.isclose(at_rate(c_tilde, w, lam, p, b),
                                lam / w * math.exp(-b * w * (1.0 / p - 1.0)),
                                rel_tol=1e-9), lam

    def test_high_p_cancellation_rescue(self):
        # the q-product denominators near p=1 make the float64 series lose
        # every digit (it used to return -0.12 here); pinned against the
        # arbitrary-precision twin at 90 significant digits
        assert math.isclose(at_rate(c_tilde, 0.125, 2.0, 0.95, 1.0),
                            14.211573822947647, rel_tol=1e-11)
        # p=0.9 loses ~8 digits: enough to trip the rescue, small enough
        # that the old float path still agreed to ~1e-8 with the truth
        assert math.isclose(at_rate(c_tilde, 0.125, 2.0, 0.9, 1.0),
                            12.194374179792973, rel_tol=1e-11)

    def test_p_inverse_past_float_range_is_a_zero_term(self):
        # p^-l overflows float64 from l = 2 at p = 1e-200 (and l = 4 at
        # 1e-100): those terms are zero, as are all but the first here
        assert c_tilde(1.0, 1e-200, 1.0) == 0.0
        # every start in (b, b/p] has the one-jump value 1/(w + 1)
        assert evaluate(ModelParams(lam=1.0, p=1e-100),
                        ExitSpec(ExitKind.DOWN_ONE, x=1.5, b=1.0), 1.0) == 0.5

    def test_escalated_series_sizes_past_float_range(self):
        # the arbitrary-precision twin sizes its series from the same float64
        # logs, past p^-4 = 1e400 here, and agrees with the float64 value
        (value, _), _ = scalefn._c_tilde_mp(1.0, 1e-100, 1e-100, 30)
        assert math.isclose(float(value), c_tilde(1.0, 1e-100, 1e-100), rel_tol=1e-14)

    def test_escalated_numerator_far_below_the_denominator_settles(self):
        # at w b = 1e3 the numerator's terms lie some 435 digits below the
        # denominator's; measured against its own peak neither sum cancels,
        # and the value, e^-1001 / 1001 to ~435 digits, is 0.0 in float64
        value, _ = scalefn._c_tilde_escalated(1e3, 0.5, 1.0, 30)
        assert mp.almosteq(value, mp.exp(-1001) / 1001, rel_eps=mp.mpf(10) ** -25)
        assert float(value) == 0.0
        assert c_tilde(1e3, 0.5, 1.0) == 0.0

    def test_rescue_fills_one_entry_of_the_escalated_memo(self):
        # the rescue and the escalated z_down series share one memo
        scalefn._c_tilde_escalated.cache_clear()
        c_tilde(0.0625, 0.95, 2.0)
        info = scalefn._c_tilde_escalated.cache_info()
        assert (info.hits, info.misses) == (0, 1)


class TestZDown:
    def test_golden_value(self):
        assert math.isclose(z_down(1.0, 0.5, 1.5, 1.0),
                            0.39470985648562884, rel_tol=1e-13)

    def test_w_zero_is_one(self):
        assert z_down(0.0, 0.5, 1.5, 1.0) == 1.0

    def test_pure_drift_never_crosses_down(self):
        w, p, x, b = 1.0, 0.5, 1.5, 1.0
        assert evaluate(ModelParams(lam=0.0, p=p), ExitSpec(ExitKind.DOWN_ONE, x=x, b=b), w) == 0.0
        # as lam -> 0 only one jump, before the drift lifts x past b/p, crosses:
        # lam * int_0^{b/p - x} e^{-w t} dt
        for lam in (1e-10, 1e-100, 1e-300):
            assert math.isclose(at_rate(z_down, w, lam, p, x, b),
                                lam / w * -math.expm1(-w * (b / p - x)),
                                rel_tol=1e-9), lam

    def test_first_jump_bound(self):
        # crossing needs at least one jump, so the value is below lam/(lam+w)
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 1.5, 1.0),
                                  (0.5, 2.0, 0.8, 3.0, 1.0),
                                  (3.0, 0.5, 0.3, 1.2, 1.0)]:
            assert at_rate(z_down, w, lam, p, x, b) <= lam / (lam + w) + 1e-15

    def test_renewal_equation_residual(self):
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 1.5, 1.0),
                                  (0.5, 2.0, 0.8, 1.4, 1.0),
                                  (3.0, 0.5, 0.3, 6.0, 1.0),
                                  (1.0, 1.0, 0.5, 1.05, 1.0),
                                  (2.0, 1.0, 0.5, 9.9, 1.0)]:
            assert abs(z_down_renewal_residual(w, lam, p, x, b)) <= 1e-7

    def test_deep_cancellation_escalates_and_stays_consistent(self):
        # gamma*(x-b) ~ 110: the float path is pure cancellation noise and
        # the evaluation must escalate precision until self-consistent
        diag = {}
        v = z_down(3.0, 0.3, 28.529579, 0.857143, diagnostics=diag)
        assert diag["escalated_digits"] >= 50
        assert math.isclose(v, 0.009996388, rel_tol=1e-5)
        assert abs(z_down_renewal_residual(3.0, 1.0, 0.3, 28.529579, 0.857143)) <= 1e-9

    @pytest.mark.parametrize("w, p, x, b", [(0.02, 0.96, 1.02, 0.98),
                                            (0.01, 0.96, 0.44, 0.416),
                                            (0.02, 0.95, 1.3, 1.2)])
    def test_escalation_carries_the_constants_own_digits(self, w, p, x, b):
        # small w near p = 1: the downward-series constant cancels ~18 of
        # the digits z_down escalates to, which used to leave the value off
        # by up to 2.5e-2 relative; it must agree with 150 digits throughout
        diag = {}
        v = z_down(w, p, x, b, diagnostics=diag)
        assert diag["escalated_digits"] > 0
        assert math.isclose(v, _z_down_mp(w, p, x, b, 150)[0], rel_tol=1e-12)

    def test_term_past_float64_escalates_instead_of_overflowing(self):
        # at x = 240 one series term is e^703: the float sums cannot hold it,
        # so the whole sum is taken in mpmath, with digits sized from that
        # term; the reference agrees at 340 and 380 digits
        params, w = ModelParams(lam=1.0, p=0.3), 2.0
        value = evaluate(params, ExitSpec(ExitKind.DOWN_ONE, x=240.0, b=1.5), w)
        assert math.isclose(value, 0.0041147607768808915, rel_tol=1e-12)
        assert value < evaluate(params, ExitSpec(ExitKind.DOWN_ONE, x=200.0, b=1.5), w)
        got, slope = z_down_slope(w, 0.3, 240.0, 1.5)
        assert got == value
        assert slope < 0.0

    @pytest.mark.parametrize("x", [300.0, 1000.0])
    def test_term_far_past_float64_settles_or_raises_convergence_error(self, x):
        # the series needs more digits than the escalation's cap; at x = 1000
        # even the capped mpmath sum is past float64
        spec = ExitSpec(ExitKind.DOWN_ONE, x=x, b=1.5)
        try:
            value = evaluate(ModelParams(lam=1.0, p=0.3), spec, 2.0)
        except ConvergenceError:
            return
        assert 0.0 < value < 0.0041147607768808915

    def test_tiny_values_settle_relatively(self):
        # w = 0.5, p = 0.99, b = 1: 19 to 161 intervals.  References: the
        # series at 700 and 900 digits (x = 5 rounds to 0 in float64).  No
        # absolute floor: a value settles relatively, or, below float64's
        # range, once its noise bound is below the smallest subnormal
        refs = {1.2: 1.5522869373224454e-51, 1.5: 1.722262545150244e-110,
                2.0: 1.0692439456833012e-182, 3.0: 4.0501401973106185e-277, 5.0: 0.0}
        settled = []
        for x, ref in refs.items():
            diag = {}
            value = z_down(0.5, 0.99, x, 1.0, diagnostics=diag)
            assert abs(value - ref) <= 1e-12 * ref, x
            # the escalated evaluation reports its own error bound
            assert diag["escalated_digits"] > 0
            assert diag["float_error_estimate"] <= max(1e-12 * value, 5e-324), x
            settled.append(value)
        assert settled == sorted(settled, reverse=True)

    def test_value_under_the_float_noise_settles_relatively(self):
        # twelve intervals: the float sums cancel to 2.4e-17 of noise, which
        # an absolute floor of 1e-15 once accepted; the value is 8.1e-68 at
        # 100, 200 and 300 digits
        diag = {}
        value = z_down(5.0, 0.3, 0.01000001, 1e-8, diagnostics=diag)
        assert diag["escalated_digits"] > 0
        assert abs(value - 8.066658510788174e-68) <= 1e-12 * 8.066658510788174e-68

    def test_value_below_float64_settles_at_zero(self):
        # 50 intervals: the value is below 5e-324, and the 400-digit run
        # bounds its noise below that; a loss measured against the value 0
        # would never settle
        diag = {}
        assert z_down(20.0, 0.5, 1.0 + 1e-15, 1e-15, diagnostics=diag) == 0.0
        assert diag["escalated_digits"] > 0
        assert diag["float_error_estimate"] <= 5e-324
        assert z_down_slope(20.0, 0.5, 1.0 + 1e-15, 1e-15) == (0.0, 0.0)

    def test_value_below_float64_by_the_jump_count_is_zero(self):
        # 60 intervals need 60 jumps, so the value is at most (w + 1)^-60,
        # some 1e-360, and the slope at most twice (w + 1)^-59: both are
        # zero in float64 before any series is summed (the series' peak
        # term is beyond every digit budget)
        diag = {}
        assert z_down(1e6, 0.5, 2.0 ** 60, 1.0, diagnostics=diag) == 0.0
        assert (diag["interval_count"], diag["escalated_digits"]) == (60, 0)
        assert z_down_slope(1e6, 0.5, 2.0 ** 60, 1.0) == (0.0, 0.0)
        spec = ExitSpec(ExitKind.DOWN_ONE, x=2.0 ** 60, b=1.0)
        assert evaluate(ModelParams(lam=1.0, p=0.5), spec, 1e6) == 0.0

    def test_subnormal_w_continues_the_small_w_values(self):
        # w/lam is 1.6e-323, where the float64 C~, near 1/w, is past float64's
        # range: the barrier's record takes its log from the escalated C~.
        # The value is not 1 - O(w): a path that does not fall the 10
        # intervals to b at once climbs to levels whose way back down takes
        # far longer than 1/w, so the value is the weight of the quick fall,
        # the same at every w from 1e-10 down
        params = ModelParams(lam=0.31838016288812065, p=0.8936831169233511)
        spec = ExitSpec(ExitKind.DOWN_ONE, x=2.979994668203142e-09, b=1.0501627785500992e-09)
        value = evaluate(params, spec, 5e-324)
        assert math.isclose(value, evaluate(params, spec, 1e-10 * params.lam), rel_tol=1e-12)
        assert math.isclose(value, 1.9081087611930173e-110, rel_tol=1e-12)

    def test_float_route_that_is_not_finite_escalates_from_the_cap(self, monkeypatch):
        # no peak to measure a loss against: the first budget is the cap, and
        # with no measure the run cannot settle there
        budgets = []
        real = scalefn._z_down_mp
        monkeypatch.setattr(scalefn, "_z_down_terms",
                            lambda *args: ([1], [math.inf], [1.5]))
        monkeypatch.setattr(scalefn, "_z_down_mp",
                            lambda *args: budgets.append(args[4]) or real(*args))
        with pytest.raises(ConvergenceError):
            scalefn._z_down_eval.__wrapped__(0.5, 0.5, 1.5, 1.0, False)
        assert budgets == [scalefn._MAX_DPS]

    def test_decreasing_in_start_level(self):
        vals = [z_down(1.0, 0.5, x, 1.0) for x in (1.1, 1.5, 2.5, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_start_below_barrier(self):
        with pytest.raises(ValidationError):
            z_down(1.0, 0.5, 0.9, 1.0)


class TestZDownSlope:
    @staticmethod
    def central(w, p, x, b, rel_step=1e-5):
        h = rel_step * x
        return (z_down(w, p, x + h, b) - z_down(w, p, x - h, b)) / (2.0 * h)

    def test_value_is_z_down(self):
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 1.5, 1.0), (0.5, 2.0, 0.8, 3.0, 1.0)]:
            assert at_rate(z_down_slope, w, lam, p, x, b)[0] == at_rate(z_down, w, lam, p, x, b)

    def test_matches_central_difference(self):
        # points sit away from the breakpoints b p^{-k}, where the slope jumps
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 1.5, 1.0),
                                  (0.5, 2.0, 0.8, 3.0, 1.0),
                                  (3.0, 0.5, 0.3, 6.0, 1.0),
                                  (1.0, 1.0, 0.5, 2.9, 1.0)]:
            _, slope = at_rate(z_down_slope, w, lam, p, x, b)
            assert slope < 0.0
            assert math.isclose(slope, at_rate(self.central, w, lam, p, x, b), rel_tol=1e-6)

    def test_escalated_slope_matches_central_difference(self):
        # k0 = 10 intervals at p = 0.8: the float sums cancel ~12 digits
        w, p, x, b = 1.0, 0.8, 3.457, 0.457
        diag = {}
        value = z_down(w, p, x, b, diagnostics=diag)
        assert diag["escalated_digits"] > 0
        got, slope = z_down_slope(w, p, x, b)
        assert math.isclose(got, value, rel_tol=1e-12)
        assert math.isclose(slope, self.central(w, p, x, b), rel_tol=1e-6)

    @pytest.mark.parametrize("w, p, x, b, expected", [
        (1.0, 0.8, 3.457, 0.457, ("0x1.d492a3aac48eap-31", "-0x1.6bfcd402f0cbbp-30")),
        (0.5, 0.95, 3.0, 2.0, ("0x1.f1f46a3ab5b23p-40", "-0x1.31078612efffap-35")),
    ])
    def test_escalated_value_and_slope_are_pinned(self, w, p, x, b, expected):
        # both points take the arbitrary-precision twins (37 and 40 digits);
        # any change to their arithmetic that moves a bit shows up here
        diag = {}
        z_down(w, p, x, b, diagnostics=diag)
        assert diag["escalated_digits"] > 0
        assert tuple(v.hex() for v in z_down_slope(w, p, x, b)) == expected

    def test_breakpoint_ties_to_the_lower_interval(self):
        # at x = b/p the value is continuous but the slope jumps: x itself
        # takes the left slope, the next float up the right one
        w, p, b = 0.5, 0.5, 1.0
        left = z_down_slope(w, p, 2.0, b)
        right = z_down_slope(w, p, math.nextafter(2.0, math.inf), b)
        assert left[1] == -0.45450268140970507
        assert right[1] == -0.05356051068247958
        assert math.isclose(left[0], right[0], rel_tol=0.0, abs_tol=1e-15)

    def test_breakpoints_past_float64_range_are_compared_in_logs(self):
        # p^-k overflows before b p^-k passes x: 1e-300 2^1994 > 1e300 > 1e-300 2^1993
        assert scalefn._down_interval_count(1e300, 1e-300, 0.5) == 1994
        # at p = 1e-12 the 26th breakpoint overflows; the start is in interval
        # 26, whose series cancels past the digit cap
        spec = ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1e300, a=1.0000000000000091e+300,
                        c=0.04369126585810171)
        try:
            value = evaluate(ModelParams(lam=2.0778381763105752e-10, p=1e-12), spec,
                             1.8512715034215414e-11)
        except ConvergenceError:
            return
        assert 0.0 <= value <= 1.0

    def test_generator_identity_past_the_first_breakpoint(self):
        # for b < x <= b/p every jump lands below b, so the generator gives
        # (w+1) Z - Z' = 1 exactly at jump rate 1; these are the drawdown
        # levels y past the knee c/(1-p), with b = y - c
        for (w, lam, p, c) in [(0.5, 1.0, 0.5, 1.0), (1.0, 2.0, 0.8, 0.5),
                               (0.5, 0.5, 0.8, 6.0)]:
            for y in (1.01, 1.3, 2.0):
                y *= c / (1.0 - p)
                value, slope = at_rate(z_down_slope, w, lam, p, y, y - c)
                assert lam * abs((w / lam + 1.0) * value - slope - 1.0) <= 1e-12


def _clear_z_down_memo():
    for memo in (scalefn._z_down_eval, scalefn._down_terms, scalefn._c_tilde_escalated,
                 scalefn._z_down_sums, scalefn._z_down_coeffs, scalefn._log_k_from_b,
                 scalefn._log_k_ratio):
        memo.cache_clear()


class TestFloatPathPins:
    """``float.hex`` pins of points that stay on the float64 signed-log path.

    Every arbitrary-precision twin is replaced by a failure, so each pin
    also checks that its point never escalates; any change to the float
    arithmetic that moves a bit shows up here.  The ``z_down`` memo is
    emptied first: a value an earlier test left there would answer without
    reaching the twins.
    """

    @pytest.fixture(autouse=True)
    def float_only(self, monkeypatch):
        def escalated(*args, **kwargs):
            raise AssertionError("escalated to arbitrary precision")
        _clear_z_down_memo()
        for name in ("_c_tilde_escalated", "_z_down_mp", "_log_k_mp"):
            monkeypatch.setattr(scalefn, name, escalated)

    @pytest.mark.parametrize("w, p, b, expected", [
        (1.0, 0.5, 1.0, "0x1.3d4f4067079f0p-4"),
        (0.5, 0.8, 0.3, "0x1.c6ff41c139ef4p+0"),
        (0.25, 0.7, 0.5, "0x1.727fb17c714b0p+1"),
        (3.0, 0.3, 2.0, "0x1.0cab931e46f80p-29"),
    ])
    def test_c_tilde(self, w, p, b, expected):
        assert c_tilde(w, p, b).hex() == expected

    @pytest.mark.parametrize("w, p, x, b, expected", [
        (1.0, 0.5, 2.9, 1.0, ("0x1.5c2e0cf8df138p-3", "-0x1.090d7a4ed0c49p-4")),
        (0.25, 0.6, 2.9, 1.0, ("0x1.16527d874c25ep-2", "-0x1.b7e903de86b40p-5")),
        (0.1, 0.6, 3.3, 1.0, ("0x1.ea56e39822909p-2", "-0x1.5daff24c91f58p-5")),
    ])
    def test_z_down_value_and_slope(self, w, p, x, b, expected):
        diag = {}
        z_down(w, p, x, b, diagnostics=diag)
        assert diag["escalated_digits"] == 0
        assert tuple(v.hex() for v in z_down_slope(w, p, x, b)) == expected

    @pytest.mark.parametrize("w, p, x, a, b, expected", [
        (1.0, 0.5, 3.0, 7.0, 1.0, "0x1.734f94fe5af1fp-12"),
        (0.5, 0.8, 2.0, 4.0, 1.0, "0x1.51c11c20bb3e1p-3"),
        (0.5, 0.7, 3.5, 9.0, 1.0, "0x1.ea2832e9b02cfp-12"),
    ])
    def test_l_up(self, w, p, x, a, b, expected):
        assert l_up(w, p, x, a, b).hex() == expected

    @pytest.mark.parametrize("w, p, z, c, expected", [
        (0.5, 0.5, 5.0, 4.0, "0x1.78931d8b0004fp+0"),
        (1.0, 0.8, 3.0, 2.5, "0x1.9b6146b76b92ep+0"),
        (0.5, 0.7, 6.0, 5.0, "0x1.69ad14dc1a791p+0"),
    ])
    def test_hazard(self, w, p, z, c, expected):
        assert hazard(w, p, z, c).hex() == expected


class TestEscalatedPins:
    """``float.hex`` pins of points that take the arbitrary-precision route.

    Each value is rounded from a sum of many alternating terms, so a change
    to the order or the precision of the escalated arithmetic that moves a
    bit shows up here.  The memos are emptied first, so that every pin is
    computed afresh.
    """

    @pytest.fixture(autouse=True)
    def cold(self):
        _clear_z_down_memo()

    @pytest.mark.parametrize("w, p, x, b, expected", [
        # nodes of the 24/49 Gauss-Kronrod rule on the p = 0.8 drawdown rows
        # of default_grid()
        (2.0, 0.8, 5.250358542481988, 2.250358542481987,
         ("0x1.5a871a663ab5cp-10", "-0x1.7ed231248b53ap-10")),
        (0.5, 0.8, 4.3500448051281415, 1.350044805128141,
         ("0x1.9b1abb0d333ecp-11", "-0x1.46dae78b825cap-11")),
    ])
    def test_drawdown_node_value_and_slope(self, w, p, x, b, expected):
        assert tuple(v.hex() for v in z_down_slope(w, p, x, b)) == expected
        info = dict(scalefn._z_down_eval(w, p, x, b, True)[1])
        assert info["escalated_digits"] > 0

    def test_small_value_past_the_float_check(self):
        # four intervals: the float sums read 1.2821430318810632e-08, 2.8e-8
        # relative off, and the float check measures that noise against the
        # value; the value and slope agree with 100 and 200 digits
        w, p, x, b = 4.9, 0.85, 0.36, 0.2
        assert tuple(v.hex() for v in z_down_slope(w, p, x, b)) == (
            "0x1.b88a7d9b8d0e1p-27", "-0x1.24821e3243284p-20")
        assert dict(scalefn._z_down_eval(w, p, x, b, True)[1])["escalated_digits"] > 0
        assert _z_down_mp(w, p, x, b, 100, True) == _z_down_mp(w, p, x, b, 200, True)
        assert _z_down_mp(w, p, x, b, 100)[0] == 1.2821429965557608e-08

    def test_remote_level_of_a_deep_two_sided_sweep(self):
        # z_down(a; b) at the top of the sweep workload's p = 0.9, depth-10
        # two-sided-down sweep: ten intervals, a first budget of 40 digits
        p = 0.9
        b = 0.5 / (1.0 - p)
        a = b * p ** -10
        diag = {}
        assert z_down(0.5, p, a, b, diagnostics=diag).hex() == "0x1.25eaa1b059c78p-14"
        assert (diag["interval_count"], diag["escalated_digits"]) == (10, 40)

    def test_c_tilde_rescue(self):
        assert c_tilde(0.0625, 0.95, 2.0).hex() == "0x1.c6c5367747febp+3"
        assert scalefn._c_tilde_escalated.cache_info().misses == 1

    def test_twin_at_150_digits(self):
        got = _z_down_mp(0.02, 0.96, 1.02, 0.98, 150, True)
        assert tuple(v.hex() for v in got) == ("0x1.c4866131a2dbbp-10",
                                               "-0x1.ff193658abce4p-1")


class TestCoefficientTables:
    """The cached ``x``- and ``b``-free coefficients of the escalated route."""

    # a p = 0.8 drawdown node that escalates once, at 40 digits (a first
    # budget of 31 rounded up to a multiple of 10), on four intervals
    NODE = (2.0, 0.8, 5.250358542481988, 2.250358542481987)

    @pytest.mark.parametrize("w, p", [(0.5, 0.8), (0.1, 0.9), (2.0, 0.95)])
    def test_float_terms_carry_the_tables_coefficients(self, w, p):
        # the float64 route grows the running products D_k(i) as logs, the
        # table as mpf: each float term, its exponent g p^i (x - b p^-k) taken
        # off, is log |alpha_{k,i}| or log |C~ beta_{k,i}| of the 60-digit
        # table, interval by interval, the alphas first.  Starts stay below
        # 15 b, so that the exponents round well inside the bound
        b, eps = 1.0, 2.0 ** -52
        ct = c_tilde(w, p, b)
        tab = scalefn._DownCoeffs(w, p, 60).upto(12)
        for k0 in range(1, 13):
            x = b * p ** -(k0 - 0.5)
            signs, logs, rates = scalefn._z_down_terms(w, p, x, b, k0)
            with mp.workdps(60):
                want = [(k, i, mp.sign(coeff), float(mp.log(abs(coeff))))
                        for k in range(k0) for i, coeff in
                        [(i, tab.alpha[i][k - 1 - i]) for i in range(k)]
                        + [(i, ct * tab.beta[i][k - i]) for i in range(k + 1)]]
            assert len(logs) == len(want)
            for sign, log_term, rate, (k, i, ref_sign, ref) in zip(signs, logs, rates, want):
                assert rate == (w + 1) * p ** i
                got = log_term - rate * (x - b * p ** -k)
                assert sign == ref_sign
                assert abs(got - ref) <= k0 * 4 * eps * (1 + abs(ref)), (k0, k, i)

    def test_neighbouring_budgets_share_one_table(self):
        # C~ and the sums read one table per (w, p) and table precision: the
        # first call builds it for C~'s series and finds it for the sums
        _clear_z_down_memo()
        first = _z_down_mp(*self.NODE, 31, True)
        info = scalefn._z_down_coeffs.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        second = _z_down_mp(*self.NODE, 33, True)
        info = scalefn._z_down_coeffs.cache_info()
        assert (info.hits, info.misses) == (3, 1)
        assert first == second

    def test_cold_node_builds_one_table_per_precision(self, monkeypatch):
        # a cold escalated drawdown node: C~'s series and the sums share the
        # one table of their precision, and C~ reads its rates and
        # coefficients from it, extended to exactly its series' length
        w, p = self.NODE[:2]
        real, runs = scalefn._c_tilde_mp, []

        def counted(*args):
            out = real(*args)
            runs.append((args[3], out))
            return out
        monkeypatch.setattr(scalefn, "_c_tilde_mp", counted)
        _clear_z_down_memo()
        assert dict(scalefn._z_down_eval(*self.NODE, True)[1])["escalated_digits"] == 40
        tables = {scalefn._table_dps(dps) for dps, _ in runs} | {scalefn._table_dps(40)}
        assert scalefn._z_down_coeffs.cache_info().misses == len(tables) == 1
        (dps, ((ct, falls), _)), = runs
        n, tab = len(falls), scalefn._z_down_coeffs(w, p, 40)
        assert (len(tab.alpha), len(tab.down), len(tab.num), len(tab.den)) == (4, n, n, n)
        with mp.workdps(dps):
            assert falls == tuple(mp.exp(-mp.mpf(self.NODE[3]) * r) for r in tab.down)
            assert ct == mp.fdot(falls[1:], tab.num[1:]) / mp.fdot(falls, tab.den)

    def test_tables_are_built_inside_the_callers_precision(self, monkeypatch):
        # a table is built at a rounded-up budget, nested in the working
        # precision of the escalation that needs it: no outermost
        # precision block, and no higher outermost budget, is added
        outermost, depth = [], [0]
        real = mp.workdps

        @contextlib.contextmanager
        def workdps(dps):
            if depth[0] == 0:
                outermost.append(dps)
            depth[0] += 1
            try:
                with real(dps):
                    yield
            finally:
                depth[0] -= 1
        proxy = types.ModuleType("mpmath")
        proxy.__dict__.update(vars(mp))
        proxy.workdps = workdps
        monkeypatch.setattr(scalefn, "mp", proxy)
        _clear_z_down_memo()
        assert dict(scalefn._z_down_eval(*self.NODE, True)[1])["escalated_digits"] == 40
        assert outermost == [40]
        assert scalefn._z_down_coeffs.cache_info().misses == 1

    def test_deep_table_is_bounded(self):
        # 100 intervals at p = 0.95: one table holds 10^4 coefficients, some
        # 2.5 MB at 40 digits; the memo keeps 32 such entries, each extended
        # to exactly the deepest interval and term count asked.  C~ re-runs
        # at 51 digits, so a second table, of its terms only, is built at 60.
        # The bound covers both tables and the barrier's sums
        w, p, b = 0.5, 0.95, 1.0
        x = b * p ** -99.5
        _clear_z_down_memo()
        tracemalloc.start()
        try:
            _z_down_mp(w, p, x, b, 40)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        info = scalefn._z_down_coeffs.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert len(scalefn._z_down_coeffs(w, p, 40).alpha) == 100
        assert len(scalefn._z_down_coeffs(w, p, 60).alpha) == 0
        assert retained <= 3.5e6

    def test_threads_extending_one_table_build_each_step_once(self):
        # four threads extend one shared table to interleaved depths and term
        # counts under a short switch interval; a lost or repeated step would
        # leave it unlike the table built in one thread
        w, p, dps = 0.5, 0.9, 40
        _clear_z_down_memo()
        serial = scalefn._DownCoeffs(w, p, dps).upto(16, 40)
        shared = scalefn._z_down_coeffs(w, p, dps)

        def extend(first):
            for k in range(first, 17, 4):
                shared.upto(k, 41 - 2 * k)
                shared.upto(0, 2 * k + 8)
        threads = [threading.Thread(target=extend, args=(first,)) for first in range(1, 5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        fields = ("up", "alpha", "beta", "down", "num", "den")
        assert [getattr(shared, f) for f in fields] == [getattr(serial, f) for f in fields]


class TestDownTermsRecord:
    """The per-barrier record of the float64 downward series (``_down_terms``)."""

    def test_sweep_walks_c_tilde_once_and_builds_each_interval_once(self, monkeypatch):
        # the sweep workload's two-sided-down shape at p = 0.9, depth 10: 24
        # starts, each with z_down at the start, its slope and l_down, which
        # reads z_down at the top too, all on the one barrier b
        w, p = 0.5, 0.9
        b = 0.5 / (1.0 - p)
        a = b * p ** -10
        real_ct, real_extend = scalefn.c_tilde, scalefn._DownTerms._extend
        walks, built = [], []

        def walk(*args):
            walks.append(args)
            return real_ct(*args)

        def extend(rec, k):
            built.append(k)
            return real_extend(rec, k)
        monkeypatch.setattr(scalefn, "c_tilde", walk)
        monkeypatch.setattr(scalefn._DownTerms, "_extend", extend)
        _clear_z_down_memo()
        for j in range(24):
            x = b + (a - b) * (j + 0.5) / 24
            z_down(w, p, x, b)
            z_down_slope(w, p, x, b)
            l_down(w, p, x, a, b)
        assert walks == [(w, p, b)]
        assert built == list(range(10))

    def test_threads_extending_one_record_build_each_interval_once(self):
        # four threads extend one shared record to interleaved depths under
        # a short switch interval; a lost or repeated interval would leave
        # it unlike the record built in one thread
        w, p, b = 0.5, 0.9, 1.0
        _clear_z_down_memo()
        shared = scalefn._down_terms(w, p, b)
        serial = scalefn._DownTerms(w, p, b, c_tilde(w, p, b))
        serial.upto(16)

        def extend(first):
            for k in range(first, 17, 4):
                shared.upto(k)
                shared.upto(17 - k)
        threads = [threading.Thread(target=extend, args=(first,)) for first in range(1, 5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        fields = ("ct", "ends", "signs", "rates", "log_nums", "log_dens", "lefts")
        assert [getattr(shared, f) for f in fields] == [getattr(serial, f) for f in fields]

    def test_deep_barrier_is_bounded(self):
        # 100 intervals at p = 0.95: the record keeps the first
        # _DOWN_TERMS_DEPTH = 64 (4,096 terms), within the 320 KB its memo's
        # comment states; a deeper start builds its terms afresh and keeps
        # none.  The float64 C~ escalates here, so its memo is filled first
        w, p, b = 0.5, 0.95, 1.0
        _clear_z_down_memo()
        c_tilde(w, p, b)
        tracemalloc.start()
        try:
            for k0 in (10, 40, 64, 65, 100):
                scalefn._z_down_terms(w, p, b * p ** -(k0 - 0.5), b, k0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rec = scalefn._down_terms(w, p, b)
        assert (len(rec.ends), rec.ends[-1]) == (64, 64 ** 2)
        assert retained <= 3.2e5

    def test_deep_start_has_the_bits_of_a_recorded_one(self):
        # a start past the recorded depth builds the same terms afresh and
        # leaves the barrier's record as it was
        w, p, b = 0.5, 0.9, 1.0
        _clear_z_down_memo()
        deep = scalefn._DOWN_TERMS_DEPTH + 1
        x = b * p ** -(deep - 0.5)
        fresh = scalefn._z_down_terms(w, p, x, b, deep)
        assert scalefn._down_terms(w, p, b).ends == []
        rec = scalefn._DownTerms(w, p, b, c_tilde(w, p, b))
        signs, rates, log_nums, log_dens, lefts = rec.upto(deep)
        assert fresh == (signs, [n + (r * (x - left) - d) for n, r, d, left
                                 in zip(log_nums, rates, log_dens, lefts)], rates)

    def test_a_failed_constant_is_raised_afresh_and_not_recorded(self, monkeypatch):
        def fail(*args):
            raise ConvergenceError("C~ failed")
        monkeypatch.setattr(scalefn, "c_tilde", fail)
        _clear_z_down_memo()
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="C~ failed"):
                z_down(0.5, 0.9, 6.0, 5.0)
        assert scalefn._down_terms.cache_info().currsize == 0


class TestZDownMemo:
    """The memo of ``_z_down_eval`` and of the guarded constant under it."""

    def test_hit_replays_the_value_and_the_diagnostics(self):
        # the down-one-escalated pin of tests/test_evaluate.py
        params = ModelParams(lam=1.5, p=0.9)
        spec = ExitSpec(ExitKind.DOWN_ONE, x=3.0, b=1.0)
        _clear_z_down_memo()
        cold, warm = {}, {}
        first = evaluate(params, spec, 0.6, diagnostics=cold)
        info = scalefn._z_down_eval.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        second = evaluate(params, spec, 0.6, diagnostics=warm)
        info = scalefn._z_down_eval.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert first.hex() == second.hex() == "0x1.31d142b4eda73p-34"
        assert cold == warm
        assert cold["escalated_digits"] > 0

    def test_sweep_escalates_each_point_once(self, monkeypatch):
        # the sweep workload's refl-upper-down shape at p = 0.9, depth 7:
        # every start shares z_down(a; c) and z_down(p a; c), and every
        # escalation on the barrier c shares the constant C~(c)
        lam, p, w = 1.0, 0.9, 0.5
        c = 0.5 / (lam * (1.0 - p))
        a = c * p ** -7
        real = scalefn._z_down_mp
        calls = []  # (x, b, dps) of each call

        def counted(*args):
            calls.append(args[2:5])
            return real(*args)
        monkeypatch.setattr(scalefn, "_z_down_mp", counted)
        _clear_z_down_memo()
        for j in range(24):
            x = c + (a - c) * (j + 0.5) / 24
            evaluate(ModelParams(lam=lam, p=p), ExitSpec(ExitKind.REFL_UPPER_DOWN,
                                                         x=x, a=a, c=c), w)
        starts = [(x, b) for x, b, _ in calls]
        assert len(calls) > 2
        assert len(starts) == len(set(starts))
        # the starts share their barrier-level work: C~ once per barrier and
        # budget, the x-free sums once per barrier, interval and budget, and
        # one coefficient table per table precision
        budgets = {(w, p, b, dps) for _, b, dps in calls}
        assert scalefn._c_tilde_escalated.cache_info().misses == len(budgets) < len(calls)
        sums = {(b, scalefn._down_interval_count(x, b, p), dps) for x, b, dps in calls}
        assert scalefn._z_down_sums.cache_info().misses == len(sums) < len(calls)
        tables = {scalefn._table_dps(dps) for _, _, dps in calls}
        assert scalefn._z_down_coeffs.cache_info().misses == len(tables)

    def test_sweep_order_keeps_each_points_cold_bits(self):
        # the sweep workload's two-sided-down shape at p = 0.9, depth 10:
        # each point's value, computed after the memos were emptied, has the
        # bits it has in sweep order, where its barrier's constant, sums and
        # table were built for other starts
        p, w = 0.9, 0.5
        b = 0.5 / (1.0 - p)
        a = b * p ** -10
        xs = [b + (a - b) * (j + 0.5) / 24 for j in range(24)]

        def point(x):
            diag = {}
            return z_down(w, p, x, b, diagnostics=diag).hex(), l_down(w, p, x, a, b).hex(), \
                diag["escalated_digits"]
        _clear_z_down_memo()
        in_order = [point(x) for x in xs]
        assert sum(digits > 0 for _, _, digits in in_order) >= 12
        for x, warm in zip(xs, in_order):
            _clear_z_down_memo()
            assert point(x) == warm, x

    def test_convergence_error_is_raised_afresh(self):
        # the series needs more than the digit cap: the failure is not
        # stored as a value, and a second call fails the same way
        params, spec = ModelParams(lam=1.0, p=0.3), ExitSpec(ExitKind.DOWN_ONE, x=300.0, b=1.5)
        partials = []
        for _ in range(2):
            with pytest.raises(ConvergenceError) as info:
                evaluate(params, spec, 2.0)
            partials.append(info.value.partial)
        assert partials[0] is not None and partials[0] == partials[1]

    def test_every_cache_is_bounded(self):
        modules = [importlib.import_module(f"aimdexit.{info.name}")
                   for info in pkgutil.iter_modules(aimdexit.__path__)]
        caches = [(mod.__name__, name, fn) for mod in modules
                  for name, fn in vars(mod).items() if hasattr(fn, "cache_parameters")]
        for name in ("_z_down_eval", "_down_terms", "_z_down_sums", "_z_down_coeffs",
                     "_log_k_from_b", "_log_k_ratio"):
            assert ("aimdexit.scalefn", name, getattr(scalefn, name)) in caches
        for where, name, fn in caches:
            maxsize = fn.cache_parameters()["maxsize"]
            assert maxsize is not None and maxsize <= 4096, (where, name)
        _clear_z_down_memo()
        for params, spec, w in default_grid():
            evaluate(params, spec, w)
        for memo in (scalefn._z_down_eval, scalefn._down_terms, scalefn._z_down_sums,
                     scalefn._log_k_from_b, scalefn._log_k_ratio):
            info = memo.cache_info()
            assert 0 < info.currsize <= info.maxsize

    def test_the_simulator_workspace_pool_is_bounded(self):
        # the one module-level store that is not an lru_cache: a workspace
        # handed back to a pool already holding one per CPU is dropped
        with contextlib.ExitStack() as stack:
            held = [stack.enter_context(simulator._workspace())
                    for _ in range(simulator._POOL_MAX + 2)]
            assert len({id(ws) for ws in held}) == len(held)
        assert len(simulator._POOL) == simulator._POOL_MAX


class TestErrorAudit:
    """Every accepted value against a reference of at least 100 digits.

    Seeded random points on the float64 and the escalated routes of
    ``c_tilde``, ``l_up_from_b``, ``hazard``, ``z_down`` and
    ``z_down_slope``, with ``w = 0`` among them (but for ``c_tilde``) and
    ``p`` up to 0.95.  The stated bounds:

    * ``c_tilde``: a float64 sum is kept while it loses at most
      ``_K_EVAL_LOST_OK`` digits, so ``16 eps 10^3`` relative; an escalated
      one keeps ``dps - 4`` of its digits, so 2 eps, the rounding to float64.
    * ``K`` (``l_up_from_b = 1/K``, ``hazard = K'/K``): a float64 sum is
      kept while it loses at most ``_K_EVAL_LOST_OK`` digits, the
      recursion's included, and an escalated one keeps 16; the logarithms
      then round to float64.  Bound: ``16 eps (10^3 + |log K| [+ |log K'|])``
      relative, plus a few subnormal steps where ``1/K`` underflows.
    * ``z_down``: its reported ``float_error_estimate`` on the escalated
      route, and 128 times it on the float64 route, whose estimate does not
      yet carry the error of the float64 ``C~`` (ROADMAP item 1, Gap A;
      measured up to 101 times on 1,200 points of two other seeds).
    * ``z_down_slope``: 1e-12 relative on the escalated route; on the float64
      route 16 times the threshold of its check,
      ``max(1e-15 (w + 1), 1e-13 |slope|)`` (Gap A again: up to 3.9 times).
    """

    EPS = 2.0 ** -52
    N = 120

    @staticmethod
    def draws(seed, n):
        rng = random.Random(seed)
        for _ in range(n):
            w = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 1.0)
            yield rng, w, rng.uniform(0.3, 0.95), rng.uniform(0.2, 3.0)

    @staticmethod
    def escalations(monkeypatch, name):
        calls = []
        real = getattr(scalefn, name)

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(scalefn, name, counted)
        return calls

    @staticmethod
    def log_k_reference(w, p, b, x, k, slope):
        # the escalated evaluator at 120 digits or more, with 40 left
        for dps in (120, 240, 400):
            logs, lost = scalefn._log_k_mp(w, p, b, x, k, dps, slope)
            if logs is not None and dps - lost >= 40:
                return logs
        raise AssertionError(("no reference", w, p, b, x))

    def test_downward_series_constant(self, monkeypatch):
        # against the statement-form oracle, which sums A and B in their raw
        # ratio form and shares no code with the series; at 100 digits and
        # more, until two references agree
        calls = self.escalations(monkeypatch, "_c_tilde_escalated")
        routes = set()
        rng = random.Random(7)
        for _ in range(400):
            w, p, b = 10.0 ** rng.uniform(-3.0, 1.0), rng.uniform(0.05, 0.95), \
                10.0 ** rng.uniform(-2.0, 1.0)
            before = len(calls)
            value = c_tilde(w, p, b)
            escalated = len(calls) > before
            routes.add(escalated)
            refs = [c_tilde_statement_oracle(w, 1.0, p, b, 100)]
            for dps in (200, 400, 800):
                refs.append(c_tilde_statement_oracle(w, 1.0, p, b, dps))
                if refs[-1] == refs[-2]:
                    break
            else:
                raise AssertionError(("no reference", w, p, b))
            bound = (2 if escalated else 16 * 1e3) * self.EPS * abs(refs[-1])
            assert abs(value - refs[-1]) <= bound, (w, p, b)
        assert routes == {False, True}

    def test_reciprocal_scale_function_and_hazard(self, monkeypatch):
        calls = self.escalations(monkeypatch, "_log_k_mp")
        routes = set()
        for rng, w, p, b in self.draws(11, self.N):
            k = rng.randint(0, 24)
            x = b * p ** -(k + rng.uniform(0.05, 0.95))
            before = len(calls)
            value = l_up_from_b(w, p, b, x)
            routes.add(("l_up", len(calls) > before))
            (log_k,) = self.log_k_reference(w, p, b, x, interval_index(x, b, p), False)
            with mp.workdps(30):
                ref = float(mp.exp(-mp.mpf(log_k)))
            bound = 16 * self.EPS * (1e3 + abs(log_k)) * ref + 4 * 5e-324
            assert abs(value - ref) <= bound, (w, p, b, x)

            z = b * p ** -(k + rng.uniform(0.05, 0.95))
            before = len(calls)
            h = hazard(w, p, z, z - b)
            routes.add(("hazard", len(calls) > before))
            log_k, log_dk = self.log_k_reference(w, p, b, z, interval_index(z, b, p), True)
            ref = math.exp(log_dk - log_k)
            bound = 16 * self.EPS * (1e3 + abs(log_k) + abs(log_dk)) * ref
            assert abs(h - ref) <= bound, (w, p, b, z)
        assert routes == {(f, esc) for f in ("l_up", "hazard") for esc in (False, True)}

    def test_downward_transform_and_slope(self):
        routes = set()
        for rng, w, p, b in self.draws(12, self.N):
            w = w or 1e-3  # z_down is 1 at w = 0
            x = b * p ** -(rng.randint(1, 7) - rng.uniform(0.05, 0.95))
            if x > 50.0:  # far starts need references past 400 digits
                continue
            _clear_z_down_memo()
            diag = {}
            try:
                value = z_down(w, p, x, b, diagnostics=diag)
                slope_info = dict(scalefn._z_down_eval(w, p, x, b, True)[1])
                _, slope = z_down_slope(w, p, x, b)
            except ConvergenceError:
                continue
            prev = None
            for dps in (100, 150, 225, 340):
                ref = _z_down_mp(w, p, x, b, dps, True)
                if prev == ref:
                    break
                prev = ref
            else:
                raise AssertionError(("no reference", w, p, x, b))
            escalated = diag["escalated_digits"] > 0
            routes.add(("z_down", escalated))
            assert abs(value - ref[0]) <= (1 if escalated else 128) * diag["float_error_estimate"]
            escalated = slope_info["escalated_digits"] > 0
            routes.add(("slope", escalated))
            if escalated:
                assert abs(slope - ref[1]) <= 1e-12 * abs(ref[1])
            else:
                assert abs(slope - ref[1]) <= 16 * max(1e-15 * (w + 1.0), 1e-13 * abs(ref[1]))
        assert routes == {(f, esc) for f in ("z_down", "slope") for esc in (False, True)}


class TestIntervalIndex:
    def test_basic_buckets(self):
        assert interval_index(1.5, 1.0, 0.5) == 0
        assert interval_index(2.0, 1.0, 0.5) == 0   # tie goes to the lower side
        assert interval_index(2.5, 1.0, 0.5) == 1
        assert interval_index(4.0, 1.0, 0.5) == 1
        assert interval_index(4.1, 1.0, 0.5) == 2

    def test_near_tie_is_stable(self):
        edge = 1.0 * 0.5 ** -7
        assert interval_index(edge * (1 - 1e-16), 1.0, 0.5) == 6
        assert interval_index(edge, 1.0, 0.5) == 6
        assert interval_index(edge * (1 + 1e-12), 1.0, 0.5) == 7


class TestTwoSidedUp:
    GOLDEN_K = math.exp(2) - 2 * math.e + 2 * math.exp(0.5)  # 5.2499349...

    def test_golden_reciprocal_scale_value(self):
        coeffs = k_up_coeffs(0.0, 0.5, 1.0, 1)
        k_val = math.exp(coeffs.eval_log(1.0, 0.5, 3.0))
        assert math.isclose(k_val, self.GOLDEN_K, rel_tol=1e-12)
        assert math.isclose(l_up_from_b(0.0, 0.5, 1.0, 3.0),
                            1.0 / self.GOLDEN_K, rel_tol=1e-12)

    @pytest.mark.parametrize("w, p, x, a, b", [
        (0.5, 0.5, 1e6, 1e6 + 0.7, 1.0),
        (2.0, 0.7, 5e6, 5e6 + 0.7, 1.0),
    ])
    def test_ratio_on_one_interval_stays_relative_at_large_levels(self, w, p, x, a, b):
        # x and a share an interval: K(x)/K(a) is one ratio of sums, formed
        # before either log rounds.  log K, near 1.5e6 and 1.5e7 here, rounds
        # by some 1e-10 and 1e-9, which a difference of the two logs would
        # keep (1.2e-10 and 9.3e-10 off); the reference sums the 150-digit table
        k = interval_index(a, b, p)
        assert interval_index(x, b, p) == k
        tab = scalefn._k_tables_mp(w, p, b, k, 150)
        with mp.workdps(150):
            rates = [(mp.mpf(w) + 1) * mp.mpf(p) ** n for n in range(k + 1)]
            ref = float(mp.fsum(c * mp.exp(r * mp.mpf(x)) for c, r in zip(tab, rates))
                        / mp.fsum(c * mp.exp(r * mp.mpf(a)) for c, r in zip(tab, rates)))
        assert math.isclose(l_up(w, p, x, a, b), ref, rel_tol=1e-15)

    def test_base_interval_is_a_pure_exponential(self):
        w, p, b = 0.5, 0.5, 1.0
        for x in (1.0, 1.3, 1.9999, 2.0):
            assert math.isclose(l_up_from_b(w, p, b, x),
                                math.exp(-(w + 1.0) * (x - b)), rel_tol=1e-13)

    def test_continuity_across_breakpoints(self):
        for (w, lam, p, b) in [(0.5, 1.0, 0.5, 1.0), (1.0, 2.0, 0.8, 0.7),
                               (0.0, 0.5, 0.3, 2.0)]:
            for k in range(1, 7):
                edge = b * p ** (-k)
                lo = at_rate(l_up_from_b, w, lam, p, b, edge * (1 - 1e-13))
                hi = at_rate(l_up_from_b, w, lam, p, b, edge * (1 + 1e-13))
                assert abs(lo - hi) <= 1e-10 * max(lo, hi), (w, lam, p, b, k)

    def test_interval_boundary_values(self):
        assert l_up(0.5, 0.5, 2.0, 2.0, 1.0) == 1.0   # already at the top
        assert l_up(0.5, 0.5, 0.5, 2.0, 1.0) == 0.0   # already below b

    def test_monotone_decreasing_in_a(self):
        vals = [l_up(0.5, 0.5, 1.5, a, 1.0) for a in (1.6, 2.0, 3.0, 5.0, 9.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_deep_interval_no_overflow(self):
        v = l_up(1.0, 0.5, 1.5, 1.0 * 0.5 ** -24, 1.0)
        assert 0.0 <= v < 1e-30

    def test_high_p_many_interval_precision(self):
        # near p = 1 the interval sums cancel deeply and float64 tables
        # degrade; the arbitrary-precision rebuild must keep full accuracy
        # (reference values pinned against the recursive quadrature oracle)
        got = l_up(0.5, 0.95, 2.5 ** 0.5, 2.5, 1.0)
        assert math.isclose(got, 0.6005315132364151, rel_tol=1e-9)
        # undiscounted, nearly-certain upward exit: must not exceed one
        lu = l_up(0.0, 0.9453125, 2.0, 3.0, 1.0)
        assert 0.999999 < lu <= 1.0

    def test_memo_entry_is_the_table_of_its_interval(self):
        w, p, b = 0.5, 0.8, 0.7
        for k in (0, 1, 5, 40):
            tab = scalefn._k_tables(w, p, b, k)
            assert tab == k_up_coeffs(w, p, b, k)
            assert (tab.k, len(tab.signs), len(tab.logmags)) == (k, k + 1, k + 1)

    @pytest.mark.parametrize("w, p, b", [(0.5, 0.8, 1.3), (0.0, 0.95, 1.0), (3.0, 0.95, 5.0),
                                         (2.0, 0.3, 0.4), (0.1, 0.9, 3.0)])
    def test_float_coefficients_match_the_60_digit_twin(self, w, p, b):
        # the stored log A_n = log|a_n| + g p^n x_k against the 60-digit
        # table at the same anchor.  Each step rounds its terms by a few eps
        # (1 + |A_n|), and the anchors themselves by eps x_k, which the shift
        # g p^m x_k = g p^(m-1) x_(k-1) takes as a term of eps g x_k; a head
        # amplifies what it sums by the loss it records (up to 10 digits at
        # p >= 0.9 by k = 12).  Measured on 49 (w, p, b), k <= 12: at most
        # 0.77 of the bound without its factor 2
        eps = 2.0 ** -52
        for k in range(13):
            tab = scalefn._k_tables(w, p, b, k)
            twin = scalefn._k_tables_mp(w, p, b, k, 60)
            with mp.workdps(60):
                g = mp.mpf(w) + 1
                for n, (s, log_a, a) in enumerate(zip(tab.signs, tab.logmags, twin)):
                    ref = float(mp.log(abs(a)) + g * mp.mpf(p) ** n * mp.mpf(tab.anchor))
                    assert s == mp.sign(a), (k, n)
                    bound = 2 * max(k, 1) * eps * (1 + abs(ref) + (w + 1) * tab.anchor) \
                        * math.exp(tab._lost[n])
                    assert abs(log_a - ref) <= bound, (k, n)

    def test_deep_barrier_sweep_keeps_one_table_per_memo_entry(self):
        # 150 intervals deep at p = 0.95 one float64 table takes under 10 KB,
        # the prefix of tables 0..149 some 480 KB; the bound is 5 MB per 200
        # barriers.  Their heads carry 54 digits of the recursion's
        # cancellation (the float64 1/K is 3.2e-5 off), so l_up rebuilds each
        # at 165 digits: some 40 KB a table, some 3 MB the prefix; the
        # bound adds 12 MB per 200 barriers.  tracemalloc slows the
        # recursion some twentyfold, so the sweep takes two barriers; it runs
        # once untraced first, to fill mpmath's own caches for its precisions
        w, p, n = 0.5, 0.95, 2

        def sweep():
            for memo in (scalefn._log_k_ratio, scalefn._log_k_from_b, scalefn._k_tables,
                         scalefn._k_tables_mp):
                memo.cache_clear()
            for j in range(n):
                b = 1.0 + j / 200
                a = b * p ** -150
                l_up(w, p, a * p ** 0.5, a, b)
        sweep()
        tracemalloc.start()
        try:
            sweep()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert scalefn._k_tables.cache_info().currsize == n
        assert scalefn._k_tables_mp.cache_info().currsize == n
        assert retained <= n * (5e6 + 12e6) / 200

    def test_sweep_evaluates_the_top_once(self, monkeypatch):
        # every start of a two-sided sweep below the top's interval divides
        # by K(a) at the same top a; the six on a's own interval take the
        # ratio K(x)/K(a) from that interval's table and evaluate neither
        w, p, b = 0.5, 0.8, 1.0
        a = b * p ** -7
        real, tops = scalefn._log_k_sums, []

        def counted(w_, p_, b_, x, *args, **kwargs):
            tops.append(x == a)
            return real(w_, p_, b_, x, *args, **kwargs)
        monkeypatch.setattr(scalefn, "_log_k_sums", counted)
        scalefn._log_k_from_b.cache_clear()
        scalefn._log_k_ratio.cache_clear()
        xs = [b + (a - b) * (j + 0.5) / 24 for j in range(24)]
        values = [l_up(w, p, x, a, b) for x in xs]
        shared = sum(interval_index(x, b, p) == interval_index(a, b, p) for x in xs)
        assert shared == 6
        assert (len(tops), sum(tops)) == (25 - shared, 1)
        assert values == sorted(values)

    def test_float_check_counts_the_recursions_cancellation(self):
        # the final sum of K(a) cancels 2 digits, one head step of its
        # recursion 14, which float64 cannot hold (it reads 0.95373).  The
        # recursion at 60 to 400 digits reads 0.9472875737428642, and
        # quadrature_oracle_lup (k_max=20), which does not use it, 0.9472781
        value = evaluate(ModelParams(lam=1.0, p=0.7283080061539917),
                         ExitSpec(ExitKind.TWO_SIDED_UP, x=0.09848203113195846,
                                  a=29.335612518927686, b=0.09848203113195846), 0.0)
        assert abs(value - 0.9472875737428642) <= 1e-12

    def test_nearly_certain_up_exit_is_capped_at_one(self):
        # ten intervals deep the two logarithms of K agree to their rounding;
        # the uncapped quotient read 1 + 1.1e-13 here
        b = 0.05078125
        assert l_up(0.0, 0.75, b + 1.0, b + 2.0, b) == 1.0


class TestTwoSidedDown:
    def test_non_finite_float_loss_takes_the_capped_budget(self):
        # at jump rate 1 w = 1e306 and the levels are near 1e-301: the float64
        # logs of K hold inf - inf, and their loss is NaN.  The first budget
        # is then the cap, as for any loss past it; a finite loss keeps its own
        budgets = [scalefn._first_budget(v) for v in (math.nan, math.inf, -math.inf, 500.0)]
        assert budgets == [400] * 4
        assert [scalefn._first_budget(v) for v in (3.5, 12.0, 100.0)] == [39, 60, 280]
        spec = ExitSpec(ExitKind.TWO_SIDED_DOWN, x=0.1, a=0.5, b=1e-12)
        assert evaluate(ModelParams(lam=1e-300, p=1e-5), spec, 1e6) == 0.0

    def test_complementarity_at_w_zero(self):
        for (lam, p, x, a, b) in [(1.0, 0.5, 1.5, 2.5, 1.0),
                                  (2.0, 0.8, 1.2, 2.0, 0.9),
                                  (0.5, 0.3, 3.0, 9.0, 1.0)]:
            up = at_rate(l_up, 0.0, lam, p, x, a, b)
            down = at_rate(l_down, 0.0, lam, p, x, a, b)
            assert math.isclose(up + down, 1.0, rel_tol=1e-12)

    def test_dominated_by_unrestricted_crossing(self):
        for a in (2.0, 3.0, 6.0):
            assert l_down(1.0, 0.5, 1.5, a, 1.0) <= z_down(1.0, 0.5, 1.5, 1.0) + 1e-15

    def test_start_at_lower_barrier_counts_as_inside(self):
        v = l_down(0.7, 0.5, 1.0, 2.0, 1.0)
        assert 0.0 < v < 1.0

    def test_negligible_up_part_shortcut_consistent(self):
        # enormous a: the up part underflows and l_down collapses to z_down
        direct = z_down(1.0, 0.5, 1.5, 1.0)
        v = l_down(1.0, 0.5, 1.5, 1.0 * 0.5 ** -40, 1.0)
        assert math.isclose(v, direct, rel_tol=1e-12)
