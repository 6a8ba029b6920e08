"""One-sided and two-sided scale-function evaluators."""

import math

import mpmath as mp
import pytest

from aimdexit import (ConvergenceError, ValidationError, c_tilde,
                      c_tilde_statement_oracle, interval_index, k_up_coeffs,
                      l_down, l_up, l_up_from_b, z_down,
                      z_down_renewal_residual, z_up, z_up_zero)
from aimdexit.scalefn import SignedLogProduct, _signed_logsumexp, z_down_slope


class TestSignedLogProduct:
    def test_round_trip(self):
        # exp(log(v)) costs about |log(v)| * eps in relative error
        for v in (2.5, -3.75e-200, 1e250, -1.0):
            got = SignedLogProduct.from_float(v).to_float()
            assert math.isclose(got, v, rel_tol=1e-12)

    def test_zero(self):
        assert SignedLogProduct.from_float(0.0).sign == 0
        assert SignedLogProduct.ZERO.to_float() == 0.0
        assert SignedLogProduct.ONE.to_float() == 1.0

    def test_products_avoid_overflow(self):
        big = SignedLogProduct.from_float(1e300)
        sq = big.times(big)  # 1e600 overflows float64, not the log form
        assert sq.sign == 1
        assert math.isclose(sq.log_magnitude, 600 * math.log(10), rel_tol=1e-12)

    def test_signed_sum_cancellation(self):
        a = SignedLogProduct.from_float(1.0)
        b = SignedLogProduct.from_float(-1.0)
        assert a.plus(b).sign == 0

    def test_signed_logsumexp_matches_direct(self):
        vals = [3.0, -1.25, 0.5, -2.0]
        out = _signed_logsumexp([1 if v > 0 else -1 for v in vals],
                                [math.log(abs(v)) for v in vals])
        direct = sum(vals)
        assert math.isclose(out.sign * math.exp(out.log_magnitude), direct,
                            rel_tol=1e-14)


class TestZUp:
    def test_golden_value_ascent_from_zero(self):
        # frozen from an arbitrary-precision evaluation of the ascent series
        assert math.isclose(z_up_zero(1.0, 1.0, 0.5, 1.0),
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
            assert math.isclose(z_up_zero(w, lam, p, x), ref,
                                rel_tol=1e-12), (w, lam, p, x)

    def test_pure_drift_is_exponential(self):
        assert math.isclose(z_up(2.0, 0.0, 0.5, 1.0, 3.5),
                            math.exp(-2.0 * 2.5), rel_tol=1e-14)

    def test_w_zero_is_one(self):
        assert z_up(0.0, 1.0, 0.5, 1.0, 2.0) == 1.0

    def test_multiplicative_in_the_upper_level(self):
        w, lam, p = 0.7, 1.3, 0.6
        whole = z_up(w, lam, p, 0.5, 4.0)
        split = z_up(w, lam, p, 0.5, 2.0) * z_up(w, lam, p, 2.0, 4.0)
        assert math.isclose(whole, split, rel_tol=1e-13)

    def test_decreasing_in_w(self):
        vals = [z_up(w, 1.0, 0.5, 1.0, 2.0) for w in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_exponent_regime_no_overflow(self):
        v = z_up(3.0, 2.0, 0.8, 1.0, 120.0)  # gamma * a = 600
        assert 0.0 < v < 1e-200

    def test_series_diagnostics_reported(self):
        diag = {}
        z_up_zero(1.0, 1.0, 0.5, 1.0, diagnostics=diag)
        assert diag["series_terms"] > 4


class TestCTilde:
    def test_golden_value(self):
        assert math.isclose(c_tilde(1.0, 1.0, 0.5, 1.0),
                            0.07746815831385567, rel_tol=1e-13)

    def test_matches_statement_form_oracle(self):
        for (w, lam, p, b) in [(1.0, 1.0, 0.5, 1.0), (0.5, 2.0, 0.8, 0.3),
                               (3.0, 0.5, 0.3, 2.0), (1e-6, 1.0, 0.5, 1.0),
                               (3.0, 2.0, 0.8, 5.0), (0.25, 1.0, 0.3, 0.05)]:
            prod = c_tilde(w, lam, p, b)
            oracle = c_tilde_statement_oracle(w, lam, p, b)
            assert math.isclose(prod, oracle, rel_tol=1e-11), (w, lam, p, b)

    def test_vanishes_without_jumps(self):
        assert c_tilde(1.0, 0.0, 0.5, 1.0) == 0.0

    def test_high_p_cancellation_rescue(self):
        # the q-product denominators near p=1 make the float64 series lose
        # every digit (it used to return -0.12 here); pinned against the
        # arbitrary-precision twin at 90 significant digits
        assert math.isclose(c_tilde(0.125, 2.0, 0.95, 1.0),
                            14.211573822947647, rel_tol=1e-11)
        # p=0.9 loses ~8 digits: enough to trip the rescue, small enough
        # that the old float path still agreed to ~1e-8 with the truth
        assert math.isclose(c_tilde(0.125, 2.0, 0.9, 1.0),
                            12.194374179792973, rel_tol=1e-11)


class TestZDown:
    def test_golden_value(self):
        assert math.isclose(z_down(1.0, 1.0, 0.5, 1.5, 1.0),
                            0.39470985648562884, rel_tol=1e-13)

    def test_w_zero_is_one(self):
        assert z_down(0.0, 1.0, 0.5, 1.5, 1.0) == 1.0

    def test_pure_drift_never_crosses_down(self):
        assert z_down(1.0, 0.0, 0.5, 1.5, 1.0) == 0.0

    def test_first_jump_bound(self):
        # crossing needs at least one jump, so the value is below lam/(lam+w)
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 1.5, 1.0),
                                  (0.5, 2.0, 0.8, 3.0, 1.0),
                                  (3.0, 0.5, 0.3, 1.2, 1.0)]:
            assert z_down(w, lam, p, x, b) <= lam / (lam + w) + 1e-15

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
        v = z_down(3.0, 1.0, 0.3, 28.529579, 0.857143, diagnostics=diag)
        assert diag["escalated_digits"] >= 50
        assert math.isclose(v, 0.009996388, rel_tol=1e-5)
        assert abs(z_down_renewal_residual(3.0, 1.0, 0.3, 28.529579, 0.857143)) <= 1e-9

    def test_decreasing_in_start_level(self):
        vals = [z_down(1.0, 1.0, 0.5, x, 1.0) for x in (1.1, 1.5, 2.5, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_start_below_barrier(self):
        with pytest.raises(ValidationError):
            z_down(1.0, 1.0, 0.5, 0.9, 1.0)


class TestZDownSlope:
    @staticmethod
    def central(w, lam, p, x, b, rel_step=1e-5):
        h = rel_step * x
        return (z_down(w, lam, p, x + h, b) - z_down(w, lam, p, x - h, b)) / (2.0 * h)

    def test_value_is_z_down(self):
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 1.5, 1.0), (0.5, 2.0, 0.8, 3.0, 1.0)]:
            assert z_down_slope(w, lam, p, x, b)[0] == z_down(w, lam, p, x, b)

    def test_matches_central_difference(self):
        # points sit away from the breakpoints b p^{-k}, where the slope jumps
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 1.5, 1.0),
                                  (0.5, 2.0, 0.8, 3.0, 1.0),
                                  (3.0, 0.5, 0.3, 6.0, 1.0),
                                  (1.0, 1.0, 0.5, 2.9, 1.0)]:
            _, slope = z_down_slope(w, lam, p, x, b)
            assert slope < 0.0
            assert math.isclose(slope, self.central(w, lam, p, x, b), rel_tol=1e-6)

    def test_escalated_slope_matches_central_difference(self):
        # k0 = 10 intervals at p = 0.8: the float sums cancel ~12 digits
        w, lam, p, x, b = 1.0, 1.0, 0.8, 3.457, 0.457
        diag = {}
        value = z_down(w, lam, p, x, b, diagnostics=diag)
        assert diag["escalated_digits"] > 0
        got, slope = z_down_slope(w, lam, p, x, b)
        assert math.isclose(got, value, rel_tol=1e-12)
        assert math.isclose(slope, self.central(w, lam, p, x, b), rel_tol=1e-6)

    def test_generator_identity_past_the_first_breakpoint(self):
        # for b < x <= b/p every jump lands below b, so the generator gives
        # (w+lam) Z - Z' = lam exactly; these are the drawdown levels y past
        # the knee c/(1-p), with b = y - c
        for (w, lam, p, c) in [(0.5, 1.0, 0.5, 1.0), (1.0, 2.0, 0.8, 0.5),
                               (0.5, 0.5, 0.8, 6.0)]:
            for y in (1.01, 1.3, 2.0):
                y *= c / (1.0 - p)
                value, slope = z_down_slope(w, lam, p, y, y - c)
                assert abs((w + lam) * value - slope - lam) <= 1e-12


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
        coeffs = k_up_coeffs(0.0, 1.0, 0.5, 1.0, 1)
        k_val = math.exp(coeffs.eval_log(1.0, 0.5, 3.0))
        assert math.isclose(k_val, self.GOLDEN_K, rel_tol=1e-12)
        assert math.isclose(l_up_from_b(0.0, 1.0, 0.5, 1.0, 3.0),
                            1.0 / self.GOLDEN_K, rel_tol=1e-12)

    def test_base_interval_is_a_pure_exponential(self):
        w, lam, p, b = 0.5, 1.0, 0.5, 1.0
        for x in (1.0, 1.3, 1.9999, 2.0):
            assert math.isclose(l_up_from_b(w, lam, p, b, x),
                                math.exp(-(w + lam) * (x - b)), rel_tol=1e-13)

    def test_continuity_across_breakpoints(self):
        for (w, lam, p, b) in [(0.5, 1.0, 0.5, 1.0), (1.0, 2.0, 0.8, 0.7),
                               (0.0, 0.5, 0.3, 2.0)]:
            for k in range(1, 7):
                edge = b * p ** (-k)
                lo = l_up_from_b(w, lam, p, b, edge * (1 - 1e-13))
                hi = l_up_from_b(w, lam, p, b, edge * (1 + 1e-13))
                assert abs(lo - hi) <= 1e-10 * max(lo, hi), (w, lam, p, b, k)

    def test_interval_boundary_values(self):
        assert l_up(0.5, 1.0, 0.5, 2.0, 2.0, 1.0) == 1.0   # already at the top
        assert l_up(0.5, 1.0, 0.5, 0.5, 2.0, 1.0) == 0.0   # already below b

    def test_monotone_decreasing_in_a(self):
        vals = [l_up(0.5, 1.0, 0.5, 1.5, a, 1.0) for a in (1.6, 2.0, 3.0, 5.0, 9.0)]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_deep_interval_no_overflow(self):
        v = l_up(1.0, 1.0, 0.5, 1.5, 1.0 * 0.5 ** -24, 1.0)
        assert 0.0 <= v < 1e-30

    def test_high_p_many_interval_precision(self):
        # near p = 1 the interval sums cancel deeply and float64 tables
        # degrade; the arbitrary-precision rebuild must keep full accuracy
        # (reference values pinned against the recursive quadrature oracle)
        got = l_up(0.5, 1.0, 0.95, 2.5 ** 0.5, 2.5, 1.0)
        assert math.isclose(got, 0.6005315132364151, rel_tol=1e-9)
        # undiscounted, nearly-certain upward exit: must not exceed one
        lu = l_up(0.0, 1.0, 0.9453125, 2.0, 3.0, 1.0)
        assert 0.999999 < lu <= 1.0

    def test_nearly_certain_up_exit_is_capped_at_one(self):
        # ten intervals deep the two logarithms of K agree to their rounding;
        # the uncapped quotient read 1 + 1.1e-13 here
        b = 0.05078125
        assert l_up(0.0, 1.0, 0.75, b + 1.0, b + 2.0, b) == 1.0


class TestTwoSidedDown:
    def test_complementarity_at_w_zero(self):
        for (lam, p, x, a, b) in [(1.0, 0.5, 1.5, 2.5, 1.0),
                                  (2.0, 0.8, 1.2, 2.0, 0.9),
                                  (0.5, 0.3, 3.0, 9.0, 1.0)]:
            up = l_up(0.0, lam, p, x, a, b)
            down = l_down(0.0, lam, p, x, a, b)
            assert math.isclose(up + down, 1.0, rel_tol=1e-12)

    def test_dominated_by_unrestricted_crossing(self):
        for a in (2.0, 3.0, 6.0):
            assert l_down(1.0, 1.0, 0.5, 1.5, a, 1.0) \
                <= z_down(1.0, 1.0, 0.5, 1.5, 1.0) + 1e-15

    def test_start_at_lower_barrier_counts_as_inside(self):
        v = l_down(0.7, 1.0, 0.5, 1.0, 2.0, 1.0)
        assert 0.0 < v < 1.0

    def test_negligible_up_part_shortcut_consistent(self):
        # enormous a: the up part underflows and l_down collapses to z_down
        direct = z_down(1.0, 1.0, 0.5, 1.5, 1.0)
        v = l_down(1.0, 1.0, 0.5, 1.5, 1.0 * 0.5 ** -40, 1.0)
        assert math.isclose(v, direct, rel_tol=1e-12)
