"""Property-based invariants of the transform evaluators."""

import math
import sys

from hypothesis import given, settings, strategies as st

from aimdexit import (ExitKind, ExitSpec, ModelParams, evaluate,
                      interval_index, l_down, l_up, z_down)
from aimdexit.scalefn import c_tilde
from unit_rate import at_rate

# parameter ranges chosen so every evaluation stays cheap: jump-rate and
# discount bounded, level gaps bounded in units of 1/(w + lam).  A positive
# lam is normal, so lam times any level drawn here stays above 0: a level
# that lam scales to 0 is rejected by contract (TestLevelUnderflow)
lam_s = st.just(0.0) | st.floats(sys.float_info.min, 4.0, allow_nan=False)
lam_pos_s = st.floats(0.05, 4.0, allow_nan=False)
p_s = st.floats(0.05, 0.95, allow_nan=False)
w_s = st.floats(0.0, 4.0, allow_nan=False)
w_pos_s = st.floats(1e-3, 4.0, allow_nan=False)
level_s = st.floats(0.05, 3.0, allow_nan=False)
gap_s = st.floats(1e-3, 5.0, allow_nan=False)

COMMON = dict(deadline=None, max_examples=80)


def up_one(w, lam, p, x, a):
    """The up passage through ``evaluate``, which also takes ``lam = 0``."""
    return evaluate(ModelParams(lam=lam, p=p), ExitSpec(ExitKind.UP_ONE, x=x, a=a), w)


class TestUpPassage:
    @given(w=w_s, lam=lam_s, p=p_s, x=level_s, gap=gap_s)
    @settings(**COMMON)
    def test_values_stay_in_unit_interval(self, w, lam, p, x, gap):
        v = up_one(w, lam, p, x, x + gap)
        assert 0.0 <= v <= 1.0

    @given(w1=w_pos_s, w2=w_pos_s, lam=lam_s, p=p_s, x=level_s, gap=gap_s)
    @settings(**COMMON)
    def test_decreasing_in_w(self, w1, w2, lam, p, x, gap):
        lo, hi = min(w1, w2), max(w1, w2)
        assert up_one(lo, lam, p, x, x + gap) >= up_one(hi, lam, p, x, x + gap) - 1e-12

    @given(w=w_s, lam=lam_s, p=p_s, x=level_s, g1=gap_s, g2=gap_s)
    @settings(**COMMON)
    def test_passage_multiplies_over_intermediate_levels(self, w, lam, p, x, g1, g2):
        m, a = x + g1, x + g1 + g2
        whole = up_one(w, lam, p, x, a)
        split = up_one(w, lam, p, x, m) * up_one(w, lam, p, m, a)
        assert math.isclose(whole, split, rel_tol=1e-12, abs_tol=1e-300)

    @given(w=w_s, lam=lam_s, p=p_s, x1=level_s, x2=level_s, gap=gap_s)
    @settings(**COMMON)
    def test_increasing_in_the_start_level(self, w, lam, p, x1, x2, gap):
        lo, hi = min(x1, x2), max(x1, x2)
        a = hi + gap
        assert up_one(w, lam, p, lo, a) <= up_one(w, lam, p, hi, a) + 1e-12


class TestDownPassage:
    @given(w=w_pos_s, lam=lam_pos_s, p=p_s, b=level_s, gap=gap_s)
    @settings(**COMMON)
    def test_bounded_by_the_first_jump_transform(self, w, lam, p, b, gap):
        v = at_rate(z_down, w, lam, p, b + gap, b)
        assert 0.0 <= v <= lam / (lam + w) + 1e-12

    @given(w=w_pos_s, lam=lam_pos_s, p=p_s, b=level_s, g1=gap_s, g2=gap_s)
    @settings(**COMMON)
    def test_decreasing_in_the_start_level(self, w, lam, p, b, g1, g2):
        near = at_rate(z_down, w, lam, p, b + g1, b)
        far = at_rate(z_down, w, lam, p, b + g1 + g2, b)
        assert far <= near + 1e-12


class TestTwoSidedSplit:
    @given(w=w_s, lam=lam_pos_s, p=p_s, b=level_s, g1=gap_s, g2=gap_s)
    @settings(**COMMON)
    def test_sides_never_exceed_certainty(self, w, lam, p, b, g1, g2):
        x, a = b + g1, b + g1 + g2
        up = at_rate(l_up, w, lam, p, x, a, b)
        down = at_rate(l_down, w, lam, p, x, a, b)
        assert 0.0 <= up <= 1.0
        assert 0.0 <= down <= 1.0
        assert up + down <= 1.0 + 5e-13

    @given(lam=lam_pos_s, p=p_s, b=level_s, g1=gap_s, g2=gap_s)
    @settings(**COMMON)
    def test_undiscounted_sides_are_complementary(self, lam, p, b, g1, g2):
        x, a = b + g1, b + g1 + g2
        total = at_rate(l_up, 0.0, lam, p, x, a, b) + at_rate(l_down, 0.0, lam, p, x, a, b)
        assert math.isclose(total, 1.0, rel_tol=1e-9)


class TestConstantFactor:
    @given(w=w_pos_s, lam=lam_pos_s, p=p_s, b=level_s)
    @settings(**COMMON)
    def test_positive_and_finite(self, w, lam, p, b):
        v = at_rate(c_tilde, w, lam, p, b)
        assert v >= 0.0
        assert math.isfinite(v)


class TestNormalization:
    @given(w=w_s, lam=lam_s, p=p_s, x=level_s, gap=gap_s,
           beta=st.floats(0.1, 10.0, allow_nan=False))
    @settings(**COMMON)
    def test_slope_rescaling_is_exact_for_up_passage(self, w, lam, p, x, gap, beta):
        spec = ExitSpec(ExitKind.UP_ONE, x=x, a=x + gap)
        sloped = evaluate(ModelParams(lam=lam, p=p, beta=beta), spec, w)
        flat = evaluate(ModelParams(lam=lam / beta, p=p, beta=1.0), spec, w / beta)
        assert sloped == flat  # normalization happens before any arithmetic

    @given(w=w_s, lam=lam_pos_s, p=p_s, b=level_s, g1=gap_s, g2=gap_s,
           beta=st.floats(0.1, 10.0, allow_nan=False))
    @settings(**COMMON)
    def test_slope_rescaling_is_exact_for_two_sided(self, w, lam, p, b, g1, g2, beta):
        spec = ExitSpec(ExitKind.TWO_SIDED_DOWN, x=b + g1, a=b + g1 + g2, b=b)
        sloped = evaluate(ModelParams(lam=lam, p=p, beta=beta), spec, w)
        flat = evaluate(ModelParams(lam=lam / beta, p=p, beta=1.0), spec, w / beta)
        assert sloped == flat


class TestIntervalIndex:
    @given(p=p_s, b=level_s, k=st.integers(0, 12),
           frac=st.floats(1e-6, 1.0, allow_nan=False))
    @settings(**COMMON)
    def test_brackets_its_own_interval(self, p, b, k, frac):
        # place x inside (b p^{-k}, b p^{-(k+1)}] and expect index k back
        lo, hi = b * p ** (-k), b * p ** (-(k + 1))
        x = lo + frac * (hi - lo)
        got = interval_index(x, b, p)
        assert got == k or math.isclose(x, lo, rel_tol=4e-16)

    @given(p=p_s, b=level_s, k=st.integers(0, 12))
    @settings(**COMMON)
    def test_breakpoints_tie_to_the_lower_interval(self, p, b, k):
        x = b * p ** (-(k + 1))
        assert interval_index(x, b, p) == k


class TestKindParsing:
    @given(kind=st.sampled_from(ExitKind))
    @settings(**COMMON)
    def test_round_trips_through_text(self, kind):
        assert ExitKind.parse(kind.value) is kind
        assert ExitKind.parse(kind.value.upper().replace("-", "_")) is kind
