"""Scale functions and one-/two-sided exit transforms of the unit-slope AIMD process.

Notation used throughout (all levels positive unless stated otherwise):

* ``z_up(w; x, a)``   — LST of the upward passage time from ``x`` over ``a``
  (no lower barrier; the process creeps over upper levels).
* ``z_down(w; x, b)`` — LST of the downward passage time from ``x`` below
  ``b`` (no upper barrier; downward crossings happen only by jumps).
* ``l_up(w; x, a, b)``   — joint transform ``E[e^{-w tau} ; up-exit first]``
  for the two-sided exit from ``(b, a)``.
* ``l_down(w; x, a, b)`` — the matching down-exit part.

Everything here runs at jump rate 1, so ``gamma = w + 1``: a problem at rate
``lam`` is posed as ``(w/lam, p, lam*levels)``, with the same values.

Signed log space: a real number ``v`` travels as the plain pair
``(sign, log |v|)``, sign in {-1, 0, 1} and zero as ``(0, -inf)``; products
add the logs, and :func:`_log_add` and :func:`_signed_logsumexp` sum.  The
``l_up`` evaluator is built on interval coefficient tables for the reciprocal
scale function ``K`` (``l_up_from_b = 1/K``), each term kept as such a pair
at its interval's left end, so that deep intervals neither overflow nor
lose their sign pattern and a recursion step is continuity there; the
slope ``K'/K`` is formed as a ratio before its logarithms round.
``z_down`` combines a geometric closed form with two finite exponential
sums whose coefficients involve the alternating q-products ``prod (1 -
p^{-i})`` and ``prod (p^i - p^j)``; their signs are closed-form.  Both
precisions grow the products ``prod (p^i - p^j)`` by the one recurrence of
:class:`_DownCoeffs`, the float64 route as sums of logarithms.

Each float64 evaluation measures the digits its sums cancelled (for ``K``,
those of its recursion too) and past its tolerance escalates to arbitrary
precision under one rule, :func:`_escalated`: a first budget sized by the
caller, kept once the run's own measured loss leaves the digits needed.
The escalated ``z_down`` writes the transform on interval ``k0`` as
``g^{-k0} + sum_i e^{g p^i x} S_i(b)``, each ``S_i`` a sum of coefficients
of ``(w, p)`` times ``e^{-g b p^{-m}}``, ``C~`` entering linearly; ``C~``
itself is a ratio of two such sums.  Bounded memos share the work that does
not depend on the start: one coefficient table, of the intervals and of
``C~``'s terms, per ``(w, p)`` and digit budget (rounded up to a multiple
of 20); ``C~`` and the ``S_i`` once per barrier and budget, a first budget
being rounded up to a multiple of 10 so that the starts on one barrier
share it; the float64 route's ``C~`` and the start-free logs of its terms
once per barrier ``(w, p, b)``, in one record extended to the deepest
interval asked, up to 64 (:func:`_down_terms`, 128 records); ``log K``
per level; and ``log(K(x)/K(a))`` per pair of levels.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, sub
from typing import Callable, Optional, Tuple

import mpmath as mp

from .model import ConvergenceError, ValidationError, _require

__all__ = [
    "KCoefficients",
    "z_up",
    "c_tilde",
    "z_down",
    "z_down_slope",
    "k_up_coeffs",
    "l_up_from_b",
    "l_up",
    "l_down",
]

_LOG_HUGE = 690.0  # ln(max float64) with margin
_LN10 = math.log(10.0)
_LN2 = math.log(2.0)

# a convergent series is cut once its term falls below _REL_TOL times the
# running sum; _MAX_TERMS bounds every summation loop
_REL_TOL = 1e-14
_LOG_REL_TOL = math.log(_REL_TOL)
_MAX_TERMS = 10_000
# digit cap of an arbitrary-precision escalation that needs 16 digits
_MAX_DPS = 400


# ---------------------------------------------------------------------------
# signed log-space arithmetic
# ---------------------------------------------------------------------------


def _log_add(s1: int, l1: float, s2: int, l2: float) -> Tuple[int, float]:
    """``(sign, log)`` of ``s1 e^{l1} + s2 e^{l2}``; on equal logs the first
    argument counts as the larger."""
    if s1 == 0:
        return s2, l2
    if s2 == 0:
        return s1, l1
    if not l1 >= l2:
        s1, l1, s2, l2 = s2, l2, s1, l1
    diff = l2 - l1  # <= 0
    if s1 == s2:
        return s1, l1 + math.log1p(math.exp(diff))
    rem = -math.expm1(diff)  # 1 - e^{diff} in [0, 1)
    if rem == 0.0:
        return 0, -math.inf
    return s1, l1 + math.log(rem)


def _signed_logsumexp(signs, logmags) -> Tuple[int, float]:
    """``(sign, log)`` of the sum of ``sign_i * exp(logmag_i)``.

    Callers that need the cancellation compare the result's log magnitude
    with the largest ``logmag_i`` themselves (:func:`_log_sum_loss`).
    """
    m = max(logmags, default=-math.inf)
    if m == -math.inf:
        return 0, -math.inf
    acc = 0.0
    for s, L in zip(signs, logmags):
        if s != 0:
            acc += s * math.exp(L - m)
    if acc == 0.0:
        return 0, -math.inf
    return (1 if acc > 0 else -1), m + math.log(abs(acc))


# ---------------------------------------------------------------------------
# Upward one-sided exit: the ascent-denominator series
# ---------------------------------------------------------------------------


def _log_up_denominator(w: float, p: float, x: float, *,
                        diagnostics: Optional[dict] = None) -> float:
    """``log(1 + w * sum_{n>=1} x^n/n! * prod_{i=1}^{n-1}(w + 1 - p^i))``.

    All series terms are nonnegative (each product factor is ``>= w``), so
    the sum is monotone; it is accumulated with a rescaling guard so that
    arguments with ``(w + 1) x`` in the thousands stay finite.
    """
    if x < 0.0:
        raise ValidationError(f"level must be >= 0, got {x}")
    if x == 0.0 or w == 0.0:
        return 0.0
    log_scale = 0.0
    total = 0.0  # running sum of w * series, under exp(log_scale)
    term = w  # w * x^n/n! * prod(...) at n = 1 is w*x; build incrementally
    n = 0
    while n < _MAX_TERMS:
        n += 1
        term *= x * (w + 1.0 - p ** (n - 1)) / n if n > 1 else x
        total += term
        if term <= _REL_TOL * total and n > 4 and x * (w + 1.0) < n:
            # terms now decay at least geometrically; bound the tail
            if diagnostics is not None:
                diagnostics["series_terms"] = diagnostics.get("series_terms", 0) + n
            return log_scale + math.log1p(total) if log_scale == 0.0 \
                else log_scale + math.log(total)
        if total > 1e280:
            shift = math.log(total)
            log_scale += shift
            scale = math.exp(-shift)
            total = 1.0
            term *= scale
    raise ConvergenceError(
        f"upward series not converged after {_MAX_TERMS} terms "
        f"(w={w}, p={p}, x={x})",
        partial=log_scale + math.log1p(total))


def z_up(w: float, p: float, x: float, a: float, *,
         diagnostics: Optional[dict] = None) -> float:
    """LST of the passage time from ``x`` up over ``a`` (0 <= x <= a).

    Ratio of the two level-0 denominators, evaluated as a difference of
    their logarithms so that large arguments cannot overflow.
    """
    _require(0.0 <= x <= a, f"z_up needs 0 <= x <= a, got x={x}, a={a}")
    if x == a:
        return 1.0
    return math.exp(_log_up_denominator(w, p, x, diagnostics=diagnostics)
                    - _log_up_denominator(w, p, a, diagnostics=diagnostics))


# ---------------------------------------------------------------------------
# Downward one-sided exit: companion constant and signed series
# ---------------------------------------------------------------------------


def _c_tilde_logs(w: float, p: float, b: float):
    """Per term ``l`` of the series of :func:`c_tilde`, from ``l = 0``, the
    float64 log magnitudes of its numerator term ``t_l (1 - p^{-l})`` and its
    denominator term ``t_l p^{-l}`` (``_MAX_TERMS`` of them at most); the
    first ``-inf`` at ``l = 0``, both ``-inf`` once ``p^{-l}`` is past
    float64's range."""
    g = w + 1.0
    log_rate = math.log(1.0 / g)
    log_p_inv = -math.log(p)
    log_prod = 0.0  # log |prod_{i=1}^{l}(1 - p^{-i})|
    for l in range(_MAX_TERMS):
        try:
            p_inv = p ** (-l)
        except OverflowError:  # then e^{-b g p^-l}, and so both terms, underflow to 0
            yield -math.inf, -math.inf
            continue
        log_prev = log_prod  # the product up to l - 1
        if l > 0:
            log_prod += math.log(abs(1.0 - p_inv))
        base_log = -b * g * p_inv + l * log_rate
        yield base_log - log_prev if l else -math.inf, base_log + l * log_p_inv - log_prod


def c_tilde(w: float, p: float, b: float) -> float:
    """The downward-exit series constant ``C~(w; b)``.

    Defined as ``A/B - 1`` with ``A = sum_l t_l`` and ``B = sum_l t_l p^{-l}``
    where ``t_l = e^{-b gamma p^{-l}} gamma^{-l} / prod_{i<=l}(1 - p^{-i})``.
    Evaluated in the algebraically equivalent cancellation-free form
    ``(A - B)/B``, whose numerator sums ``t_l (1 - p^{-l})`` term by term;
    both series decay super-geometrically thanks to the ``e^{-b gamma p^{-l}}``
    factor.  The q-product ``prod_{i<=l}(1 - p^{-i})`` has sign ``(-1)^l``;
    its log magnitude and both running sums are kept in signed log space.
    """
    _require(b > 0.0, f"c_tilde needs b > 0, got {b}")
    _require(w > 0.0, f"c_tilde needs w > 0, got {w}")
    if math.isinf(b * (w + 1.0) * p ** -1):
        # the numerator's terms, from e^{-b g / p} on, all underflow (the walk
        # below could never end), and C~, near e^{-b g (1/p - 1)} / g, with them
        return 0.0
    num_s, num_l = 0, -math.inf  # sum_{l>=1} t_l * (1 - p^{-l})
    den_s, den_l = 0, -math.inf  # sum_{l>=0} t_l * p^{-l}
    peak_num = peak_den = -math.inf
    sign = 1  # (-1)^l
    for l, (num_term, den_term) in enumerate(_c_tilde_logs(w, p, b)):
        if den_term > peak_den:
            peak_den = den_term
        den_s, den_l = _log_add(den_s, den_l, sign, den_term)
        if l > 0:
            if num_term > peak_num:
                peak_num = num_term
            num_s, num_l = _log_add(num_s, num_l, -sign, num_term)
            if (num_term < num_l + _LOG_REL_TOL
                    and den_term < den_l + _LOG_REL_TOL
                    and l >= 4):
                break
        sign = -sign
    else:
        raise ConvergenceError(f"c_tilde series not converged after {_MAX_TERMS} terms")
    # the q-product denominators shrink as p -> 1, making the terms of both
    # sums huge and alternating while the sums stay moderate: measure the
    # cancellation and fall back to arbitrary precision when float64 thins out
    if num_s == 0 or den_s == 0:
        lost = 12.0  # cancelled to exactly zero; size the budget blind
    else:
        lost = max(peak_num - num_l, peak_den - den_l) / math.log(10.0)
    if not lost <= _K_EVAL_LOST_OK:
        return float(_c_tilde_escalated(w, p, b, _first_budget(lost))[0])
    return num_s * den_s * math.exp(num_l - den_l)


def _first_budget(lost: float) -> int:
    """The first digit budget after a float64 loss of ``lost`` digits: ``30 +
    2.5 lost``, capped; a loss that is not finite (a NaN from ``inf - inf``
    in the float64 logs) takes the cap."""
    return min(_MAX_DPS, 30 + math.ceil(2.5 * lost)) if math.isfinite(lost) else _MAX_DPS


def _escalated(run: Callable[[int], Tuple[Optional[tuple], float]], digits: int,
               need: int, what: str) -> Tuple[tuple, int]:
    """``(values, dps)`` at the first budget ``dps``, from ``digits`` up, at
    which ``run(dps) -> (values, lost)`` loses few enough decimal digits (its
    whole budget for noise) to leave ``need``.  The next budget is ``need +
    lost + 4``, and at least 1.5 times the last after a run left with at most
    4 digits, which measured only a floor of its loss; the cap is ``_MAX_DPS``
    for the 16 digits of ``z_down`` and ``K``, more for a caller needing more.
    """
    cap = _MAX_DPS + need - 16
    while True:
        vals, lost = run(digits)
        if digits - lost >= need:
            return vals, digits
        if digits >= cap:
            raise ConvergenceError(f"{what}: cancellation exceeds {cap} digits",
                                   partial=None if vals is None else float(vals[0]))
        step = need + 4 + math.ceil(min(lost, cap))
        digits = min(cap, max(step, int(1.5 * digits)) if lost > digits - 4 else step)


def _table_dps(dps: int) -> int:
    """Digits of the coefficient tables that serve a working budget of
    ``dps``: rounded up to a multiple of 20, so that neighbouring budgets
    share one table."""
    return -(-dps // 20) * 20


def _c_tilde_mp(w, p, b, dps: int):
    """Arbitrary-precision twin of :func:`c_tilde` (same cancellation-free form)
    at ``dps`` digits: ``((value, falls), lost)``, with ``falls`` the factors
    ``e^{-b g p^{-l}}`` of the terms and ``lost`` the decimal digits the
    alternating sums cancelled, each against its own peak term (all ``dps``
    if one came out 0).  The float64 log magnitudes of the terms, walked as
    :func:`c_tilde` walks them, size each sum: it ends at its first term
    past the fifth that lies ``dps + 9`` digits below its own peak term, so
    its tail is below ``10^-(dps+5)`` of it, past the digits that
    :func:`_c_tilde_escalated` keeps.  The numerator can lie hundreds of
    digits below the denominator (large ``w b``), so neither sum is sized
    or measured by the other's peak.  Each sum is one ``mp.fdot`` with the
    coefficients of the ``(w, p)`` table (:class:`_DownCoeffs`), extended
    to exactly the longer sum's terms."""
    # numerator, denominator: peak log term, terms taken, whether it ended
    peak, size, done = [-math.inf, -math.inf], [0, 0], [False, False]
    for l, terms in enumerate(_c_tilde_logs(w, p, b)):
        for s, log_term in enumerate(terms):
            if not done[s]:
                peak[s] = max(peak[s], log_term)
                size[s] = l + 1
                done[s] = l > 3 and log_term < peak[s] - (dps + 9) * _LN10
        if l == 1999 or all(done):
            break
    n_num, n_den = size
    tab = _z_down_coeffs(w, p, _table_dps(dps)).upto(0, max(size))
    with mp.workdps(dps):
        b = mp.mpf(b)
        falls = tuple(mp.exp(-b * r) for r in tab.down[:max(size)])
        num = mp.fdot(falls[1:n_num], tab.num[1:n_num])
        den = mp.fdot(falls[:n_den], tab.den[:n_den])
        lost = max(peak[0] - float(mp.log(abs(num))), peak[1] - float(mp.log(abs(den)))) \
            / _LN10 if num and den else float(dps)
        return (num / den, falls), lost


def _down_interval_count(x: float, b: float, p: float) -> int:
    """``min{k >= 1 : x <= b p^{-k}}``: for ``x > b`` the number of k >= 0
    with ``b p^{-k} < x``, and 1 at ``x == b``, the right limit (a crossing
    needs a jump)."""
    if x <= b:
        return 1

    def below(k):  # b p^-k < x, compared in logs where p^-k is past float64
        try:
            return b * p ** -k < x
        except OverflowError:
            return math.log(b) - k * math.log(p) < math.log(x)
    k = int(math.floor((math.log(x) - math.log(b)) / math.log(1.0 / p))) + 1
    # float-robust adjustment around breakpoints
    while k > 0 and not below(k - 1):
        k -= 1
    while below(k):
        k += 1
    return k


class _DownTerms:
    """The start-free part of the float64 downward series on one barrier:
    ``ct``, the float64 ``C~`` as :func:`c_tilde` returns it, and per term
    of the intervals built so far its sign, rate, the two logs of
    :func:`_z_down_terms` (``log_num`` and ``log_den``) and its interval's
    left end ``b p^{-k}``, interval by interval; ``ends[k]`` counts the
    terms of intervals ``0..k``.  The coefficients are those of
    :class:`_DownCoeffs`, built by its recurrence with each running product
    ``D_k(i)`` kept as ``log |D_k(i)|``, which has sign ``(-1)^i``, as
    ``p^i < p^j`` exactly when ``j < i``.  Nothing of interval ``k``
    depends on a later one, so :meth:`upto` extends the record in place.
    """

    def __init__(self, w, p, b, ct: float):
        self.ct, self._p, self._b, self._g = ct, p, b, w + 1
        self._lock = threading.Lock()
        self._log_p, self._log_g = math.log(p), math.log(self._g)
        # w may be subnormal, where the quotient w/g underflows before its log
        self._log_w_over_g = math.log(w) - self._log_g
        self._sign_ct = 1 if ct > 0 else -1
        self._log_ct = math.log(abs(ct)) if ct != 0 else 0.0
        if self._log_ct == math.inf:  # C~ past float64's range: its log is not
            self._log_ct = float(mp.log(abs(_c_tilde_escalated(w, p, b, 30)[0])))
        self._pw, self._up, self._log_dn = [], [], []  # p^k; g p^k; log |D_k(i)|, i < k
        self.ends, self.signs, self.rates = [], [], []
        self.log_nums, self.log_dens, self.lefts = [], [], []

    def upto(self, k0: int) -> Tuple[list, ...]:
        """``(signs, rates, log_nums, log_dens, lefts)`` of the terms of the
        first ``k0 >= 1`` intervals, extending the record as needed."""
        with self._lock:
            for k in range(len(self.ends), k0):
                self._extend(k)
            n = self.ends[k0 - 1]
            return (self.signs[:n], self.rates[:n], self.log_nums[:n], self.log_dens[:n],
                    self.lefts[:n])

    def _extend(self, k: int) -> None:
        """Add interval ``k``: the ``alpha_{k,i}``, ``i < k``, then the ``C~
        beta_{k,i}``, ``i <= k``."""
        p, pw, log_p, log_dn, up = self._p, self._pw, self._log_p, self._log_dn, self._up
        pw_k = p ** k
        grown = [L + math.log(abs(pw[i] - pw_k)) for i, L in enumerate(log_dn)]
        grown.append(sum(math.log(pw[j] - pw_k) for j in range(k)))
        # nothing below raises, so the record never holds part of an interval
        sign_c = (-1) ** (k + 1)
        log_c = self._log_w_over_g + (k * (k - 1) // 2) * log_p - k * self._log_g  # log |c_k|
        alt = [sign_c, -sign_c] * (k // 2 + 1)  # sign_c (-1)^i
        pw.append(pw_k)
        up.append(self._g * pw_k)
        signs, rates, log_nums, log_dens = self.signs, self.rates, self.log_nums, self.log_dens
        signs += alt[:k]
        rates += up[:k]
        log_nums += [log_c] * k
        log_dens += [i * log_p + L for i, L in enumerate(log_dn)]
        if self.ct != 0:
            signs += [self._sign_ct * s for s in alt[:k + 1]]
            rates += up
            log_nums += [log_c + self._log_ct] * (k + 1)
            log_dens += grown
        self.lefts += [self._b * p ** (-k)] * (len(signs) - len(self.lefts))
        self._log_dn = grown
        self.ends.append(len(signs))


# past this many intervals a start builds its terms afresh, unrecorded
_DOWN_TERMS_DEPTH = 64


# an entry holds one C~ and k^2 terms for the k intervals asked, k at most
# _DOWN_TERMS_DEPTH: some 9 KB ten intervals deep, 30 KB twenty deep and at
# most 320 KB; only starts on a shared barrier hit it (each drawdown node
# has its own), so 128 entries serve, at most some 41 MB
@lru_cache(maxsize=128)
def _down_terms(w, p, b) -> _DownTerms:
    """The float64 downward series' record of barrier ``b``, with its ``C~``
    (a ``ConvergenceError`` of :func:`c_tilde` is raised, never stored)."""
    return _DownTerms(w, p, b, c_tilde(w, p, b))


def _z_down_terms(w, p, x, b, k0: int):
    """Signs, log magnitudes and rates of the exponential terms of the
    downward transform on interval ``k0``, in float64, from the barrier's
    record (:func:`_down_terms`): per start only the shifts.

    Per interval ``k < k0`` the terms are ``alpha_{k,i} e^{g p^i (x - b p^{-k})}``,
    ``i < k``, then ``C~ beta_{k,i}`` times the same, ``i <= k``.  Every term
    is a constant times ``e^{rate * x}``, so the slope in ``x`` is
    ``sum(term * rate)``; the constant head term ``(1/g)^k0`` (rate 0) is
    left to the caller.
    """
    rec = _down_terms(w, p, b)
    if k0 > _DOWN_TERMS_DEPTH:
        rec = _DownTerms(w, p, b, rec.ct)
    signs, rates, log_nums, log_dens, lefts = rec.upto(k0)
    return signs, [n + (r * (x - left) - d)
                   for n, r, d, left in zip(log_nums, rates, log_dens, lefts)], rates


def _log10_or_zero(v: float) -> float:
    return math.log10(abs(v)) if v != 0.0 else 0.0


# an entry is some 2 KB at the 30-80 digits of the default grid's drawdown
# nodes, up to some 130 KB at 400 digits near p = 1; only starts on a shared
# barrier hit it (each drawdown node has its own), so 1,024 entries serve
@lru_cache(maxsize=1024)
def _c_tilde_escalated(w, p, b, dps: int):
    """:func:`_c_tilde_mp` good to the ``dps - 4`` digits an escalated value at
    ``dps`` needs, per barrier and budget: ``(value, falls)``, ``falls`` the
    ``e^{-b g p^{-l}}``.  Serves :func:`c_tilde` and the escalated series."""
    with mp.workdps(dps):
        return _escalated(lambda digits: _c_tilde_mp(w, p, b, digits), dps, dps - 4,
                          f"downward-series constant at w={w}, p={p}, b={b}")[0]


class _DownCoeffs:
    """The ``x``- and ``b``-free parts of the escalated downward series at
    ``dps`` digits: per interval built so far ``up``, ``alpha`` and ``beta``;
    per term built so far ``down`` and ``C~``'s ``num`` and ``den``.

    On interval ``k0``, ``Z(x) = g^{-k0} + sum_{i<k0} E_i(x) S_i(b)`` with
    ``E_i = e^{up_i x}``, ``up_i = g p^i``, and
    ``S_i = sum_k (alpha_{k,i} + C~ beta_{k,i}) F_{k-i}``, where
    ``F_m = e^{-b down_m}``, ``down_m = g p^{-m}``.  With
    ``c_k = (w/g) (-1)^{k+1} p^{k(k-1)/2} g^{-k}`` and
    ``D_n(i) = prod_{j<n, j != i}(p^i - p^j)``,
    ``alpha_{k,i} = c_k / (p^i D_k(i))`` for ``i < k < k0`` and
    ``beta_{k,i} = c_k / D_{k+1}(i)`` for ``i <= k < k0``; ``alpha[i]`` and
    ``beta[i]`` list them in ascending ``k``.  The ``D_n`` are running
    products, one factor per interval: O(k0^2) in all.  ``C~`` (:func:`c_tilde`)
    is ``sum_m num_m F_m / sum_m den_m F_m``, the first sum from ``m = 1``,
    with ``num_m = g^{-m} / prod_{i<m}(1 - p^{-i})`` and
    ``den_m = g^{-m} p^{-m} / prod_{i<=m}(1 - p^{-i})``.  Nothing of interval
    or term ``k`` depends on a later one, so a table is the prefix of any
    longer one, and :meth:`upto` extends one in place.
    """

    def __init__(self, w, p, dps: int):
        self.dps, self._lock = dps, threading.Lock()
        with mp.workdps(dps):
            self._p, g = mp.mpf(p), mp.mpf(w) + 1
            self._g, self._c = g, mp.mpf(w) / g
            self._p_inv, self._g_inv = 1 / self._p, 1 / g
        self.up, self.alpha, self.beta = [], [], []
        self.down, self.num, self.den = [], [], []
        self._pw, self._dn = [], []  # p^k; D_k(i), i < k, at the top of step k
        self._run = (mp.mpf(1),) * 3  # p^{-m}, g^{-m}, prod_{i<=m}(1 - p^{-i})

    def upto(self, k0: int, n: int = 0) -> "_DownCoeffs":
        """This table, extended to at least ``k0`` intervals and ``n`` terms
        inside its own precision, nested in the caller's."""
        with self._lock:
            if len(self._pw) < k0 or len(self.down) < n:
                with mp.workdps(self.dps):
                    self._extend(k0, n)
        return self

    def _extend(self, k0: int, n: int) -> None:
        g, pw, dn, alpha, beta = self._g, self._pw, self._dn, self.alpha, self.beta
        for k in range(len(pw), k0):
            pw.append(self._p ** k)
            self.up.append(g * pw[k])
            alpha.append([])
            beta.append([])
            if k > 0:
                self._c *= pw[k - 1] / g
            c_k = self._c if k % 2 else -self._c
            for i in range(k):
                alpha[i].append(c_k / (pw[i] * dn[i]))
            for i in range(k):
                dn[i] *= pw[i] - pw[k]
            new = mp.mpf(1)
            for j in range(k):
                new *= pw[k] - pw[j]
            dn.append(new)
            for i in range(k + 1):
                beta[i].append(c_k / dn[i])
        for m in range(len(self.down), n):
            p_inv_m, g_inv_m, prev = self._run
            prod = prev
            if m > 0:
                p_inv_m, g_inv_m = p_inv_m * self._p_inv, g_inv_m * self._g_inv
                prod = prev * (1 - p_inv_m)
            self._run = p_inv_m, g_inv_m, prod
            self.down.append(g * p_inv_m)
            self.num.append(g_inv_m / prev)
            self.den.append(g_inv_m * p_inv_m / prod)


# an entry holds some k0^2 numbers for the deepest k0 asked, and three per
# term of C~'s longest series: 100 intervals deep some 2.5 MB at 40 digits
# (4 MB at 400), ten deep some 30 KB; one table per (w, p, digits) serves
# every interval and term count
@lru_cache(maxsize=32)
def _z_down_coeffs(w, p, dps: int) -> _DownCoeffs:
    """The coefficient table of the escalated downward series for ``(w, p)``
    at ``dps`` digits, empty until :meth:`_DownCoeffs.upto` extends it."""
    return _DownCoeffs(w, p, dps)


# an entry holds k0 sums and their rates, some 2 KB at 40 digits ten
# intervals deep; the starts on one barrier share one entry per interval
# and budget, while each drawdown node has a barrier of its own
@lru_cache(maxsize=1024)
def _z_down_sums(w, p, b, k0: int, dps: int):
    """``(up, sums)`` of the escalated downward transform on interval ``k0``
    at ``dps`` digits: the rates ``up_i`` and the ``x``-free sums ``S_i(b)``
    of :class:`_DownCoeffs`, per barrier, interval and budget.  The ``F_m``
    come with the barrier's ``C~`` as far as its series ran; any past it
    cost one exponential each, of the table's rate ``down_m``, the one
    ``C~``'s series reads.  Computed inside the caller's working precision."""
    with mp.workdps(dps):
        ct, falls = _c_tilde_escalated(w, p, b, dps)
        tab = _z_down_coeffs(w, p, _table_dps(dps)).upto(k0, k0)
        b_ = mp.mpf(b)
        fall = list(falls[:k0]) + [mp.exp(-b_ * r) for r in tab.down[len(falls):k0]]
        fall_ct = [ct * f for f in fall]
        return tuple(tab.up[:k0]), tuple(
            mp.fdot(tab.alpha[i][:k0 - 1 - i] + tab.beta[i][:k0 - i],
                    fall[1:k0 - i] + fall_ct[:k0 - i]) for i in range(k0))


def _z_down_mp(w, p, x, b, dps: int, slope: bool = False) -> Tuple[float, ...]:
    """Arbitrary-precision downward transform: ``(value,)``, or with ``slope``
    ``(value, d/dx value)``, as ``g^{-k0} + sum_i e^{up_i x} S_i(b)`` from
    the barrier's memoized sums (:func:`_z_down_sums`), so a start on a
    barrier already seen costs ``k0`` exponentials."""
    with mp.workdps(dps):
        k0 = _down_interval_count(x, b, p)
        up, sums = _z_down_sums(w, p, b, k0, dps)
        x_ = mp.mpf(x)
        terms = [mp.exp(r * x_) * s for r, s in zip(up, sums)]
        value = float(mp.fsum([(1 / (mp.mpf(w) + 1)) ** k0] + terms))
        if not slope:
            return (value,)
        return value, float(mp.fdot(terms, up))


def z_down(w: float, p: float, x: float, b: float, *,
           diagnostics: Optional[dict] = None) -> float:
    """LST of the passage time from ``x`` to a level ``<= b`` (jump crossing).

    ``w == 0`` returns 1 exactly (the crossing is a.s. finite; the series
    representation degenerates there); ``x == b`` is the right limit, the
    series of the first interval at ``b`` itself (a crossing needs a jump).
    A start so many intervals up that ``(w + 1)^-k0`` is below float64's
    range returns 0.  The signed exponential sums are evaluated in float64
    with a cancellation estimate; past its tolerance they are summed in
    arbitrary precision (:func:`_escalated`) to 1e-12 relative.
    """
    _require(b > 0.0, f"z_down needs b > 0, got b={b}")
    _require(x >= b, f"z_down needs x >= b, got x={x}, b={b}")
    if w == 0.0:
        return 1.0
    vals, diag = _z_down_eval(w, p, x, b, slope=False)
    if diagnostics is not None:
        diagnostics.update(diag)
    return vals[0]


def z_down_slope(w: float, p: float, x: float, b: float) -> Tuple[float, float]:
    """``z_down(w; x, b)`` and its exact slope in ``x``, from one pass over the terms.

    The slope differentiates the same exponential sums on the same interval
    (breakpoints ``b p^{-k}`` tie to the lower interval, as the value does)
    and must meet the float64 cancellation check alongside the value: the
    slope scale is ``w + 1``, since ``|d/dx z_down| <= 1``.
    """
    _require(b > 0.0, f"z_down needs b > 0, got b={b}")
    _require(x > b, f"z_down needs x > b, got x={x}, b={b}")
    if w == 0.0:
        return 1.0, 0.0
    return _z_down_eval(w, p, x, b, slope=True)[0]


@lru_cache(maxsize=4096)
def _z_down_eval(w, p, x, b, slope: bool) -> Tuple[Tuple[float, ...], tuple]:
    """``(value,)`` or ``(value, slope)`` of the downward transform, with
    escalation, and the diagnostics items of the evaluation.

    Memoized on the exact arguments: ``l_down`` and the reflected kinds use
    ``z_down`` at a fixed barrier level for every start, so an ``x`` sweep
    would otherwise repeat the same escalation at each point.  A
    ``ConvergenceError`` is raised afresh on every call, never stored.
    """
    k0 = _down_interval_count(x, b, p)
    # crossing k0 intervals takes k0 jumps, so Z <= g^-k0, and the generator
    # identity Z' = g Z(x) - Z(p x) bounds |Z'| by 2 g^(1-k0): once that bound
    # is below 2^-1075, every float64 the quantity could round to is zero
    log_g = math.log1p(w)
    if k0 * log_g - slope * (log_g + _LN2) > 1075 * _LN2:
        return (0.0, 0.0)[:1 + slope], (("interval_count", k0), ("float_error_estimate", 0.0),
                                        ("escalated_digits", 0))
    signs, logs, rates = _z_down_terms(w, p, x, b, k0)
    log_peak = max(logs, default=-math.inf)
    terms = None
    if log_peak > _LOG_HUGE:
        lpk = log_peak / _LN10
    else:
        terms = [(1.0 / (w + 1.0)) ** k0] + [s * math.exp(L) for s, L in zip(signs, logs)]
        rates = [0.0] + rates
        lpk = _log10_or_zero(max(abs(v) for v in terms))
    # (log10 peak |term|, float sum) per returned quantity, the slope with its
    # own check; a term past float64 fails it, its slope term <= (w + 1) x it
    parts = [(lpk, 0.0), (lpk + math.log10(w + 1.0), 0.0)][:1 + slope]
    ok = False
    if terms is not None:
        total = math.fsum(terms)
        err_est = 8.0 * 2.2e-16 * max(abs(v) for v in terms)
        ok = err_est <= 1e-13 * abs(total) and total > 0.0
        parts[0] = (lpk, total)
        if slope:
            dterms = [t * r for t, r in zip(terms, rates)]
            dpeak = max(abs(t) for t in dterms)
            dtotal = math.fsum(dterms)
            ok = ok and 8.0 * 2.2e-16 * dpeak <= max(1e-15 * (w + 1.0), 1e-13 * abs(dtotal))
            parts[1] = (_log10_or_zero(dpeak), dtotal)
    if ok:
        vals = (min(total, 1.0), dtotal) if slope else (min(total, 1.0),)
        return vals, (("interval_count", k0), ("float_error_estimate", err_est),
                      ("escalated_digits", 0))

    # a run at dps digits (C~ good to dps - 4) is noise of peak 10^(4 - dps) and
    # keeps 16 digits, 1e-12 past it; z_down > 0, so a value <= 0 is noise.
    # Any value also settles once that noise is below the smallest subnormal,
    # 5e-324 (a loss of at most pk - log10(5e-312)): float64 then holds it as
    # well as it can hold anything so small
    def run(dps):
        vals = _z_down_mp(w, p, x, b, dps, slope)
        signed = (vals[0] if vals[0] > 0.0 else 0.0,) + vals[1:]
        return vals, max(min(pk - math.log10(abs(v)) if 0.0 < abs(v) < math.inf else dps,
                             pk - math.log10(5e-312))
                         for (pk, _), v in zip(parts, signed))

    # the first budget is rounded up to a multiple of 10 digits, so that the
    # starts on one barrier share it, and with it the barrier's C~ and sums
    # (a float64 route that is not finite, as where C~ is past its range, gives
    # no measure and starts at the cap, as _first_budget does)
    lost = max(pk - _log10_or_zero(tot) for pk, tot in parts)
    first = 25 + max(0, math.ceil(lost)) if math.isfinite(lost) else _MAX_DPS
    vals, digits = _escalated(run, min(_MAX_DPS, -(-first // 10) * 10), 16,
                              f"z_down at w={w}, p={p}, x={x}, b={b}")
    return (min(max(0.0, vals[0]), 1.0),) + vals[1:], (
        ("interval_count", k0), ("float_error_estimate", 10.0 ** (lpk + 4 - digits)),
        ("escalated_digits", digits))


# ---------------------------------------------------------------------------
# Reciprocal scale function: coefficient tables and the two-sided up part
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KCoefficients:
    """Coefficients of the reciprocal scale function on one interval.

    On ``x`` in ``(b p^{-k}, b p^{-(k+1)}]`` the reciprocal ``K = 1/l_up_from_b``
    is ``sum_{n=0}^{k} a_{n,k} e^{gamma p^n x}``; each term is stored in signed
    log space at the interval's left end ``anchor = b p^{-k}``, ``signs[n] *
    exp(logmags[n]) = a_{n,k} e^{gamma p^n anchor}``.  ``_lost[n]`` is the
    log of the factor by which the recursion's cancellation amplified the
    rounding of ``a_{n,k}`` (see :func:`_k_tables`).
    """

    k: int
    signs: Tuple[int, ...]
    logmags: Tuple[float, ...]
    anchor: float
    _lost: Tuple[float, ...] = field(default=(), repr=False)

    def eval_log(self, gamma: float, p: float, x: float) -> float:
        """``log K(x)`` via signed log-sum-exp; K >= 1 on its interval."""
        logs = [L + gamma * p ** n * (x - self.anchor) for n, L in enumerate(self.logmags)]
        sign, log_k = _signed_logsumexp(self.signs, logs)
        if sign <= 0:
            raise ConvergenceError(
                f"reciprocal scale function lost positivity at x={x} (interval {self.k})")
        return log_k


@lru_cache(maxsize=4096)
def _k_tables(w: float, p: float, b: float, kmax: int) -> KCoefficients:
    """Interval table ``kmax`` for barrier ``b``, by the exact recursion over
    intervals 0..kmax (memoized per interval: an entry holds that
    interval's table only, not the tables below it).

    Anchored at ``x_k = b p^{-k}``, coefficient ``m >= 1`` of interval
    ``k``, ``a_{m-1,k-1} / (g (1 - p^m))``, takes no exponent (``g p^m x_k
    = g p^{m-1} x_{k-1}``), and the head is continuity at ``x_k``: interval
    ``k - 1``'s terms there less the others of interval ``k``, in one
    signed log-sum.  Coefficient ``n`` is the head of interval ``k - n``
    times exact factors, so it carries that head's loss.  A head loses its
    largest term over ``|head|``, or, term ``n`` below paired with
    coefficient ``n + 1``, an ``a_n``'s own loss times the pair's net over
    ``|head|`` if more (a running error estimate with maxima for sums,
    Higham, *Accuracy and Stability*, ch. 4).
    """
    g = w + 1.0
    tab = KCoefficients(0, (1,), (0.0,), b, (0.0,))
    for k in range(1, kmax + 1):
        prev, xk = tab, b * p ** (-k)
        ups = [L + g * p ** n * (xk - prev.anchor) for n, L in enumerate(prev.logmags)]
        downs = [L - math.log(g) - math.log1p(-p ** m) for m, L in enumerate(prev.logmags, 1)]
        sign, head = _signed_logsumexp(prev.signs + tuple(-s for s in prev.signs), ups + downs)
        if sign == 0:
            raise ConvergenceError(
                f"reciprocal scale function recursion cancelled out at interval {k}")
        peak = -math.inf  # log of the head's largest term or carried error
        for up, down, lost in zip(ups, downs, prev._lost):
            top = up if up > down else down
            carried = lost + top
            if carried > peak and up != down:
                carried += math.log(-math.expm1(-abs(up - down)))
            peak = max(peak, top, carried)
        tab = KCoefficients(k, (sign,) + prev.signs, (head,) + tuple(downs), xk,
                            (max(0.0, peak - head),) + prev._lost)
    return tab


def interval_index(x: float, b: float, p: float) -> int:
    """Index k with ``x`` in ``(b p^{-k}, b p^{-(k+1)}]`` (ties to the lower interval)."""
    _require(x >= b > 0.0, f"need x >= b > 0, got x={x}, b={b}")
    if x == b:
        return 0
    k = max(0, int(math.floor(math.log(x / b) / math.log(1.0 / p))))
    while x > b * p ** (-(k + 1)) and not math.isclose(x, b * p ** (-(k + 1)), rel_tol=4e-16):
        k += 1
    while k > 0 and (x <= b * p ** (-k) or math.isclose(x, b * p ** (-k), rel_tol=4e-16)):
        k -= 1
    return k


def k_up_coeffs(w: float, p: float, b: float, k: int) -> KCoefficients:
    """Coefficient table of the reciprocal scale function on interval ``k``."""
    _require(b > 0.0, f"k_up_coeffs needs b > 0, got {b}")
    _require(k >= 0, f"interval index must be >= 0, got {k}")
    return _k_tables(w, p, b, k)


# eval-time digits of cancellation beyond which the float64 tables are no
# longer trusted (high p: many slowly-growing intervals, near-cancelling sums)
_K_EVAL_LOST_OK = 3.0


class _MpTable(tuple):
    """The coefficients of an arbitrary-precision interval table, with
    ``lost`` as ``KCoefficients._lost``."""


# an entry holds k + 1 coefficients: 150 intervals deep at 165 digits some
# 40 KB; the workloads build none, a barrier sweep one per barrier
@lru_cache(maxsize=256)
def _k_tables_mp(w: float, p: float, b: float, kmax: int, dps: int) -> _MpTable:
    """The interval coefficient recursion re-run in arbitrary precision: the
    coefficients of interval ``kmax``, with their losses measured as
    :func:`_k_tables` measures them (from binary exponents, to a bit).

    With ``E_m = e^{g b p^{-m}}`` the head of interval ``k`` is
    ``(sum_n a_n E_{k-n} - sum_n a'_{n+1} E_{k-1-n}) / E_k``, ``a`` the
    coefficients of interval ``k - 1`` and ``a'`` those of ``k``: the
    recursion takes ``kmax + 1`` exponentials in all.
    """
    with mp.workdps(dps):
        w_, p_, b_ = map(mp.mpf, (w, p, b))
        g = w_ + 1
        pw = [p_ ** n for n in range(kmax + 1)]
        e = [mp.exp(g * b_ / v) for v in pw]
        ratio = [1 / (g * (1 - v)) for v in pw[1:]]
        tab, lost = (1 / e[0],), (0.0,)
        for k in range(1, kmax + 1):
            prev = tab
            coeffs = tuple(a * r for a, r in zip(prev, ratio))  # all but the head
            ups = [a * e[k - n] for n, a in enumerate(prev)]
            downs = [c * e[k - 1 - n] for n, c in enumerate(coeffs)]
            head = mp.fsum(ups) - mp.fsum(downs)
            peak = max(max(mp.mag(u), mp.mag(d), carried / _LN2 + mp.mag(u - d))
                       for u, d, carried in zip(ups, downs, lost))
            tab = (head / e[k],) + coeffs
            lost = (max(0.0, (peak - mp.mag(head)) * _LN2),) + lost
    out = _MpTable(tab)
    out.lost = lost
    return out


def _log_k_mp(w: float, p: float, b: float, x: float, k: int, dps: int,
              slope: bool = False) -> Tuple[Optional[Tuple[float, ...]], float]:
    """``(log K(x),)``, or with ``slope`` ``(log K(x), log K'(x))``, from the
    arbitrary-precision table of interval ``k``, and the digits lost
    (as :func:`_log_sum_loss` counts them); None and the whole budget while
    a sum is <= 0.  The logs are ``mpf`` at ``dps`` digits, not rounded to
    float64, so that ``log K' - log K`` rounds only once."""
    tab = _k_tables_mp(w, p, b, k, dps)
    with mp.workdps(dps):
        g = mp.mpf(w) + 1
        p_, x_ = mp.mpf(p), mp.mpf(x)
        rates = [g * p_ ** n for n in range(k + 1)]
        rows = [[a * mp.exp(r * x_) for a, r in zip(tab, rates)]]
        if slope:
            rows.append([r * t for r, t in zip(rates, rows[0])])
        sums = [mp.fsum(row) for row in rows]
        if any(v <= 0 for v in sums):
            return None, float(dps)
        log_sums = tuple(mp.log(v) for v in sums)
        peaks = [max(float(mp.log(abs(t))) + carried if t else -math.inf
                     for t, carried in zip(row, tab.lost)) for row in rows]
    return log_sums, max(map(sub, peaks, map(float, log_sums))) / _LN10


@lru_cache(maxsize=4096)
def _log_k_from_b(w: float, p: float, b: float, x: float) -> float:
    """``log K(x)``, escalating to arbitrary precision on deep cancellation.

    Memoized on the exact arguments: ``l_up`` divides by ``K(a)`` at the
    same top ``a`` for every start."""
    return _log_k_sums(w, p, b, x, interval_index(x, b, p), slope=False)[0]


def _k_log_slope(w: float, p: float, b: float, x: float) -> float:
    """Exact right slope ``K'(x)/K(x)`` of ``log K`` for barrier ``b``.

    ``K' = sum_n a_n gamma p^n e^{gamma p^n x}`` on the interval's own
    table.  On a breakpoint ``b p^{-(k+1)}`` (where :func:`interval_index`
    ties to the lower interval) the next interval's table is used: ``K`` is
    continuous there, and its right slope belongs to the interval on the
    right.
    """
    k = interval_index(x, b, p)
    if math.isclose(x, b * p ** (-(k + 1)), rel_tol=4e-16):
        k += 1
    return math.exp(_log_k_sums(w, p, b, x, k, slope=True)[1])


def _log_k_sums(w: float, p: float, b: float, x: float, k: int,
                slope: bool) -> Tuple[float, ...]:
    """``(log K(x),)``, or with ``slope`` ``(log K(x), log(K'(x)/K(x)))``, on
    interval ``k``.

    The float64 signed-log evaluation reports how many digits each final
    summation lost, the recursion's cancellation included
    (:func:`_log_sum_loss`); past ``_K_EVAL_LOST_OK`` digits on either sum
    the table is rebuilt in arbitrary precision, first at a budget sized
    from that loss, and kept once its own loss leaves 16 digits.  Both sums
    are taken relative to the largest term, so that the slope's ratio is
    formed before its logs round; each term's exponent still rounds by eps
    times its size, some ``g x``, which a slope counts as lost digits on
    either route.
    """
    spread = math.log10((w + 1.0) * x) if slope else -math.inf
    try:
        tab = _k_tables(w, p, b, k)
        g = w + 1.0
        logs = [L + g * p ** n * (x - tab.anchor) for n, L in enumerate(tab.logmags)]
        top = max(logs)
        rel = [L - top for L in logs]
        log_k, lost = _log_sum_loss(tab.signs, rel, tab._lost)
        if slope:
            log_g, log_p = math.log(g), math.log(p)
            log_dk, dlost = _log_sum_loss(
                tab.signs, [L + log_g + n * log_p for n, L in enumerate(rel)], tab._lost)
            lost = max(lost, dlost, spread)
            if log_k is not None and log_dk is not None and lost <= _K_EVAL_LOST_OK:
                return top + log_k, log_dk - log_k
        elif log_k is not None and lost <= _K_EVAL_LOST_OK:
            return (top + log_k,)
    except ConvergenceError:
        lost = 12.0  # the recursion itself cancelled out; size the budget blind

    def run(dps):
        logs, lost = _log_k_mp(w, p, b, x, k, dps, slope)
        return logs, max(lost, spread)
    logs = _escalated(run, _first_budget(lost), 16,
                      f"reciprocal scale function at w={w}, p={p}, b={b}, x={x}")[0]
    return (float(logs[0]),) + tuple(float(L - logs[0]) for L in logs[1:])


def _log_sum_loss(signs, logs, lost) -> Tuple[Optional[float], float]:
    """``log`` of a signed sum of ``exp(logs)`` (None unless positive) and the
    decimal digits it lost: its largest term, times the loss that term's
    coefficient carries from the recursion (``lost``), over the sum; a head
    thus counts by its share of ``K``.

    A sum that came out non-positive gets its peak as the loss: ``K >= 1``
    makes that a bound for ``log K``, and for ``log K'`` it sizes the first
    arbitrary-precision budget, which the escalation then checks.
    """
    peak = max(map(add, logs, lost))
    sign, log_sum = _signed_logsumexp(signs, logs)
    if sign > 0:
        return log_sum, (peak - log_sum) / _LN10
    return None, peak / _LN10


def l_up_from_b(w: float, p: float, b: float, x: float) -> float:
    """``E[e^{-w tau}; up-exit]`` from start ``b`` for the exit from ``(b, x)``."""
    return math.exp(-_log_k_from_b(w, p, b, x))


def l_up(w: float, p: float, x: float, a: float, b: float) -> float:
    """Up-exit part of the two-sided exit from ``(b, a)`` started at ``x``.

    Returns 0 for ``x < b`` (the start already lies at or below the exit
    region, a convention used by the reflected-process evaluators) and 1
    for ``x >= a``.  The ratio ``K(x)/K(a)`` is capped at 1: where the
    down-exit is negligible the two logarithms agree to their rounding,
    which may put the quotient a few ulps above certainty.
    """
    if x < b:
        return 0.0
    if x >= a:
        return 1.0
    return min(1.0, math.exp(_log_k_ratio(w, p, b, x, a)))


@lru_cache(maxsize=4096)
def _log_k_ratio(w: float, p: float, b: float, x: float, a: float) -> float:
    """``log(K(x)/K(a))``, memoized on the exact arguments: ``l_down`` and
    the reflected kinds ask each start's ``l_up`` again.

    Where ``x`` and ``a`` share interval ``k``, the ratio comes from that
    interval's float64 table as one ratio of sums: each term is taken
    relative to ``K(a)``'s largest before ``g p^n (x - a)`` is added, so
    that the ratio is formed before either logarithm rounds, as the hazard
    forms ``K'/K`` (at large levels ``log K`` rounds by eps times itself,
    far more than the ratio).  Elsewhere, or past ``_K_EVAL_LOST_OK``
    digits lost (as :func:`_log_sum_loss` counts them), it is the
    difference of the two ``log K``, with their escalation, ``K(a)`` from
    its memo.
    """
    k = interval_index(x, b, p)
    right = b * p ** (-(k + 1))
    # a > x lies on x's interval, as interval_index ties a breakpoint
    if a <= right or math.isclose(a, right, rel_tol=4e-16):
        try:
            tab = _k_tables(w, p, b, k)
        except ConvergenceError:  # the recursion cancelled out: escalate below
            pass
        else:
            rates = [(w + 1.0) * p ** n for n in range(k + 1)]
            logs = [L + r * (a - tab.anchor) for L, r in zip(tab.logmags, rates)]
            top = max(logs)
            rel = [L - top for L in logs]
            log_ka, lost_a = _log_sum_loss(tab.signs, rel, tab._lost)
            log_kx, lost_x = _log_sum_loss(
                tab.signs, [L + r * (x - a) for L, r in zip(rel, rates)], tab._lost)
            if log_ka is not None and log_kx is not None \
                    and max(lost_a, lost_x) <= _K_EVAL_LOST_OK:
                return log_kx - log_ka
    return _log_k_sums(w, p, b, x, k, slope=False)[0] - _log_k_from_b(w, p, b, a)


# threshold below which the up-weighted remote term of l_down is dropped
_L_UP_NEGLIGIBLE = 1e-18


def l_down(w: float, p: float, x: float, a: float, b: float) -> float:
    """Down-exit part of the two-sided exit from ``(b, a)`` started at ``x``.

    Evaluates ``z_down(w; x, b) - l_up(w; x, a, b) z_down(w; a, b)``.  At
    ``x == b`` that is the right limit, as ``z_down`` takes it (the crossing
    needs a jump, so the transform is right-continuous there).  When the up-exit
    weight is negligible relative to the leading term, the second term is
    dropped without evaluating the (possibly extremely ill-conditioned)
    transform at the remote level ``a``.
    """
    _require(b <= x <= a, f"l_down needs b <= x <= a, got x={x}, a={a}, b={b}")
    if x == a:
        return 0.0
    zd_x = z_down(w, p, x, b)
    lu = l_up(w, p, x, a, b)
    if lu <= _L_UP_NEGLIGIBLE * zd_x:
        return zd_x
    val = zd_x - lu * z_down(w, p, a, b)
    if val < -1e-9:
        raise ConvergenceError(
            f"two-sided down part came out significantly negative ({val}) at "
            f"w={w}, p={p}, x={x}, a={a}, b={b}")
    return max(val, 0.0)
