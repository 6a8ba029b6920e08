"""Scale functions and one-/two-sided exit transforms of the unit-slope AIMD process.

Notation used throughout (all levels positive unless stated otherwise):

* ``z_up(w; x, a)``   — LST of the upward passage time from ``x`` over ``a``
  (no lower barrier; the process creeps over upper levels).
* ``z_down(w; x, b)`` — LST of the downward passage time from ``x`` below
  ``b`` (no upper barrier; downward crossings happen only by jumps).
* ``l_up(w; x, a, b)``   — joint transform ``E[e^{-w tau} ; up-exit first]``
  for the two-sided exit from ``(b, a)``.
* ``l_down(w; x, a, b)`` — the matching down-exit part.

``gamma = w + lam`` everywhere.  The ``l_up`` evaluator is built on interval
coefficient tables for the reciprocal scale function ``K`` (``l_up_from_b =
1/K``), kept in signed log space so that deep intervals neither overflow nor
lose their sign pattern.  ``z_down`` combines a geometric closed form with
two finite exponential sums whose coefficients involve alternating
q-products; those products are likewise accumulated in signed log space,
and the final signed summation escalates to arbitrary precision when the
float64 cancellation estimate exceeds its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, Optional, Tuple

import mpmath as mp

from .model import ConvergenceError, ValidationError, _require

__all__ = [
    "SignedLogProduct",
    "KCoefficients",
    "z_up_zero",
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

# a convergent series is cut once its term falls below _REL_TOL times the
# running sum; _MAX_TERMS bounds every summation loop
_REL_TOL = 1e-14
_MAX_TERMS = 10_000
# digit cap of every arbitrary-precision escalation
_MAX_DPS = 400


# ---------------------------------------------------------------------------
# signed log-space arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedLogProduct:
    """A real number stored as ``sign * exp(log_magnitude)``.

    Exact in sign, accurate in magnitude to floating rounding; the zero
    element is ``sign == 0`` with ``log_magnitude == -inf``.  Used for the
    alternating q-products ``prod (1 - p^{-i})`` and ``prod (p^i - p^j)``
    whose magnitudes overflow float64 long before the final expressions do.
    """

    sign: int
    log_magnitude: float

    ZERO: ClassVar["SignedLogProduct"]  # bound after class definition
    ONE: ClassVar["SignedLogProduct"]

    @staticmethod
    def from_float(value: float) -> "SignedLogProduct":
        if value == 0.0:
            return SignedLogProduct.ZERO
        return SignedLogProduct(1 if value > 0 else -1, math.log(abs(value)))

    def times(self, other: "SignedLogProduct") -> "SignedLogProduct":
        if self.sign == 0 or other.sign == 0:
            return SignedLogProduct.ZERO
        return SignedLogProduct(self.sign * other.sign,
                                self.log_magnitude + other.log_magnitude)

    def times_float(self, value: float) -> "SignedLogProduct":
        return self.times(SignedLogProduct.from_float(value))

    def plus(self, other: "SignedLogProduct") -> "SignedLogProduct":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.log_magnitude >= other.log_magnitude else (other, self)
        diff = lo.log_magnitude - hi.log_magnitude  # <= 0
        if self.sign == other.sign:
            return SignedLogProduct(hi.sign, hi.log_magnitude + math.log1p(math.exp(diff)))
        rem = -math.expm1(diff)  # 1 - e^{diff} in [0, 1)
        if rem == 0.0:
            return SignedLogProduct.ZERO
        return SignedLogProduct(hi.sign, hi.log_magnitude + math.log(rem))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > _LOG_HUGE:
            raise OverflowError(f"signed-log value exp({self.log_magnitude:.3g}) exceeds float64")
        return self.sign * math.exp(self.log_magnitude)


SignedLogProduct.ZERO = SignedLogProduct(0, float("-inf"))
SignedLogProduct.ONE = SignedLogProduct(1, 0.0)


def _signed_logsumexp(signs, logmags) -> SignedLogProduct:
    """Sum of ``sign_i * exp(logmag_i)`` as a SignedLogProduct.

    Callers that need the cancellation compare the result's log magnitude
    with the largest ``logmag_i`` themselves (:func:`_log_sum_loss`).
    """
    m = max(logmags, default=float("-inf"))
    if m == float("-inf"):
        return SignedLogProduct.ZERO
    acc = 0.0
    for s, L in zip(signs, logmags):
        if s != 0:
            acc += s * math.exp(L - m)
    if acc == 0.0:
        return SignedLogProduct.ZERO
    return SignedLogProduct(1 if acc > 0 else -1, m + math.log(abs(acc)))


# ---------------------------------------------------------------------------
# Upward one-sided exit: the ascent-denominator series
# ---------------------------------------------------------------------------


def _log_up_denominator(w: float, lam: float, p: float, x: float, *,
                        diagnostics: Optional[dict] = None) -> float:
    """``log(1 + w * sum_{n>=1} x^n/n! * prod_{i=1}^{n-1}(w + lam - lam p^i))``.

    All series terms are nonnegative (each product factor is ``>= w``), so
    the sum is monotone; it is accumulated with a rescaling guard so that
    arguments with ``(w + lam) x`` in the thousands stay finite.
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
        term *= x * (w + lam - lam * p ** (n - 1)) / n if n > 1 else x
        total += term
        if term <= _REL_TOL * total and n > 4 and x * (w + lam) < n:
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
        f"(w={w}, lam={lam}, p={p}, x={x})",
        partial=log_scale + math.log1p(total))


def z_up_zero(w: float, lam: float, p: float, x: float, *,
              diagnostics: Optional[dict] = None) -> float:
    """LST of the passage time from level 0 up over ``x`` (x >= 0)."""
    return math.exp(-_log_up_denominator(w, lam, p, x, diagnostics=diagnostics))


def z_up(w: float, lam: float, p: float, x: float, a: float, *,
         diagnostics: Optional[dict] = None) -> float:
    """LST of the passage time from ``x`` up over ``a`` (0 <= x <= a).

    Ratio of the two level-0 denominators, evaluated as a difference of
    their logarithms so that large arguments cannot overflow.
    """
    _require(0.0 <= x <= a, f"z_up needs 0 <= x <= a, got x={x}, a={a}")
    if x == a:
        return 1.0
    return math.exp(_log_up_denominator(w, lam, p, x, diagnostics=diagnostics)
                    - _log_up_denominator(w, lam, p, a, diagnostics=diagnostics))


# ---------------------------------------------------------------------------
# Downward one-sided exit: companion constant and signed series
# ---------------------------------------------------------------------------


def c_tilde(w: float, lam: float, p: float, b: float) -> float:
    """The downward-exit series constant ``C~(w; b)``.

    Defined as ``A/B - 1`` with ``A = sum_l t_l`` and ``B = sum_l t_l p^{-l}``
    where ``t_l = e^{-b gamma p^{-l}} (lam/gamma)^l / prod_{i<=l}(1 - p^{-i})``.
    Evaluated in the algebraically equivalent cancellation-free form
    ``(A - B)/B``, whose numerator sums ``t_l (1 - p^{-l})`` term by term;
    both series decay super-geometrically thanks to the ``e^{-b gamma p^{-l}}``
    factor, and the alternating q-products are kept in signed log space.
    """
    _require(b > 0.0, f"c_tilde needs b > 0, got {b}")
    _require(w > 0.0, f"c_tilde needs w > 0, got {w}")
    g = w + lam
    if lam == 0.0:
        return 0.0
    log_rate = math.log(lam / g)
    log_p_inv = -math.log(p)
    num = SignedLogProduct.ZERO  # sum_{l>=1} t_l * (1 - p^{-l})
    den = SignedLogProduct.ZERO  # sum_{l>=0} t_l * p^{-l}
    prod = SignedLogProduct.ONE  # prod_{i=1}^{l}(1 - p^{-i})
    prev_prod = SignedLogProduct.ONE  # prod_{i=1}^{l-1}
    peak_num = peak_den = float("-inf")
    for l in range(_MAX_TERMS):
        if l > 0:
            prev_prod = prod
            prod = prod.times_float(1.0 - p ** (-l))
        base_log = -b * g * p ** (-l) + l * log_rate
        den_term = SignedLogProduct(prod.sign, base_log + l * log_p_inv - prod.log_magnitude)
        peak_den = max(peak_den, den_term.log_magnitude)
        den = den.plus(den_term)
        if l > 0:
            num_term = SignedLogProduct(prev_prod.sign, base_log - prev_prod.log_magnitude)
            peak_num = max(peak_num, num_term.log_magnitude)
            num = num.plus(num_term)
            if (num_term.log_magnitude < num.log_magnitude + math.log(_REL_TOL)
                    and den_term.log_magnitude < den.log_magnitude + math.log(_REL_TOL)
                    and l >= 4):
                break
    else:
        raise ConvergenceError(f"c_tilde series not converged after {_MAX_TERMS} terms")
    # the q-product denominators shrink as p -> 1, making the terms of both
    # sums huge and alternating while the sums stay moderate: measure the
    # cancellation and fall back to arbitrary precision when float64 thins out
    if num.sign == 0 or den.sign == 0:
        lost = 12.0  # cancelled to exactly zero; size the budget blind
    else:
        lost = max(peak_num - num.log_magnitude,
                   peak_den - den.log_magnitude) / math.log(10.0)
    if lost > _K_EVAL_LOST_OK:
        return _c_tilde_escalated(w, lam, p, b, lost)
    if num.sign == 0:
        return 0.0
    ratio = num.times(SignedLogProduct(den.sign, -den.log_magnitude))
    return ratio.to_float()


@lru_cache(maxsize=4096)
def _c_tilde_escalated(w, lam, p, b, lost: float) -> float:
    """Arbitrary-precision rescue of :func:`c_tilde`, digits sized to the loss."""
    def at(digits):
        with mp.workdps(digits):
            return (float(_c_tilde_mp(w, lam, p, b)),)
    return _settled_mp(at, lost, "downward-series constant",
                       f"w={w}, lam={lam}, p={p}, b={b}")[0]


def _settled_mp(at: Callable[[int], Optional[Tuple[float, ...]]], lost: float,
                what: str, where: str) -> Tuple[float, ...]:
    """``at(digits)`` at a digit budget sized to ``lost`` decimal digits of
    cancellation, raised until two successive budgets agree to 1e-12 on
    every value; ``at`` returns None while its result is still noise."""
    digits = 30 + int(math.ceil(2.5 * lost))
    prev = None
    while digits <= _MAX_DPS:
        cur = at(digits)
        if cur is not None and prev is not None and all(
                abs(c - q) <= 1e-12 * max(1.0, abs(c)) for c, q in zip(cur, prev)):
            return cur
        prev = cur
        digits = int(digits * 1.5) + 10
    raise ConvergenceError(f"{what} cancellation exceeds {_MAX_DPS} digits at {where}")


def _c_tilde_mp(w, lam, p, b):
    """Arbitrary-precision twin of :func:`c_tilde` (same cancellation-free form),
    at the working precision of the caller."""
    w, lam, p, b = map(mp.mpf, (w, lam, p, b))
    g = w + lam
    if lam == 0:
        return mp.mpf(0)
    num = mp.mpf(0)
    den = mp.mpf(0)
    prod = mp.mpf(1)
    prev = mp.mpf(1)
    tol = mp.mpf(10) ** (-(mp.mp.dps + 5))
    for l in range(2000):
        if l > 0:
            prev = prod
            prod *= (1 - p ** (-l))
        t_base = mp.e ** (-b * g * p ** (-l)) * (lam / g) ** l
        den_term = t_base * p ** (-l) / prod
        den += den_term
        if l > 0:
            num_term = t_base / prev
            num += num_term
            if abs(num_term) < tol * abs(num) and abs(den_term) < tol * abs(den) and l >= 4:
                break
    return num / den


def _down_interval_count(x: float, b: float, p: float) -> int:
    """Number of k >= 0 with ``b p^{-k} < x`` (equals min{k >= 1 : x <= b p^{-k}})."""
    if x <= b:
        return 0
    k = int(math.floor(math.log(x / b) / math.log(1.0 / p))) + 1
    # float-robust adjustment around breakpoints
    while k > 0 and not b * p ** (-(k - 1)) < x:
        k -= 1
    while b * p ** (-k) < x:
        k += 1
    return k


def _z_down_terms_float(w, lam, p, x, b, ct):
    """Signed float64 terms of the downward transform, their rates and the peak.

    Every term is a constant times ``e^{rate * x}``, so the slope in ``x`` is
    ``sum(term * rate)``; the constant head term has rate 0.
    """
    g = w + lam
    k0 = _down_interval_count(x, b, p)
    terms = [(lam / g) ** k0]
    rates = [0.0]
    peak = abs(terms[0])
    log_lam = math.log(lam) if lam > 0.0 else float("-inf")
    # w may be subnormal, where the quotient w/g underflows before its log
    log_w_over_g = math.log(w) - math.log(g)
    for k in range(1, k0):
        # -(w/g) (-lam)^k p^{k(k-1)/2} sum_i e^{g p^i (x - b p^{-k})}
        #                                    / (g^k p^i prod_{j != i}(p^i - p^j))
        shift = x - b * p ** (-k)
        base = SignedLogProduct((-1) ** (k + 1),  # -(w/g)(-lam)^k sign
                                log_w_over_g + k * log_lam
                                + (k * (k - 1) // 2) * math.log(p) - k * math.log(g))
        for i in range(k):
            denom = SignedLogProduct(1, i * math.log(p))
            for j in range(k):
                if j != i:
                    denom = denom.times_float(p ** i - p ** j)
            rate = g * p ** i
            t = base.times(SignedLogProduct(denom.sign,
                                            rate * shift - denom.log_magnitude))
            val = t.to_float()
            terms.append(val)
            rates.append(rate)
            peak = max(peak, abs(val))
    if ct != 0.0:
        log_ct = math.log(abs(ct))
        sign_ct = 1 if ct > 0 else -1
        for k in range(k0):
            # +(w/g) C~ (-1)^{k+1} (lam/p)^k p^{k(k+1)/2} ... (the p/lam of the
            # prefactor and one lam/p power cancel; organized lam-safely)
            shift = x - b * p ** (-k)
            base = SignedLogProduct(sign_ct * (-1) ** (k + 1),
                                    log_w_over_g + log_ct
                                    + k * (log_lam - math.log(p))
                                    + (k * (k + 1) // 2) * math.log(p) - k * math.log(g))
            for i in range(k + 1):
                denom = SignedLogProduct.ONE
                for j in range(k + 1):
                    if j != i:
                        denom = denom.times_float(p ** i - p ** j)
                rate = g * p ** i
                t = base.times(SignedLogProduct(denom.sign,
                                                rate * shift - denom.log_magnitude))
                val = t.to_float()
                terms.append(val)
                rates.append(rate)
                peak = max(peak, abs(val))
    return terms, rates, peak


def _z_down_mp(w, lam, p, x, b, dps: int, slope: bool = False) -> Tuple[float, ...]:
    """Arbitrary-precision downward transform: ``(value,)``, or with ``slope``
    ``(value, d/dx value)`` from the same pass over the terms."""
    with mp.workdps(dps):
        ct = _c_tilde_mp(w, lam, p, b)
        w_, lam_, p_, x_, b_ = map(mp.mpf, (w, lam, p, x, b))
        g = w_ + lam_
        k0 = _down_interval_count(x, b, p)
        tot = (lam_ / g) ** k0
        dtot = mp.mpf(0)

        def sums(k, n, denom0):
            """``sum_i e^{g p^i shift} / denom_i`` over ``i < n``, and its slope."""
            shift = x_ - b_ * p_ ** (-k)
            s = ds = mp.mpf(0)
            for i in range(n):
                denom = denom0(i)
                for j in range(n):
                    if j != i:
                        denom *= (p_ ** i - p_ ** j)
                e = mp.e ** (g * p_ ** i * shift)
                s += e / denom
                if slope:
                    ds += g * p_ ** i * e / denom
            return s, ds

        for k in range(1, k0):
            s, ds = sums(k, k, lambda i: g ** k * p_ ** i)
            pre = (w_ / g) * (-lam_) ** k * p_ ** (k * (k - 1) // 2)
            tot -= pre * s
            if slope:
                dtot -= pre * ds
        for k in range(k0):
            s, ds = sums(k, k + 1, lambda i: g ** k)
            pre = (w_ / g) * ct * (-1) ** (k + 1) * (lam_ / p_) ** k \
                * p_ ** (k * (k + 1) // 2)
            tot += pre * s
            if slope:
                dtot += pre * ds
        return (float(tot), float(dtot)) if slope else (float(tot),)


def z_down(w: float, lam: float, p: float, x: float, b: float, *,
           diagnostics: Optional[dict] = None) -> float:
    """LST of the passage time from ``x`` to a level ``<= b`` (jump crossing).

    ``w == 0`` returns 1 exactly (the crossing is a.s. finite; the series
    representation degenerates there).  The signed exponential sums are
    evaluated in float64 with a cancellation estimate; when the estimated
    error exceeds the tolerance the whole expression is re-summed in
    arbitrary precision with a digit budget matched to the peak term.
    """
    _require(b > 0.0, f"z_down needs b > 0, got b={b}")
    _require(x > b, f"z_down needs x > b, got x={x}, b={b}")
    if w == 0.0:
        return 1.0
    return _z_down_eval(w, lam, p, x, b, diagnostics, slope=False)[0]


def z_down_slope(w: float, lam: float, p: float, x: float, b: float) -> Tuple[float, float]:
    """``z_down(w; x, b)`` and its exact slope in ``x``, from one pass over the terms.

    The slope differentiates the same exponential sums on the same interval
    (breakpoints ``b p^{-k}`` tie to the lower interval, as the value does)
    and must meet the float64 cancellation check alongside the value: the
    slope scale is ``w + lam``, since ``|d/dx z_down| <= lam``.
    """
    _require(b > 0.0, f"z_down needs b > 0, got b={b}")
    _require(x > b, f"z_down needs x > b, got x={x}, b={b}")
    if w == 0.0:
        return 1.0, 0.0
    return _z_down_eval(w, lam, p, x, b, None, slope=True)


def _z_down_eval(w, lam, p, x, b, diagnostics, slope: bool) -> Tuple[float, ...]:
    """``(value,)`` or ``(value, slope)`` of the downward transform, with escalation."""
    ct = c_tilde(w, lam, p, b)
    terms, rates, peak = _z_down_terms_float(w, lam, p, x, b, ct)
    total = math.fsum(terms)
    err_est = 8.0 * 2.2e-16 * peak
    tol = max(1e-15, 1e-13 * abs(total))
    ok = err_est <= tol and total > 0.0
    # (peak, float sum) per returned quantity; the slope carries its own check
    parts = [(peak, total)]
    if slope:
        dterms = [t * r for t, r in zip(terms, rates)]
        dpeak = max(abs(t) for t in dterms)
        dtotal = math.fsum(dterms)
        ok = ok and 8.0 * 2.2e-16 * dpeak <= max(1e-15 * (w + lam), 1e-13 * abs(dtotal))
        parts.append((dpeak, dtotal))
    if diagnostics is not None:
        diagnostics.update(interval_count=_down_interval_count(x, b, p),
                           float_error_estimate=err_est, escalated_digits=0)
    if ok:
        return (min(total, 1.0), dtotal) if slope else (min(total, 1.0),)
    # Escalate to arbitrary precision.  The needed digit count is
    # log10(peak / |value|) plus working margin, but the true value's
    # magnitude is only learned from the evaluation itself (the float total
    # may be pure cancellation noise), so iterate: evaluate, bound the
    # summation noise by peak * 10^(4 - digits), and re-raise the budget
    # until the bound is beaten or the hard cap trips.
    def log10_or_zero(v):
        return math.log10(abs(v)) if v != 0.0 else 0.0

    digits = min(_MAX_DPS, max(
        25 + max(0, int(math.ceil(log10_or_zero(pk) - log10_or_zero(tot))))
        for pk, tot in parts))
    for _ in range(8):
        vals = _z_down_mp(w, lam, p, x, b, digits, slope)
        need = digits
        for (pk, _), val in zip(parts, vals):
            noise = pk * 10.0 ** (4 - digits)
            if noise <= max(1e-300, 1e-12 * abs(val)):
                continue
            if abs(val) <= 1e-60 and noise <= 1e-60:
                continue  # genuinely negligible value; sign noise is irrelevant
            need = max(need, 25 + int(math.ceil(
                log10_or_zero(pk) - math.log10(max(abs(val), noise / 10.0)))),
                int(digits * 1.6) + 10)
        if need == digits:
            break
        if digits >= _MAX_DPS:
            raise ConvergenceError(
                f"z_down cancellation exceeds {_MAX_DPS} digits "
                f"at w={w}, lam={lam}, p={p}, x={x}, b={b}", partial=vals[0])
        digits = min(_MAX_DPS, need)
    if diagnostics is not None:
        diagnostics["escalated_digits"] = digits
    return (min(max(vals[0], 0.0), 1.0),) + vals[1:]


# ---------------------------------------------------------------------------
# Reciprocal scale function: coefficient tables and the two-sided up part
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KCoefficients:
    """Coefficients of the reciprocal scale function on one interval.

    On ``x`` in ``(b p^{-k}, b p^{-(k+1)}]`` the reciprocal ``K = 1/l_up_from_b``
    is ``sum_{n=0}^{k} a_{n,k} e^{gamma p^n x}``; the ``a_{n,k}`` are stored in
    signed log space (``signs[n] * exp(logmags[n])``).
    """

    k: int
    signs: Tuple[int, ...]
    logmags: Tuple[float, ...]

    def eval_log(self, gamma: float, p: float, x: float) -> float:
        """``log K(x)`` via signed log-sum-exp; K >= 1 on its interval."""
        logs = [L + gamma * p ** n * x for n, L in enumerate(self.logmags)]
        out = _signed_logsumexp(self.signs, logs)
        if out.sign <= 0:
            raise ConvergenceError(
                f"reciprocal scale function lost positivity at x={x} (interval {self.k})")
        return out.log_magnitude


@lru_cache(maxsize=100_000)
def _k_tables(w: float, lam: float, p: float, b: float, kmax: int) -> Tuple[KCoefficients, ...]:
    """Interval tables 0..kmax for barrier ``b`` (cached; exact recursion)."""
    g = w + lam
    tabs = [KCoefficients(0, (1,), (-g * b,))]
    log_lam = math.log(lam) if lam > 0.0 else float("-inf")
    for k in range(1, kmax + 1):
        prev = tabs[k - 1]
        signs = [0] * (k + 1)
        logmags = [float("-inf")] * (k + 1)
        for m in range(1, k + 1):
            if prev.signs[m - 1] == 0:
                continue
            signs[m] = prev.signs[m - 1]
            logmags[m] = (prev.logmags[m - 1] + log_lam
                          - math.log(g) - math.log1p(-p ** m))
        xk = b * p ** (-k)
        log_K_xk = prev.eval_log(g, p, xk)
        first = SignedLogProduct(1, -g * xk + log_K_xk)
        acc = SignedLogProduct.ZERO
        for n in range(k):
            if prev.signs[n] == 0:
                continue
            mu = g * (p ** n - 1.0 / p)  # < 0 always
            term = SignedLogProduct(-prev.signs[n],
                                    prev.logmags[n] + mu * b * p ** (-(k - 1))
                                    - math.log(-mu))
            acc = acc.plus(term)
        if lam > 0.0:
            acc = acc.times(SignedLogProduct(1, log_lam - math.log(p)))
        else:
            acc = SignedLogProduct.ZERO
        head = first.plus(acc)
        signs[0] = head.sign
        logmags[0] = head.log_magnitude
        tabs.append(KCoefficients(k, tuple(signs), tuple(logmags)))
    return tuple(tabs)


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


def k_up_coeffs(w: float, lam: float, p: float, b: float, k: int) -> KCoefficients:
    """Coefficient table of the reciprocal scale function on interval ``k``."""
    _require(b > 0.0, f"k_up_coeffs needs b > 0, got {b}")
    _require(k >= 0, f"interval index must be >= 0, got {k}")
    return _k_tables(w, lam, p, b, k)[k]


# eval-time digits of cancellation beyond which the float64 tables are no
# longer trusted (high p: many slowly-growing intervals, near-cancelling sums)
_K_EVAL_LOST_OK = 3.0


@lru_cache(maxsize=4096)
def _k_tables_mp(w: float, lam: float, p: float, b: float, kmax: int, dps: int):
    """The interval coefficient recursion re-run in arbitrary precision."""
    with mp.workdps(dps):
        w_, lam_, p_, b_ = map(mp.mpf, (w, lam, p, b))
        g = w_ + lam_
        tabs = [(mp.e ** (-g * b_),)]
        for k in range(1, kmax + 1):
            prev = tabs[k - 1]
            coeffs = [mp.mpf(0)] * (k + 1)
            for m in range(1, k + 1):
                coeffs[m] = prev[m - 1] * lam_ / (g * (1 - p_ ** m))
            xk = b_ * p_ ** (-k)
            xk1 = b_ * p_ ** (-(k - 1))
            k_at_break = mp.fsum(prev[n] * mp.e ** (g * p_ ** n * xk)
                                 for n in range(k))
            acc = mp.fsum(prev[n] * mp.e ** (g * (p_ ** n - 1 / p_) * xk1)
                          / (g * (p_ ** n - 1 / p_)) for n in range(k))
            coeffs[0] = mp.e ** (-g * xk) * k_at_break + (lam_ / p_) * acc
            tabs.append(tuple(coeffs))
        return tuple(tabs)


def _log_k_mp(w: float, lam: float, p: float, b: float, x: float,
              k: int, dps: int, slope: bool = False) -> Optional[Tuple[float, ...]]:
    """``(log K(x),)``, or with ``slope`` ``(log K(x), log K'(x))``, from the
    arbitrary-precision table of interval ``k``; None while still noise."""
    tab = _k_tables_mp(w, lam, p, b, k, dps)[k]
    with mp.workdps(dps):
        g = mp.mpf(w) + mp.mpf(lam)
        p_, x_ = mp.mpf(p), mp.mpf(x)
        terms = [tab[n] * mp.e ** (g * p_ ** n * x_) for n in range(k + 1)]
        sums = [mp.fsum(terms)]
        if slope:
            sums.append(mp.fsum(g * p_ ** n * t for n, t in enumerate(terms)))
        if any(v <= 0 for v in sums):
            return None
        return tuple(float(mp.log(v)) for v in sums)


def _log_k_from_b(w: float, lam: float, p: float, b: float, x: float) -> float:
    """``log K(x)``, escalating to arbitrary precision on deep cancellation."""
    return _log_k_sums(w, lam, p, b, x, interval_index(x, b, p), slope=False)[0]


def _k_log_slope(w: float, lam: float, p: float, b: float, x: float) -> float:
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
    log_k, log_dk = _log_k_sums(w, lam, p, b, x, k, slope=True)
    return math.exp(log_dk - log_k)


def _log_k_sums(w: float, lam: float, p: float, b: float, x: float, k: int,
                slope: bool) -> Tuple[float, ...]:
    """``(log K(x),)``, or with ``slope`` ``(log K(x), log K'(x))``, on interval ``k``.

    The float64 signed-log evaluation reports how many digits each final
    summation cancelled; past ``_K_EVAL_LOST_OK`` digits on either sum (the
    coefficients carry compounded noise of the same origin, so the loss
    estimate is a floor, not a ceiling) the table is rebuilt in arbitrary
    precision and the digit budget raised until two budgets agree on every
    returned logarithm.
    """
    try:
        tab = _k_tables(w, lam, p, b, k)[k]
        g = w + lam
        logs = [L + g * p ** n * x for n, L in enumerate(tab.logmags)]
        log_k, lost = _log_sum_loss(tab.signs, logs)
        if slope:
            log_g, log_p = math.log(g), math.log(p)
            log_dk, dlost = _log_sum_loss(
                tab.signs, [L + log_g + n * log_p for n, L in enumerate(logs)])
            if log_k is not None and log_dk is not None and max(lost, dlost) <= _K_EVAL_LOST_OK:
                return log_k, log_dk
            lost = max(lost, dlost)
        elif log_k is not None and lost <= _K_EVAL_LOST_OK:
            return (log_k,)
    except ConvergenceError:
        lost = 12.0  # the recursion itself cancelled out; size the budget blind
    return _settled_mp(lambda digits: _log_k_mp(w, lam, p, b, x, k, digits, slope),
                       lost, "reciprocal scale function",
                       f"w={w}, lam={lam}, p={p}, b={b}, x={x}")


def _log_sum_loss(signs, logs) -> Tuple[Optional[float], float]:
    """``log`` of a signed sum of ``exp(logs)`` (None unless positive) and the
    decimal digits its summation cancelled.

    A sum that came out non-positive gets its peak as the loss: ``K >= 1``
    makes that a bound for ``log K``, and for ``log K'`` it sizes the first
    arbitrary-precision budget, which the escalation then checks.
    """
    peak = max(logs)
    out = _signed_logsumexp(signs, logs)
    if out.sign > 0:
        return out.log_magnitude, (peak - out.log_magnitude) / _LN10
    return None, peak / _LN10


def l_up_from_b(w: float, lam: float, p: float, b: float, x: float) -> float:
    """``E[e^{-w tau}; up-exit]`` from start ``b`` for the exit from ``(b, x)``."""
    return math.exp(-_log_k_from_b(w, lam, p, b, x))


def l_up(w: float, lam: float, p: float, x: float, a: float, b: float) -> float:
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
    return min(1.0, math.exp(_log_k_from_b(w, lam, p, b, x) - _log_k_from_b(w, lam, p, b, a)))


# threshold below which the up-weighted remote term of l_down is dropped
_L_UP_NEGLIGIBLE = 1e-18


def l_down(w: float, lam: float, p: float, x: float, a: float, b: float) -> float:
    """Down-exit part of the two-sided exit from ``(b, a)`` started at ``x``.

    Evaluates ``z_down(w; x, b) - l_up(w; x, a, b) z_down(w; a, b)``.  At
    ``x == b`` the value is taken by right limit (the crossing needs a
    jump, so the transform is right-continuous there).  When the up-exit
    weight is negligible relative to the leading term, the second term is
    dropped without evaluating the (possibly extremely ill-conditioned)
    transform at the remote level ``a``.
    """
    _require(b <= x <= a, f"l_down needs b <= x <= a, got x={x}, a={a}, b={b}")
    if x == a:
        return 0.0
    if x == b:
        x = b * (1.0 + 1e-12)
    zd_x = z_down(w, lam, p, x, b)
    lu = l_up(w, lam, p, x, a, b)
    if lu <= _L_UP_NEGLIGIBLE * zd_x:
        return zd_x
    val = zd_x - lu * z_down(w, lam, p, a, b)
    if val < -1e-9:
        raise ConvergenceError(
            f"two-sided down part came out significantly negative ({val}) at "
            f"w={w}, lam={lam}, p={p}, x={x}, a={a}, b={b}")
    return max(val, 0.0)
