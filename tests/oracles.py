"""Independent routes to the downward transform and its series constant.

Only the tests use these; neither shares code with the production series:

* :func:`c_tilde_statement_oracle` evaluates the downward series constant
  in its raw ratio form in arbitrary precision.
* :func:`z_down_renewal_residual` plugs the production downward transform
  into its defining first-jump integral equation and reports the residual.
"""

import math

import mpmath as mp
from scipy import integrate

from aimdexit import ValidationError, z_down


def c_tilde_statement_oracle(w: float, lam: float, p: float, b: float,
                             dps: int = 50) -> float:
    """Downward series constant in its raw ratio form, arbitrary precision.

    ``A/B - 1`` with ``A = sum_l t_l / prod_l``, ``B = sum_l t_l p^-l /
    prod_l``, ``prod_l = prod_{i=1}^{l}(1 - p^-i)`` and
    ``t_l = e^{-b(w+lam) p^-l}(lam/(w+lam))^l`` — the direct form whose
    leading-digit cancellation the production evaluator avoids.
    """
    with mp.workdps(dps):
        w_, lam_, p_, b_ = map(mp.mpf, (w, lam, p, b))
        g_ = w_ + lam_
        A = mp.mpf(0)
        B = mp.mpf(0)
        prod = mp.mpf(1)  # prod_{i=1}^{l} (1 - p^{-i})
        for l in range(400):
            if l > 0:
                prod *= (1 - p_ ** (-l))
            t = mp.e ** (-b_ * g_ * p_ ** (-l)) * (lam_ / g_) ** l
            A += t / prod
            B += t * p_ ** (-l) / prod
            if l > 6 and abs(t) < mp.mpf(10) ** (-(dps + 10)):
                break
        return float(A / B - 1)


def z_down_renewal_residual(w: float, lam: float, p: float, x: float, b: float) -> float:
    """Residual of the downward transform in its first-jump integral equation.

    The transform ``Z(x)``, which production evaluates at jump rate 1 as
    ``z_down(w/lam, p, lam x, lam b)``, must satisfy, with ``t* = b/p - x``
    the last time a jump still lands at or below ``b``,

        Z(x) = (lam/(lam+w)) (1 - e^{-(lam+w) t*})_+
               + integral lam e^{-(lam+w) t} Z(p(x+t)) dt over t > t*_+ .

    The integral is evaluated by adaptive quadrature (substituted to the
    landing level, with panels split at the interval breakpoints of Z) and
    the equation's two sides are differenced — an oracle that assumes
    nothing about the production series.
    """
    g_ = w + lam
    lhs = z_down(w / lam, p, lam * x, lam * b)
    t_star = max(b / p - x, 0.0)
    exit_part = (lam / g_) * -math.expm1(-g_ * t_star)
    # substitute y = p(x+t): t = y/p - x
    y_lo = p * (x + t_star)  # = max(b, p x)
    y_hi = p * (x + t_star + 45.0 / g_)
    points = []
    k = 0
    while b * p ** (-k) < y_hi:
        if b * p ** (-k) > y_lo:
            points.append(b * p ** (-k))
        k += 1

    def integrand(y: float) -> float:
        t = y / p - x
        return (lam / p) * math.exp(-g_ * t) * z_down(w / lam, p, lam * y, lam * b)

    val, err = integrate.quad(integrand, y_lo, y_hi, points=points or None,
                              epsabs=1e-12, epsrel=1e-11, limit=300)
    if err > 1e-8:
        raise ValidationError(f"renewal quadrature error {err} too large")
    return lhs - (exit_part + val)
