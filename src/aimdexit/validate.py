"""Confrontation harness: analytic values vs Monte Carlo and independent oracles.

The deterministic oracles re-derive transform values along entirely
different numerical routes than the production evaluators:

* :func:`volterra_oracle_zup` solves the renewal integral equation of the
  ascent transform by forward trapezoidal substitution (second order in the
  grid), never summing the production power series.
* :func:`quadrature_oracle_lup` walks the interval recursion for the
  two-sided up part using adaptive quadrature against Chebyshev
  interpolants of the previous interval, never forming closed-form
  coefficients.  It is the one user of scipy in the package, imported
  when it is called.

The oracles of the downward transform and its series constant are test
support (``tests/oracles.py``): no acceptance criterion uses them.

:func:`run_suite` drives the universal oracle — exact event-driven Monte
Carlo — over a parameter grid covering every series/recursion branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .evaluate import evaluate
from .model import AimdError, ExitKind, ExitSpec, ModelParams, ValidationError, _require
from .simulator import McConfig, McEstimate, default_horizon_cap, mc_lst

__all__ = [
    "ComparisonRow",
    "volterra_oracle_zup",
    "quadrature_oracle_lup",
    "default_grid",
    "run_suite",
]


# ---------------------------------------------------------------------------
# deterministic oracles
# ---------------------------------------------------------------------------


def volterra_oracle_zup(w: float, lam: float, p: float, a: float, grid_n: int) -> float:
    """Ascent transform from level 0 over ``a`` via its renewal equation.

    ``g(t) := 1 / z_up(w; 0, t)`` satisfies

        1 = e^{-(lam+w) t} g(t) + lam * integral_0^t e^{-(lam+w) s} g(p s) ds,

    a Volterra equation solved by forward substitution on a uniform grid
    with trapezoidal panels; ``g(p t)`` is linearly interpolated, and the
    final trapezoid node is resolved implicitly when ``p t`` falls in the
    current step.  Returns ``1 / g(a)``; global error is O(grid_n^-2).
    """
    _require(a > 0.0, f"oracle needs a > 0, got {a}")
    _require(grid_n >= 64, f"oracle needs grid_n >= 64, got {grid_n}")
    g_ = w + lam
    n = grid_n
    dt = a / n
    g = np.empty(n + 1)
    g[0] = 1.0
    f_run = 0.0  # sum_{i=1}^{m-1} f_i  (f_i = e^{-g t_i} g(p t_i))
    f0_half = 0.5 * 1.0  # f(0)/2 = e^0 g(0) / 2
    for m in range(1, n + 1):
        t_m = m * dt
        pos = p * m  # p t_m in grid units
        j = int(math.floor(pos))
        theta = pos - j
        decay = math.exp(-g_ * t_m)
        s_known = lam * dt * (f0_half + f_run)
        if j + 1 >= m:
            # the interpolation touches the unknown g[m]
            known_part = (1.0 - theta) * g[j]
            rhs = 1.0 - s_known - lam * dt * 0.5 * decay * known_part
            g[m] = rhs / (decay * (1.0 + lam * dt * 0.5 * theta))
        else:
            f_m = decay * ((1.0 - theta) * g[j] + theta * g[j + 1])
            g[m] = (1.0 - s_known - lam * dt * 0.5 * f_m) / decay
        # finalize f at t_m for subsequent steps (g[j+1] now known)
        f_run += math.exp(-g_ * t_m) * ((1.0 - theta) * g[j] + theta * g[min(j + 1, m)])
    return 1.0 / g[n]


def _cheb_interpolant(f: Callable[[float], float], lo: float, hi: float, deg: int = 30):
    """Chebyshev interpolant of ``f`` on [lo, hi] (first-kind nodes)."""
    k = np.arange(deg + 1)
    t = np.cos((2.0 * k + 1.0) * np.pi / (2.0 * (deg + 1)))
    ys = lo + (hi - lo) * (t + 1.0) / 2.0
    vals = np.array([f(y) for y in ys])
    coeffs = np.polynomial.chebyshev.chebfit(t, vals, deg)

    def interp(y):
        u = 2.0 * (np.asarray(y) - lo) / (hi - lo) - 1.0
        return np.polynomial.chebyshev.chebval(u, coeffs)

    return interp


def quadrature_oracle_lup(w: float, lam: float, p: float, b: float, x: float,
                          k_max: int = 8) -> float:
    """Two-sided up part started at the barrier, by the interval recursion.

    On the base interval the value is ``e^{-(w+lam)(x-b)}`` exactly; on
    interval ``k`` it is

        e^{-(w+lam)(x - b p^{-k})} /
        (1/L(b p^{-k}) - integral_0^{x - b p^{-k}} lam e^{-(lam+w) t}
                          / L(b p^{-(k-1)} + p t) dt),

    with the previous interval represented by a Chebyshev interpolant and
    the integral done by adaptive quadrature.  Independent of the
    closed-form coefficient tables.
    """
    from scipy import integrate  # kept off the package's import path

    _require(b > 0.0 and x >= b, f"oracle needs x >= b > 0, got x={x}, b={b}")
    g_ = w + lam
    if x <= b / p:
        return math.exp(-g_ * (x - b))
    kx = int(math.floor(math.log(x / b) / math.log(1.0 / p)))
    while b * p ** (-kx) >= x:
        kx -= 1
    while b * p ** (-(kx + 1)) < x:
        kx += 1
    _require(kx <= k_max, f"x={x} lies {kx} intervals up; k_max={k_max}")

    prev = lambda y: np.exp(-g_ * (np.asarray(y) - b))  # interval 0, exact

    def value_on(k: int, interp_prev, y: float) -> float:
        lo_k = b * p ** (-k)
        inv_at_edge = 1.0 / float(interp_prev(lo_k))
        upper = y - lo_k
        if upper <= 0.0:
            return float(interp_prev(lo_k))
        integrand = lambda t: lam * math.exp(-g_ * t) / float(
            interp_prev(b * p ** (-(k - 1)) + p * t))
        val, err = integrate.quad(integrand, 0.0, upper, epsabs=1e-14,
                                  epsrel=1e-13, limit=200)
        if err > 1e-10:
            raise ValidationError(f"oracle quadrature error {err} too large at y={y}")
        return math.exp(-g_ * upper) / (inv_at_edge - val)

    for k in range(1, kx):
        lo_k, hi_k = b * p ** (-k), b * p ** (-(k + 1))
        cur = _cheb_interpolant(lambda y, kk=k, pv=prev: value_on(kk, pv, y), lo_k, hi_k)
        prev = cur
    return value_on(kx, prev, x)


# ---------------------------------------------------------------------------
# the default confrontation grid
# ---------------------------------------------------------------------------

_LAMBDAS = (0.5, 1.0, 2.0)
_PS = (0.3, 0.5, 0.8)
_WS = (0.0, 0.5, 1.0, 3.0)


def _combos20() -> List[Tuple[float, float, float]]:
    """20 deterministic (lam, p, w) triples covering the full factor set."""
    base = list(product(_LAMBDAS, _PS))  # 9 combos
    out = []
    i = 0
    while len(out) < 20:
        lam, p = base[i % len(base)]
        w = _WS[(i + i // len(base)) % len(_WS)]
        out.append((lam, p, w))
        i += 1
    return out


def default_grid() -> List[Tuple[ModelParams, ExitSpec, float]]:
    """Default validation grid: 20 points for each of the eight exit kinds.

    Level geometry is tied to the stationary scale ``1/(lam(1-p))`` so that
    undiscounted exits happen fast enough for Monte Carlo, and spans one to
    four multiplicative intervals to cross every series/recursion branch.
    """
    rows: List[Tuple[ModelParams, ExitSpec, float]] = []
    for kind_idx, kind in enumerate(ExitKind):
        for i, (lam, p, w) in enumerate(_combos20()):
            s = 1.0 / (lam * (1.0 - p))
            params = ModelParams(lam=lam, p=p)
            v = i % 4  # geometry variant
            # Upward gaps are measured in mean jump gaps (1/lam) and kept
            # below ~4.5 of them so the no-jump run that achieves them has
            # probability >~ 1%, keeping undiscounted Monte Carlo informative.
            if kind is ExitKind.UP_ONE:
                x = 0.8 * s
                spec = ExitSpec(kind=kind, x=x, a=x + (0.6 + 0.8 * v) / lam)
            elif kind is ExitKind.DOWN_ONE:
                b = 0.55 * s
                x = b * p ** (-(0.4 + 0.75 * v))  # 1 to ~3.7 intervals up
                spec = ExitSpec(kind=kind, x=x, b=b)
            elif kind in (ExitKind.TWO_SIDED_UP, ExitKind.TWO_SIDED_DOWN):
                b = 0.6 * s
                a = b + (1.5 + 1.0 * v) / lam
                x = math.sqrt(a * b) if v % 2 == 0 else 0.3 * b + 0.7 * a
                spec = ExitSpec(kind=kind, x=x, a=a, b=b)
            elif kind is ExitKind.REFL_UPPER_DOWN:
                a = (1.1 + 0.3 * v) * s
                c = (0.7 if i % 2 == 0 else 1.25) * p * a  # both barrier branches
                c = min(c, 0.9 * a)
                x = 0.5 * (c + a)
                spec = ExitSpec(kind=kind, x=x, a=a, c=c)
            elif kind is ExitKind.REFL_LOWER_UP:
                b = 0.5 * s
                c = b + (0.8 + 0.8 * v) / lam
                x = b + (0.25 + 0.15 * v) * (c - b)
                spec = ExitSpec(kind=kind, x=x, c=c, b=b)
            elif kind is ExitKind.DRAWDOWN:
                c = 0.6 * s
                x = c * (1.15 + 0.3 * v)
                xbar0 = x + 0.3 * c if i % 5 == 4 else None
                spec = ExitSpec(kind=kind, x=x, c=c, xbar0=xbar0)
            elif kind is ExitKind.DRAWUP:
                if i % 5 == 3:
                    spec = ExitSpec(kind=kind, x=1.0 / lam, u=0.0, c=2.0 / lam)
                else:
                    u = 0.8 * s
                    c = (1.0 + 0.75 * v) / lam
                    x = u + (0.0, 0.35, 0.7, 0.9)[v] * c
                    spec = ExitSpec(kind=kind, x=x, u=u, c=c)
            else:
                raise AssertionError(kind)
            rows.append((params, spec, w))
    return rows


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    """One grid point's analytic-vs-Monte-Carlo confrontation."""

    params: ModelParams
    spec: ExitSpec
    w: float
    analytic: float
    mc: Optional[McEstimate]
    z_score: float
    verdict: str  # "pass" | "fail" | "error"
    retried: bool = False
    error: Optional[str] = None


_EXACT_TOL = 1e-12
_RESEED_STRIDE = 0x9E3779B9


def _confront(analytic: float, est: McEstimate, z_threshold: float):
    if est.std_error == 0.0:
        diff = abs(analytic - est.mean)
        return (0.0 if diff <= _EXACT_TOL else math.inf,
                diff <= _EXACT_TOL)
    z = (analytic - est.mean) / est.std_error
    return z, abs(z) <= z_threshold


def run_suite(grid: Sequence[Tuple[ModelParams, ExitSpec, float]],
              n_paths: int = 1_000_000, seed: int = 20260815,
              threads: int = 1, z_threshold: float = 3.0,
              horizon_cap: Optional[float] = None) -> List[ComparisonRow]:
    """Confront every grid point's analytic value with a fresh MC estimate.

    A row failing the ``z_threshold`` gets one reseeded retry (fresh,
    deterministic substream) whose outcome is final — a correct evaluator
    fails twice in a row with probability ~(2.7e-3)^2 per point.
    Evaluation errors are captured per row, never aborting the suite.
    Rows are emitted in grid order regardless of execution interleaving.
    """
    _require(len(grid) > 0, "validation grid must not be empty")
    rows: List[ComparisonRow] = []
    for gi, (params, spec, w) in enumerate(grid):
        analytic = math.nan
        try:
            analytic = evaluate(params, spec, w)
            cap = horizon_cap if horizon_cap is not None \
                else default_horizon_cap(w, params.lam)
            cfg = McConfig(n_paths=n_paths, seed=seed + gi, horizon_cap=cap, w=w)
            est = mc_lst(spec, params, cfg, threads=threads)
            z, ok = _confront(analytic, est, z_threshold)
            retried = False
            if not ok:
                cfg = McConfig(n_paths=n_paths, seed=seed + gi + _RESEED_STRIDE,
                               horizon_cap=cap, w=w)
                est = mc_lst(spec, params, cfg, threads=threads)
                z, ok = _confront(analytic, est, z_threshold)
                retried = True
        except AimdError as exc:
            rows.append(ComparisonRow(params, spec, w, analytic, None, math.nan,
                                      "error", error=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(ComparisonRow(params, spec, w, analytic, est, z,
                                  "pass" if ok else "fail", retried=retried))
    return rows
