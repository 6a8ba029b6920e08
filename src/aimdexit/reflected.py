"""Exit transforms of the reflected AIMD process.

Four first-passage problems built on the two-sided exit parts from
:mod:`.scalefn`:

* ``lst_reflected_upper`` — process reflected (jump-truncated) at an upper
  level ``a``; passage below ``c``.
* ``lst_reflected_lower`` — process reflected at a lower level ``b``;
  passage up to ``c``.
* ``lst_drawdown`` — first time the process falls ``c`` below its running
  supremum, resolved through the supremum's exit distribution (hazard of
  losing the race to a new maximum) and the down-exit slope at the level
  where the supremum stops; both come from exact scale-function slopes,
  taken once per Gauss node, and the cumulative hazard is integrated from
  the same nodes.
* ``lst_drawup`` — first time the process rises ``c`` above its running
  infimum, via the infimum-cascade renewal in :mod:`._drawup`.

``solve_a`` computes the implicit upper level that balances the two-sided
split at the drawup boundary, a characterisation of that boundary exposed
for analysis; no evaluator here depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ConvergenceError, _require
from .scalefn import _k_log_slope, l_down, l_up, z_down, z_down_slope
# not called here; kept as a name of this module, which the layer trace
# (bench/tracing.py) wraps
from .scalefn import _log_k_from_b  # noqa: F401
from ._drawup import drawup_lst

__all__ = [
    "QuadratureControl",
    "lst_reflected_upper",
    "lst_reflected_lower",
    "hazard",
    "lst_drawdown",
    "lst_drawdown_general_start",
    "solve_a",
    "lst_drawup",
]


@dataclass(frozen=True)
class QuadratureControl:
    """Accuracy policy for the drawdown integral.

    The integral is evaluated on kink-aware Gauss-Legendre panels and then
    re-evaluated with all panels halved until two successive refinements
    agree to ``max(abs_tol, rel_tol * |value|)``; the last difference is the
    reported error estimate.  At most ``_MAX_ROUNDS`` refinement rounds are
    run.  Past the last kink level the integrand is known in closed form,
    so the integral needs no cutoff.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-7

    def __post_init__(self):
        _require(self.abs_tol > 0.0, f"abs_tol must be > 0, got {self.abs_tol}")
        _require(self.rel_tol > 0.0, f"rel_tol must be > 0, got {self.rel_tol}")


DEFAULT_QUAD = QuadratureControl()
_MAX_ROUNDS = 6


# ---------------------------------------------------------------------------
# reflection at a fixed barrier
# ---------------------------------------------------------------------------


def lst_reflected_upper(w: float, lam: float, p: float, x: float, a: float, c: float) -> float:
    """LST of the passage below ``c`` for the process truncated at ``a``.

    Jumps fire from ``min(level, a)``: the pre-jump position is capped at
    the reflecting level ``a``.  Decomposition: either the free two-sided
    exit from ``(c, a)`` ends below ``c`` directly, or the process reaches
    ``a`` and from there each jump restarts the game from ``p a`` (one
    exponential waiting time per visit to the barrier).
    """
    _require(0.0 < c < a, f"reflected-upper needs 0 < c < a, got c={c}, a={a}")
    _require(c <= x <= a, f"reflected-upper needs c <= x <= a, got x={x}")
    if lam == 0.0:
        return 0.0  # no jumps: the barrier is never left downward
    if w == 0.0:
        return 1.0
    g = w + lam
    ld = l_down(w, lam, p, x, a, c)
    lu = l_up(w, lam, p, x, a, c)
    if p * a > c:
        # post-jump level p*a is still inside (c, a): geometric recursion
        # over returns to the barrier
        e_pa = l_down(w, lam, p, p * a, a, c) \
            / (1.0 - (lam / g) * l_up(w, lam, p, p * a, a, c))
        return ld + lu * (lam / g) * e_pa
    return ld + lu * lam / g


def lst_reflected_lower(w: float, lam: float, p: float, x: float, c: float, b: float) -> float:
    """LST of the passage up to ``c`` for the process reflected at ``b``.

    Downward jumps are truncated at ``b`` (the post-jump position is
    ``max(p(level), b)``).  Decomposition: the free two-sided exit from
    ``(b, c)`` either ends at ``c`` or at the floor, and from the floor the
    game restarts at ``b`` — a geometric series in the return weight
    ``l_down(w; b, c, b)``.
    """
    _require(0.0 < b <= x < c, f"reflected-lower needs 0 < b <= x < c, got x={x}, c={c}, b={b}")
    if w == 0.0:
        return 1.0
    lu = l_up(w, lam, p, x, c, b)
    ld = l_down(w, lam, p, x, c, b)
    if ld == 0.0:
        return lu
    ret = l_down(w, lam, p, b, c, b)
    den = 1.0 - ret
    if den < 1e-14:
        raise ConvergenceError(
            f"reflected-lower restart weight too close to 1 (1 - {ret}) at "
            f"w={w}, lam={lam}, p={p}, c={c}, b={b}")
    return lu + ld * l_up(w, lam, p, b, c, b) / den


# ---------------------------------------------------------------------------
# drawdown: race hazard of the running supremum
# ---------------------------------------------------------------------------


def hazard(w: float, lam: float, p: float, z: float, c: float) -> float:
    """Exit intensity of the supremum race at level ``z`` with window ``c``.

    Equals the negative right-derivative, in the upper level ``a``, of the
    up-exit transform ``K(z)/K(a)`` of the strip ``(z - c, a)`` started at
    ``z``, taken at ``a = z``: the right slope ``K'(z)/K(z)`` of the
    reciprocal scale function for the barrier ``b = z - c``, summed exactly
    from its interval table.  At and beyond the knee ``c/(1-p)`` any jump
    ends the race and the slope is ``w + lam``.
    """
    _require(z > c > 0.0, f"hazard needs z > c > 0, got z={z}, c={c}")
    if w + lam == 0.0:
        return 0.0  # no clock and no discount: nothing ends the race
    return _k_log_slope(w, lam, p, z - c, z)


def _supremum_breakpoints(x: float, c: float, p: float) -> list:
    """Kink levels ``c / (1 - p^k)`` above ``x``, ascending.

    At these levels the interval index of the strip ``(z - c, z)`` changes,
    so the hazard is only piecewise-smooth across them.
    """
    bps = []
    k = 1
    while True:
        zk = c / (1.0 - p ** k)
        if zk <= x:
            break
        bps.append(zk)
        k += 1
    return sorted(bps)


_GL24 = np.polynomial.legendre.leggauss(24)


def _cumulative_matrix(nodes: np.ndarray) -> np.ndarray:
    """``M`` with ``(M @ f)[i]`` the integral over ``[-1, nodes[i]]`` of the
    Legendre interpolant through the values ``f`` at ``nodes``."""
    leg = np.polynomial.legendre
    coeffs = np.linalg.inv(leg.legvander(nodes, len(nodes) - 1))
    return leg.legval(nodes, leg.legint(coeffs, lbnd=-1)).T


_CUM24 = _cumulative_matrix(_GL24[0])


def _drawdown_value(w: float, lam: float, p: float, x: float, c: float,
                    split: int) -> float:
    """One resolution level of the drawdown integral (panels split ``split``-fold).

    Integrates ``exp(-H_w(y)) [h_w(y) Z(y) - Z'(y)]`` over ``(x, z1)``, with
    ``Z`` the downward transform for the barrier ``y - c`` and ``z1 =
    c/(1-p)`` the knee (``x < z1`` here).  The hazard is evaluated once at
    each Gauss node; ``H_w`` at the nodes is the integral of its interpolant
    through them, and at the panel end their Gauss sum.  Past the knee
    ``h_w = w + lam`` and ``h_w Z - Z' = lam``, so the rest of the integral
    is ``exp(-H_w(z1)) lam/(lam+w)``.
    """
    nodes, weights = _GL24
    ends = [x]
    for e in _supremum_breakpoints(x, c, p):  # ascending; the last is z1
        if e > ends[-1] + 1e-15:
            ends.append(e)
    H_w = 0.0
    total = 0.0
    for a0, b0 in zip(ends[:-1], ends[1:]):
        for i in range(split):
            aa = a0 + (b0 - a0) * i / split
            bb = a0 + (b0 - a0) * (i + 1) / split
            half = 0.5 * (bb - aa)
            ys = half * nodes + 0.5 * (bb + aa)
            hs = np.array([hazard(w, lam, p, y, c) for y in ys])
            zd, dzd = np.array([z_down_slope(w, lam, p, y, y - c) for y in ys]).T
            survival = np.exp(-(H_w + half * (_CUM24 @ hs)))
            total += half * (weights @ (survival * (hs * zd - dzd)))
            H_w += half * (weights @ hs)
    total += math.exp(-H_w) * lam / (w + lam)
    return float(total)  # numpy scalars; shed the wrapper


def lst_drawdown(w: float, lam: float, p: float, x: float, c: float,
                 qctrl: QuadratureControl = DEFAULT_QUAD, *,
                 diagnostics: Optional[dict] = None) -> float:
    """LST of the first time the process falls ``c`` below its running supremum.

    Integrates, over the level ``y`` where the supremum race ends, the
    discount-weighted survival ``exp(-H_w(y))`` of the race times the
    right-derivative in the upper level of the two-sided down-exit part,
    ``h_w(y) Z(y; y-c) - dZ/dx(y; y-c)``; ``H_w`` is the cumulative hazard
    from ``x`` and ``Z`` the downward transform.  Both slopes are exact
    sums from the scale-function tables.  The stretch past the knee
    ``c/(1-p)`` is closed form, and the head integral is refined by panel
    halving until two rounds agree.
    """
    _require(x > c > 0.0, f"drawdown needs x > c > 0, got x={x}, c={c}")
    if lam == 0.0:
        return 0.0  # no jumps: the level never leaves its running supremum
    if w == 0.0:
        return 1.0
    if (1.0 - p) * x >= c:
        # the first jump happens at a level >= x, and a jump from level y
        # opens a drawdown of (1-p) y >= (1-p) x >= c: the exit time is
        # exactly the first jump time
        return lam / (lam + w)
    prev = _drawdown_value(w, lam, p, x, c, 1)
    for rounds in range(1, _MAX_ROUNDS + 1):
        value = _drawdown_value(w, lam, p, x, c, 2 ** rounds)
        err = abs(value - prev)
        if err <= max(qctrl.abs_tol, qctrl.rel_tol * abs(value)):
            break
        prev = value
    else:
        raise ConvergenceError(
            f"drawdown integral did not settle after {_MAX_ROUNDS} refinements",
            partial=prev)
    if diagnostics is not None:
        diagnostics.update(quad_error=err, refinement_rounds=rounds)
    return min(max(value, 0.0), 1.0)


def lst_drawdown_general_start(w: float, lam: float, p: float, x: float,
                               xbar0: float, c: float,
                               qctrl: QuadratureControl = DEFAULT_QUAD, *,
                               diagnostics: Optional[dict] = None) -> float:
    """Drawdown LST when a supremum ``xbar0 >= x`` is already on record.

    While the process stays inside ``(xbar0 - c, xbar0)`` the recorded
    supremum is still the reference: exiting below ends the drawdown
    immediately, exiting above restarts the fresh-supremum problem at
    ``xbar0``.  If the recorded drawdown already reaches ``c`` the stop is
    immediate.  The recorded supremum must stand above the window,
    ``xbar0 > c``; otherwise the window floor sits at or below zero where
    the level cannot reach it in finite time.
    """
    _require(xbar0 >= x, f"general start needs xbar0 >= x, got xbar0={xbar0}, x={x}")
    _require(xbar0 > c > 0.0,
             f"general start needs xbar0 > c > 0, got xbar0={xbar0}, c={c}")
    if xbar0 - c >= x:
        return 1.0
    if xbar0 == x:
        return lst_drawdown(w, lam, p, x, c, qctrl, diagnostics=diagnostics)
    if lam == 0.0:
        return 0.0  # drift rejoins the recorded supremum and never falls back
    if w == 0.0:
        return 1.0
    b0 = xbar0 - c
    down = l_down(w, lam, p, x, xbar0, b0)
    up = l_up(w, lam, p, x, xbar0, b0)
    return down + up * lst_drawdown(w, lam, p, xbar0, c, qctrl, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# drawup: implicit balancing level and the cascade transform
# ---------------------------------------------------------------------------


def solve_a(w: float, lam: float, p: float, c: float, u: float,
            tol: float = 1e-12) -> float:
    """Level ``a > u + c`` balancing the two-sided split at the drawup boundary.

    Solves ``l_up(w; u+c, a, u) = 1 - z_down(w; u+c, u)`` by bracket
    doubling and bisection; the map is strictly decreasing in ``a`` (larger
    targets are harder to reach first), so the root is unique.
    """
    _require(w > 0.0, f"solve_a needs w > 0, got {w}")
    _require(c > 0.0 and u > 0.0, f"solve_a needs c > 0 and u > 0, got c={c}, u={u}")
    target = 1.0 - z_down(w, lam, p, u + c, u)
    _require(0.0 < target < 1.0, f"degenerate drawup balance target {target}")

    def f(a: float) -> float:
        return l_up(w, lam, p, u + c, a, u) - target

    lo = u + c
    d = max(c, 1.0)
    hi = lo + d
    while f(hi) > 0.0:
        d *= 2.0
        hi = lo + d
        if d > 1e12:
            raise ConvergenceError(
                f"drawup balance bracket exceeded 1e12 at w={w}, lam={lam}, "
                f"p={p}, c={c}, u={u}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lst_drawup(w: float, lam: float, p: float, x: float, u: float, c: float,
               tol: float = 1e-7, diagnostics: Optional[dict] = None) -> float:
    """LST of the first time the process rises ``c`` above its running infimum.

    ``u`` is the infimum on record at time zero.  With ``u = 0`` no jump
    can create a new infimum below the floor and the event is a plain
    ascent over ``c``; otherwise the infimum-cascade renewal solver of
    :mod:`._drawup` applies.  ``tol`` bounds the cascade truncation error.
    """
    return drawup_lst(w, lam, p, x, u, c, tol=tol, diagnostics=diagnostics)
