"""Exit transforms of the reflected AIMD process.

Four first-passage problems built on the two-sided exit parts from
:mod:`.scalefn`, and like them posed at jump rate 1:

* ``lst_reflected_upper`` — process reflected (jump-truncated) at an upper
  level ``a``; passage below ``c``.
* ``lst_reflected_lower`` — process reflected at a lower level ``b``;
  passage up to ``c``.
* ``lst_drawdown`` — first time the process falls ``c`` below its running
  supremum, resolved through the supremum's exit distribution (hazard of
  losing the race to a new maximum) and the down-exit slope at the level
  where the supremum stops; both come from exact scale-function slopes,
  taken once per node of a Gauss-Kronrod 10/21 pass (``_GAUSS_N`` = 10),
  and the cumulative hazard is integrated from the same nodes.  The start
  is the supremum; :func:`~aimdexit.evaluate` composes a recorded one above
  it from this and the two-sided parts.
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
    "solve_a",
    "lst_drawup",
]


@dataclass(frozen=True)
class QuadratureControl:
    """Accuracy policy for the drawdown integral.

    The integral is taken in one Gauss-Kronrod 10/21 pass over kink-aware
    panels: the ``2 _GAUSS_N + 1``-point Kronrod value is the result, and
    ``|Kronrod - Gauss|`` against the embedded ``_GAUSS_N``-point Gauss
    rule, summed over the panels, is the error estimate (``quad_error``).
    That difference is the error of the embedded Gauss value, so it is a
    conservative estimate: it overstates the error of the Kronrod value
    returned, often by orders of magnitude.  While it misses
    ``max(abs_tol, rel_tol * |value|)`` the panels are halved and the pass
    repeated, at most ``_MAX_ROUNDS`` passes in all.
    Past the last kink level the integrand is known in closed form, so the
    integral needs no cutoff.
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


def lst_reflected_upper(w: float, p: float, x: float, a: float, c: float) -> float:
    """LST of the passage below ``c`` for the process truncated at ``a``.

    Jumps fire from ``min(level, a)``: the pre-jump position is capped at
    the reflecting level ``a``.  Decomposition: either the free two-sided
    exit from ``(c, a)`` ends below ``c`` directly, or the process reaches
    ``a`` and from there each jump restarts the game from ``p a`` (one
    exponential waiting time per visit to the barrier).
    """
    _require(0.0 < c < a, f"reflected-upper needs 0 < c < a, got c={c}, a={a}")
    _require(c <= x <= a, f"reflected-upper needs c <= x <= a, got x={x}")
    if w == 0.0:
        return 1.0
    g = w + 1.0
    ld = l_down(w, p, x, a, c)
    lu = l_up(w, p, x, a, c)
    if p * a > c:
        # post-jump level p*a is still inside (c, a): geometric recursion
        # over returns to the barrier
        ret = (1.0 / g) * l_up(w, p, p * a, a, c)
        if 1.0 - ret < 1e-14:
            raise ConvergenceError(
                f"reflected-upper restart weight too close to 1 (1 - {ret}) at "
                f"w={w}, p={p}, a={a}, c={c}")
        return ld + lu * (1.0 / g) * (l_down(w, p, p * a, a, c) / (1.0 - ret))
    return ld + lu / g


def lst_reflected_lower(w: float, p: float, x: float, c: float, b: float) -> float:
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
    lu = l_up(w, p, x, c, b)
    ld = l_down(w, p, x, c, b)
    if ld == 0.0:
        return lu
    ret = l_down(w, p, b, c, b)
    den = 1.0 - ret
    if den < 1e-14:
        raise ConvergenceError(
            f"reflected-lower restart weight too close to 1 (1 - {ret}) at "
            f"w={w}, p={p}, c={c}, b={b}")
    return lu + ld * l_up(w, p, b, c, b) / den


# ---------------------------------------------------------------------------
# drawdown: race hazard of the running supremum
# ---------------------------------------------------------------------------


def hazard(w: float, p: float, z: float, c: float) -> float:
    """Exit intensity of the supremum race at level ``z`` with window ``c``,
    in units of the jump rate (at rate ``lam``, ``lam * hazard(w/lam, p,
    lam*z, lam*c)``).
    Equals the negative right-derivative, in the upper level ``a``, of the
    up-exit transform ``K(z)/K(a)`` of the strip ``(z - c, a)`` started at
    ``z``, taken at ``a = z``: the right slope ``K'(z)/K(z)`` of the
    reciprocal scale function for the barrier ``b = z - c``, summed exactly
    from its interval table.  At and beyond the knee ``c/(1-p)`` any jump
    ends the race and the slope is ``w + 1``.
    """
    _require(z > c > 0.0, f"hazard needs z > c > 0, got z={z}, c={c}")
    if (1.0 - p) * z >= c:  # the comparison of lst_drawdown's closed form
        return w + 1.0
    return _k_log_slope(w, p, z - c, z)


def _gauss_kronrod(n: int):
    """Nodes and weights, ascending, of the ``2n+1``-point Kronrod extension
    of the ``n``-point Gauss-Legendre rule on ``[-1, 1]``.

    Laurie's algorithm (*Math. Comp.* 66, 1997) gives the Jacobi-Kronrod
    matrix from the Legendre recurrence (its diagonal is zero, as the
    weight is even); its eigenvalues are the nodes and the squared first
    components of its eigenvectors, times 2, the weights.  The Gauss nodes
    are every other node; they are set to ``leggauss``'s own, so the
    embedded rule is exactly that rule.
    """
    b = np.zeros(2 * n + 1)
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0] = 2.0
    b[k] = k * k / (4.0 * k * k - 1.0)
    s = np.zeros(n // 2 + 2)
    t = s.copy()
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - (m - k)
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    nodes[1::2] = np.polynomial.legendre.leggauss(n)[0]
    return nodes, b[0] * vecs[0] ** 2


# the drawdown rule, QUADPACK's QK21 pair: grid values within 1.1e-16 of 24/49
_GAUSS_N = 10
_GAUSS = np.polynomial.legendre.leggauss(_GAUSS_N)
_KRONROD = _gauss_kronrod(_GAUSS_N)  # the Gauss nodes are _KRONROD[0][1::2]


def _cumulative_matrix(nodes: np.ndarray) -> np.ndarray:
    """``M`` with ``(M @ f)[i]`` the integral over ``[-1, nodes[i]]`` of the
    Legendre interpolant through the values ``f`` at ``nodes``."""
    leg = np.polynomial.legendre
    coeffs = np.linalg.inv(leg.legvander(nodes, len(nodes) - 1))
    return leg.legval(nodes, leg.legint(coeffs, lbnd=-1)).T


_CUM_GAUSS = _cumulative_matrix(_GAUSS[0])
_CUM_KRONROD = _cumulative_matrix(_KRONROD[0])


def _drawdown_value(w: float, p: float, x: float, c: float, split: int) -> tuple:
    """One Gauss-Kronrod pass over the drawdown integral, panels split
    ``split``-fold: ``(value, error estimate)``.

    Integrates ``exp(-H_w(y)) [h_w(y) Z(y) - Z'(y)]`` over ``(x, z1)``, with
    ``Z`` the downward transform for the barrier ``y - c`` and ``z1 =
    c/(1-p)`` the knee (``x < z1`` here).  The rule is Gauss-Kronrod
    10/21: the hazard and ``Z`` are evaluated once at each of a panel's
    ``2 _GAUSS_N + 1`` Kronrod nodes; ``H_w`` at the nodes is the integral
    of the hazard's interpolant through them, and at the panel end their
    Kronrod sum.  Past the knee ``h_w = w + 1`` and ``h_w Z - Z' = 1``, so
    the rest of the integral is ``exp(-H_w(z1)) / (w + 1)``.  The value is
    the Kronrod one.  The same integral is also taken with the embedded
    ``_GAUSS_N``-point Gauss rule alone, ``H_w`` included, and the error
    estimate is ``|Kronrod - Gauss|`` summed over the panels and the tail:
    the Gauss value's error, a conservative estimate of the Kronrod
    value's.
    """
    nodes, wk = _KRONROD
    wg = _GAUSS[1]
    # panels end at the kink levels c/(1-p^k) above x (falling with k from
    # z1), where the strip (y - c, y) changes interval and the hazard kinks
    kinks, k = [], 1
    while (zk := c / (1.0 - p ** k)) > x:
        kinks.append(zk)
        k += 1
    ends = [x]
    for e in reversed(kinks):
        if e > ends[-1] + 1e-15:
            ends.append(e)
    H_k = H_g = 0.0  # cumulative hazard to the panel start: Kronrod, Gauss
    total = err = 0.0
    for a0, b0 in zip(ends[:-1], ends[1:]):
        for i in range(split):
            aa = a0 + (b0 - a0) * i / split
            bb = a0 + (b0 - a0) * (i + 1) / split
            half = 0.5 * (bb - aa)
            ys = half * nodes + 0.5 * (bb + aa)
            hs = np.array([hazard(w, p, y, c) for y in ys])
            zd, dzd = np.array([z_down_slope(w, p, y, y - c) for y in ys]).T
            f = hs * zd - dzd
            kronrod = half * (wk @ (np.exp(-(H_k + half * (_CUM_KRONROD @ hs))) * f))
            gauss = half * (wg @ (np.exp(-(H_g + half * (_CUM_GAUSS @ hs[1::2]))) * f[1::2]))
            total += kronrod
            err += abs(kronrod - gauss)
            H_k += half * (wk @ hs)
            H_g += half * (wg @ hs[1::2])
    tail = math.exp(-H_k) / (w + 1.0)
    err += abs(tail - math.exp(-H_g) / (w + 1.0))
    return float(total + tail), float(err)  # numpy scalars; shed the wrapper


def lst_drawdown(w: float, p: float, x: float, c: float,
                 qctrl: QuadratureControl = DEFAULT_QUAD, *,
                 diagnostics: Optional[dict] = None) -> float:
    """LST of the first time the process falls ``c`` below its running supremum.

    Integrates, over the level ``y`` where the supremum race ends, the
    discount-weighted survival ``exp(-H_w(y))`` of the race times the
    right-derivative in the upper level of the two-sided down-exit part,
    ``h_w(y) Z(y; y-c) - dZ/dx(y; y-c)``; ``H_w`` is the cumulative hazard
    from ``x`` and ``Z`` the downward transform.  Both slopes are exact
    sums from the scale-function tables.  The stretch past the knee
    ``c/(1-p)`` is closed form, and the head integral is one Gauss-Kronrod
    10/21 pass per kink-free panel (``2 _GAUSS_N + 1`` nodes), repeated on
    halved panels while ``|Kronrod - Gauss|`` misses the tolerance.
    ``diagnostics`` receives that estimate as ``quad_error`` and the number
    of passes as ``refinement_rounds``.  ``quad_error`` is the error of the
    embedded Gauss value, so it overstates the error of the Kronrod value
    returned: a conservative estimate.
    """
    _require(x > c > 0.0, f"drawdown needs x > c > 0, got x={x}, c={c}")
    if w == 0.0:
        return 1.0
    if (1.0 - p) * x >= c:
        # the first jump happens at a level >= x, and a jump from level y
        # opens a drawdown of (1-p) y >= (1-p) x >= c: the exit time is
        # exactly the first jump time
        return 1.0 / (1.0 + w)
    for rounds in range(1, _MAX_ROUNDS + 1):
        value, err = _drawdown_value(w, p, x, c, 2 ** (rounds - 1))
        if err <= max(qctrl.abs_tol, qctrl.rel_tol * abs(value)):
            break
    else:
        raise ConvergenceError(
            f"drawdown integral did not settle in {_MAX_ROUNDS} Gauss-Kronrod passes",
            partial=value)
    if diagnostics is not None:
        diagnostics.update(quad_error=err, refinement_rounds=rounds)
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# drawup: implicit balancing level and the cascade transform
# ---------------------------------------------------------------------------


def solve_a(w: float, p: float, c: float, u: float, tol: float = 1e-12) -> float:
    """Level ``a > u + c`` balancing the two-sided split at the drawup boundary.

    Solves ``l_up(w; u+c, a, u) = 1 - z_down(w; u+c, u)`` by bracket
    doubling and bisection; the map is strictly decreasing in ``a`` (larger
    targets are harder to reach first), so the root is unique.  Raises
    :class:`ConvergenceError`, with the final bracket's midpoint as
    ``partial``, if no midpoint's residual is within ``tol`` by the time
    the bracket closes to adjacent floats, or after 200 halvings.
    """
    _require(w > 0.0, f"solve_a needs w > 0, got {w}")
    _require(tol > 0.0, f"solve_a tol must be > 0, got {tol}")
    _require(c > 0.0 and u > 0.0, f"solve_a needs c > 0 and u > 0, got c={c}, u={u}")
    target = 1.0 - z_down(w, p, u + c, u)
    _require(0.0 < target < 1.0, f"degenerate drawup balance target {target}")

    def f(a: float) -> float:
        return l_up(w, p, u + c, a, u) - target

    lo = u + c
    d = max(c, 1.0)
    hi = lo + d
    while f(hi) > 0.0:
        d *= 2.0
        hi = lo + d
        if d > 1e12:
            raise ConvergenceError(
                f"drawup balance bracket exceeded 1e12 at w={w}, p={p}, c={c}, u={u}")
    halvings = 0
    while halvings < 200:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: no level left between them to try
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
        halvings += 1
    raise ConvergenceError(
        f"drawup balance residual not within tol={tol} after {halvings} halvings "
        f"at w={w}, p={p}, c={c}, u={u}", partial=0.5 * (lo + hi))


def lst_drawup(w: float, p: float, x: float, u: float, c: float,
               tol: float = 1e-7, diagnostics: Optional[dict] = None) -> float:
    """LST of the first time the process rises ``c`` above its running infimum.

    ``u`` is the infimum on record at time zero.  With ``u = 0`` no jump
    can create a new infimum below the floor and the event is a plain
    ascent over ``c``; otherwise the infimum-cascade renewal solver of
    :mod:`._drawup` applies.  ``tol`` bounds the cascade truncation error:
    the cascade stops at the first depth where the chance that a path lands
    on the ascent-seeded levels, times what the seeds can be off by there,
    is at most ``tol`` (``_drawup._generations``); past its 160-generation
    cap it raises :class:`ConvergenceError` with the value there as
    ``partial``.  ``diagnostics`` receives that bound as
    ``truncation_bound``.
    """
    return drawup_lst(w, p, x, u, c, tol=tol, diagnostics=diagnostics)
