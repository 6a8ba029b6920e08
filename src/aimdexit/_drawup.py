"""Drawup passage transform via renewal over the running-infimum cascade.

The drawup time is the first moment the process exceeds its running infimum
by ``c``.  At jump rate 1, as in :mod:`.scalefn`, and starting inside the
active strip ``[m, m + c]`` (``m`` = current infimum), the discounted exit
value ``g`` solves the renewal equation

    g(v) = e^{-(1+w)(m+c-v)}
           + integral_v^{m+c} e^{-(1+w)(s-v)} chi(p s) ds,

where the post-jump value ``chi(y)`` is ``g(y)`` while the jump lands inside
the strip (``y > m``) and equals the *fresh-start* value ``psi(y)`` when the
jump establishes a new infimum (``y <= m``), with ``psi(m) = g(m)`` by
definition of a restart at the bottom of a fresh strip.

``psi`` is computed bottom-up on a geometric grid of infimum levels: far
below the start the jump rate out of a strip of width ``c`` is negligible
(reaching ``m + c`` needs no jumps once ``m`` is tiny), so
``psi(y) -> z_up(w; y, y + c)``, the jump-free ascent transform, which seeds
the cascade: the virtual levels below its cutoff, down to where the lowest
strip lands.  The cutoff's depth comes from a bound on how rarely a path
lands that deep at all (:func:`_generations`).  Each level is then solved
by piecewise-Chebyshev collocation of the renewal equation, with panel
edges on the kink set ``{m p^{-j}}`` where ``chi`` switches branch.

Only the constant that ``psi`` contributes to each strip's system depends
on the levels below.  So the cascade builds everything else first, for a
window of consecutive levels at a time: the panels, the landings, the
matrix ``I - K``, and for each landing the 4-point Lagrange weights that
interpolate ``psi`` there.  Strips with equal panel counts are stacked and
assembled in one pass (:class:`_Strips`).  The level loop is then left with
``psi``'s part alone: the interpolation, the constant and one linear solve
per level.  Level 0 is the start's own strip ``[u, u + c]``: the loop ends
there, and its solution is interpolated at the start.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import ConvergenceError, _require
from .scalefn import z_up

__all__ = ["drawup_lst"]

_NN = 10  # Chebyshev-Lobatto nodes per panel
_KINK_CAP = 14  # branch-switch kinks kept as panel edges per strip
# the cascade's assembled, unsolved systems hold at most about this many
# matrix entries; the strips of one assembly pass, this many Gauss points
_HELD_ENTRIES = 1 << 17
_CHUNK_POINTS = 4608


def _cheb_nodes(n: int):
    k = np.arange(n)
    nodes = -np.cos(np.pi * k / (n - 1))  # ascending on [-1, 1]
    weights = np.where(k % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


_GLX, _GLW = np.polynomial.legendre.leggauss(12)
_CHX, _CHW = _cheb_nodes(_NN)
# the 4-point Lagrange weight of node k is prod_{l != k} (pos - l) / (k - l)
_OTHERS = np.array([[l for l in range(4) if l != k] for k in range(4)])
_GAPS = (np.arange(4)[:, None] - _OTHERS).astype(float)


def _panel_nodes(lo, hi) -> np.ndarray:
    """Chebyshev-Lobatto nodes of the panels ``[lo, hi]``, one column per panel."""
    return lo + (hi - lo) * (_CHX[:, None] + 1.0) / 2.0


def _interp_rows(d: np.ndarray) -> np.ndarray:
    """Barycentric-interpolation weights from the differences ``d = y - nodes``.

    ``nodes`` (from :func:`_panel_nodes`) holds one panel for all query
    points ``y``, or one panel per point.  Column ``i`` of the ``(_NN, n)``
    result is the weight row of ``y[i]``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _CHW[:, None] / d
        # numpy's pairwise order for a contiguous row of ten, the order the
        # pinned values were computed in
        total = ((((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7])))
                 + t[8] + t[9])
        rows = np.divide(t, total, out=t)
    # a point on a node makes its sum infinite or nan
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        hit = d[:, bad] == 0.0
        on = hit.any(axis=0)
        rows[:, bad[on]] = hit[:, on]
    return rows


def _strip_edges(gw, p, m, top) -> np.ndarray:
    """Panel edges of the strip ``[m, top]``.

    Panels are anchored at the branch-switch kinks ``m p^{-j}``: always
    ``m / p``, where the integrand's first branch switch occurs, and the
    top-most ``_KINK_CAP - 1`` of the others (deeper kinks are only
    C^1-discontinuities of already-solved levels and merge safely).  A kink
    within ``1e-13 top`` of the edge below it is dropped, so the strip
    always runs from ``m`` to ``top``.  The panels are then refined so no
    panel is wider than ``2.5 / (1 + w)``.
    """
    kinks = []
    e, lim = m / p, top * (1.0 - 1e-13)
    while e < lim:
        kinks.append(e)
        e /= p
    if len(kinks) > _KINK_CAP:
        kinks = [kinks[0]] + kinks[1 - _KINK_CAP:]
    raw = [m]
    for e in kinks:
        if e - raw[-1] >= 1e-13 * top:
            raw.append(e)
    raw.append(top)
    hmax = 2.5 / gw
    edges = []
    for a0, b0 in zip(raw[:-1], raw[1:]):
        nsub = min(max(1, int(math.ceil((b0 - a0) / hmax))), 8)
        for i in range(nsub):
            edges.append(a0 + (b0 - a0) * i / nsub)
    edges.append(top)
    return np.array(edges)


class _Strips:
    """Collocation systems of strips ``[m, m + c]`` with equal panel counts.

    Row ``i`` of a strip's system holds the partial integral from node
    ``v_i`` to the top ``b_q`` of its panel,
    ``int_{v_i}^{b_q} e^{-gw (s - v_i)} chi(p s) ds``, so the row of a
    panel's first node is the whole panel integral.  Each row is a constant
    (the ``psi`` side of ``chi``) plus a weight row on the unknown nodes
    (the ``g`` side).  Everything but the constant is assembled here, in one
    pass over the Gauss points of every integral of every strip; strip
    ``b``'s bins are offset by ``b`` strips, so each bin sums its points in
    the order a lone strip would.  :meth:`solve` adds the constant from
    ``psi`` at the strip's landings at or below ``m`` and solves.
    """

    def __init__(self, gw, p, ms, edges):
        nb, npan = edges.shape[0], edges.shape[1] - 1
        # consecutive panels share their edge node: one unknown per abscissa
        M = npan * (_NN - 1) + 1
        nodes = _panel_nodes(edges[:, :-1].ravel(), edges[:, 1:].ravel())
        V = np.hstack([nodes[:-1].T.reshape(nb, M - 1), edges[:, -1:]])
        qn = np.minimum(np.arange(M) // (_NN - 1), npan - 1)  # panel of each node
        top_q = edges[:, qn + 1]  # the top of each node's panel
        live = np.flatnonzero(top_q - V > 1e-300)  # no partial integral from the top
        lo, hi = V.ravel()[live, None], top_q.ravel()[live, None]
        half = (hi - lo) / 2.0
        s = lo + half * (_GLX + 1.0)
        ps = (p * s).ravel()
        wq = (_GLW * half * np.exp(-gw * (s - lo))).ravel()
        row = np.repeat(live, _GLX.size)  # node i of strip b is bin b M + i
        sb = row // M
        below = ps <= ms[sb]
        self.ys, self.wl, lrow = ps[below], wq[below], row[below]
        self.bounds = np.searchsorted(lrow, np.arange(nb + 1) * M).tolist()
        self.lrow = lrow % M
        above = ~below
        ya, wa, ra, sa = ps[above], wq[above], row[above], sb[above]
        cuts = np.searchsorted(sa, np.arange(nb + 1)).tolist()
        pan = np.concatenate([np.searchsorted(e, ya[i:k], side="right")
                              for e, i, k in zip(edges, cuts, cuts[1:])]) - 1
        d = nodes.take(sa * npan + pan, axis=1)
        wrow = _interp_rows(np.subtract(ya, d, out=d))
        wrow *= wa
        del d
        # node-major, so each bin sums its points in their own order: an
        # edge node takes the panel below it (as its node 9) from bincount,
        # then the panel above (as its node 0) from add.at.  An empty g side
        # leaves bincount's int64 zeros.
        col = (ra * M + pan * (_NN - 1)) + np.arange(_NN)[:, None]
        A = np.bincount(col[1:].ravel(), weights=wrow[1:].ravel(),
                        minlength=nb * M * M).astype(float, copy=False)
        np.add.at(A, col[0], wrow[0])

        # I - K over all collocation nodes, in place.  Row i takes
        # fac_i S_{q+1}, q its panel, where the suffix sum
        # S_q = C_q + link_q S_{q+1} (C_q the row of panel q's first node) is
        # the integral from panel q's bottom edge upward, and
        # link_q = e^{-gw (b_q - a_q)} is that node's fac.  So S_q is the
        # finished first row of panel q, and the panels are done from the
        # top down.  The top panel's rows take S_npan = 0: adding 0.0 changes
        # no entry, as these sums are never -0.0.
        fac = np.exp(-gw * (top_q - V))
        K = A.reshape(nb, M, M)
        for q in range(npan - 2, -1, -1):
            r = slice(q * (_NN - 1), (q + 1) * (_NN - 1))
            K[:, r] += fac[:, r, None] * K[:, r.stop, None, :]
        np.negative(K, out=K)
        K.reshape(nb, M * M)[:, ::M + 1] += 1.0
        self.K, self.fac, self.links = K, fac, fac[:, :-1:_NN - 1].tolist()
        self.next_q = qn + 1  # the panel above each node's own
        self.nojump = np.exp(-gw * (edges[:, -1:] - V))  # e^{-gw (top - v)}
        self.edges, self.nodes, self.V, self.npan, self.M = edges, nodes, V, npan, M

    def solve(self, b: int, vals: np.ndarray) -> np.ndarray:
        """Nodal values of strip ``b``, from ``psi`` at the landings ``ys``
        (strip ``b``'s are ``ys[bounds[b]:bounds[b + 1]]``)."""
        lo, hi = self.bounds[b], self.bounds[b + 1]
        cst = np.bincount(self.lrow[lo:hi], weights=self.wl[lo:hi] * vals[lo:hi],
                          minlength=self.M)
        heads, link = cst[::_NN - 1].tolist(), self.links[b]
        Scst = [0.0] * (self.npan + 1)
        for q in range(self.npan - 1, -1, -1):
            Scst[q] = heads[q] + link[q] * Scst[q + 1]
        rhs = self.nojump[b] + cst + self.fac[b] * np.array(Scst)[self.next_q]
        try:
            return np.linalg.solve(self.K[b], rhs)
        except np.linalg.LinAlgError as exc:  # levels so small their nodes collapse
            raise ConvergenceError(f"drawup strip system at [{self.edges[b][0]}, "
                                   f"{self.edges[b][-1]}]: {exc}") from None

    def value(self, b: int, g: np.ndarray, y: float) -> float:
        """Strip ``b``'s nodal solution ``g`` interpolated at ``y`` on its panel."""
        edges = self.edges[b]
        if y >= edges[-1]:
            return 1.0
        q = min(max(int(np.searchsorted(edges, y, side="right")) - 1, 0), self.npan - 1)
        row = _interp_rows(float(y) - self.nodes[:, b * self.npan + q, None])[:, 0]
        return float(row @ g[q * (_NN - 1):q * (_NN - 1) + _NN])


def _generations(w: float, p: float, u: float, tol: float, cap: int = 160):
    """Cascade depth ``G`` for ``tol``, and the truncation bound reached there.

    Below the cutoff ``levels[J] = u p^G`` (``J = G n_per``) the cascade
    seeds ``psi(y)`` with ``z_up(y, y + c)``.  The depth is the first
    ``G >= 1`` with ``15 reach(G) gap(G) <= tol``, or ``cap``:

        eta = 1/(1+w),   f(a) = eta (1 - e^{-(1+w) a}) = E[e^{-wT}; T <= a]
        reach(G) = min(eta^(G-1), (1+w)/w prod_{i=0}^{G-2} f(u p^i))
        gap(G)   = min(1, (1 - e^{-(1+w) y (1/p - 1)}) / w),   y = u p^G

    ``T ~ Exp(1)`` is an inter-jump time at jump rate 1.  The jump that
    ends ``T_k`` maps the level ``X_{k-1} + T_k`` to
    ``X_k = p (X_{k-1} + T_k) >= 0``; a new infimum is such a landing.

    * Where the seeds enter.  A landing at position ``pos`` on the level
      grid, in the strip of level ``j``, takes ``psi`` from levels
      ``max(floor(pos) - 1, j + 1)`` and the three above them.  That
      reaches a seed (past ``J``) only if ``pos >= J - 1`` or
      ``j >= J - 3``: only for a landing at or below ``levels[J - 3]``,
      which is at most ``u p^(G-1)`` as ``n_per >= 4``.
    * Reach.  A landing ``X_k <= u p^(G-1)`` needs
      ``X_{k-1} + T_k <= u p^(G-2)``, so ``T_k <= u p^(G-2)`` and
      ``X_{k-1} <= u p^(G-2)``, and so on down: the ``G - 1`` inter-jump
      times before it are at most ``u p^(G-2), ..., u p^0``, and as the
      start is at least ``u`` it takes at least ``G - 1`` jumps.  So the
      first such landing weighs at most ``eta^(G-1)``, discounted, and
      summed over the ``n >= 0`` unconstrained jumps before the chain,
      all of them weigh at most ``sum_n eta^n prod f = (1+w)/w prod f``.
    * Gap.  A fresh start at ``y`` rises ``c`` no later than it reaches
      ``y + c``, so ``psi(y) >= z_up(y, y + c)``, and the two differ only
      where a new infimum comes first, at a time ``sigma`` that weighs
      ``e^{-w sigma}``.  Until then every post-jump level is at least
      ``y``, so the inter-jump time before that jump is below
      ``y (1/p - 1)``; summed over which jump it is,
      ``0 <= psi(y) - z_up(y, y + c) <= f(y (1/p - 1)) (1+w)/w``, and at
      most 1.  The seeds lie below ``u p^G``, where the bound is smaller.
    * 15.  A stencil's weights sum in absolute value to at most
      ``|4| + |-6| + |4| + |-1| = 15``, at the clamped extrapolation
      ``t = -1``; elsewhere to at most 1.25.

    By the strong Markov property at the first landing at or below
    ``u p^(G-1)``, the result moves by at most ``reach * 15 * gap``, with
    the solved levels ``J - 3..J`` among a stencil's nodes (fresh starts
    fed by the same seeds) taken within the seeds' bound.  This counts the
    truncation alone; the strips and the level grid carry their own
    discretization error.  ``(1+w)/w`` overflows at tiny ``w``: there
    ``eta^(G-1)`` alone is the reach, so ``inf * 0`` never forms.
    """
    gw = 1.0 + w
    eta = 1.0 / gw
    count = gw / w
    chain = 1.0  # prod_{i=0}^{G-2} f(u p^i)
    for G in range(1, cap + 1):
        if G > 1:
            chain *= -eta * math.expm1(-gw * u * p ** (G - 2))
        reach = eta ** (G - 1)
        if count < math.inf:
            reach = min(reach, count * chain)
        gap = min(1.0, -math.expm1(-gw * u * p ** G * (1.0 / p - 1.0)) / w)
        bound = 15.0 * reach * gap
        if bound <= tol:
            break
    return G, bound


def drawup_lst(w: float, p: float, x: float, u: float, c: float,
               tol: float = 1e-7, *, diagnostics: Optional[dict] = None) -> float:
    """LST of the first time the process rises ``c`` above its running infimum.

    Posed at jump rate 1.  ``u`` is the infimum already recorded at time
    zero (``0 <= u <= x``).
    With no recorded infimum yet below the start (``u == 0``, where 0 acts
    as the worst-case floor) the event reduces to plain ascent to ``c``.
    A distance ``t = u + c - x`` so short that a jump before the drift
    covers it weighs below half an ulp of ``e^{-(w+1) t}`` returns that
    drift-only value.  Otherwise the value is obtained from the
    infimum-cascade renewal described in the module docstring.

    ``tol > 0`` bounds the cascade truncation error: the cascade stops at
    the first generation ``G`` (a factor ``1/p`` of depth each) whose
    bound from :func:`_generations` (the chance that a path ever lands
    where the ascent seeds enter, times what they can be off by there) is
    at most ``tol``.  Where the bound is still above ``tol`` at the
    160-generation cap, the cascade is solved there and
    :class:`ConvergenceError` is raised with its value as ``partial``; so it
    is, without one, where the cascade comes out non-finite or a strip's
    system is singular (levels near 1e-300).  The value is clamped to
    ``[0, 1]``.  The infimum grid has ``max(4, ceil(10 log(1/p)))`` levels
    per generation.
    ``diagnostics`` receives ``generations``, the ``truncation_bound``
    reached there, ``grid_levels`` (one strip solve each), ``panels_final``
    and ``tol``.
    """
    _require(0.0 <= u <= x, f"drawup needs 0 <= u <= x, got u={u}, x={x}")
    _require(c > 0.0, f"drawup needs c > 0, got {c}")
    _require(tol > 0.0, f"drawup tol must be > 0, got {tol}")
    if w == 0.0 or x >= u + c:
        return 1.0
    # drift alone reaches u + c after t, jump-free with weight e^{-(w+1) t};
    # a path that jumps first (chance 1 - e^{-t}) then weighs below half an ulp
    t = u + c - x
    if -math.expm1(-t) <= 2.0 ** -54 * math.exp(-(w + 1.0) * t):
        return math.exp(-(w + 1.0) * t)
    if u == 0.0:
        return z_up(w, p, x, c)
    G, bound = _generations(w, p, u, tol)
    n_per = max(4, int(math.ceil(math.log(1.0 / p) / 0.1)))
    h = math.log(1.0 / p) / n_per
    J = G * n_per
    logu = math.log(u)
    # the lowest strip's landings reach p levels[J], n_per levels below the
    # cutoff, and the stencil of a landing at level position pos reaches
    # floor(pos) + 2: so n_per + 2 virtual levels, each seeded by z_up
    levels = np.exp(logu - h * np.arange(J + n_per + 3))
    psi = np.full(levels.size, np.nan)
    for jj in range(J + 1, levels.size):
        psi[jj] = z_up(w, p, levels[jj], levels[jj] + c)

    def landings(ys, lowest):
        """The 4-point Lagrange interpolation of ``psi`` at the landings ``ys``,
        in log level on solved levels ``j0..j0+3`` (``j0`` no lower than
        ``lowest``, per landing): its level indices and weights."""
        pos = (logu - np.log(ys)) / h
        idx = np.maximum(np.floor(pos).astype(int) - 1, lowest) + np.arange(4)[:, None]
        q = (pos - idx)[_OTHERS] / _GAPS[:, :, None]
        return idx, (q[:, 0] * q[:, 1]) * q[:, 2]

    gw = 1.0 + w
    j = J
    while j >= 0:
        # a window of consecutive levels, whose systems are held at once;
        # its strips with equal panel counts are assembled together, in
        # chunks of at most _CHUNK_POINTS Gauss points (or one strip)
        window, held = {}, 0
        while j >= 0 and held < _HELD_ENTRIES:
            m = float(levels[j])
            window[j] = _strip_edges(gw, p, m, m + c)
            held += ((window[j].size - 1) * (_NN - 1) + 1) ** 2
            j -= 1
        slots = {}
        for size in {e.size for e in window.values()}:
            same = [jj for jj, e in window.items() if e.size == size]
            per = max(1, _CHUNK_POINTS // ((size - 1) * (_NN - 1) * _GLX.size))
            for k in range(0, len(same), per):
                js = same[k:k + per]
                strips = _Strips(gw, p, levels[js], np.array([window[jj] for jj in js]))
                idx, wts = landings(
                    strips.ys, np.repeat(np.array(js) + 1, np.diff(strips.bounds)))
                vals = np.empty(strips.ys.size)
                for b, jj in enumerate(js):
                    at = slice(strips.bounds[b], strips.bounds[b + 1])
                    slots[jj] = (strips, b, vals, at, idx[:, at], wts[:, at])
        # the level loop: psi's part of each system, and its solve
        for jj in window:
            strips, b, vals, at, idx, wts = slots.pop(jj)
            t = wts * psi[idx]
            vals[at] = t[0] + t[1] + t[2] + t[3]
            g = strips.solve(b, vals)
            psi[jj] = g[0]

    # the loop ends on level 0, the start's own strip
    if diagnostics is not None:
        diagnostics.update(generations=G, truncation_bound=bound, grid_levels=J + 1,
                           panels_final=strips.npan, tol=tol)
    value = strips.value(b, g, x) if x > u else float(g[0])
    if not math.isfinite(value):
        raise ConvergenceError(f"drawup cascade came out {value} (w={w}, p={p}, u={u}, c={c})")
    if bound > tol:
        raise ConvergenceError(
            f"drawup cascade truncation bound {bound:.3g} exceeds tol={tol} at its "
            f"{G}-generation cap (w={w}, p={p}, u={u})", partial=value)
    # rounding may put a value next to certainty a few ulps above it
    return min(max(value, 0.0), 1.0)
