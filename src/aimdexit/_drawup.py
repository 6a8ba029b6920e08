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
the cascade.  Each level is then solved by piecewise-Chebyshev collocation
of the renewal equation, with panel edges on the kink set ``{m p^{-j}}``
where ``chi`` switches branch.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import _require
from .scalefn import _log_up_denominators, z_up

__all__ = ["drawup_lst"]

_NN = 10  # Chebyshev-Lobatto nodes per panel
_KINK_CAP = 14  # branch-switch kinks kept as panel edges per strip


def _cheb_nodes(n: int):
    k = np.arange(n)
    nodes = -np.cos(np.pi * k / (n - 1))  # ascending on [-1, 1]
    weights = np.where(k % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


_GLX, _GLW = np.polynomial.legendre.leggauss(12)
_CHX, _CHW = _cheb_nodes(_NN)
# the 4-point stencil's weight of node k is prod_{l != k} (pos - l) / (k - l)
_OTHERS = np.array([[l for l in range(4) if l != k] for k in range(4)])
_GAPS = (np.arange(4)[:, None] - _OTHERS).astype(float)


def _panel_nodes(lo, hi) -> np.ndarray:
    """Chebyshev-Lobatto nodes of the panels ``[lo, hi]``, one column per panel."""
    return lo + (hi - lo) * (_CHX[:, None] + 1.0) / 2.0


def _interp_rows(yq: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Barycentric-interpolation weights at query points ``yq``.

    ``nodes`` (from :func:`_panel_nodes`) holds one panel for all points, or
    one panel per point.  Column ``i`` of the ``(_NN, n)`` result is the
    weight row of ``yq[i]``.
    """
    d = yq - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _CHW[:, None] / d
        # numpy's pairwise order for a contiguous row of ten, the order the
        # pinned values were computed in
        total = ((((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7])))
                 + t[8] + t[9])
        rows = t / total
    # a point on a node makes its sum infinite or nan
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        hit = d[:, bad] == 0.0
        on = hit.any(axis=0)
        rows[:, bad[on]] = hit[:, on]
    return rows


class _StripSolver:
    """Collocation solve of the strip renewal equation on ``[m, m + c]``.

    ``psi_eval`` supplies the fresh-start value for jump landings at or
    below ``m``.  Panels are anchored at the branch-switch kinks
    ``m p^{-j}`` (capped at ``_KINK_CAP``, always keeping ``m / p`` where the
    integrand's first branch switch occurs — deeper kinks are only
    C^1-discontinuities of already-solved levels and merge safely), then
    refined so no panel is wider than ``2.5 / (1 + w)``.  The system is
    assembled in one pass over the Gauss points of every integral at once.
    """

    def __init__(self, w, p, m, c, psi_eval):
        gw = 1.0 + w
        top = m + c
        kinks = []
        e = m
        while True:
            e /= p
            if e >= top * (1.0 - 1e-13):
                break
            kinks.append(e)
            if len(kinks) >= 240:
                break
        if len(kinks) > _KINK_CAP:
            kinks = [kinks[0]] + kinks[len(kinks) - (_KINK_CAP - 1):]
        raw = [m] + kinks + [top]
        hmax = 2.5 / gw
        edges = []
        for a0, b0 in zip(raw[:-1], raw[1:]):
            if b0 - a0 < 1e-13 * top:
                continue
            nsub = min(max(1, int(math.ceil((b0 - a0) / hmax))), 8)
            for i in range(nsub):
                edges.append(a0 + (b0 - a0) * i / nsub)
        edges.append(top)
        edges = np.array(edges)
        npan = edges.size - 1
        # consecutive panels share their edge node: one unknown per abscissa
        M = npan * (_NN - 1) + 1
        nodes = _panel_nodes(edges[:-1], edges[1:])
        V = np.append(nodes[:-1].T.ravel(), top)
        self.edges, self.nodes, self.V, self.npan = edges, nodes, V, npan
        self.m, self.top = m, top

        # Row i holds the partial integral from node v_i to the top b_q of
        # its panel, int_{v_i}^{b_q} e^{-gw (s - v_i)} chi(p s) ds, so the row
        # of a panel's first node is the whole panel integral.  Each row is a
        # constant (psi side of chi) plus a weight row on the unknown nodes
        # (g side).
        qn = np.minimum(np.arange(M) // (_NN - 1), npan - 1)  # panel of each node
        lo, hi = V, edges[qn + 1]
        live = np.flatnonzero(hi - lo > 1e-300)  # no partial integral from the top
        lo, hi = lo[live, None], hi[live, None]
        half = (hi - lo) / 2.0
        s = lo + half * (_GLX + 1.0)
        ps = (p * s).ravel()
        wq = (_GLW * half * np.exp(-gw * (s - lo))).ravel()
        row = np.repeat(live, _GLX.size)
        below = ps <= m
        cst = np.bincount(row[below], weights=wq[below] * psi_eval(ps[below]),
                          minlength=M)
        ya, wa, ra = ps[~below], wq[~below], row[~below]
        pan = np.clip(np.searchsorted(edges, ya, side="right") - 1, 0, npan - 1)
        # the weights reach bincount point by point, in the order they sum
        col = (ra * M + pan * (_NN - 1))[:, None] + np.arange(_NN)
        wrow = np.multiply(_interp_rows(ya, nodes.take(pan, axis=1)).T, wa[:, None],
                           order="C")
        A = np.bincount(col.ravel(), weights=wrow.ravel(), minlength=M * M).reshape(M, M)

        # suffix sums S_q = C_q + link_q S_{q+1}, C_q the row of panel q's
        # first node, so the tail of the integral from any panel boundary
        # upward is available in closed row form
        link = np.exp(-gw * np.diff(edges))  # e^{-gw (b_q - a_q)}
        Srow = np.zeros((npan + 1, M))
        Scst = np.zeros(npan + 1)
        for q in range(npan - 1, -1, -1):
            Srow[q] = A[q * (_NN - 1)] + link[q] * Srow[q + 1]
            Scst[q] = cst[q * (_NN - 1)] + link[q] * Scst[q + 1]

        # assemble (I - K) g = rhs over all collocation nodes
        fac = np.exp(-gw * (edges[qn + 1] - V))
        # I - K in place; an empty g side leaves bincount's int64 zeros in A
        K = A.astype(float, copy=False)
        K += fac[:, None] * Srow[qn + 1]
        np.negative(K, out=K)
        K.flat[::M + 1] += 1.0
        rhs = np.exp(-gw * (top - V)) + cst + fac * Scst[qn + 1]
        self.g = np.linalg.solve(K, rhs)

    def eval(self, y: float) -> float:
        if y >= self.top:
            return 1.0
        q = int(np.clip(np.searchsorted(self.edges, y, side="right") - 1, 0, self.npan - 1))
        row = _interp_rows(np.array([float(y)]), self.nodes[:, q:q + 1])[:, 0]
        return float(row @ self.g[q * (_NN - 1):q * (_NN - 1) + _NN])

    @property
    def bottom(self) -> float:
        return float(self.g[0])


def drawup_lst(w: float, p: float, x: float, u: float, c: float,
               tol: float = 1e-7, *, diagnostics: Optional[dict] = None) -> float:
    """LST of the first time the process rises ``c`` above its running infimum.

    Posed at jump rate 1.  ``u`` is the infimum already recorded at time
    zero (``0 <= u <= x``).
    With no recorded infimum yet below the start (``u == 0``, where 0 acts
    as the worst-case floor) the event reduces to plain ascent to ``c``.
    Otherwise the value is obtained from the infimum-cascade renewal
    described in the module docstring.

    ``tol`` controls the cascade truncation depth: generation ``G`` is
    chosen so the remaining mass ``(1/(1+w))^G`` times a bound on the
    jump activity at depth ``G`` falls below it.  The infimum grid has
    ``max(4, ceil(10 log(1/p)))`` levels per factor ``1/p`` of depth.
    """
    _require(u <= x, f"drawup needs u <= x, got u={u}, x={x}")
    _require(c > 0.0, f"drawup needs c > 0, got {c}")
    if w == 0.0 or x >= u + c:
        return 1.0
    if u == 0.0:
        return z_up(w, p, x, c) if x < c else 1.0
    eta = 1.0 / (1.0 + w)
    G, cap = 1, 160
    while G < cap:
        y = u * p ** G
        if eta ** G * min(1.0, 3.0 * y * (1.0 / p - 1.0)) <= tol:
            break
        G += 1
    n_per = max(4, int(math.ceil(math.log(1.0 / p) / 0.1)))
    h = math.log(1.0 / p) / n_per
    J = G * n_per
    logu = math.log(u)
    # three virtual levels below the cutoff keep the 4-point stencil in range
    levels = np.exp(logu - h * np.arange(J + 4))
    psi = np.full(J + 4, np.nan)
    ycut = levels[J]
    for jj in range(J + 1, J + 4):
        psi[jj] = z_up(w, p, levels[jj], levels[jj] + c)
    lowest = J + 1  # lowest index already solved (falls as the cascade ascends)

    def psi_eval(ys):
        out = np.empty(ys.size)
        deep = ys <= ycut
        if not deep.all():
            # 4-point Lagrange stencil in log level on solved levels j0..j0+3
            pos = (logu - np.log(ys[~deep])) / h
            j0 = np.minimum(np.maximum(np.floor(pos).astype(int) - 1, lowest), J)
            q = (pos - (j0 + _OTHERS[:, :, None])) / _GAPS[:, :, None]
            t = (q[:, 0] * q[:, 1]) * q[:, 2] * psi[j0 + np.arange(4)[:, None]]
            out[~deep] = t[0] + t[1] + t[2] + t[3]
        if deep.any():
            # below the cutoff psi is z_up(y, y + c): one ascent pass for both levels
            yd = ys[deep]
            logs = _log_up_denominators(w, p, np.concatenate([yd, yd + c])).tolist()
            out[deep] = [math.exp(a - b) for a, b in zip(logs[:yd.size], logs[yd.size:])]
        return out

    for j in range(J, 0, -1):
        lowest = j + 1
        psi[j] = _StripSolver(w, p, float(levels[j]), c, psi_eval).bottom
    lowest = 1
    strip = _StripSolver(w, p, float(levels[0]), c, psi_eval)
    if diagnostics is not None:
        diagnostics.update(generations=G, grid_levels=J + 1,
                           panels_final=strip.npan, tol=tol)
    return strip.eval(x) if x > u else strip.bottom
