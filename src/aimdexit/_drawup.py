"""Drawup passage transform via renewal over the running-infimum cascade.

The drawup time is the first moment the process exceeds its running infimum
by ``c``.  Starting inside the active strip ``[m, m + c]`` (``m`` = current
infimum), the discounted exit value ``g`` solves the renewal equation

    g(v) = e^{-(lam+w)(m+c-v)}
           + integral_v^{m+c} lam e^{-(lam+w)(s-v)} chi(p s) ds,

where the post-jump value ``chi(y)`` is ``g(y)`` while the jump lands inside
the strip (``y > m``) and equals the *fresh-start* value ``psi(y)`` when the
jump establishes a new infimum (``y <= m``), with ``psi(m) = g(m)`` by
definition of a restart at the bottom of a fresh strip.

``psi`` is computed bottom-up on a geometric grid of infimum levels: far
below the start the jump rate out of a strip of width ``c`` is negligible
(reaching ``m + c`` needs no jumps once ``lam * m`` is tiny), so
``psi(y) -> z_up(w; y, y + c)``, the jump-free ascent transform, which seeds
the cascade.  Each level is then solved by piecewise-Chebyshev collocation
of the renewal equation, with panel edges on the kink set ``{m p^{-j}}``
where ``chi`` switches branch.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import ValidationError, _require
from .scalefn import z_up

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


def _interp_rows(yq: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Barycentric-interpolation weight rows at query points within [lo, hi]."""
    nodes = lo + (hi - lo) * (_CHX + 1.0) / 2.0
    d = yq[:, None] - nodes[None, :]
    rows = np.zeros((yq.size, _NN))
    hit = d == 0.0
    anyhit = hit.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _CHW[None, :] / d
        rows[:] = t / t.sum(axis=1, keepdims=True)
    if anyhit.any():
        rows[anyhit] = hit[anyhit].astype(float)
    return rows


class _StripSolver:
    """Collocation solve of the strip renewal equation on ``[m, m + c]``.

    ``psi_eval`` supplies the fresh-start value for jump landings at or
    below ``m``.  Panels are anchored at the branch-switch kinks
    ``m p^{-j}`` (capped at ``_KINK_CAP``, always keeping ``m / p`` where the
    integrand's first branch switch occurs — deeper kinks are only
    C^1-discontinuities of already-solved levels and merge safely), then
    refined so no panel is wider than ``2.5 / (lam + w)``.
    """

    def __init__(self, w, lam, p, m, c, psi_eval):
        gw = lam + w
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
        M = npan * _NN
        V = np.empty(M)
        for q in range(npan):
            V[q * _NN:(q + 1) * _NN] = edges[q] + (edges[q + 1] - edges[q]) * (_CHX + 1.0) / 2.0
        self.edges, self.V, self.npan = edges, V, npan
        self.m, self.top = m, top

        # Per-panel contributions C_q = int_panel lam e^{-gw (s - a_q)} chi(p s) ds,
        # split into a known part (psi side of chi) and an unknown-row part (g side).
        Crow = np.zeros((npan, M))
        Ccst = np.zeros(npan)
        link = np.exp(-gw * np.diff(edges))  # e^{-gw (b_q - a_q)}

        def accumulate(points, weights, row_target, cst_add):
            ps = p * points
            below = ps <= m
            extra = 0.0
            if below.any():
                extra = float(weights[below] @ psi_eval(ps[below]))
            above = ~below
            if above.any():
                idx = np.searchsorted(edges, ps[above], side="right") - 1
                idx = np.clip(idx, 0, npan - 1)
                for qq in np.unique(idx):
                    sel = idx == qq
                    rows = _interp_rows(ps[above][sel], edges[qq], edges[qq + 1])
                    row_target[qq * _NN:(qq + 1) * _NN] += weights[above][sel] @ rows
            return extra

        for q in range(npan):
            a0, b0 = edges[q], edges[q + 1]
            half = (b0 - a0) / 2.0
            s = a0 + half * (_GLX + 1.0)
            wq = lam * _GLW * half * np.exp(-gw * (s - a0))
            Ccst[q] += accumulate(s, wq, Crow[q], 0.0)

        # suffix sums S_q = C_q + link_q S_{q+1}, so the tail of the integral
        # from any panel boundary upward is available in closed row form
        Srow = np.zeros((npan + 1, M))
        Scst = np.zeros(npan + 1)
        for q in range(npan - 1, -1, -1):
            Srow[q] = Crow[q] + link[q] * Srow[q + 1]
            Scst[q] = Ccst[q] + link[q] * Scst[q + 1]

        # assemble (I - K) g = rhs over all collocation nodes
        K = np.zeros((M, M))
        rhs = np.exp(-gw * (top - V))
        for q in range(npan):
            b0 = edges[q + 1]
            for j in range(_NN):
                i = q * _NN + j
                vi = V[i]
                if b0 - vi > 1e-300:  # partial integral over [vi, b0]
                    half = (b0 - vi) / 2.0
                    s = vi + half * (_GLX + 1.0)
                    wqr = lam * _GLW * half * np.exp(-gw * (s - vi))
                    rhs[i] += accumulate(s, wqr, K[i], 0.0)
                fac = math.exp(-gw * (b0 - vi))
                K[i] += fac * Srow[q + 1]
                rhs[i] += fac * Scst[q + 1]
        self.g = np.linalg.solve(np.eye(M) - K, rhs)

    def eval(self, y: float) -> float:
        if y >= self.top:
            return 1.0
        q = int(np.clip(np.searchsorted(self.edges, y, side="right") - 1, 0, self.npan - 1))
        row = _interp_rows(np.array([float(y)]), self.edges[q], self.edges[q + 1])[0]
        return float(row @ self.g[q * _NN:(q + 1) * _NN])

    @property
    def bottom(self) -> float:
        return float(self.g[0])


def drawup_lst(w: float, lam: float, p: float, x: float, u: float, c: float,
               tol: float = 1e-7, *, diagnostics: Optional[dict] = None) -> float:
    """LST of the first time the process rises ``c`` above its running infimum.

    ``u`` is the infimum already recorded at time zero (``0 <= u <= x``).
    With no recorded infimum yet below the start (``u == 0``, where 0 acts
    as the worst-case floor) the event reduces to plain ascent to ``c``.
    Otherwise the value is obtained from the infimum-cascade renewal
    described in the module docstring.

    ``tol`` controls the cascade truncation depth: generation ``G`` is
    chosen so the remaining mass ``(lam/(lam+w))^G`` times a bound on the
    jump activity at depth ``G`` falls below it.  The infimum grid has
    ``max(4, ceil(10 log(1/p)))`` levels per factor ``1/p`` of depth.
    """
    _require(u <= x, f"drawup needs u <= x, got u={u}, x={x}")
    _require(c > 0.0, f"drawup needs c > 0, got {c}")
    if w == 0.0 or x >= u + c:
        return 1.0
    if lam == 0.0:
        return math.exp(-w * (u + c - x))
    if u == 0.0:
        return z_up(w, lam, p, x, c) if x < c else 1.0
    eta = lam / (lam + w)
    G, cap = 1, 160
    while G < cap:
        y = u * p ** G
        if eta ** G * min(1.0, 3.0 * lam * y * (1.0 / p - 1.0)) <= tol:
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
        psi[jj] = z_up(w, lam, p, levels[jj], levels[jj] + c)
    min_idx = [J + 1]  # lowest index already computed (shrinks as cascade ascends)

    def psi_eval(ys):
        ys = np.asarray(ys, dtype=float)
        out = np.empty_like(ys)
        for ii, y in enumerate(ys):
            if y <= ycut:
                out[ii] = z_up(w, lam, p, y, y + c)
                continue
            pos = (logu - math.log(y)) / h
            j0 = int(math.floor(pos)) - 1
            j0 = max(j0, min_idx[0])
            j0 = min(j0, J)  # stencil j0..j0+3 stays inside the arrays
            val = 0.0
            for k in range(4):
                lk = 1.0
                for l in range(4):
                    if l != k:
                        lk *= (pos - (j0 + l)) / (k - l)
                val += lk * psi[j0 + k]
            out[ii] = val
        return out

    for j in range(J, -1, -1):
        min_idx[0] = j + 1
        strip = _StripSolver(w, lam, p, float(levels[j]), c, psi_eval)
        psi[j] = strip.bottom
        if j == 0:
            if diagnostics is not None:
                diagnostics.update(generations=G, grid_levels=J + 1,
                                   panels_final=strip.npan, tol=tol)
            return strip.eval(x) if x > u else strip.bottom
    raise ValidationError("drawup cascade underflow (unreachable)")
