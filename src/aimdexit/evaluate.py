"""Single entry point mapping an exit specification to its transform value."""

from __future__ import annotations

import math
from typing import Optional

from .model import ExitKind, ExitSpec, ModelParams, _require, normalize
from .reflected import (DEFAULT_QUAD, QuadratureControl, lst_drawdown, lst_drawup,
                        lst_reflected_lower, lst_reflected_upper)
from .scalefn import l_down, l_up, z_down, z_up
from .simulator import Side, _drift_only_exit

__all__ = ["evaluate"]


def evaluate(params: ModelParams, spec: ExitSpec, w: float,
             qctrl: QuadratureControl = DEFAULT_QUAD,
             drawup_tol: float = 1e-7, *,
             diagnostics: Optional[dict] = None) -> float:
    """Laplace-Stieltjes transform ``E[e^{-w tau}]`` of the requested exit time.

    Normalizes the slope to 1, then measures time and level in units of
    ``1/lam``: the evaluators take ``w/lam`` and ``lam`` times each level.
    Without jumps (``lam == 0``, or ``w/lam`` overflowing, where an exit
    that needs a jump weighs below ``lam/w < 1e-308``) the exit is the
    drift-only one: ``e^{-w tau}`` on the wanted side, else 0.  At ``w == 0``
    every kind but the two-sided ones returns 1 before the levels are
    folded; a positive level that ``lam`` scales to 0 is a
    ``ValidationError``.  ``qctrl``
    governs the drawdown quadrature and ``drawup_tol`` the drawup cascade
    depth, by bounding its truncation error.
    ``diagnostics``, when given a dict, is filled with evaluator internals
    where the kind reports them: series terms used (up-one), interval
    index and escalated digits (down-one), quadrature error and refinement
    rounds (drawdown: ``|Kronrod - Gauss|`` of the Gauss-Kronrod 10/21
    pass, ``2 _GAUSS_N + 1`` nodes a panel, and the passes; that is the
    embedded Gauss value's error, a conservative estimate of the error of
    the Kronrod value returned), and cascade depth (drawup: ``generations``
    and the ``truncation_bound`` reached there, at most ``drawup_tol``; a
    cascade that reaches its 160-generation cap with the bound still above
    it raises ``ConvergenceError``).
    """
    nparams, spec, w = normalize(params, spec, w)
    lam, p, kind = nparams.lam, nparams.p, spec.kind
    if lam == 0.0 or w / lam == math.inf:
        tau, side = _drift_only_exit(kind, spec, math.inf)
        if side is Side.CENSORED or kind is ExitKind.TWO_SIDED_DOWN:
            return 0.0  # no exit, or the upward one where the lower end is wanted
        return math.exp(-w * tau)
    if w == 0.0 and kind not in (ExitKind.TWO_SIDED_UP, ExitKind.TWO_SIDED_DOWN):
        return 1.0  # the exit's probability: 1 wherever there is one exit to take
    w /= lam
    levels = {}
    for name, v in spec.levels().items():
        levels[name] = lam * v
        _require(levels[name] > 0.0 or v == 0.0,
                 f"level {name}={v} underflows to 0 at jump rate lam={lam}")
    x, a, b, c, u, xbar0 = map(levels.get, ("x", "a", "b", "c", "u", "xbar0"))
    if kind is ExitKind.UP_ONE:
        return z_up(w, p, x, a, diagnostics=diagnostics)
    if kind is ExitKind.DOWN_ONE:
        return z_down(w, p, x, b, diagnostics=diagnostics)
    if kind is ExitKind.TWO_SIDED_UP:
        return l_up(w, p, x, a, b)
    if kind is ExitKind.TWO_SIDED_DOWN:
        return l_down(w, p, x, a, b)
    if kind is ExitKind.REFL_UPPER_DOWN:
        return lst_reflected_upper(w, p, x, a, c)
    if kind is ExitKind.REFL_LOWER_UP:
        return lst_reflected_lower(w, p, x, c, b)
    if kind is ExitKind.DRAWDOWN:
        # a supremum xbar0 >= x on record stays the reference while the path
        # is inside (xbar0 - c, xbar0): leaving below ends the drawdown,
        # leaving above starts the fresh-supremum problem at xbar0
        if xbar0 is None or xbar0 == x:
            return lst_drawdown(w, p, x, c, qctrl, diagnostics=diagnostics)
        floor = xbar0 - c
        if floor >= x:
            return 1.0  # the recorded drawdown already reaches c
        return l_down(w, p, x, xbar0, floor) + l_up(w, p, x, xbar0, floor) \
            * lst_drawdown(w, p, xbar0, c, qctrl, diagnostics=diagnostics)
    if kind is ExitKind.DRAWUP:
        return lst_drawup(w, p, x, u, c, tol=drawup_tol, diagnostics=diagnostics)
    raise AssertionError(f"unhandled kind {kind!r}")
