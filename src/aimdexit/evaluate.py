"""Single entry point mapping an exit specification to its transform value."""

from __future__ import annotations

from typing import Optional

from .model import ExitKind, ExitSpec, ModelParams, normalize
from .reflected import (DEFAULT_QUAD, QuadratureControl, lst_drawdown,
                        lst_drawdown_general_start, lst_drawup,
                        lst_reflected_lower, lst_reflected_upper)
from .scalefn import l_down, l_up, z_down, z_up

__all__ = ["evaluate"]


def evaluate(params: ModelParams, spec: ExitSpec, w: float,
             qctrl: QuadratureControl = DEFAULT_QUAD,
             drawup_tol: float = 1e-7, *,
             diagnostics: Optional[dict] = None) -> float:
    """Laplace-Stieltjes transform ``E[e^{-w tau}]`` of the requested exit time.

    Normalizes the slope to 1 (rescaling ``lam`` and ``w``), then
    dispatches on the exit kind.  ``qctrl`` governs the drawdown
    quadrature and ``drawup_tol`` the drawup cascade depth.
    ``diagnostics``, when given a dict, is filled with evaluator internals
    where the kind reports them: series terms used (up-one), interval
    index and escalated digits (down-one), quadrature error and refinement
    rounds (drawdown), and cascade depth (drawup).
    """
    nparams, spec, w = normalize(params, spec, w)
    lam, p = nparams.lam, nparams.p
    kind = spec.kind
    if kind is ExitKind.UP_ONE:
        return z_up(w, lam, p, spec.x, spec.a, diagnostics=diagnostics)
    if kind is ExitKind.DOWN_ONE:
        if lam == 0.0:
            return 0.0  # no jumps, no downward crossing, ever
        if w == 0.0:
            return 1.0
        return z_down(w, lam, p, spec.x, spec.b, diagnostics=diagnostics)
    if kind is ExitKind.TWO_SIDED_UP:
        return l_up(w, lam, p, spec.x, spec.a, spec.b)
    if kind is ExitKind.TWO_SIDED_DOWN:
        return l_down(w, lam, p, spec.x, spec.a, spec.b)
    if kind is ExitKind.REFL_UPPER_DOWN:
        return lst_reflected_upper(w, lam, p, spec.x, spec.a, spec.c)
    if kind is ExitKind.REFL_LOWER_UP:
        return lst_reflected_lower(w, lam, p, spec.x, spec.c, spec.b)
    if kind is ExitKind.DRAWDOWN:
        if spec.xbar0 is not None:
            return lst_drawdown_general_start(w, lam, p, spec.x, spec.xbar0, spec.c,
                                              qctrl, diagnostics=diagnostics)
        return lst_drawdown(w, lam, p, spec.x, spec.c, qctrl, diagnostics=diagnostics)
    if kind is ExitKind.DRAWUP:
        return lst_drawup(w, lam, p, spec.x, spec.u, spec.c,
                          tol=drawup_tol, diagnostics=diagnostics)
    raise AssertionError(f"unhandled kind {kind!r}")
