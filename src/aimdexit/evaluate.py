"""Single entry point mapping an exit specification to its transform value."""

from __future__ import annotations

from typing import Optional

from .model import ExitKind, ExitSpec, ModelParams, normalize
from .reflected import (DEFAULT_QUAD, QuadratureControl, lst_drawdown,
                        lst_drawdown_general_start, lst_drawup,
                        lst_reflected_lower, lst_reflected_upper, solve_a)
from .scalefn import (DEFAULT_SERIES, SeriesControl, l_down, l_up, z_down,
                      z_up)

__all__ = ["evaluate"]


def evaluate(params: ModelParams, spec: ExitSpec, w: float,
             series: SeriesControl = DEFAULT_SERIES,
             qctrl: QuadratureControl = DEFAULT_QUAD,
             drawup_tol: float = 1e-7,
             diagnostics: Optional[dict] = None) -> float:
    """Laplace-Stieltjes transform ``E[e^{-w tau}]`` of the requested exit time.

    Normalizes the slope to 1 (rescaling ``lam`` and ``w``), then
    dispatches on the exit kind.  ``diagnostics``, when given a dict, is
    filled with evaluator internals: series terms used, quadrature error
    estimates, cascade depth, and (for drawup) the implicit-level root and
    its residual.
    """
    nparams, spec, w = normalize(params, spec, w)
    lam, p = nparams.lam, nparams.p
    kind = spec.kind
    if kind is ExitKind.UP_ONE:
        return z_up(w, lam, p, spec.x, spec.a, series, diagnostics)
    if kind is ExitKind.DOWN_ONE:
        if lam == 0.0:
            return 0.0  # no jumps, no downward crossing, ever
        if w == 0.0:
            return 1.0
        return z_down(w, lam, p, spec.x, spec.b, series, diagnostics)
    if kind is ExitKind.TWO_SIDED_UP:
        return l_up(w, lam, p, spec.x, spec.a, spec.b, series)
    if kind is ExitKind.TWO_SIDED_DOWN:
        return l_down(w, lam, p, spec.x, spec.a, spec.b, series)
    if kind is ExitKind.REFL_UPPER_DOWN:
        return lst_reflected_upper(w, lam, p, spec.x, spec.a, spec.c, series)
    if kind is ExitKind.REFL_LOWER_UP:
        return lst_reflected_lower(w, lam, p, spec.x, spec.c, spec.b, series)
    if kind is ExitKind.DRAWDOWN:
        if spec.xbar0 is not None:
            return lst_drawdown_general_start(w, lam, p, spec.x, spec.xbar0, spec.c,
                                              qctrl, diagnostics=diagnostics)
        return lst_drawdown(w, lam, p, spec.x, spec.c, qctrl, diagnostics=diagnostics)
    if kind is ExitKind.DRAWUP:
        value = lst_drawup(w, lam, p, spec.x, spec.u, spec.c,
                           tol=drawup_tol, diagnostics=diagnostics)
        if (diagnostics is not None and w > 0.0 and lam > 0.0 and spec.u > 0.0):
            # surface the implicit balancing level and its defining residual
            a_root = solve_a(w, lam, p, spec.c, spec.u, series=series)
            resid = abs(z_down(w, lam, p, spec.u + spec.c, spec.u, series)
                        + l_up(w, lam, p, spec.u + spec.c, a_root, spec.u, series) - 1.0)
            diagnostics.update(balance_level=a_root, root_residual=resid)
        return value
    raise AssertionError(f"unhandled kind {kind!r}")
