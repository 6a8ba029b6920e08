"""Exit-time Laplace-Stieltjes transforms of the AIMD growth-collapse process.

The process increases linearly (slope ``beta``) between the epochs of a
Poisson clock of rate ``lam`` and is multiplied by ``p`` in ``(0, 1)`` at
each epoch.  This package evaluates the transforms ``E[e^{-w tau}]`` (and
one-sided restrictions) of eight exit times — one-sided up and down
crossings, two-sided exits through either end, down- and up-crossings
under reflection, and drawdown/drawup times — together with an exact
event-driven Monte Carlo simulator and a confrontation harness that
validates every formula against it and against independent quadrature
oracles.

Quick start::

    from aimdexit import ModelParams, ExitSpec, ExitKind, evaluate
    value = evaluate(ModelParams(lam=1.0, p=0.5),
                     ExitSpec(kind=ExitKind.UP_ONE, x=1.0, a=2.0), w=0.5)
"""

from .evaluate import evaluate
from .model import (AimdError, ConvergenceError, ExitKind, ExitSpec,
                    ModelParams, ValidationError, normalize)
from .reflected import QuadratureControl, lst_drawup, solve_a
from .scalefn import (interval_index, k_up_coeffs, l_down, l_up, l_up_from_b,
                      z_down, z_up)
from .simulator import McConfig, McEstimate, Side, default_horizon_cap, mc_lst
from .validate import (ComparisonRow, default_grid, quadrature_oracle_lup,
                       run_suite, volterra_oracle_zup)

__version__ = "0.1.0"

# what the acceptance criteria, the CLI and evaluate's signature, return and
# exceptions name; every other evaluator stays public in its module
__all__ = [
    "AimdError", "ValidationError", "ConvergenceError",
    "ExitKind", "ExitSpec", "ModelParams", "normalize",
    "QuadratureControl",
    "z_up", "z_down", "interval_index",
    "k_up_coeffs", "l_up", "l_up_from_b", "l_down",
    "lst_drawup", "solve_a",
    "evaluate",
    "Side", "McConfig", "McEstimate",
    "default_horizon_cap", "mc_lst",
    "ComparisonRow", "volterra_oracle_zup", "quadrature_oracle_lup",
    "default_grid", "run_suite",
    "__version__",
]
