"""Parameter containers, validation, and slope normalization.

The AIMD (additive-increase / multiplicative-decrease) process grows
linearly with slope ``beta`` between the epochs of a rate-``lam`` Poisson
clock and is multiplied by the retention factor ``p`` in ``(0, 1)`` at each
epoch.  Every analytic evaluator in this package assumes unit slope; a
problem posed with ``beta != 1`` is mapped onto an equivalent unit-slope
problem by rescaling time, which divides both the jump intensity and the
Laplace argument by ``beta`` while leaving all level parameters unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

__all__ = [
    "AimdError",
    "ValidationError",
    "ConvergenceError",
    "ExitKind",
    "ModelParams",
    "ExitSpec",
    "normalize",
]


class AimdError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AimdError, ValueError):
    """A parameter or level specification is outside its admissible range."""


class ConvergenceError(AimdError, ArithmeticError):
    """An iterative evaluation failed to reach its tolerance.

    Carries the best partial result in ``partial`` when one is available.
    """

    def __init__(self, message: str, partial: Optional[float] = None):
        super().__init__(message)
        self.partial = partial


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _finite(value: float, name: str) -> float:
    value = float(value)
    _require(math.isfinite(value), f"{name} must be finite, got {value!r}")
    return value


class ExitKind(str, Enum):
    """The eight first-passage functionals evaluated by this package."""

    UP_ONE = "up-one"                  # creep over a, no lower barrier
    DOWN_ONE = "down-one"              # jump below b, no upper barrier
    TWO_SIDED_UP = "two-sided-up"      # exit (b, a) through a
    TWO_SIDED_DOWN = "two-sided-down"  # exit (b, a) through b
    REFL_UPPER_DOWN = "refl-upper-down"  # capped at a, passage below c
    REFL_LOWER_UP = "refl-lower-up"      # reset to b, passage to c
    DRAWDOWN = "drawdown"              # sup X - X exceeds c
    DRAWUP = "drawup"                  # X - inf X exceeds c

    @classmethod
    def parse(cls, text: str) -> "ExitKind":
        try:
            return cls(text.strip().lower().replace("_", "-"))
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValidationError(f"unknown exit kind {text!r}; expected one of: {options}")


@dataclass(frozen=True)
class ModelParams:
    """AIMD process parameters: jump intensity, retention factor, slope.

    ``lam >= 0`` (the degenerate ``lam == 0`` pure-drift case is accepted so
    the drift-only closed forms can be exercised), ``0 < p < 1``,
    ``beta > 0``.
    """

    lam: float
    p: float
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "lam", _finite(self.lam, "lam"))
        object.__setattr__(self, "p", _finite(self.p, "p"))
        object.__setattr__(self, "beta", _finite(self.beta, "beta"))
        _require(self.lam >= 0.0, f"lam must be >= 0, got {self.lam}")
        _require(0.0 < self.p < 1.0, f"p must lie in (0, 1), got {self.p}")
        _require(self.beta > 0.0, f"beta must be > 0, got {self.beta}")


def _check_w(w: float) -> float:
    w = _finite(w, "w")
    _require(w >= 0.0, f"Laplace argument w must be >= 0, got {w}")
    return w


@dataclass(frozen=True)
class ExitSpec:
    """Which exit problem to solve, with its level parameters.

    Field usage by kind (unused fields must stay ``None``):

    ========================  =======================================
    kind                      required levels
    ========================  =======================================
    ``UP_ONE``                ``0 <= x < a``
    ``DOWN_ONE``              ``x > b > 0``  (``x == b`` allowed)
    ``TWO_SIDED_UP``          ``0 < b <= x < a``
    ``TWO_SIDED_DOWN``        ``0 < b <= x < a``
    ``REFL_UPPER_DOWN``       ``c <= x <= a``, ``0 < c < a``
    ``REFL_LOWER_UP``         ``0 < b <= x < c``
    ``DRAWDOWN``              ``x > c > 0``; optional ``xbar0 >= x``
    ``DRAWUP``                ``0 <= u <= x``, ``c > 0``
    ========================  =======================================
    """

    kind: ExitKind
    x: float
    a: Optional[float] = None
    b: Optional[float] = None
    c: Optional[float] = None
    u: Optional[float] = None
    xbar0: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ExitKind(self.kind))
        object.__setattr__(self, "x", _finite(self.x, "x"))
        for name in ("a", "b", "c", "u", "xbar0"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _finite(val, name))
        self._check_levels()

    def _check_levels(self) -> None:
        k, x, a, b, c, u = self.kind, self.x, self.a, self.b, self.c, self.u
        allowed = {
            ExitKind.UP_ONE: {"a"},
            ExitKind.DOWN_ONE: {"b"},
            ExitKind.TWO_SIDED_UP: {"a", "b"},
            ExitKind.TWO_SIDED_DOWN: {"a", "b"},
            ExitKind.REFL_UPPER_DOWN: {"a", "c"},
            ExitKind.REFL_LOWER_UP: {"b", "c"},
            ExitKind.DRAWDOWN: {"c", "xbar0"},
            ExitKind.DRAWUP: {"c", "u"},
        }[k]
        for name in ("a", "b", "c", "u", "xbar0"):
            if getattr(self, name) is not None and name not in allowed:
                raise ValidationError(f"level {name!r} is not used by kind {k.value!r}")
        missing = [n for n in allowed if n != "xbar0" and getattr(self, n) is None]
        _require(not missing, f"kind {k.value!r} requires levels {sorted(allowed - {'xbar0'})}")
        if k is ExitKind.UP_ONE:
            _require(0.0 <= x < a, f"up-one needs 0 <= x < a, got x={x}, a={a}")
        elif k is ExitKind.DOWN_ONE:
            _require(x >= b > 0.0, f"down-one needs x >= b > 0, got x={x}, b={b}")
        elif k in (ExitKind.TWO_SIDED_UP, ExitKind.TWO_SIDED_DOWN):
            _require(0.0 < b <= x < a, f"two-sided needs 0 < b <= x < a, got x={x}, a={a}, b={b}")
        elif k is ExitKind.REFL_UPPER_DOWN:
            _require(0.0 < c < a and c <= x <= a,
                     f"refl-upper-down needs c <= x <= a and 0 < c < a, got x={x}, a={a}, c={c}")
        elif k is ExitKind.REFL_LOWER_UP:
            _require(0.0 < b <= x < c, f"refl-lower-up needs 0 < b <= x < c, got x={x}, b={b}, c={c}")
        elif k is ExitKind.DRAWDOWN:
            _require(c > 0.0 and x > c, f"drawdown needs x > c > 0, got x={x}, c={c}")
            if self.xbar0 is not None:
                _require(self.xbar0 >= x, f"drawdown needs xbar0 >= x, got xbar0={self.xbar0}, x={x}")
        elif k is ExitKind.DRAWUP:
            _require(c > 0.0, f"drawup needs c > 0, got c={c}")
            _require(0.0 <= u <= x, f"drawup needs 0 <= u <= x, got u={u}, x={x}")

    def levels(self) -> dict:
        """Level parameters actually set, as a plain dict (for reports)."""
        out = {}
        for name in ("x", "a", "b", "c", "u", "xbar0"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def normalize(params: ModelParams, spec: ExitSpec, w: float):
    """Map an arbitrary-slope problem onto the equivalent unit-slope one.

    Rescaling time by ``beta`` turns slope ``beta`` into slope 1 and divides
    every rate by ``beta``: the returned triple has ``lam' = lam / beta``,
    ``w' = w / beta`` and unchanged levels.  Exit times scale by ``beta``,
    so the transform values of the normalized problem equal the originals.
    Idempotent: normalizing a ``beta == 1`` problem returns it unchanged.
    """
    w = _check_w(w)
    if params.beta == 1.0:
        return params, spec, w
    scale = params.beta
    return replace(params, lam=params.lam / scale, beta=1.0), spec, w / scale
