"""Exact event-driven simulation of the AIMD process and its exit times.

The process grows at unit slope between Poisson(lam) jump epochs and is
multiplied by ``p`` at each jump, so a path is fully determined by its
inter-jump exponentials and every exit question reduces to closed-form
checks on linear segments: upper levels are hit by creeping (crossing time
= gap / slope), lower levels only at jump instants.  Nothing is
discretized.

Randomness is counter-based (:mod:`.rng`): path ``i``'s ``k``-th inter-jump
time is a pure function of ``(seed, i, k)``, which makes estimates
bit-identical across thread counts and lets any path be replayed alone.
The kernel hashes each path's key once, draws round ``k`` at draw index
``k`` for every alive path, and keeps its state arrays compact: they hold
the alive paths only.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ExitKind, ExitSpec, ModelParams, ValidationError, _require, normalize
from .rng import exponentials, path_keys
from .rng import uniforms  # noqa: F401  unused here; the layer trace in bench/tracing.py wraps it

__all__ = [
    "Side",
    "McConfig",
    "McEstimate",
    "default_horizon_cap",
    "simulate_exit",
    "mc_lst",
]

_CHUNK = 1 << 15


class Side(Enum):
    """How a simulated path ended."""

    UP = "up"
    DOWN = "down"
    CENSORED = "censored"


def default_horizon_cap(w: float, lam: float) -> float:
    """Default simulation horizon.

    For ``w > 0`` the discount makes contributions beyond ``50/w``
    numerically zero.  For ``w = 0`` the cap only guards against unbounded
    loops; it is sized generously against the jump time scale so that the
    censoring fraction stays negligible for exits the process reaches with
    certainty.
    """
    if w > 0.0:
        return 50.0 / w
    return 8000.0 / max(lam, 0.125)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run settings.

    The horizon-cap invariant keeps censoring harmless: for ``w > 0`` a
    censored path's unknown contribution lies in ``[0, e^{-w cap}]``, which
    must be at most 1e-3 of the smallest standard error the run could
    report (``0.5 / sqrt(n)`` for a [0,1]-valued target).
    """

    n_paths: int
    seed: int
    horizon_cap: float
    w: float

    def __post_init__(self):
        _require(self.n_paths > 0, f"n_paths must be > 0, got {self.n_paths}")
        _require(self.horizon_cap > 0.0,
                 f"horizon_cap must be > 0, got {self.horizon_cap}")
        _require(self.w >= 0.0, f"w must be >= 0, got {self.w}")
        if self.w > 0.0:
            bound = 1e-3 * 0.5 / math.sqrt(self.n_paths)
            if math.exp(-self.w * self.horizon_cap) > bound:
                raise ValidationError(
                    f"horizon_cap {self.horizon_cap} too small: censored weight "
                    f"e^(-w cap) = {math.exp(-self.w * self.horizon_cap):.3g} exceeds "
                    f"1e-3 x worst-case std error {bound:.3g}; raise the cap")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of E[e^{-w tau} ; side] with censoring accounting.

    Censored paths contribute the midpoint of their possible range
    ``[0, e^{-w cap}]``; ``std_error`` is the sample standard error
    inflated by that full range times the censored fraction.
    """

    mean: float
    std_error: float
    n_paths: int
    n_censored: int


# ---------------------------------------------------------------------------
# vectorized kernel: one (tau, side) pair per path
# ---------------------------------------------------------------------------
# Every path alive in round k has made exactly k jumps, so round k draws one
# Exp(lam) variate per alive path at draw index k; the scalar replay in
# simulate_exit follows the identical schedule.  A kind enters only through
# its step: ``gap`` (distance left to an upward exit by creeping, or None),
# ``jump`` (pre-jump state and run E -> post-jump state) and ``out``
# (downward exit test on the post-jump state, or None).  The state (level,
# then sup or inf), ``t``, ``keys`` and ``pos`` (a path's slot in ``tau``/
# ``side``) hold the alive paths only; one compaction a round drops exits.


def _paths(keys, lam, start, cap, gap, jump, out):
    n = keys.size
    state = [np.full(n, float(s0)) for s0 in start]
    t = np.zeros(n)
    tau = np.full(n, np.inf)
    side = np.full(n, 0, dtype=np.int8)  # 0 = censored, 1 = up, -1 = down
    pos = np.arange(n)
    up = pos[:0]  # creeping exits of the round: none without a gap
    k = 0
    while pos.size:
        E = exponentials(keys, k, lam)
        k += 1
        if gap is not None:
            g = gap(state)
            up = np.flatnonzero(E > g)  # creeps out before the jump
            tau[pos[up]], side[pos[up]] = t[up] + g[up], 1
        t += E
        state = jump(state, E)  # a creeper's step is never read
        keep = t <= cap
        keep[up] = False
        if out is not None:
            down = out(state)
            down[up] = False
            dn = np.flatnonzero(down)
            tau[pos[dn]], side[pos[dn]] = t[dn], -1
            keep[dn] = False
        live = np.flatnonzero(keep)
        if live.size < pos.size:
            *state, t, keys, pos = [arr.take(live) for arr in (*state, t, keys, pos)]
    return tau, side


def _run_kernel(kind: ExitKind, keys, lam, p, spec: ExitSpec, cap: float):
    tau0, side0 = _drift_only_exit(kind, spec, cap)
    if tau0 == 0.0:  # the start already lies on the exit: every path leaves at once
        return np.zeros(keys.size), np.full(keys.size, 1 if side0 is Side.UP else -1,
                                            dtype=np.int8)
    x, a, b, c = spec.x, spec.a, spec.b, spec.c
    start, gap, out = [x], None, None
    jump = lambda st, E: [p * (st[0] + E)]
    if kind is ExitKind.UP_ONE:
        gap = lambda st: a - st[0]
    elif kind is ExitKind.DOWN_ONE:
        out = lambda st: st[0] <= b
    elif kind in (ExitKind.TWO_SIDED_UP, ExitKind.TWO_SIDED_DOWN):
        gap = lambda st: a - st[0]
        out = lambda st: st[0] <= b
    elif kind is ExitKind.REFL_UPPER_DOWN:
        jump = lambda st, E: [p * np.minimum(st[0] + E, a)]  # growth truncated at a
        out = lambda st: st[0] <= c
    elif kind is ExitKind.REFL_LOWER_UP:
        gap = lambda st: c - st[0]
        jump = lambda st, E: [np.maximum(p * (st[0] + E), b)]  # jump floored at b
    elif kind is ExitKind.DRAWDOWN:
        start = [x, spec.xbar0 if spec.xbar0 is not None else x]

        def jump(st, E):
            pre = st[0] + E
            return [p * pre, np.maximum(st[1], pre)]  # the sup moves only at segment tops
        out = lambda st: (st[1] - st[0]) > c
    elif kind is ExitKind.DRAWUP:
        start = [x, spec.u]
        gap = lambda st: c - (st[0] - st[1])  # shrinks at slope 1

        def jump(st, E):
            post = p * (st[0] + E)
            return [post, np.minimum(st[1], post)]
    else:
        raise ValidationError(f"unknown exit kind {kind!r}")
    return _paths(keys, lam, start, cap, gap, jump, out)


def _drift_only_exit(kind: ExitKind, spec: ExitSpec, cap: float):
    """Deterministic exit for lam = 0 (pure unit drift, no jumps)."""
    if kind in (ExitKind.UP_ONE, ExitKind.TWO_SIDED_UP, ExitKind.TWO_SIDED_DOWN):
        tau = spec.a - spec.x
    elif kind is ExitKind.REFL_LOWER_UP:
        tau = spec.c - spec.x
    elif kind is ExitKind.DRAWUP:
        tau = max(spec.u + spec.c - spec.x, 0.0)
    elif kind is ExitKind.DRAWDOWN and spec.xbar0 is not None and spec.xbar0 - spec.c >= spec.x:
        return 0.0, Side.DOWN  # the recorded drawdown already reaches c
    else:
        # down-one, reflected-upper-down, drawdown: no jumps means no
        # downward motion, the exit never happens
        return math.inf, Side.CENSORED
    if tau > cap:
        return math.inf, Side.CENSORED
    return tau, Side.UP


def simulate_exit(spec: ExitSpec, params: ModelParams, path_index: int, seed: int,
                  horizon_cap: float = math.inf, w: float = 0.0):
    """Replay one path and return its exit time and side.

    Pure function of ``(seed, path_index)``: the k-th inter-jump time of
    the path is the counter-based variate at draw index k.  ``w`` only
    sets the default horizon; time is returned undiscounted, in the
    caller's clock (slope ``beta``).  Paths still running at
    ``horizon_cap`` return ``(inf, Side.CENSORED)``.
    """
    scale = params.beta
    nparams, nspec, nw = normalize(params, spec, w)
    lam = nparams.lam
    kind = nspec.kind
    # the kernels run on the unit-slope clock, where times are scale x the
    # caller's; convert the cap in and the exit time back out
    cap = horizon_cap * scale if math.isfinite(horizon_cap) \
        else default_horizon_cap(nw, lam)
    if lam == 0.0:
        tau, side = _drift_only_exit(kind, nspec, cap)
        return tau / scale, side
    tau, side = _run_kernel(kind, path_keys(seed, [path_index]), lam, nparams.p, nspec, cap)
    if side[0] == 0:
        return math.inf, Side.CENSORED
    return float(tau[0]) / scale, Side.UP if side[0] > 0 else Side.DOWN


def mc_lst(spec: ExitSpec, params: ModelParams, cfg: McConfig, threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of the exit transform ``E[e^{-w tau}; side]``.

    Two-sided kinds filter to their side (the complementary exit
    contributes zero, matching the joint-transform definition).  Paths are
    processed in fixed-size chunks whose partial sums are combined in
    chunk order, so the result is bit-identical for any ``threads``.
    ``cfg.horizon_cap`` is in the caller's clock (slope ``beta``).
    """
    scale = params.beta
    nparams, nspec, w = normalize(params, spec, cfg.w)
    lam = nparams.lam
    kind = nspec.kind
    cap = cfg.horizon_cap * scale  # unit-slope kernel clock
    cens_width = math.exp(-w * cap) if w > 0.0 else 1.0
    if lam == 0.0:
        tau, side = _drift_only_exit(kind, nspec, cap)
        if side is Side.CENSORED:
            return McEstimate(0.5 * cens_width, cens_width, cfg.n_paths, cfg.n_paths)
        val = math.exp(-w * tau)
        if kind is ExitKind.TWO_SIDED_DOWN:
            val = 0.0  # drift-only paths always exit upward
        return McEstimate(val, 0.0, cfg.n_paths, 0)

    n = cfg.n_paths
    want = {ExitKind.TWO_SIDED_UP: 1, ExitKind.TWO_SIDED_DOWN: -1}.get(kind)

    def work(lo):
        """(sum, sum of squares, n_censored) over the chunk of paths from ``lo``."""
        keys = path_keys(cfg.seed, np.arange(lo, min(lo + _CHUNK, n), dtype=np.uint64))
        tau, side = _run_kernel(kind, keys, lam, nparams.p, nspec, cap)
        hit = side != 0 if want is None else side == want
        contrib = np.where(hit, np.exp(-w * np.where(np.isfinite(tau), tau, 0.0)), 0.0)
        return float(contrib.sum()), float((contrib * contrib).sum()), int(np.sum(side == 0))

    starts = range(0, n, _CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, starts))
    else:
        parts = [work(lo) for lo in starts]

    total = 0.0
    total_sq = 0.0
    n_cens = 0
    for s, s2, nc in parts:  # fixed chunk order: deterministic reduction
        total += s
        total_sq += s2
        n_cens += nc
    mean = (total + 0.5 * cens_width * n_cens) / n
    var = max((total_sq - total * total / n) / (n - 1), 0.0) if n > 1 else 0.0
    se = math.sqrt(var / n) + cens_width * n_cens / n
    return McEstimate(mean, se, n, n_cens)
