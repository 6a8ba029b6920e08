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
the alive paths only.  It runs each chunk of paths in a pooled workspace of
preallocated buffers, so its rounds allocate nothing in proportion to the
alive paths.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
# vectorized kernel: one (tau, side) pair per path, in a pooled workspace
# ---------------------------------------------------------------------------
# Every path alive in round k has made exactly k jumps, so round k draws one
# Exp(lam) variate per alive path at draw index k; the scalar replay in
# simulate_exit follows the identical schedule.  A kind enters only through
# its step, each writing into the arrays it is handed: ``gap`` (distance left
# to an upward exit by creeping, or None), ``jump`` (the state advanced in
# place over run E) and ``out`` (downward exit test on the post-jump state,
# or None; it may use a scratch array).  The state (level, then sup or inf),
# ``t``, ``keys`` and ``pos`` (a path's slot in ``tau``/``side``) hold the
# alive paths only.  A round that drops paths scatters their exit time and
# side to their slots, then moves the kept paths from past the new end into
# the places of the dropped ones before it.  Every array lives in the chunk's
# workspace and stays where it is; a round allocates only the index arrays
# of its dropped and its moved paths (numpy's nonzero has no output buffer),
# each at most as long as the drops.  The order of the alive paths is thus
# not their slot order, which no value depends on: every step is elementwise.

_INDEX = np.arange(_CHUNK)
_INDEX.flags.writeable = False


class _Workspace:
    """The buffers of one chunk's run, ``_CHUNK`` long each, some 2.7 MB: five
    float64 (draws, gaps, time and up to two state arrays), two uint64 (keys
    and hash), two intp (slots), three bool (up, down, drop), two int8 (side
    codes) and the results ``tau`` and ``side``."""

    def __init__(self):
        self.real = [np.empty(_CHUNK) for _ in range(5)]
        self.keys, self.hash = (np.empty(_CHUNK, np.uint64) for _ in range(2))
        self.pos, self.slots = (np.empty(_CHUNK, np.intp) for _ in range(2))
        self.up, self.down, self.drop = (np.empty(_CHUNK, bool) for _ in range(3))
        self.code, self.code_gone = (np.empty(_CHUNK, np.int8) for _ in range(2))
        self.tau, self.side = np.empty(_CHUNK), np.empty(_CHUNK, np.int8)


# idle workspaces: at most one per CPU the process may run on, however many
# threads a caller asks for
_POOL = []
_POOL_MAX = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
_POOL_LOCK = threading.Lock()


@contextmanager
def _workspace():
    """A workspace from the pool (a new one when it is empty), held for the
    block and then handed back, or dropped when the pool is full."""
    with _POOL_LOCK:
        ws = _POOL.pop() if _POOL else None
    if ws is None:
        ws = _Workspace()
    try:
        yield ws
    finally:
        with _POOL_LOCK:
            if len(_POOL) < _POOL_MAX:
                _POOL.append(ws)


def _paths(ws, n, lam, start, cap, gap, jump, out):
    """``(tau, side)`` of the ``n`` paths whose keys are in ``ws.keys[:n]``:
    views into ``ws``, valid while it is held."""
    draws, gaps, t, *state = (buf[:n] for buf in ws.real[:3 + len(start)])
    for s, s0 in zip(state, start):
        s.fill(s0)
    t.fill(0.0)
    keys, pos = ws.keys[:n], ws.pos[:n]
    np.copyto(pos, _INDEX[:n])
    # side codes: 1 up, -1 down, 0 censored; a flag's byte is 1 or 0
    up_code, down_code = ws.up.view(np.int8), ws.down.view(np.int8)
    code = up_code if out is None else ws.code
    m, k = n, 0
    while m:
        E = exponentials(keys, k, lam, out=draws[:m], scratch=ws.hash[:m])
        k += 1
        scratch = gaps[:m]
        if gap is None:
            t += E
        else:
            g = gap(state, scratch)
            up = np.greater(E, g, out=ws.up[:m])  # creeps out before the jump
            t += np.minimum(E, g, out=g)  # a creeper's time is its exit time
        jump(state, E)  # a creeper's step is never read
        drop = np.greater(t, cap, out=ws.drop[:m])
        if gap is not None:
            drop |= up
        if out is not None:
            down = out(state, ws.down[:m], scratch)
            drop |= down
        gone = drop.nonzero()[0]
        n_drop = gone.size
        if not n_drop:
            continue
        if out is not None and gap is None:
            np.negative(down_code[:m], out=code[:m])
        elif out is not None:
            np.greater(down, up, out=down)  # down, unless it crept out
            np.subtract(up_code[:m], down_code[:m], out=code[:m])
        # the dropped: exit time (a censored path's is reset at the end) and
        # side code to their slots
        slots = pos.take(gone, out=ws.slots[:n_drop], mode="clip")
        ws.tau[slots] = t.take(gone, out=scratch[:n_drop], mode="clip")
        ws.side[slots] = code[:m].take(gone, out=ws.code_gone[:n_drop], mode="clip")
        # the kept paths past the new end move into the places of the dropped
        # ones before it: as many of each
        m -= n_drop
        fill = np.logical_not(drop[m:], out=drop[m:]).nonzero()[0]
        h = fill.size
        if h:
            fill += m
            holes, real = gone[:h], draws[:h]
            for s in state:
                s[holes] = s.take(fill, out=real, mode="clip")
            t[holes] = t.take(fill, out=real, mode="clip")
            keys[holes] = keys.take(fill, out=ws.hash[:h], mode="clip")
            pos[holes] = pos.take(fill, out=ws.slots[:h], mode="clip")
        state, t, keys, pos = [s[:m] for s in state], t[:m], keys[:m], pos[:m]
    tau, side = ws.tau[:n], ws.side[:n]
    np.copyto(tau, np.inf, where=np.equal(side, 0, out=ws.drop[:n]))  # censored
    return tau, side


def _run_kernel(kind: ExitKind, ws, n: int, lam, p, spec: ExitSpec, cap: float):
    """``(tau, side)`` of the ``n`` paths keyed in ``ws.keys``, as :func:`_paths`."""
    tau0, side0 = _drift_only_exit(kind, spec, cap)
    if tau0 == 0.0:  # the start already lies on the exit: every path leaves at once
        ws.tau[:n], ws.side[:n] = 0.0, 1 if side0 is Side.UP else -1
        return ws.tau[:n], ws.side[:n]
    x, a, b, c = spec.x, spec.a, spec.b, spec.c
    start, gap, out = [x], None, None

    def jump(st, E):
        st[0] += E
        st[0] *= p
    if kind is ExitKind.UP_ONE:
        gap = lambda st, g: np.subtract(a, st[0], out=g)
    elif kind is ExitKind.DOWN_ONE:
        out = lambda st, down, tmp: np.less_equal(st[0], b, out=down)
    elif kind in (ExitKind.TWO_SIDED_UP, ExitKind.TWO_SIDED_DOWN):
        gap = lambda st, g: np.subtract(a, st[0], out=g)
        out = lambda st, down, tmp: np.less_equal(st[0], b, out=down)
    elif kind is ExitKind.REFL_UPPER_DOWN:
        def jump(st, E):
            st[0] += E
            np.minimum(st[0], a, out=st[0])  # growth truncated at a
            st[0] *= p
        out = lambda st, down, tmp: np.less_equal(st[0], c, out=down)
    elif kind is ExitKind.REFL_LOWER_UP:
        gap = lambda st, g: np.subtract(c, st[0], out=g)

        def jump(st, E):
            st[0] += E
            st[0] *= p
            np.maximum(st[0], b, out=st[0])  # jump floored at b
    elif kind is ExitKind.DRAWDOWN:
        start = [x, spec.xbar0 if spec.xbar0 is not None else x]

        def jump(st, E):
            st[0] += E
            np.maximum(st[1], st[0], out=st[1])  # the sup moves only at segment tops
            st[0] *= p
        out = lambda st, down, tmp: np.greater(np.subtract(st[1], st[0], out=tmp), c,
                                               out=down)
    elif kind is ExitKind.DRAWUP:
        start = [x, spec.u]

        def gap(st, g):  # shrinks at slope 1
            np.subtract(st[0], st[1], out=g)
            return np.subtract(c, g, out=g)

        def jump(st, E):
            st[0] += E
            st[0] *= p
            np.minimum(st[1], st[0], out=st[1])
    else:
        raise ValidationError(f"unknown exit kind {kind!r}")
    return _paths(ws, n, lam, start, cap, gap, jump, out)


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
    with _workspace() as ws:
        path_keys(seed, [path_index], out=ws.keys[:1])
        tau, side = _run_kernel(kind, ws, 1, lam, nparams.p, nspec, cap)
        tau, side = float(tau[0]), int(side[0])
    if side == 0:
        return math.inf, Side.CENSORED
    return tau / scale, Side.UP if side > 0 else Side.DOWN


def mc_lst(spec: ExitSpec, params: ModelParams, cfg: McConfig, threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of the exit transform ``E[e^{-w tau}; side]``.

    Two-sided kinds filter to their side (the complementary exit
    contributes zero, matching the joint-transform definition).  Paths are
    processed in fixed-size chunks whose partial sums are combined in
    chunk order, so the result is bit-identical for any ``threads``.  At
    most ``_POOL_MAX`` threads run, one per CPU the process may use, so that
    each holds a pooled workspace.
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
        m = min(lo + _CHUNK, n) - lo
        with _workspace() as ws:
            index = np.add(_INDEX[:m], lo, out=ws.hash[:m], casting="unsafe")
            path_keys(cfg.seed, index, out=ws.keys[:m], scratch=index)
            tau, side = _run_kernel(kind, ws, m, lam, nparams.p, nspec, cap)
            # contrib = where(hit, exp(-w * where(isfinite(tau), tau, 0)), 0)
            x, contrib, flag = ws.real[0][:m], ws.real[1][:m], ws.up[:m]
            x.fill(0.0)
            np.copyto(x, tau, where=np.isfinite(tau, out=flag))
            np.exp(np.multiply(-w, x, out=x), out=x)
            hit = np.not_equal(side, 0, out=flag) if want is None \
                else np.equal(side, want, out=flag)
            contrib.fill(0.0)
            np.copyto(contrib, x, where=hit)
            return (float(contrib.sum()), float(np.multiply(contrib, contrib, out=x).sum()),
                    int(np.count_nonzero(np.equal(side, 0, out=flag))))

    starts = range(0, n, _CHUNK)
    workers = min(threads, _POOL_MAX)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
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
