"""Input generators for the three benchmark workloads.

Each generator is a pure function of the workload seed.  The program under
test receives only the rows built here; nothing in it knows which workload
or seed produced them.

* ``grid_rows(seed)``: the 8 kinds x 20 rows of the analytic grid.  Seed 0
  is exactly :func:`aimdexit.default_grid` in its order; other seeds redraw
  each row's ``lam`` from the same factor set, rescale the row to it and
  shuffle the rows.
* ``sweeps(seed)``: level sweeps of ``x`` across one fixed barrier per
  (kind, p) pair, so that consecutive evaluations share coefficient tables;
  other seeds rescale them to redrawn ``lam`` and shuffle them.
* ``mc_rows(seed)``: ``mc_lst`` inputs over the fixed default grid; the seed
  is the Monte Carlo seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from aimdexit import (ExitKind, ExitSpec, McConfig, ModelParams,
                      default_grid, default_horizon_cap)

# jump rates a seed may rescale a row or a sweep to: default_grid's factor set
LAMBDAS = (0.5, 1.0, 2.0)


Row = Tuple[ModelParams, ExitSpec, float]


def rescale(params: ModelParams, spec: ExitSpec, w: float, lam: float) -> Row:
    """The same problem at jump rate ``lam``: levels times ``old/lam``, ``w`` times ``lam/old``.

    Time and level scale together, so the transform value is unchanged.
    """
    factor = params.lam / lam
    levels = {k: v * factor for k, v in spec.levels().items()}
    return (ModelParams(lam=lam, p=params.p, beta=params.beta),
            ExitSpec(kind=spec.kind, **levels), w / factor)


def _deal(seed: int) -> Tuple[List[int], List[float]]:
    """Row order (default-grid indices) and each row's ``lam``, for ``seed != 0``."""
    rng = random.Random(seed)
    order = list(range(len(default_grid())))
    rng.shuffle(order)
    return order, [rng.choice(LAMBDAS) for _ in order]


def grid_order(seed: int) -> List[int]:
    """Default-grid index of each row of ``grid_rows(seed)``: identity at seed 0."""
    return list(range(len(default_grid()))) if seed == 0 else _deal(seed)[0]


def grid_rows(seed: int) -> List[Row]:
    """8 kinds x 20 rows; seed 0 is ``default_grid()`` row for row.

    Other seeds draw each row's ``lam`` afresh from the factor set, rescale
    the default row to it (:func:`rescale`) and shuffle the row order
    (:func:`grid_order`).  Every seed thus poses the default grid's
    problems in other units: the values are the frozen default-grid values,
    and the work per row stays close to the default row's, where a free
    redraw of ``(lam, p, w, variant)`` changes the pass time several-fold
    from seed to seed.  The shuffle spreads the cheap kinds over the pass
    instead of its first tenth of a second.
    """
    rows = default_grid()
    if seed == 0:
        return rows
    order, lams = _deal(seed)
    return [rescale(*rows[j], lam) for j, lam in zip(order, lams)]


# ---------------------------------------------------------------------------
# sweep-shared: x swept across one barrier per (kind, p)
# ---------------------------------------------------------------------------

SWEEP_KINDS = (ExitKind.TWO_SIDED_UP, ExitKind.TWO_SIDED_DOWN,
               ExitKind.REFL_UPPER_DOWN, ExitKind.REFL_LOWER_UP,
               ExitKind.DOWN_ONE)
SWEEP_PS = (0.5, 0.8, 0.9)
SWEEP_DEPTHS = (4, 7, 10)  # intervals b p^-k between the barrier and the top
SWEEP_POINTS = 24
SWEEP_LAM = 1.0
SWEEP_W = 0.5


@dataclass(frozen=True)
class Sweep:
    """One level sweep: ``x`` runs over ``xs`` with every other level fixed.

    ``direction`` is the sign of the monotonicity in ``x`` that the theory
    fixes (+1 increasing, -1 decreasing).  ``index`` is the sweep's place in
    ``sweeps(0)``, whose values it shares.
    """

    kind: ExitKind
    params: ModelParams
    w: float
    levels: dict
    xs: Tuple[float, ...]
    direction: int
    index: int

    def rows(self) -> List[Row]:
        return [(self.params, ExitSpec(kind=self.kind, x=x, **self.levels), self.w)
                for x in self.xs]

    def rescaled(self, lam: float) -> "Sweep":
        """The same sweep at jump rate ``lam`` (see :func:`rescale`)."""
        factor = self.params.lam / lam
        return Sweep(self.kind, ModelParams(lam=lam, p=self.params.p, beta=self.params.beta),
                     self.w / factor, {k: v * factor for k, v in self.levels.items()},
                     tuple(x * factor for x in self.xs), self.direction, self.index)


def _sweep(kind: ExitKind, p: float, depth: int, index: int) -> Sweep:
    """``x`` across ``(b, b p^-depth)``, one point in the middle of each of SWEEP_POINTS cells.

    The barrier ``b`` sits at half the stationary level ``1/(lam(1-p))``.
    """
    b = 0.5 / (SWEEP_LAM * (1.0 - p))
    top = b * p ** (-depth)
    levels, direction = {
        ExitKind.TWO_SIDED_UP: ({"a": top, "b": b}, 1),
        ExitKind.TWO_SIDED_DOWN: ({"a": top, "b": b}, -1),
        ExitKind.REFL_UPPER_DOWN: ({"a": top, "c": b}, -1),  # reflected at the top
        ExitKind.REFL_LOWER_UP: ({"c": top, "b": b}, 1),     # reflected at the floor
        ExitKind.DOWN_ONE: ({"b": b}, -1),
    }[kind]
    xs = tuple(b + (top - b) * (j + 0.5) / SWEEP_POINTS for j in range(SWEEP_POINTS))
    return Sweep(kind, ModelParams(lam=SWEEP_LAM, p=p), SWEEP_W, levels, xs, direction, index)


def sweeps(seed: int) -> List[Sweep]:
    """Five kinds x three (p, depth) pairs; other seeds rescale and shuffle seed 0's.

    Seed 0 runs the sweeps kind by kind at ``lam = 1``.  Every other seed
    draws one ``lam`` per ``p`` from the factor set, rescales the sweeps of
    that ``p`` to it (the same problems in other units, so the frozen seed-0
    values apply) and shuffles the order of the sweeps.  The sweeps of one
    ``p`` share a barrier at every seed, so each seed shares coefficient
    tables as seed 0 does.
    """
    out = [_sweep(kind, p, depth, 3 * k + j)
           for k, kind in enumerate(SWEEP_KINDS)
           for j, (p, depth) in enumerate(zip(SWEEP_PS, SWEEP_DEPTHS))]
    if seed == 0:
        return out
    rng = random.Random(seed)
    lams = {p: rng.choice(LAMBDAS) for p in SWEEP_PS}
    rng.shuffle(out)
    return [sw.rescaled(lams[sw.params.p]) for sw in out]


def sweep_rows(seed: int) -> List[Row]:
    return [row for sw in sweeps(seed) for row in sw.rows()]


# ---------------------------------------------------------------------------
# mc-paths: mc_lst over the fixed default grid
# ---------------------------------------------------------------------------

MC_PATHS = 2 * (1 << 15)  # two whole simulator chunks per point: one per thread at nproc 2


@dataclass(frozen=True)
class McRow:
    params: ModelParams
    spec: ExitSpec
    cfg: McConfig


def mc_rows(seed: int, n_paths: int = MC_PATHS,
            grid: Optional[List[Row]] = None) -> List[McRow]:
    """One ``mc_lst`` input per default-grid point; point ``i`` uses seed ``seed + i``."""
    grid = default_grid() if grid is None else grid
    return [McRow(params, spec,
                  McConfig(n_paths=n_paths, seed=seed + i, w=w,
                           horizon_cap=default_horizon_cap(w, params.lam)))
            for i, (params, spec, w) in enumerate(grid)]
