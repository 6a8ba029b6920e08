"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload grid-cold --seed 0 --spawned-at <epoch s> [--trace] [--setup-only]

The pass imports ``aimdexit``, builds the workload's inputs, runs them,
timing each call, and then checks every output.  It prints one JSON
object.  ``--spawned-at`` is the parent's wall clock just before it started
this process, so ``setup_s`` runs from process start to the first timed call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from contextlib import nullcontext

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]

from aimdexit import AimdError, evaluate, mc_lst  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("grid-cold", "sweep-shared", "mc-paths")
FROZEN = os.path.join(HERE, "frozen.json")
FROZEN_TOL = 1e-6      # looser than the evaluators' own 1e-7 controls
Z_MAX = 5.0            # analytic vs Monte Carlo
EXACT_TOL = 1e-12      # every path contributed the same: as aimdexit.validate._confront
MONOTONE_SLACK = 1e-9  # sweeps: allowed step against the theory's direction
CHECK_PATHS = 2 * (1 << 15)  # two simulator chunks, so both threads work
# Monte Carlo confronts every grid row, and the middle point of each sweep:
# (first row, stride) into the workload's evaluation rows
CHECK_ROWS = {"grid-cold": (0, 1),
              "sweep-shared": (workloads.SWEEP_POINTS // 2, workloads.SWEEP_POINTS)}
MAX_PROBLEMS = 20
REF_EVERY_S = 0.25     # how often a pass samples the machine's speed
SETUP_REF_SAMPLES = 9  # and a set-up-only process, after its set-up


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def build(workload: str, seed: int):
    """The workload's inputs: (evaluation rows, sweeps, mc rows)."""
    if workload == "grid-cold":
        return workloads.grid_rows(seed), None, None
    if workload == "sweep-shared":
        sweeps = workloads.sweeps(seed)
        return [row for sw in sweeps for row in sw.rows()], sweeps, None
    return None, None, workloads.mc_rows(seed)


def reference() -> float:
    """Seconds taken by a fixed piece of work that no change to the library touches.

    ``mpmath`` arithmetic at 40 digits: of the kernels tried, its time
    tracked the workloads' own speed most closely on a shared host.  It
    uses no function that caches constants.  It runs between timed calls,
    never inside one, so that ``run.py`` can state every timing at a fixed
    machine speed.
    """
    t0 = time.perf_counter()
    with mpmath.workdps(40):
        x = mpmath.mpf(2)
        for i in range(1, 150):
            x = mpmath.sqrt(x * i + 1) / (x + 1) + x / 3
    return time.perf_counter() - t0


class Pass:
    """Counts operations and failures; keeps the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(note)


def confront(analytic: float, est) -> bool:
    """Analytic value against a Monte Carlo estimate of the same [0, 1] target.

    When every path contributed the same positive amount the estimate is
    exact.  Otherwise the miss may be Z_MAX standard errors, and no fewer
    than Z_MAX / n: an event of probability well below 1/n is seldom seen
    in n paths, and then the sample standard error understates the miss.
    """
    if est.std_error == 0.0 and est.mean > 0.0:
        return abs(analytic - est.mean) <= EXACT_TOL
    return abs(analytic - est.mean) <= Z_MAX * max(est.std_error, 1.0 / est.n_paths)


class Results:
    """What a pass produced, in row order, with the time of each call."""

    def __init__(self):
        self.values, self.lat, self.errors = [], [], []
        self.est1, self.estn, self.t1, self.tn = [], [], [], []
        self.ref, self.ref_at = [], -math.inf

    def sample_speed(self) -> None:
        """A :func:`reference` sample, if the last is REF_EVERY_S old."""
        if time.perf_counter() - self.ref_at >= REF_EVERY_S:
            self.ref.append(reference())
            self.ref_at = time.perf_counter()

    def evaluated(self, row, tracer=None) -> None:
        """One evaluate() call; a failure keeps NaN and its error text."""
        params, spec, w = row
        err = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = evaluate(params, spec, w)
            else:
                with tracer.span(f"evaluate.{spec.kind.value}"):
                    value = evaluate(params, spec, w)
        except AimdError as exc:
            value, err = math.nan, f"{type(exc).__name__}: {exc}"
        self.lat.append(time.perf_counter() - t0)
        self.values.append(value)
        self.errors.append(err)

    def simulated(self, mc_row, threads: int) -> None:
        """One ``mc_lst`` call; a failure keeps its error text as the estimate."""
        t0 = time.perf_counter()
        try:
            est = mc_lst(mc_row.spec, mc_row.params, mc_row.cfg, threads=threads)
        except AimdError as exc:
            est = f"{type(exc).__name__}: {exc}"
        (self.t1 if threads == 1 else self.tn).append(time.perf_counter() - t0)
        (self.est1 if threads == 1 else self.estn).append(est)


def interleaved(rows, mc_in, mc_at, tracer=None) -> Results:
    """A pass row by row, as ``run_suite`` runs it.

    Each row's evaluate() (none on mc-paths) is followed by its Monte Carlo
    pair at threads=1 and threads=nproc, if the row is checked (``mc_at``
    maps row index to ``mc_in`` index).  The machine's speed drifts over
    seconds; interleaving lets every kind of timing sample the whole pass.
    A ``tracer`` is active during the evaluate() calls only, and on
    mc-paths during the threads=1 calls only.  Between rows the pass
    samples the machine's speed.
    """
    res = Results()
    traced = tracer if tracer is not None else nullcontext()
    for i in range(len(rows) if rows is not None else len(mc_in)):
        if rows is not None:
            with traced:
                res.evaluated(rows[i], tracer)
        k = mc_at.get(i)
        if k is not None:
            with traced if rows is None else nullcontext():
                res.simulated(mc_in[k], 1)
            res.simulated(mc_in[k], nproc())
        res.sample_speed()
    return res


def mc_summary(mc_rows, res: Results) -> dict:
    # timed at threads=1: with two threads a short call's time swings with the
    # CPU share other tenants leave, and a few short rows carry this sum
    to_se = sum(t * (e.std_error / 1e-3) ** 2
                for t, e in zip(res.t1, res.est1) if not isinstance(e, str))
    return {"paths": sum(r.cfg.n_paths for r in mc_rows), "t1_s": sum(res.t1),
            "tN_s": sum(res.tn), "time_to_se_s": to_se}


def check_mc(p: Pass, analytic, est1, estn, labels) -> None:
    """Each estimate pair: no error, bit-identical across threads, and z <= 5."""
    for ref, e1, en, label in zip(analytic, est1, estn, labels):
        for est in (e1, en):
            p.attempted += 1
            if isinstance(est, str):
                p.fail(f"{label}: mc_lst raised {est}")
            elif est != e1:
                p.fail(f"{label}: threads=1 {e1} != threads={nproc()} {est}")
            elif math.isfinite(ref) and not confront(ref, est):
                p.fail(f"{label}: analytic {ref!r} vs MC {est.mean!r} +- {est.std_error!r}")


def check_rows(p: Pass, values, errors, frozen, labels) -> None:
    """Evaluations: no error, finite in [0, 1], and within FROZEN_TOL of ``frozen``."""
    for i, (value, err, label) in enumerate(zip(values, errors, labels)):
        p.attempted += 1
        if err is not None:
            p.fail(f"{label}: {err}")
        elif not (math.isfinite(value) and 0.0 <= value <= 1.0):
            p.fail(f"{label}: value {value!r} outside [0, 1]")
        elif abs(value - frozen[i]) > FROZEN_TOL:
            p.fail(f"{label}: value {value!r} vs frozen {frozen[i]!r}")


def check_monotone(p: Pass, sweeps, values) -> None:
    """Each sweep moves in the direction the theory fixes; one failure per sweep."""
    i = 0
    for sw in sweeps:
        vals = values[i:i + len(sw.xs)]
        i += len(sw.xs)
        steps = [sw.direction * (b - a) for a, b in zip(vals, vals[1:])]
        if any(not (s >= -MONOTONE_SLACK) for s in steps):
            p.fail(f"{sw.kind.value} p={sw.params.p}: not monotone ({sw.direction:+d}) "
                   f"in x: {vals}")


def label(spec, params, w) -> str:
    return f"{spec.kind.value} lam={params.lam} p={params.p} w={w} {spec.levels()}"


def run_pass(workload: str, seed: int, spawned_at: float, traced: bool) -> dict:
    rows, sweeps, mc_in = build(workload, seed)
    if rows is None:
        mc_at = {i: i for i in range(len(mc_in))}
    else:
        first, stride = CHECK_ROWS[workload]
        picked = range(first, len(rows), stride)
        mc_in = workloads.mc_rows(seed, CHECK_PATHS, [rows[i] for i in picked])
        mc_at = {i: k for k, i in enumerate(picked)}
    out = {"setup_s": time.time() - spawned_at}
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()

    res = interleaved(rows, mc_in, mc_at, tracer)
    if tracer is not None:
        out["trace"] = tracer.snapshot()

    p = Pass()
    if rows is None:
        out["lat_s"] = res.t1  # a result is an estimate; threads=nproc re-runs it
        analytic = load_frozen()["grid"]
    else:
        out["lat_s"] = res.lat
        labels = [label(spec, params, w) for params, spec, w in rows]
        # every seed poses the seed-0 problems in other units
        if workload == "grid-cold":
            frozen = [load_frozen()["grid"][j] for j in workloads.grid_order(seed)]
        else:
            ref, n = load_frozen()["sweep"], workloads.SWEEP_POINTS
            frozen = [v for sw in sweeps for v in ref[n * sw.index:n * (sw.index + 1)]]
        check_rows(p, res.values, res.errors, frozen, labels)
        if workload == "sweep-shared":
            check_monotone(p, sweeps, res.values)
        analytic = [res.values[i] for i in mc_at]
    out["window_s"] = sum(out["lat_s"])
    out["ref_s"] = res.ref
    if res.t1:
        out["mc"] = mc_summary(mc_in, res)
        check_mc(p, analytic, res.est1, res.estn,
                 [label(r.spec, r.params, r.cfg.w) for r in mc_in])
        if rows is None:
            out["mc"].update(kinds=[r.spec.kind.value for r in mc_in],
                             paths_per_row=workloads.MC_PATHS, t1_rows=res.t1)
    out["attempted"] = p.attempted
    out["failed"] = p.failed
    out["problems"] = p.problems
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def load_frozen() -> dict:
    with open(FROZEN) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        build(args.workload, args.seed)
        result = {"setup_s": time.time() - args.spawned_at,
                  "ref_s": [reference() for _ in range(SETUP_REF_SAMPLES)]}
    else:
        result = run_pass(args.workload, args.seed, args.spawned_at, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
