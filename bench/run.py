"""The aimdexit benchmark: one command, three workloads, every metric with its unit.

    python3 bench/run.py --workload grid-cold --seed 0 --seconds 30 --trace 0

Each pass of a workload runs in a fresh interpreter (``bench/worker.py``), so
the library's caches start empty, as they do for each ``aimdexit``
invocation.  With ``--trace 0`` passes repeat while the next one is expected
to end within ``--seconds``; then set-up alone is timed in extra fresh
interpreters until there are five samples, and the end-to-end metrics are
printed.  Every time in them is stated at nominal machine speed: each
worker samples a fixed reference computation between its timed calls, and
its times are scaled by how fast that ran (:func:`speed`).  The unscaled
wall-clock values are recorded in the line before the result.
With ``--trace 1`` one untraced and one traced pass run, and the per-layer
metrics are printed, with the tracing overhead as traced minus untraced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Any pass that cannot run ends the benchmark with a
non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("grid-cold", "sweep-shared", "mc-paths")
KINDS = ("up-one", "down-one", "two-sided-up", "two-sided-down",
         "refl-upper-down", "refl-lower-up", "drawdown", "drawup")
SETUP_SAMPLES = 5
REF_NOMINAL_S = 3.3e-3  # worker.reference() in a worker on a 2-vCPU x86_64 VM
DEADLINE_S = 170.0  # every run ends within 180 s


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker to completion and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the next pass")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(time.time()), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: a pass did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(report: dict) -> float:
    """The machine's speed during one worker process, relative to nominal.

    ``worker.reference`` took REF_NOMINAL_S on the machine the bounds were
    set on; that over the median of the process's samples gives the
    factor.  Multiplying a time by it states the time at nominal speed.
    """
    return REF_NOMINAL_S / statistics.median(report["ref_s"])


def end_to_end(passes, setups, adjust: bool = True) -> dict:
    """Rates are medians over passes; latencies pool every result of the run.

    ``setups`` are the reports that timed set-up.  With ``adjust`` every
    time is stated at nominal machine speed (:func:`speed`); without it,
    as the wall clock read.
    """
    f = [speed(p) if adjust else 1.0 for p in passes]
    lat = [t * k for p, k in zip(passes, f) for t in p["lat_s"]]
    mc = [(p["mc"], k) for p, k in zip(passes, f)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    med = statistics.median
    return {
        "setup_s": (med(r["setup_s"] * (speed(r) if adjust else 1.0) for r in setups), "s"),
        "evals_per_s": (med(len(p["lat_s"]) / (p["window_s"] * k)
                            for p, k in zip(passes, f)), "1/s"),
        "eval_p50_ms": (1e3 * med(lat), "ms"),
        "eval_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
        "mc_mpaths_per_s_t1": (1e-6 * med(m["paths"] / (m["t1_s"] * k) for m, k in mc),
                               "Mpaths/s"),
        "mc_time_to_se_s": (med(m["time_to_se_s"] * k for m, k in mc), "s"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    tr = traced["trace"]
    calls, self_s, total_s, counts = tr["calls"], tr["self_s"], tr["total_s"], tr["counts"]
    out = {}
    for kind in KINDS:
        out[f"evaluate.{kind}.s"] = (total_s.get(f"evaluate.{kind}", 0.0), "s")
    for span in ("reflected.hazard", "reflected.l_down", "scalefn.z_down",
                 "scalefn.log_k", "drawup.z_up"):
        out[f"{span}.calls"] = (calls.get(span, 0), "count")
        out[f"{span}.s"] = (self_s.get(span, 0.0), "s")
    out["reflected.drawdown.rounds"] = (counts.get("reflected.drawdown.rounds", 0), "count")
    out["scalefn.mp.entries"] = (calls.get("scalefn.mp", 0), "count")
    out["scalefn.mp.s"] = (self_s.get("scalefn.mp", 0.0), "s")
    out["scalefn.mp.max_dps"] = (counts.get("scalefn.mp.max_dps", 0), "digits")
    for stem in ("scalefn.k_tables", "scalefn.k_tables_mp", "scalefn.c_tilde_mp"):
        for what in ("hits", "misses"):
            out[f"{stem}.{what}"] = (counts.get(f"{stem}.{what}", 0), "count")
    out["drawup.strip_solves"] = (counts.get("drawup.strip_solves", 0), "count")
    out["drawup.linalg.s"] = (self_s.get("drawup.linalg", 0.0), "s")
    out["drawup.linalg.cpu_s"] = (counts.get("drawup.linalg.cpu_s", 0.0), "s")

    # simulator: the untraced timings, and only where they are the timed
    # window (mc-paths); elsewhere the Monte Carlo is the confrontation.
    # rng: traced during the threads=1 mc-paths calls only.
    window_mc = plain["mc"] if "kinds" in plain.get("mc", {}) else None
    for kind in KINDS:
        rate = 0.0
        if window_mc is not None:
            secs = sum(t for t, k in zip(window_mc["t1_rows"], window_mc["kinds"]) if k == kind)
            n = window_mc["paths_per_row"] * window_mc["kinds"].count(kind)
            rate = 1e-6 * n / secs if secs > 0 else 0.0
        out[f"simulator.{kind}.mpaths_per_s"] = (rate, "Mpaths/s")
    rng_draws = counts.get("rng.draws", 0)
    rng_s = self_s.get("rng", 0.0)
    paths = window_mc["paths"] if window_mc else 0
    out["simulator.draws_per_path"] = (rng_draws / paths if paths else 0.0, "draws")
    out["simulator.mpaths_per_s_tN"] = (
        1e-6 * paths / window_mc["tN_s"] if window_mc else 0.0, "Mpaths/s")
    out["simulator.thread_speedup"] = (
        window_mc["t1_s"] / window_mc["tN_s"] if window_mc else 0.0, "ratio")
    out["rng.calls"] = (calls.get("rng", 0), "count")
    out["rng.draws"] = (rng_draws, "count")
    out["rng.s"] = (rng_s, "s")
    out["rng.share"] = (rng_s / traced["mc"]["t1_s"] if window_mc else 0.0, "ratio")

    # both windows at nominal speed, so that drift between the passes cancels
    base = plain["window_s"] * speed(plain)
    extra = traced["window_s"] * speed(traced) - base
    out["trace.overhead_s"] = (extra, "s")
    out["trace.overhead_share"] = (extra / base, "ratio")
    return out


def environment() -> dict:
    """What the numbers depend on: machine, interpreter, libraries, commit, BLAS."""
    import ctypes

    import mpmath
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    # thread count of the OpenBLAS that numpy loaded (read, never set)
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                env["openblas_threads"] = fn()
                break
    env["commit"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # never look above the checkout
        env["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                       capture_output=True, timeout=10).stdout.strip() or None
    # names the code where no git metadata exists
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "aimdexit", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    env["src_sha256"] = digest.hexdigest()
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "aimdexit")):
        print(f"no aimdexit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    info = {}
    try:
        if args.trace:
            plain = spawn(args.workload, args.seed, deadline)
            traced = spawn(args.workload, args.seed, deadline, "--trace")
            passes = [plain, traced]
            metrics = per_layer(plain, traced)
            info["speed"] = [speed(plain), speed(traced)]
        else:
            passes = []
            while True:
                passes.append(spawn(args.workload, args.seed, deadline))
                elapsed = time.monotonic() - start
                if elapsed * (1 + 1 / len(passes)) > args.seconds:
                    break
            setups = passes + [spawn(args.workload, args.seed, deadline, "--setup-only")
                               for _ in range(SETUP_SAMPLES - len(passes))]
            metrics = end_to_end(passes, setups)
            info["speed"] = [speed(r) for r in setups]
            info["wall_clock"] = {k: v for k, (v, _) in
                                  end_to_end(passes, setups, adjust=False).items()}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for note in p["problems"]:
            print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "passes": len(passes),
                      "elapsed_s": time.monotonic() - start, **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
