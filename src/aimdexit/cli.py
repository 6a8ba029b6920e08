"""Command-line front end: evaluate, simulate, compare, sweep.

Output is machine-readable CSV (RFC quoting, UTF-8, header row, leading
``# key=value`` configuration comments) or JSON (one top-level object with
``config``, ``rows`` and ``summary``).  Every run echoes its fully
resolved configuration — including defaulted tolerances and the seed — so
any output file can be regenerated exactly.  The worker-thread count is
deliberately *not* part of the echoed configuration: results are
bit-identical for any ``--threads`` value, and the echo must be too.

Flag values override config-file entries, which override environment and
built-in defaults.  Errors print a single machine-parsable line to stderr
and exit non-zero (2 validation/usage, 3 convergence, 1 other failures).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

from .evaluate import evaluate
from .model import (AimdError, ConvergenceError, ExitKind, ExitSpec,
                    ModelParams, ValidationError)
from .reflected import QuadratureControl
from .simulator import McConfig, default_horizon_cap, mc_lst
from .validate import _confront, default_grid, run_suite

__all__ = ["main"]

_ENV_SEED = "AIMDEXIT_SEED"

# the stable comparison-table interface: column order and names are frozen
_TABLE_COLUMNS = ("kind", "lambda", "p", "w", "x", "a", "b", "c", "u",
                  "analytic", "mc_mean", "mc_stderr", "z_score", "verdict")
_EVAL_COLUMNS = ("kind", "lambda", "p", "w", "x", "a", "b", "c", "u", "xbar0",
                 "value", "series_terms", "quad_error")
_SIM_COLUMNS = ("kind", "lambda", "p", "w", "x", "a", "b", "c", "u", "xbar0",
                "mc_mean", "mc_stderr", "n_paths", "n_censored")


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


# key -> (converter, default); defaults of None mean "not set"
_KEYS = {
    "kind": (str, None),
    "lambda": (float, None),
    "p": (float, None),
    "beta": (float, 1.0),
    "w": (_float_list, None),
    "x": (float, None),
    "a": (float, None),
    "b": (float, None),
    "c": (float, None),
    "u": (float, None),
    "xbar0": (float, None),
    "seed": (int, 20260815),
    "paths": (int, None),  # per-command default applied later
    "cap": (float, None),  # None -> horizon cap chosen from (w, lambda)
    "quad_abs_tol": (float, 1e-8),
    "quad_rel_tol": (float, 1e-7),
    "drawup_tol": (float, 1e-7),
    "sweep": (str, None),
    "values": (_float_list, None),
    "format": (str, "csv"),
}

_DEFAULT_PATHS = {"simulate": 100_000, "compare": 100_000, "sweep": 0}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are single-line and machine-parsable."""

    def error(self, message):
        raise ValidationError(f"usage: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="aimdexit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_mc: bool):
        sp.add_argument("--kind", type=str, help="exit kind, e.g. up-one, drawdown")
        sp.add_argument("--lambda", dest="lambda_", type=float, help="jump intensity")
        sp.add_argument("--p", type=float, help="retention factor in (0,1)")
        sp.add_argument("--beta", type=float, help="drift slope (default 1)")
        sp.add_argument("--w", type=_float_list, help="Laplace argument(s), comma separated")
        for lvl, doc in (("x", "starting level"), ("a", "upper level"),
                         ("b", "lower level"), ("c", "barrier/window size"),
                         ("u", "running-infimum start"),
                         ("xbar0", "running-supremum start")):
            sp.add_argument(f"--{lvl}", type=float, help=doc)
        sp.add_argument("--quad-abs-tol", dest="quad_abs_tol", type=float)
        sp.add_argument("--quad-rel-tol", dest="quad_rel_tol", type=float)
        sp.add_argument("--drawup-tol", dest="drawup_tol", type=float)
        sp.add_argument("--config", type=str, help="key=value config file")
        sp.add_argument("--format", type=str, choices=("csv", "json"))
        sp.add_argument("--output", type=str, help="write table here instead of stdout")
        if with_mc:
            sp.add_argument("--seed", type=int,
                            help=f"RNG seed (default from ${_ENV_SEED} if set)")
            sp.add_argument("--paths", type=int, help="Monte Carlo paths")
            sp.add_argument("--cap", type=float, help="simulation horizon cap")
            sp.add_argument("--threads", type=int, default=1, help="worker threads")

    add_common(sub.add_parser("eval", help="evaluate a transform analytically"), False)
    add_common(sub.add_parser("simulate", help="Monte Carlo estimate only"), True)
    add_common(sub.add_parser("compare",
                              help="analytic vs Monte Carlo (default: full grid)"), True)
    sweep = sub.add_parser("sweep", help="evaluate along one varying parameter")
    add_common(sweep, True)
    sweep.add_argument("--sweep", dest="sweep", type=str,
                       help="variable to sweep: w, x, a, b, c, u or xbar0")
    sweep.add_argument("--values", type=_float_list, help="sweep values, comma separated")
    return parser


def _read_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise ValidationError(f"config {path}:{ln}: expected key=value")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValidationError(f"config file {path}: {exc}") from exc
    return out


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    """Merge defaults < environment < config file < flags into one dict."""
    resolved: Dict[str, object] = {k: d for k, (_, d) in _KEYS.items()}
    resolved["paths"] = _DEFAULT_PATHS.get(args.command)
    env_seed = os.environ.get(_ENV_SEED)
    if env_seed is not None:
        try:
            resolved["seed"] = int(env_seed)
        except ValueError:
            raise ValidationError(f"${_ENV_SEED} must be an integer, got {env_seed!r}")
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            key = "lambda" if key == "lambda_" else key
            if key not in _KEYS:
                raise ValidationError(f"config key {key!r} is not recognized")
            conv = _KEYS[key][0]
            try:
                resolved[key] = conv(raw)
            except ValueError:
                raise ValidationError(f"config key {key!r}: cannot parse {raw!r}")
    for key in _KEYS:
        attr = "lambda_" if key == "lambda" else key
        val = getattr(args, attr, None)
        if val is not None:
            resolved[key] = val
    resolved["command"] = args.command
    return resolved


def _have_point(res: Dict[str, object]) -> bool:
    return res.get("kind") is not None


def _make_point(res: Dict[str, object]):
    for key in ("kind", "lambda", "p"):
        if res.get(key) is None:
            raise ValidationError(f"--{key} is required here")
    if res.get("x") is None:
        raise ValidationError("--x is required here")
    params = ModelParams(lam=res["lambda"], p=res["p"], beta=res["beta"])
    spec = ExitSpec(kind=ExitKind.parse(res["kind"]), x=res["x"], a=res.get("a"),
                    b=res.get("b"), c=res.get("c"), u=res.get("u"),
                    xbar0=res.get("xbar0"))
    return params, spec


def _quad_control(res: Dict[str, object]) -> QuadratureControl:
    return QuadratureControl(abs_tol=res["quad_abs_tol"], rel_tol=res["quad_rel_tol"])


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

_CONFIG_ECHO_ORDER = ("command", "kind", "lambda", "p", "beta", "w", "x", "a",
                      "b", "c", "u", "xbar0", "sweep", "values", "seed",
                      "paths", "cap", "quad_abs_tol", "quad_rel_tol",
                      "drawup_tol", "format")


def _echo_config(res: Dict[str, object]) -> Dict[str, object]:
    """The reproducibility header: resolved values, thread count excluded."""
    out = {}
    for key in _CONFIG_ECHO_ORDER:
        if key in ("seed", "paths", "cap") and res.get("paths") is None:
            continue  # analytic-only command
        out[key] = res.get(key)
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(res: Dict[str, object], columns: Sequence[str],
          rows: List[Dict[str, object]], summary: Optional[str]) -> None:
    config = _echo_config(res)
    out = sys.stdout
    close = False
    if res.get("output"):
        out = open(res["output"], "w", encoding="utf-8", newline="")
        close = True
    try:
        if res["format"] == "json":
            payload = {"config": config,
                       "rows": [{c: r.get(c) for c in columns} for r in rows],
                       "summary": summary}
            json.dump(payload, out, indent=2, allow_nan=True)
            out.write("\n")
        else:
            for key, val in config.items():
                out.write(f"# {key}={_cell(val) if not isinstance(val, list) else ','.join(map(repr, val))}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(row.get(c)) for c in columns])
            if summary is not None:
                out.write(f"# {summary}\n")
    finally:
        if close:
            out.close()
    if close and summary is not None:
        print(summary)


def _spec_cells(params: ModelParams, spec: ExitSpec, w: float) -> Dict[str, object]:
    return {"kind": spec.kind.value, "lambda": params.lam, "p": params.p, "w": w,
            "x": spec.x, "a": spec.a, "b": spec.b, "c": spec.c, "u": spec.u,
            "xbar0": spec.xbar0}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(res: Dict[str, object]) -> int:
    params, spec = _make_point(res)
    if res.get("w") is None:
        raise ValidationError("--w is required here")
    qctrl = _quad_control(res)
    rows = []
    for w in res["w"]:
        diag: Dict[str, object] = {}
        value = evaluate(params, spec, w, qctrl=qctrl,
                         drawup_tol=res["drawup_tol"], diagnostics=diag)
        row = _spec_cells(params, spec, w)
        row.update(value=value,
                   series_terms=diag.get("series_terms"),
                   quad_error=diag.get("quad_error"))
        rows.append(row)
    _emit(res, _EVAL_COLUMNS, rows, None)
    return 0


def _sim_config(res: Dict[str, object], params: ModelParams, w: float) -> McConfig:
    cap = res["cap"] if res.get("cap") is not None \
        else default_horizon_cap(w, max(params.lam, 1e-12))
    return McConfig(n_paths=res["paths"], seed=res["seed"], horizon_cap=cap, w=w)


def _cmd_simulate(res: Dict[str, object]) -> int:
    params, spec = _make_point(res)
    if res.get("w") is None:
        raise ValidationError("--w is required here")
    rows = []
    for w in res["w"]:
        est = mc_lst(spec, params, _sim_config(res, params, w),
                     threads=res["threads"])
        row = _spec_cells(params, spec, w)
        row.update(mc_mean=est.mean, mc_stderr=est.std_error,
                   n_paths=est.n_paths, n_censored=est.n_censored)
        rows.append(row)
    _emit(res, _SIM_COLUMNS, rows, None)
    return 0


def _comparison_cells(row) -> Dict[str, object]:
    cells = _spec_cells(row.params, row.spec, row.w)
    cells.pop("xbar0", None)
    cells.update(analytic=row.analytic,
                 mc_mean=row.mc.mean if row.mc else None,
                 mc_stderr=row.mc.std_error if row.mc else None,
                 z_score=row.z_score if row.mc else None,
                 verdict=row.verdict)
    return cells


def _cmd_compare(res: Dict[str, object]) -> int:
    if _have_point(res):
        params, spec = _make_point(res)
        ws = res.get("w") or [0.0]
        grid = [(params, spec, w) for w in ws]
    else:
        grid = default_grid()
    results = run_suite(grid, n_paths=res["paths"], seed=res["seed"],
                        threads=res["threads"],
                        horizon_cap=res.get("cap"))
    rows = [_comparison_cells(r) for r in results]
    passed = sum(1 for r in results if r.verdict == "pass")
    summary = f"pass {passed}/{len(results)}"
    _emit(res, _TABLE_COLUMNS, rows, summary)
    return 0 if passed == len(results) else 1


_SWEEPABLE = ("w", "x", "a", "b", "c", "u", "xbar0")


def _cmd_sweep(res: Dict[str, object]) -> int:
    var = res.get("sweep")
    if var not in _SWEEPABLE:
        raise ValidationError(f"--sweep must be one of {', '.join(_SWEEPABLE)}")
    if not res.get("values"):
        raise ValidationError("--values is required for sweep")
    if var != "w" and res.get(var) is None:
        res = {**res, var: res["values"][0]}  # seed the swept level
    params, spec = _make_point(res)
    qctrl = _quad_control(res)
    base_w = (res.get("w") or [0.0])[0]
    rows = []
    any_fail = False
    for val in res["values"]:
        w = val if var == "w" else base_w
        point = spec if var == "w" else dataclasses.replace(spec, **{var: val})
        analytic = evaluate(params, point, w, qctrl=qctrl,
                            drawup_tol=res["drawup_tol"])
        cells = _spec_cells(params, point, w)
        cells.pop("xbar0", None)
        cells.update(analytic=analytic, mc_mean=None, mc_stderr=None,
                     z_score=None, verdict=None)
        if res["paths"]:
            est = mc_lst(point, params, _sim_config(res, params, w),
                         threads=res["threads"])
            z, ok = _confront(analytic, est, 3.0)
            cells.update(mc_mean=est.mean, mc_stderr=est.std_error,
                         z_score=z, verdict="pass" if ok else "fail")
            any_fail |= not ok
        rows.append(cells)
    _emit(res, _TABLE_COLUMNS, rows, None)
    return 1 if any_fail else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        res = _resolve(args)
        res["threads"] = getattr(args, "threads", 1)
        res["output"] = getattr(args, "output", None)
        handler = {"eval": _cmd_eval, "simulate": _cmd_simulate,
                   "compare": _cmd_compare, "sweep": _cmd_sweep}[args.command]
        return handler(res)
    except ValidationError as exc:
        print(f"aimdexit: error: validation: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"aimdexit: error: convergence: {exc}", file=sys.stderr)
        return 3
    except AimdError as exc:
        print(f"aimdexit: error: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
