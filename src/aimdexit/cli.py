"""Command-line front end: evaluate, simulate, compare, sweep.

Output is machine-readable CSV (RFC quoting, UTF-8, header row, leading
``# key=value`` configuration comments) or JSON (one top-level object with
``config``, ``rows`` and ``summary``).  Every run echoes its fully
resolved configuration — including defaulted tolerances and the seed — so
any output file can be regenerated exactly.  One table, ``_KEYS``, holds
every key with its converter, default, help text and the commands that read
it: a command accepts (as a flag or a config-file entry) and echoes exactly
the keys it reads, so ``compare``, which evaluates at the default
tolerances, takes no tolerance.  The worker-thread count is deliberately
*not* part of the echoed configuration: results are bit-identical for any
``--threads`` value, and the echo must be too.

Flag values override config-file entries, which override environment and
built-in defaults.  Errors print a single machine-parsable line to stderr
and exit non-zero (2 validation/usage, 3 convergence, 1 other failures).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
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


_COMMANDS = {"eval": "evaluate a transform analytically",
             "simulate": "Monte Carlo estimate only",
             "compare": "analytic vs Monte Carlo (default: full grid)",
             "sweep": "evaluate along one varying parameter"}
_ALL = tuple(_COMMANDS)
_MC = ("simulate", "compare", "sweep")
_TOLS = ("eval", "sweep")  # compare evaluates at the default tolerances
_FORMATS = ("csv", "json")

# key -> (converter, default, commands that read it, help), in the order of
# the config echo; a default of None means "not set"
_KEYS = {
    "kind": (str, None, _ALL, "exit kind, e.g. up-one, drawdown"),
    "lambda": (float, None, _ALL, "jump intensity"),
    "p": (float, None, _ALL, "retention factor in (0,1)"),
    "beta": (float, 1.0, _ALL, "drift slope (default 1)"),
    "w": (_float_list, None, _ALL, "Laplace argument(s), comma separated"),
    "x": (float, None, _ALL, "starting level"),
    "a": (float, None, _ALL, "upper level"),
    "b": (float, None, _ALL, "lower level"),
    "c": (float, None, _ALL, "barrier/window size"),
    "u": (float, None, _ALL, "running-infimum start"),
    "xbar0": (float, None, _ALL, "running-supremum start"),
    "sweep": (str, None, ("sweep",), "variable to sweep: w, x, a, b, c, u or xbar0"),
    "values": (_float_list, None, ("sweep",), "sweep values, comma separated"),
    "seed": (int, 20260815, _MC, f"RNG seed (default from ${_ENV_SEED} if set)"),
    "paths": (int, None, _MC, "Monte Carlo paths"),  # default: _DEFAULT_PATHS
    "cap": (float, None, _MC, "simulation horizon cap (default from w, lambda)"),
    "quad_abs_tol": (float, 1e-8, _TOLS, "drawdown quadrature absolute tolerance"),
    "quad_rel_tol": (float, 1e-7, _TOLS, "drawdown quadrature relative tolerance"),
    "drawup_tol": (float, 1e-7, _TOLS, "drawup cascade tolerance"),
    "format": (str, "csv", _ALL, "output format"),
}

_DEFAULT_PATHS = {"simulate": 100_000, "compare": 100_000, "sweep": 0}

_SWEEPABLE = ("w", "x", "a", "b", "c", "u", "xbar0")
# the keys of one point; compare without --kind runs the grid and takes none
_POINT_KEYS = ("lambda", "p", "beta", *_SWEEPABLE)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are single-line and machine-parsable."""

    def error(self, message):
        raise ValidationError(f"usage: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="aimdexit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, doc in _COMMANDS.items():
        sp = sub.add_parser(command, help=doc)
        for key, (conv, _, commands, text) in _KEYS.items():
            if command in commands:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=conv,
                                help=text,
                                choices=_FORMATS if key == "format" else None)
        sp.add_argument("--config", type=str, help="key=value config file")
        sp.add_argument("--output", type=str, help="write table here instead of stdout")
        if command in _MC:
            sp.add_argument("--threads", type=int, default=1, help="worker threads")
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
    """The command and its own keys, merged defaults < environment < config
    file < flags, in table order."""
    command = args.command
    res: Dict[str, object] = {"command": command}
    res.update((k, d) for k, (_, d, commands, _) in _KEYS.items() if command in commands)
    if command in _MC:
        res["paths"] = _DEFAULT_PATHS[command]
        env_seed = os.environ.get(_ENV_SEED)
        if env_seed is not None:
            try:
                res["seed"] = int(env_seed)
            except ValueError:
                raise ValidationError(f"${_ENV_SEED} must be an integer, got {env_seed!r}")
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            key = "lambda" if key == "lambda_" else key
            if key not in _KEYS:
                raise ValidationError(f"config key {key!r} is not recognized")
            if key not in res:
                raise ValidationError(f"config key {key!r} is not read by {command}")
            try:
                res[key] = _KEYS[key][0](raw)
            except ValueError:
                raise ValidationError(f"config key {key!r}: cannot parse {raw!r}")
    for key in _KEYS:
        val = getattr(args, key, None)
        if val is not None:
            res[key] = val
    if res["format"] not in _FORMATS:
        raise ValidationError(f"format must be one of {', '.join(_FORMATS)}, "
                              f"got {res['format']!r}")
    return res


def _points(res: Dict[str, object]):
    """``(params, spec, w)`` of every output row, in row order.  A level that
    ``sweep`` seeds from its first value is set in ``res``, and so echoed."""
    command = res["command"]
    if command == "compare" and res["kind"] is None:
        stray = [k for k in _POINT_KEYS if res[k] != _KEYS[k][1]]
        if stray:
            raise ValidationError("compare without --kind runs the built-in grid; "
                                  f"it takes no --{', --'.join(stray)}")
        return default_grid()
    if command == "sweep":
        var = res["sweep"]
        if var not in _SWEEPABLE:
            raise ValidationError(f"--sweep must be one of {', '.join(_SWEEPABLE)}")
        if not res["values"]:
            raise ValidationError("--values is required for sweep")
        if var != "w" and res[var] is None:
            res[var] = res["values"][0]
    for key in ("kind", "lambda", "p", "x"):
        if res[key] is None:
            raise ValidationError(f"--{key} is required here")
    params = ModelParams(lam=res["lambda"], p=res["p"], beta=res["beta"])
    spec = ExitSpec(kind=ExitKind.parse(res["kind"]), x=res["x"], a=res["a"],
                    b=res["b"], c=res["c"], u=res["u"], xbar0=res["xbar0"])
    if command == "sweep":
        if var == "w":
            return [(params, spec, w) for w in res["values"]]
        w = (res["w"] or [0.0])[0]
        return [(params, dataclasses.replace(spec, **{var: v}), w) for v in res["values"]]
    if command == "compare":
        return [(params, spec, w) for w in res["w"] or [0.0]]
    if res["w"] is None:
        raise ValidationError("--w is required here")
    return [(params, spec, w) for w in res["w"]]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _cells(params: ModelParams, spec: ExitSpec, w: float, **values) -> Dict[str, object]:
    return {"kind": spec.kind.value, "lambda": params.lam, "p": params.p, "w": w,
            "x": spec.x, "a": spec.a, "b": spec.b, "c": spec.c, "u": spec.u,
            "xbar0": spec.xbar0, **values}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(res: Dict[str, object], columns: Sequence[str],
          rows: List[Dict[str, object]], summary: Optional[str]) -> None:
    # the reproducibility header: the command and its keys, thread count and
    # output destination excluded
    config = {k: res[k] for k in ("command", *_KEYS) if k in res}
    out = res["out"]
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
    if out is not sys.stdout and summary is not None:
        print(summary)


def _open_output(path: Optional[str]):
    """The table's destination, opened before any work so that a path that
    cannot be written fails at once: a context manager over ``path``, or
    over stdout when no path is given."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"output file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_compare(res: Dict[str, object], points) -> int:
    results = run_suite(points, n_paths=res["paths"], seed=res["seed"],
                        threads=res["threads"], horizon_cap=res["cap"])
    rows = [_cells(r.params, r.spec, r.w, analytic=r.analytic, verdict=r.verdict,
                   **({} if r.mc is None else dict(mc_mean=r.mc.mean,
                                                   mc_stderr=r.mc.std_error,
                                                   z_score=r.z_score)))
            for r in results]
    passed = sum(1 for r in results if r.verdict == "pass")
    _emit(res, _TABLE_COLUMNS, rows, f"pass {passed}/{len(results)}")
    return 0 if passed == len(results) else 1


def _cmd_points(res: Dict[str, object], points) -> int:
    """eval, simulate and sweep: every point evaluated, simulated, or (a
    sweep with ``--paths``) both and confronted."""
    command = res["command"]
    analytic = command != "simulate"
    simulate = not analytic or bool(res.get("paths"))
    if analytic:
        opts = dict(qctrl=QuadratureControl(abs_tol=res["quad_abs_tol"],
                                            rel_tol=res["quad_rel_tol"]),
                    drawup_tol=res["drawup_tol"])
    rows, failed = [], False
    for params, spec, w in points:
        row = _cells(params, spec, w)
        if analytic:
            diag: Dict[str, object] = {}
            value = evaluate(params, spec, w, diagnostics=diag, **opts)
            # the eval and sweep column names of the one value
            row.update(value=value, analytic=value,
                       series_terms=diag.get("series_terms"),
                       quad_error=diag.get("quad_error"))
        if simulate:
            cap = res["cap"] if res["cap"] is not None \
                else default_horizon_cap(w, params.lam)
            est = mc_lst(spec, params, McConfig(n_paths=res["paths"], seed=res["seed"],
                                                horizon_cap=cap, w=w),
                         threads=res["threads"])
            row.update(mc_mean=est.mean, mc_stderr=est.std_error,
                       n_paths=est.n_paths, n_censored=est.n_censored)
            if command == "sweep":
                z, ok = _confront(value, est, 3.0)
                row.update(z_score=z, verdict="pass" if ok else "fail")
                failed |= not ok
        rows.append(row)
    columns = {"eval": _EVAL_COLUMNS, "simulate": _SIM_COLUMNS,
               "sweep": _TABLE_COLUMNS}[command]
    _emit(res, columns, rows, None)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        res = _resolve(args)
        res["threads"] = getattr(args, "threads", 1)
        points = _points(res)
        with _open_output(args.output) as out:
            res["out"] = out
            return (_cmd_compare if args.command == "compare" else _cmd_points)(res, points)
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
