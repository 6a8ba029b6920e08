"""The package exports a pinned set of names, and every exported name
resolves, in the package and in each of its modules."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import aimdexit

MODULES = sorted(info.name for info in pkgutil.iter_modules(aimdexit.__path__))

# what the acceptance criteria, the CLI and evaluate's signature, return and
# exceptions name; the other evaluators are public in their modules only
PACKAGE_EXPORTS = {
    "AimdError", "ValidationError", "ConvergenceError",
    "ExitKind", "ExitSpec", "ModelParams", "normalize", "QuadratureControl",
    "z_up", "z_down", "interval_index", "k_up_coeffs",
    "l_up", "l_up_from_b", "l_down", "lst_drawup", "solve_a", "evaluate",
    "Side", "McConfig", "McEstimate", "default_horizon_cap", "mc_lst",
    "ComparisonRow", "volterra_oracle_zup", "quadrature_oracle_lup",
    "default_grid", "run_suite",
    "__version__",
}


def test_package_exports_are_the_pinned_set():
    assert len(aimdexit.__all__) == len(set(aimdexit.__all__))
    assert set(aimdexit.__all__) == PACKAGE_EXPORTS


def test_package_exports_resolve():
    missing = [name for name in aimdexit.__all__ if not hasattr(aimdexit, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"aimdexit.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from aimdexit import *", namespace)
    assert set(aimdexit.__all__) <= set(namespace)


@pytest.mark.parametrize("module", ["scalefn", "reflected", "_drawup"])
def test_evaluators_work_at_unit_jump_rate(module):
    # evaluate() folds lam into w/lam and lam * levels, so no function or
    # method defined in the evaluator modules takes it
    mod = importlib.import_module(f"aimdexit.{module}")
    found = []
    for obj in vars(mod).values():
        members = list(vars(obj).values()) if inspect.isclass(obj) else []
        for fn in [obj] + members:
            fn = inspect.unwrap(getattr(fn, "__func__", fn))
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                    and "lam" in inspect.signature(fn).parameters:
                found.append(fn.__qualname__)
    assert found == []


def _fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    this package: this test process has scipy loaded already."""
    src = str(Path(aimdexit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_scipy():
    # scipy serves only quadrature_oracle_lup (criterion 04) and the tests
    code = ("import sys, aimdexit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code) == "[]"


def test_every_default_grid_row_evaluates_without_scipy():
    # a None entry in sys.modules makes any import of scipy fail
    code = ("import sys; sys.modules['scipy'] = None; "
            "from aimdexit import default_grid, evaluate; "
            "print(sum(0.0 <= evaluate(*row) <= 1.0 for row in default_grid()))")
    assert _fresh_interpreter(code) == "160"
