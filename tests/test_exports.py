"""Every exported name resolves, in the package and in each of its modules."""

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


def test_import_does_not_load_scipy():
    # scipy serves only two oracles and the tests; this test process has it
    # loaded already, so a fresh interpreter imports the package
    src = str(Path(aimdexit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, aimdexit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
