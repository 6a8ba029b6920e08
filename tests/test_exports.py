"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

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
