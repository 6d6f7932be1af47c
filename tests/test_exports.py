"""Every name a ``pitest`` module lists in ``__all__`` exists, and the package imports."""

import importlib
import pkgutil

import pitest


def test_package_imports():
    assert importlib.import_module("pitest") is pitest


def test_every_listed_export_resolves():
    checked = 0
    for info in pkgutil.iter_modules(pitest.__path__, prefix="pitest."):
        module = importlib.import_module(info.name)
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        missing = [name for name in listed if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        checked += 1
    assert checked >= 5
