"""Every name in an export list resolves, and only once: a name deleted
from a module but left in an __all__ fails here rather than at a
user's `from curvedcomb import *`."""

import importlib
import pkgutil

import pytest

import curvedcomb

MODULES = ["curvedcomb"] + [
    f"curvedcomb.{info.name}" for info in pkgutil.iter_modules(curvedcomb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
