"""Every name a module exports resolves, so ``from relconf.<module> import *``
never fails on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import relconf

MODULES = ["relconf"] + [f"relconf.{m.name}" for m in pkgutil.iter_modules(relconf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
