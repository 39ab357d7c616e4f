"""Every name a module exports resolves, so ``from relconf.<module> import *``
never fails on a stale ``__all__`` entry, and the README's library example
runs on the package's exports."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
