"""Every name the package exports resolves, so a deleted function cannot
leave a stale entry in an `__all__` or in `fedcs_sim/__init__.py`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fedcs_sim

MODULES = sorted(info.name for info in pkgutil.iter_modules(fedcs_sim.__path__))


def test_every_module_is_listed():
    assert {"protocol", "learning", "selection"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"fedcs_sim.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(fedcs_sim.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 40
    for module, attr in imported:
        source = importlib.import_module(f"fedcs_sim.{module}")
        assert getattr(fedcs_sim, attr) is getattr(source, attr), f"{module}.{attr}"
