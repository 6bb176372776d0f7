"""Every name the package exports resolves, so a deleted function cannot
leave a stale entry in an `__all__` or in `fedcs_sim/__init__.py`."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import fedcs_sim

MODULES = sorted(info.name for info in pkgutil.iter_modules(fedcs_sim.__path__))
ROOT = Path(__file__).resolve().parents[1]


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


def test_every_source_file_parses_at_the_declared_python_floor():
    # A regex, not tomllib: tomllib is new in 3.11, above the floor itself.
    declared = re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    )
    floor = (int(declared[1]), int(declared[2]))
    files = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_readme_lists_every_random_stream_label():
    labels = {
        node.args[0].value
        for path in (ROOT / "src" / "fedcs_sim").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "child"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    assert "fluctuation" in labels
    section = (ROOT / "README.md").read_text().split("## Random streams\n", 1)[1]
    table = section.split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([^`]+)` \|", table, re.M))
    assert listed == labels


def test_third_party_imports_are_the_declared_dependencies():
    # Each dependency here installs under its own import name.
    declared = re.search(
        r"^dependencies = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M
    )[1]
    dependencies = {
        re.split(r"[<>=!~ ;\[]", spec)[0] for spec in re.findall(r'"([^"]+)"', declared)
    }
    imported = set()
    for path in (ROOT / "src" / "fedcs_sim").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == dependencies == {"numpy", "orjson"}
