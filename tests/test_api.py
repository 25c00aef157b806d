"""The public API: every exported name exists, and every name a demo
imports from the package is still there, so removing a name cannot
silently break a demo."""

import ast
import importlib
from pathlib import Path

import pytest

import xtalksim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_names_resolve():
    assert [name for name in xtalksim.__all__
            if not hasattr(xtalksim, name)] == []


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from xtalksim[.module] import name``."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "xtalksim"
            for alias in node.names]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = _package_imports(path)
    assert imports, f"{path.name} imports nothing from xtalksim"
    assert [f"{module}.{name}" for module, name in imports
            if not hasattr(importlib.import_module(module), name)] == []
