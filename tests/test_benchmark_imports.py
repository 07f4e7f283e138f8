"""The benchmark scripts in ``perfbench/`` import package names at module
level; every one of those names must keep resolving."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _package_imports():
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hararyspec":
                for alias in node.names:
                    yield script.name, node.module, alias.name


IMPORTS = list(_package_imports())


def test_benchmark_imports_found():
    assert any(name == "cli" for _, _, name in IMPORTS)
    assert any(name == "build_bundle" for _, _, name in IMPORTS)


def _resolves(module, name):
    """What ``from module import name`` needs: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("script, module, name", IMPORTS)
def test_benchmark_import_resolves(script, module, name):
    assert _resolves(module, name), f"{script}: from {module} import {name}"
