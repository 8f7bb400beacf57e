"""Every exported name resolves: each module's __all__ and the package's imports."""

import ast
import importlib
from pathlib import Path

import pytest

import ghwave

MODULES = ["domains", "operators", "dynamics", "ghmetric", "harness", "config"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"ghwave.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_names_resolve():
    tree = ast.parse(Path(ghwave.__file__).read_text())
    names = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [n for n in names if not hasattr(ghwave, n)] == []
