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


def test_no_private_scipy_imports():
    # scipy's underscored modules and names may change in any release
    private = []
    for path in sorted(Path(ghwave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "scipy" and any(p.startswith("_") for p in parts):
                    private.append(f"{path.name}: {name}")
    assert private == []
