"""Every name a package module or a test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import dchain

PACKAGE = sorted(p for p in Path(dchain.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
MODULES = ([pytest.param(p, id=p.name) for p in PACKAGE]
           + [pytest.param(p, id=f"tests/{p.name}") for p in TESTS])


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: imported and never used (line, name): {unused}"
