"""Every name a package module or a test module imports is used in that
module, and every name a package module imports from a sibling is defined
in that sibling, not re-exported by it. Every public name of the package
has a caller outside the tests, no check of the package is an `assert`,
which `python -O` would strip, and every JSON file beside the tests is
named by a test module."""

import ast
from pathlib import Path

import pytest

import dchain

PACKAGE = sorted(p for p in Path(dchain.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
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


def defined_names(path):
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in PACKAGE])
def test_sibling_imports_name_the_defining_module(path):
    borrowed = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defined = defined_names(path.with_name(f"{node.module}.py"))
            borrowed += [(node.lineno, alias.name, node.module)
                         for alias in node.names if alias.name not in defined]
    assert not borrowed, f"{path.name}: imported from a module that does not define it " \
                         f"(line, name, module): {borrowed}"


def public_api(tree):
    """(line, name) of each public top-level function and class of a module,
    and of each public method or property of those classes, as Class.name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((item.lineno, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public name of the package must be read, as a name or an attribute,
    in a package module other than __init__.py or in perfbench. The check
    looks one level deep: a function whose only caller is another function
    that only the tests call still passes."""
    assert PERFBENCH, "perfbench/*.py not found beside the tests"
    read = set()
    for path in PACKAGE + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [(path.name, line, name) for path in PACKAGE
              for line, name in public_api(ast.parse(path.read_text(encoding="utf-8")))
              if name.rpartition(".")[2] not in read]
    assert not unread, f"public names that only the tests use (module, line, name): {unread}"


def test_no_check_is_an_assert():
    modules = sorted(Path(dchain.__file__).parent.glob("*.py"))
    assert len(modules) >= 7, modules
    found = [(path.name, node.lineno) for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert not found, f"assert or __debug__, gone under python -O (module, line): {sorted(found)}"


def test_every_pin_file_is_named_by_a_test():
    """A tests/*.json file must appear by name in the text of some
    tests/*.py, so a pin file cannot outlive the test that reads it."""
    text = "".join(path.read_text(encoding="utf-8") for path in TESTS)
    orphans = [p.name for p in sorted(Path(__file__).parent.glob("*.json")) if p.name not in text]
    assert not orphans, f"JSON files in tests/ that no test module names: {orphans}"
