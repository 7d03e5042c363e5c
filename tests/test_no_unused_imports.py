"""Every name a source module imports is used in that module, and every
top-level function and class of the package is named somewhere.

No linter ships with the test environment, so this walks the syntax tree
of each ``src/powertrace`` module, of the tests' ``reference`` module and
of each ``benchmarks`` script. ``__init__.py`` is skipped: its imports are
the package's re-exports. A definition counts as used where a ``src``
module (its own too), ``__all__``, ``perfbench`` or ``benchmarks`` names
it; a name that only the tests read is dead code.
"""

import ast
from pathlib import Path

import pytest

import powertrace

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "powertrace"
BENCHMARKS = sorted((TESTS.parent / "benchmarks").glob("*.py"))
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + [TESTS / "reference.py"] + BENCHMARKS


def _imported_names(tree):
    """(bound name, line, import text) for each import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                source = "." * node.level + (node.module or "")
                yield alias.asname or alias.name, node.lineno, f"{source}.{alias.name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        f"{path.name}:{line}: {text}"
        for name, line, text in _imported_names(tree)
        if name not in used
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_package_exports_are_its_imports():
    """``powertrace.__all__`` is exactly the names ``__init__.py`` imports,
    and each one resolves, so trimming an export leaves no dangling name."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {name for name, _, _ in _imported_names(tree)}
    assert set(powertrace.__all__) == imported
    assert len(powertrace.__all__) == len(imported)
    assert all(hasattr(powertrace, name) for name in powertrace.__all__)


def _named(path) -> set:
    """The names ``path`` reads, imports, or holds as a string (``__all__``'s entries)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_top_level_definition_is_named_outside_the_tests():
    readers = [*SRC.glob("*.py"), *(TESTS.parent / "perfbench").glob("*.py"), *BENCHMARKS]
    named = set().union(*map(_named, readers))
    dead = [f"{path.name}:{node.lineno}: {node.name}" for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named]
    assert not dead, "definitions no module names:\n" + "\n".join(dead)
