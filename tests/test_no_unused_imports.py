"""Every name a source module imports is used in that module.

No linter ships with the test environment, so this walks the syntax tree
of each ``src/powertrace`` module. ``__init__.py`` is skipped: its imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "powertrace"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
