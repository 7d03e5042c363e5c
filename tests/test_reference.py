"""The circuit references stay out of the pipeline.

``powertrace.reference`` builds the unitaries and dense laws that the
pipeline's closed forms are tested against. Importing the package, its
command line or its suites must not load it, and no source module but
``reference.py`` itself may import it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powertrace
from powertrace import bounds, estimator, instances, linalg, qsvt, reference

SRC = Path(__file__).resolve().parent.parent / "src" / "powertrace"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "reference.py")


def _imports_reference(tree) -> list[int]:
    """Lines of the imports that bind ``powertrace.reference`` or a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "powertrace.reference" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            names = {alias.name for alias in node.names}
            if source in (".reference", "powertrace.reference") or (
                source in (".", "powertrace") and "reference" in names
            ):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_import_the_references(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _imports_reference(tree) == []


def test_guard_sees_each_import_form():
    for text in ("from . import reference", "from .reference import hadamard_test_prob",
                 "import powertrace.reference", "import powertrace.reference as ref",
                 "from powertrace import reference",
                 "from powertrace.reference import ae_outcome_distribution"):
        assert _imports_reference(ast.parse(text)) == [1], text
    for text in ("from . import blockenc", "from .estimator import reference_value", "import reference"):
        assert _imports_reference(ast.parse(text)) == [], text


def test_importing_the_package_leaves_the_references_unloaded():
    code = (
        "import sys, powertrace, powertrace.cli, powertrace.suites; "
        "print('powertrace.reference' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "name, home",
    [("partial_trace", "reference"), ("fidelity", "reference"), ("cyclic_permutation", "reference"),
     ("random_density", "reference"),
     ("power_block_encoding", None), ("vd_ratio", None), ("kron", None), ("clip_spectrum", None)],
)
def test_names_without_a_pipeline_caller_left_the_package(name, home):
    """The test oracles and the tests' seeded state live with the other
    references; the one-record wrappers and ``kron`` are gone."""
    assert name not in powertrace.__all__ and not hasattr(powertrace, name)
    assert not any(hasattr(module, name) for module in (bounds, estimator, instances, linalg, qsvt))
    assert hasattr(reference, name) == (home == "reference")
