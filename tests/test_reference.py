"""The circuit references live beside the tests, not in the package.

``tests/reference.py`` builds the unitaries and dense laws that the
pipeline's closed forms are tested against. It sits outside ``src/``, so
the installed package cannot import it and ships only the pipeline.
"""

import importlib.util

import pytest

import powertrace
import reference
from powertrace import bounds, estimator, instances, linalg, qsvt


def test_the_package_has_no_reference_module():
    assert importlib.util.find_spec("powertrace.reference") is None


@pytest.mark.parametrize(
    "name, home",
    [("partial_trace", "reference"), ("fidelity", "reference"), ("cyclic_permutation", "reference"),
     ("random_density", "reference"),
     ("power_block_encoding", None), ("vd_ratio", None), ("kron", None), ("clip_spectrum", None),
     ("amplitude_estimate", None), ("AeOutcome", None)],
)
def test_names_without_a_pipeline_caller_left_the_package(name, home):
    """The test oracles and the tests' seeded state live with the other
    references; the one-record and one-draw wrappers and ``kron`` are gone."""
    assert name not in powertrace.__all__ and not hasattr(powertrace, name)
    assert not any(hasattr(module, name) for module in (bounds, estimator, instances, linalg, qsvt))
    assert hasattr(reference, name) == (home == "reference")
