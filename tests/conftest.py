import numpy as np
import pytest

from powertrace import blockenc


@pytest.fixture
def numpy_decompositions(monkeypatch):
    """Every numpy eigendecomposition, eigenvalue solve, operator-norm SVD
    (``np.linalg.norm`` with ``ord=2``) and ``np.einsum`` made while the
    test runs, as (name, first argument) pairs in call order."""
    calls = []

    def counting(name, real, counted=lambda *a, **kw: True):
        def wrapper(*args, **kwargs):
            if counted(*args, **kwargs):
                calls.append((name, args[0]))
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
    monkeypatch.setattr(
        np.linalg,
        "norm",
        counting("norm2", np.linalg.norm, lambda x, ord=None, *a, **kw: ord == 2),
    )
    return calls


@pytest.fixture
def partial_traces(monkeypatch):
    """The dims of every partial trace a purification takes to find its
    reduced state while the test runs."""
    calls = []
    real = blockenc.partial_trace
    monkeypatch.setattr(blockenc, "partial_trace", lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
    return calls
