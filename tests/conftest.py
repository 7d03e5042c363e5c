import numpy as np
import pytest


@pytest.fixture
def numpy_decompositions(monkeypatch):
    """Every numpy eigendecomposition, eigenvalue solve, SVD (``np.linalg.svd``,
    which ``linalg.op_norm`` runs, and ``np.linalg.norm`` with ``ord=2``) and
    ``np.einsum`` made while the test runs, as (name, first argument) pairs
    in call order."""
    calls = []

    def counting(name, real, counted=lambda *a, **kw: True):
        def wrapper(*args, **kwargs):
            if counted(*args, **kwargs):
                calls.append((name, args[0]))
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
    monkeypatch.setattr(
        np.linalg,
        "norm",
        counting("norm2", np.linalg.norm, lambda x, ord=None, *a, **kw: ord == 2),
    )
    return calls

