import numpy as np
import pytest

import powertrace as pt
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


def chebyshev_matrix(poly, mat) -> np.ndarray:
    """p(M) for a Chebyshev-basis polynomial, by the matrix recurrence
    T_0 = I, T_1 = M, T_(n+1) = 2 M T_n - T_(n-1): no eigendecomposition,
    so it shares nothing with the pipeline's spectral route."""
    mat = np.asarray(mat, dtype=complex)
    prev, cur = np.eye(mat.shape[0], dtype=complex), mat
    out = poly.coeffs.get(0, 0.0) * prev
    for n in range(1, max(poly.coeffs, default=0) + 1):
        out = out + poly.coeffs.get(n, 0.0) * cur
        prev, cur = cur, 2 * mat @ cur - prev
    return out


def dense_power_times_obs(rho, obs, k: int, eps: float) -> np.ndarray:
    """B = p(rho) O for the truncation p of x^(k-1) an estimate uses at
    eps, whose polynomial budget is eps / (2 ||O||), built densely by
    ``chebyshev_matrix``."""
    degree = pt.required_degree(k - 1, min(1.0, eps / (2 * obs.op_norm)))
    return chebyshev_matrix(pt.truncate(pt.power_expansion(k - 1), degree).kept, rho.mat) @ obs.mat
