import math

import numpy as np
import pytest

import powertrace as pt
from conftest import chebyshev_matrix, dense_power_times_obs
from powertrace import estimator, qsvt

PROJ0 = np.diag([1.0, 0.0]).astype(complex)


def _dense(spectrum):
    """V diag(p) V^dag from a transform's (p(l_i), V)."""
    p_w, v = spectrum
    return (v * p_w) @ v.conj().T


def _transform(rho, poly):
    return _dense(qsvt._eigen_transform(rho.spectrum(), poly))


# ----------------------------------------------------------- _eigen_transform

def test_identity_map_polynomial():
    rho = pt.random_density(1, 2, seed=0)
    out = _transform(rho, pt.ChebyshevPoly({1: 1.0}, parity="odd"))
    assert np.linalg.norm(out - rho.mat, 2) <= 1e-12


def test_constant_one_polynomial():
    rho = pt.random_density(1, 2, seed=1)
    out = _transform(rho, pt.ChebyshevPoly({0: 1.0}, parity="even"))
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_square_through_eigenvalues():
    rho = pt.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    poly = pt.truncate(pt.power_expansion(2), 2).kept
    out = _transform(rho, poly)
    assert np.allclose(out, np.diag([0.49, 0.09]), atol=1e-12)


def test_transform_matches_independent_eigen_sum():
    rho = pt.random_density(2, 3, seed=5)
    poly = pt.truncate(pt.power_expansion(5), 3).kept
    w, v = np.linalg.eigh(rho.mat)
    expected = sum(
        pt.clenshaw_eval(poly, float(np.clip(lam, -1, 1))) * np.outer(v[:, i], v[:, i].conj())
        for i, lam in enumerate(w)
    )
    # the transform reads the spectrum rho's validation cached; the
    # recurrence on rho.mat decomposes nothing
    out = _transform(rho, poly)
    assert np.linalg.norm(out - expected, 2) <= 1e-10
    assert np.linalg.norm(out - chebyshev_matrix(poly, rho.mat), 2) <= 1e-10


def test_rejects_mixed_parity():
    rho = pt.random_density(1, 2, seed=2)
    with pytest.raises(pt.ContractError):
        _transform(rho, pt.ChebyshevPoly({0: 0.5, 1: 0.5}))


def test_rejects_sup_norm_violation():
    rho = pt.random_density(1, 2, seed=3)
    with pytest.raises(pt.ContractError):
        _transform(rho, pt.ChebyshevPoly({1: 2.0}, parity="odd"))


def _count_clenshaw(monkeypatch):
    calls = []
    real = qsvt.clenshaw_eval
    monkeypatch.setattr(qsvt, "clenshaw_eval", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def test_admissibility_certificate_then_scan(monkeypatch):
    calls = _count_clenshaw(monkeypatch)
    # coefficients summing to 1: certified without evaluating the polynomial
    qsvt._check_admissible(pt.truncate(pt.power_expansion(9), 5).kept)
    assert calls == []
    # 0.9 T1 - 0.3 T3 = 1.8x - 1.2x^3: sum |c| = 1.2 fails the certificate,
    # but its sup, 1.2 / sqrt(2), passes the grid scan
    wide = pt.ChebyshevPoly({1: 0.9, 3: -0.3}, parity="odd")
    qsvt._check_admissible(wide)
    assert len(calls) == 1
    rho = pt.random_density(1, 2, seed=3)
    out = _transform(rho, wide)
    w, v = np.linalg.eigh(rho.mat)
    assert np.allclose(out, (v * (1.8 * w - 1.2 * w ** 3)) @ v.conj().T, atol=1e-12)
    # a sup of 1 + 1e-7, reached at x = 1, is still rejected
    with pytest.raises(pt.ContractError, match="sup-norm"):
        qsvt._check_admissible(pt.ChebyshevPoly({1: 0.5, 3: 0.5 + 1e-7}, parity="odd"))


def test_qsvt_request_rejects_what_the_scan_rejects():
    """A transform request is admitted by the transform's own check."""
    rho = pt.random_density(1, 2, seed=4)
    wide = pt.ChebyshevPoly({1: 0.9, 3: -0.3}, parity="odd")
    _transform(rho, wide)
    too_wide = pt.ChebyshevPoly({1: 1.2, 3: -0.1}, parity="odd")  # p(1) = 1.1
    with pytest.raises(pt.ContractError, match="sup-norm"):
        _transform(rho, too_wide)


def test_transform_carries_its_spectrum():
    """p(rho) is returned as (p(l_i), V) in rho's own cached eigenbasis."""
    rho = pt.random_density(2, 3, seed=5)
    k, eps = 6, 1e-3
    poly = pt.truncate(pt.power_expansion(k - 1), pt.required_degree(k - 1, eps)).kept
    (p_w, v), _ = pt.power_block_encoding(pt.purify(rho), k, eps)
    w, v_rho = rho.spectrum()
    assert v is v_rho
    assert np.array_equal(p_w, pt.clenshaw_eval(poly, np.clip(w, -1, 1)))
    assert np.linalg.norm(_dense((p_w, v)) - chebyshev_matrix(poly, rho.mat), 2) <= 1e-12


def test_power_encoding_evaluates_its_polynomial_once(monkeypatch):
    calls = _count_clenshaw(monkeypatch)
    _, ledger = pt.power_block_encoding(pt.purify(pt.random_density(2, 3, seed=6)), 9, 1e-3)
    assert len(calls) == 1
    assert ledger.model_error <= 1e-3


def test_rejects_non_hermitian_block():
    """The transform's one source is a purification's reduced state, so a
    non-Hermitian block is stopped by the state's validation."""
    m = np.array([[0.5, 0.5], [0, 0.5]], dtype=complex)
    with pytest.raises(pt.ValidationError, match="Hermitian"):
        pt.DensityMatrix(m)


def test_qsvt_request_parity_discipline():
    """The polynomial's parity must match the exponent it approximates."""
    poly = pt.truncate(pt.power_expansion(3), 3).kept  # odd
    with pytest.raises(pt.ContractError, match="does not match exponent"):
        qsvt._check_parity(poly, 2)
    qsvt._check_parity(poly, 3)
    with pytest.raises(pt.ContractError, match="definite parity"):
        qsvt._check_parity(pt.ChebyshevPoly({0: 0.5, 1: 0.5}), 3)


# ------------------------------------------------------ power_block_encoding

def test_power_of_pure_state():
    rho = pt.random_density(2, 1, seed=6)
    for k in (2, 5):
        power, _ = pt.power_block_encoding(pt.purify(rho), k, eps=1e-3)
        assert np.linalg.norm(_dense(power) - rho.mat, 2) <= 1e-3


def test_power_of_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    power, _ = pt.power_block_encoding(pt.purify(rho), 3, eps=1e-3)
    assert np.linalg.norm(_dense(power) - np.eye(2) / 4, 2) <= 1e-3


def test_power_high_order_rank3():
    rho = pt.random_density(3, 3, seed=7)
    power, ledger = pt.power_block_encoding(pt.purify(rho), 9, eps=1e-4)
    oracle = np.linalg.matrix_power(rho.mat, 8)
    assert np.linalg.norm(_dense(power) - oracle, 2) <= 1e-4
    assert ledger.model_error <= ledger.tail_bound + 1e-12


@pytest.mark.parametrize("k,eps", [(2, 0.5), (4, 1e-2), (9, 1e-3), (16, 1e-4)])
def test_power_contract_tighter_than_chernoff(k, eps):
    rho = pt.random_density(2, 3, seed=k)
    power, ledger = pt.power_block_encoding(pt.purify(rho), k, eps)
    oracle = np.linalg.matrix_power(rho.mat, k - 1)
    defect = np.linalg.norm(_dense(power) - oracle, 2)
    chernoff = 2 * math.exp(-ledger.poly_degree ** 2 / (2 * (k - 1)))
    assert defect <= chernoff + 1e-12
    assert defect <= eps + 1e-12


def test_power_query_accounting():
    rho = pt.random_density(2, 2, seed=8)
    for k, eps in ((3, 0.05), (10, 1e-3), (33, 1e-2)):
        _, ledger = pt.power_block_encoding(pt.purify(rho), k, eps)
        assert ledger.poly_degree == pt.required_degree(k - 1, eps)
        assert ledger.be_rho_applications == ledger.poly_degree
        assert ledger.u_rho_queries == 2 * ledger.poly_degree


def test_power_k1_shortcut_is_exact():
    rho = pt.random_density(1, 2, seed=9)
    power, ledger = pt.power_block_encoding(pt.purify(rho), 2, eps=0.9)
    assert np.linalg.norm(_dense(power) - rho.mat, 2) <= 1e-12
    assert ledger.model_error <= 1e-12


def test_power_rejects_k_below_two():
    rho = pt.random_density(1, 2, seed=10)
    with pytest.raises(pt.ValidationError):
        pt.power_block_encoding(pt.purify(rho), 1, eps=0.1)


# ------------------------------------------------------ the estimator's overlap

def test_identity_observable_reduces_to_power():
    rho = pt.random_density(1, 2, seed=11)
    obs = pt.Observable(np.eye(2, dtype=complex))
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), obs, 3, 1e-3)
    power, _ = pt.power_block_encoding(pt.purify(rho), 3, eps=1e-3 / 2)
    assert alpha == pytest.approx(1.0)
    assert overlap == pytest.approx(np.trace(rho.mat @ _dense(power)), abs=1e-12)


def test_depolarized_projector_product():
    rho1 = pt.DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    obs = pt.Observable(PROJ0)
    overlap, _, _ = estimator._power_overlap(pt.purify(rho1), obs, 3, 1e-3)
    # p(rho) O ~ 0.81 |0><0|, so Tr(rho p(rho) O) ~ 0.9 * 0.81
    assert np.linalg.norm(dense_power_times_obs(rho1, obs, 3, 1e-3) - 0.81 * PROJ0, 2) <= 1e-3
    assert abs(overlap - 0.9 * 0.81) <= 1e-3


def test_trace_against_oracle_two_qubits():
    rho = pt.random_density(2, 2, seed=12)
    zz = pt.Observable(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex))
    eps = 1e-3
    got, _, _ = estimator._power_overlap(pt.purify(rho), zz, 5, eps)
    want = pt.trace_power_obs_oracle(rho, zz, 5)
    assert abs(got - want) <= eps


def test_recorded_error_bounds_true_defect():
    """p(rho) O lies within alpha_O * eps_poly of rho^(k-1) O, and the
    overlap within ||O|| times the ledger's model error of Tr(rho^k O)."""
    rho = pt.random_density(2, 3, seed=13)
    obs = pt.Observable(3 * np.kron(PROJ0, np.eye(2)).astype(complex))
    k, eps = 6, 1e-2
    eps_poly = min(1.0, eps / (2 * obs.op_norm))
    overlap, alpha, ledger = estimator._power_overlap(pt.purify(rho), obs, k, eps)
    target = np.linalg.matrix_power(rho.mat, k - 1) @ obs.mat
    assert pt.op_norm(target - dense_power_times_obs(rho, obs, k, eps)) <= alpha * eps_poly + 1e-8
    assert ledger.model_error <= eps_poly
    oracle = pt.trace_power_obs_oracle(rho, obs, k)
    assert abs(overlap - oracle) <= obs.op_norm * ledger.model_error + 1e-12


def test_product_encoding_is_validated_once(numpy_decompositions, partial_traces):
    pur = pt.purify(pt.random_density(2, 3, seed=16))
    obs = pt.Observable(np.kron(PROJ0, np.eye(2)).astype(complex))
    numpy_decompositions.clear()
    _, alpha, _ = estimator._power_overlap(pur, obs, 5, 1e-2)
    # the transform reads the spectrum rho's validation computed, and
    # alpha_O the norm the observable cached: no SVD, no eigh
    assert [name for name, _ in numpy_decompositions] == []
    assert partial_traces == []
    assert alpha == max(1.0, obs.op_norm)


def test_rejects_zero_observable():
    rho = pt.random_density(1, 2, seed=15)
    with pytest.raises(pt.ValidationError, match="nonzero"):
        pt.estimate_trace_power(pt.purify(rho), pt.Observable(np.zeros((2, 2))), 3, 1e-2)
