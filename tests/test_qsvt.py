import math

import numpy as np
import pytest

import powertrace as pt
from powertrace import qsvt

PROJ0 = np.diag([1.0, 0.0]).astype(complex)


def density_be(rho):
    return pt.density_block(pt.purify(rho))


# ---------------------------------------------------------------- apply_poly

def test_identity_map_polynomial():
    rho = pt.random_density(1, 2, seed=0)
    out = pt.apply_poly(density_be(rho), pt.ChebyshevPoly({1: 1.0}, parity="odd"))
    assert np.linalg.norm(out.block - rho.mat, 2) <= 1e-12
    assert out.ancillas == 3  # source (a+n)=2 plus one


def test_constant_one_polynomial():
    rho = pt.random_density(1, 2, seed=1)
    out = pt.apply_poly(density_be(rho), pt.ChebyshevPoly({0: 1.0}, parity="even"))
    assert np.allclose(out.block, np.eye(2), atol=1e-12)


def test_square_through_eigenvalues():
    rho = pt.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    poly = pt.truncate(pt.power_expansion(2), 2).kept
    out = pt.apply_poly(density_be(rho), poly)
    assert np.allclose(out.block, np.diag([0.49, 0.09]), atol=1e-12)


def test_transform_matches_independent_eigen_sum():
    rho = pt.random_density(2, 3, seed=5)
    poly = pt.truncate(pt.power_expansion(5), 3).kept
    w, v = np.linalg.eigh(rho.mat)
    expected = sum(
        pt.clenshaw_eval(poly, float(np.clip(lam, -1, 1))) * np.outer(v[:, i], v[:, i].conj())
        for i, lam in enumerate(w)
    )
    # the density block carries the state's spectrum; a bare encoding of the
    # same block is diagonalised by the transform itself
    for source in (density_be(rho), pt.BlockEncoding(rho.mat, 1.0, 2, 0.0)):
        out = pt.apply_poly(source, poly)
        assert np.linalg.norm(out.block - expected, 2) <= 1e-10


def test_rejects_mixed_parity():
    rho = pt.random_density(1, 2, seed=2)
    with pytest.raises(pt.ContractError):
        pt.apply_poly(density_be(rho), pt.ChebyshevPoly({0: 0.5, 1: 0.5}))


def test_rejects_sup_norm_violation():
    rho = pt.random_density(1, 2, seed=3)
    with pytest.raises(pt.ContractError):
        pt.apply_poly(density_be(rho), pt.ChebyshevPoly({1: 2.0}, parity="odd"))


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
    out = pt.apply_poly(density_be(rho), wide)
    w, v = np.linalg.eigh(rho.mat)
    assert np.allclose(out.block, (v * (1.8 * w - 1.2 * w ** 3)) @ v.conj().T, atol=1e-12)
    # a sup of 1 + 1e-7, reached at x = 1, is still rejected
    with pytest.raises(pt.ContractError, match="sup-norm"):
        qsvt._check_admissible(pt.ChebyshevPoly({1: 0.5, 3: 0.5 + 1e-7}, parity="odd"))


def test_qsvt_request_rejects_what_the_scan_rejects():
    """A transform request is admitted by ``apply_poly``'s own check."""
    rho = pt.random_density(1, 2, seed=4)
    wide = pt.ChebyshevPoly({1: 0.9, 3: -0.3}, parity="odd")
    pt.apply_poly(density_be(rho), wide)
    too_wide = pt.ChebyshevPoly({1: 1.2, 3: -0.1}, parity="odd")  # p(1) = 1.1
    with pytest.raises(pt.ContractError, match="sup-norm"):
        pt.apply_poly(density_be(rho), too_wide)


def test_transform_carries_its_spectrum():
    rho = pt.random_density(2, 3, seed=5)
    poly = pt.truncate(pt.power_expansion(5), 3).kept
    source = density_be(rho)
    out = pt.apply_poly(source, poly)
    p_w, v = out._spectrum
    assert np.array_equal(p_w, pt.clenshaw_eval(poly, np.clip(source._spectrum.eigenvalues, -1, 1)))
    assert np.linalg.norm((v * p_w) @ v.conj().T - out.block, 2) <= 1e-12


def test_power_encoding_evaluates_its_polynomial_once(monkeypatch):
    calls = _count_clenshaw(monkeypatch)
    be, ledger = pt.power_block_encoding(pt.purify(pt.random_density(2, 3, seed=6)), 9, 1e-3)
    assert len(calls) == 1
    assert ledger.model_error <= 1e-3


def test_rejects_non_hermitian_block():
    m = np.array([[0, 0.5], [0, 0]], dtype=complex)
    be = pt.BlockEncoding(m, 1.0, 1, 0.0)
    with pytest.raises(pt.ValidationError):
        pt.apply_poly(be, pt.ChebyshevPoly({1: 1.0}, parity="odd"))


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
        be, _ = pt.power_block_encoding(pt.purify(rho), k, eps=1e-3)
        assert np.linalg.norm(be.block - rho.mat, 2) <= 1e-3


def test_power_of_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    be, _ = pt.power_block_encoding(pt.purify(rho), 3, eps=1e-3)
    assert np.linalg.norm(be.block - np.eye(2) / 4, 2) <= 1e-3


def test_power_high_order_rank3():
    rho = pt.random_density(3, 3, seed=7)
    be, ledger = pt.power_block_encoding(pt.purify(rho), 9, eps=1e-4)
    oracle = np.linalg.matrix_power(rho.mat, 8)
    assert np.linalg.norm(be.block - oracle, 2) <= 1e-4
    assert ledger.model_error <= ledger.tail_bound + 1e-12


@pytest.mark.parametrize("k,eps", [(2, 0.5), (4, 1e-2), (9, 1e-3), (16, 1e-4)])
def test_power_contract_tighter_than_chernoff(k, eps):
    rho = pt.random_density(2, 3, seed=k)
    be, ledger = pt.power_block_encoding(pt.purify(rho), k, eps)
    oracle = np.linalg.matrix_power(rho.mat, k - 1)
    defect = np.linalg.norm(be.block - oracle, 2)
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
    be, ledger = pt.power_block_encoding(pt.purify(rho), 2, eps=0.9)
    assert np.linalg.norm(be.block - rho.mat, 2) <= 1e-12
    assert ledger.model_error <= 1e-12


def test_power_rejects_k_below_two():
    rho = pt.random_density(1, 2, seed=10)
    with pytest.raises(pt.ValidationError):
        pt.power_block_encoding(pt.purify(rho), 1, eps=0.1)


# ----------------------------------------------------------- power_times_obs

def test_identity_observable_reduces_to_power():
    rho = pt.random_density(1, 2, seed=11)
    obs = pt.Observable(np.eye(2, dtype=complex))
    be, _ = pt.power_times_obs(pt.purify(rho), obs, 3, eps_total=1e-3)
    power, _ = pt.power_block_encoding(pt.purify(rho), 3, eps=1e-3 / 2)
    assert be.alpha == pytest.approx(1.0)
    assert np.allclose(be.block, power.block, atol=1e-12)


def test_depolarized_projector_product():
    rho1 = pt.DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    obs = pt.Observable(PROJ0)
    be, _ = pt.power_times_obs(pt.purify(rho1), obs, 3, eps_total=1e-3)
    assert np.linalg.norm(be.block - 0.81 * PROJ0, 2) <= 1e-3


def test_trace_against_oracle_two_qubits():
    rho = pt.random_density(2, 2, seed=12)
    zz = pt.Observable(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex))
    eps = 1e-3
    be, _ = pt.power_times_obs(pt.purify(rho), zz, 5, eps_total=eps)
    got = np.trace(rho.mat @ be.block)
    want = pt.trace_power_obs_oracle(rho, zz, 5)
    assert abs(got - want) <= eps


def test_recorded_error_bounds_true_defect():
    rho = pt.random_density(2, 3, seed=13)
    obs = pt.Observable(3 * np.kron(PROJ0, np.eye(2)).astype(complex))
    k, eps = 6, 1e-2
    be, _ = pt.power_times_obs(pt.purify(rho), obs, k, eps_total=eps)
    target = np.linalg.matrix_power(rho.mat, k - 1) @ obs.mat
    assert pt.op_norm(target - be.block) <= be.err + 1e-8
    assert be.err == pytest.approx(be.alpha * min(1.0, eps / (2 * obs.op_norm)))


def test_product_encoding_is_validated_once(numpy_decompositions, partial_traces):
    pur = pt.purify(pt.random_density(2, 3, seed=16))
    obs = pt.Observable(np.kron(PROJ0, np.eye(2)).astype(complex))
    numpy_decompositions.clear()
    be, _ = pt.power_times_obs(pur, obs, 5, eps_total=1e-2)
    # the density block reads the spectrum rho's validation computed; every
    # norm check of it, p(rho), the observable and the product is certified
    # without an SVD
    assert [name for name, _ in numpy_decompositions] == []
    assert partial_traces == []
    assert be.err == pytest.approx(be.alpha * min(1.0, 1e-2 / (2 * obs.op_norm)))


def test_alt_degree_recorded():
    rho = pt.random_density(1, 2, seed=14)
    obs = pt.Observable(2 * PROJ0)
    _, ledger = pt.power_times_obs(pt.purify(rho), obs, 12, eps_total=1e-2)
    alt_eps = 1e-2 / (4 * 2.0 * 2.0)
    assert ledger.alt_poly_degree == pt.required_degree(11, alt_eps)
    assert ledger.alt_poly_degree >= ledger.poly_degree


def test_rejects_zero_observable():
    rho = pt.random_density(1, 2, seed=15)
    with pytest.raises(pt.ValidationError):
        pt.power_times_obs(pt.purify(rho), pt.Observable(np.zeros((2, 2))), 3, 1e-2)
