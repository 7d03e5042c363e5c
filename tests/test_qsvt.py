import math

import numpy as np
import pytest

import powertrace as pt
from powertrace import estimator, qsvt
from reference import chebyshev_matrix, dense_power_times_obs, random_density

PROJ0 = np.diag([1.0, 0.0]).astype(complex)


def _dense(spectrum):
    """V diag(p) V^dag from a transform's (p(l_i), V)."""
    p_w, v = spectrum
    return (v * p_w) @ v.conj().T


def _power(rho, k, eps):
    """The transform of rho's one spectrum (l, V) by the stand-in p of
    x^(k-1): (p(l_i), V) and p's degree."""
    w, v = rho.spectrum()
    p_w, (degree,) = qsvt.transform_spectra(w[None], [k], [eps])
    return (p_w[0], v), degree


def _model_error(rho, power, k):
    """max_i |p(l_i) - l_i^(k-1)|: the operator-norm distance between p(rho)
    and rho^(k-1), both diagonal in rho's eigenbasis."""
    return float(np.abs(power[0] - rho.spectrum()[0] ** (k - 1)).max())


def _transform(monkeypatch, rho, c):
    """p(rho) for p = sum_n c[n] T_n, through ``transform_spectra`` handed
    c in place of the expansion of x. At k = 2 and eps = 1 it keeps
    degree 3, so up to four coefficients all reach the transform."""
    assert len(c) <= 4
    monkeypatch.setattr(qsvt, "power_expansion", lambda exponent: np.asarray(c, dtype=float))
    power, _ = _power(rho, 2, 1.0)
    return _dense(power)


# -------------------------------------------------- the eigenvalue transform

def test_identity_map_polynomial(monkeypatch):
    rho = random_density(1, 2, seed=0)
    out = _transform(monkeypatch, rho, [0.0, 1.0])
    assert np.linalg.norm(out - rho.mat, 2) <= 1e-12


def test_constant_one_polynomial(monkeypatch):
    rho = random_density(1, 2, seed=1)
    out = _transform(monkeypatch, rho, [1.0, 0.0])
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_square_through_eigenvalues(monkeypatch):
    rho = pt.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    out = _transform(monkeypatch, rho, pt.power_expansion(2))
    assert np.allclose(out, np.diag([0.49, 0.09]), atol=1e-12)


def test_transform_matches_independent_eigen_sum(monkeypatch):
    rho = random_density(2, 3, seed=5)
    c = pt.power_expansion(5)[:4]
    w, v = np.linalg.eigh(rho.mat)
    expected = sum(
        pt.clenshaw_eval(c, float(np.clip(lam, -1, 1))) * np.outer(v[:, i], v[:, i].conj())
        for i, lam in enumerate(w)
    )
    # the transform reads the spectrum rho's validation cached; the
    # recurrence on rho.mat decomposes nothing
    out = _transform(monkeypatch, rho, c)
    assert np.linalg.norm(out - expected, 2) <= 1e-10
    assert np.linalg.norm(out - chebyshev_matrix(c, rho.mat), 2) <= 1e-10


def test_rejects_sup_norm_violation(monkeypatch):
    """Kept coefficients summing to more than 1 fail the certificate."""
    rho = random_density(1, 2, seed=3)
    with pytest.raises(pt.ContractError, match="coefficient sum"):
        _transform(monkeypatch, rho, [0.0, 2.0])


def _count_clenshaw(monkeypatch):
    calls = []
    real = qsvt.clenshaw_eval
    monkeypatch.setattr(qsvt, "clenshaw_eval", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def test_transform_carries_its_spectrum():
    """p(rho) is p(l_i) on rho's own cached spectrum (l, V), and in that
    eigenbasis it is the matrix function p(rho)."""
    rho = random_density(2, 3, seed=5)
    k, eps = 6, 1e-3
    c = pt.power_expansion(k - 1)[:pt.required_degree(k - 1, eps) + 1]
    w, v = rho.spectrum()
    p_w = qsvt.transform_spectra(w[None], [k], [eps])[0][0]
    assert np.array_equal(p_w, pt.clenshaw_eval(c, np.clip(w, -1, 1)))
    assert np.linalg.norm(_dense((p_w, v)) - chebyshev_matrix(c, rho.mat), 2) <= 1e-12


def test_power_encoding_evaluates_its_polynomial_once(monkeypatch):
    calls = _count_clenshaw(monkeypatch)
    rho = random_density(2, 3, seed=6)
    power, _ = _power(rho, 9, 1e-3)
    assert len(calls) == 1
    assert _model_error(rho, power, 9) <= 1e-3


def test_rejects_non_hermitian_block():
    """The transform's one source is the state a purification carries, so a
    non-Hermitian block is stopped by the state's validation."""
    m = np.array([[0.5, 0.5], [0, 0.5]], dtype=complex)
    with pytest.raises(pt.ValidationError, match="Hermitian"):
        pt.DensityMatrix(m)

# ------------------------------------------------------ one state's transform

def test_power_of_pure_state():
    rho = random_density(2, 1, seed=6)
    for k in (2, 5):
        power, _ = _power(rho, k, eps=1e-3)
        assert np.linalg.norm(_dense(power) - rho.mat, 2) <= 1e-3


def test_power_of_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    power, _ = _power(rho, 3, eps=1e-3)
    assert np.linalg.norm(_dense(power) - np.eye(2) / 4, 2) <= 1e-3


def test_power_high_order_rank3():
    rho = random_density(3, 3, seed=7)
    power, degree = _power(rho, 9, eps=1e-4)
    oracle = np.linalg.matrix_power(rho.mat, 8)
    assert np.linalg.norm(_dense(power) - oracle, 2) <= 1e-4
    chernoff = pt.truncation_tails(pt.power_expansion(8), degree)[1]
    assert _model_error(rho, power, 9) <= chernoff + 1e-12


@pytest.mark.parametrize("k,eps", [(2, 0.5), (4, 1e-2), (9, 1e-3), (16, 1e-4)])
def test_power_contract_tighter_than_chernoff(k, eps):
    rho = random_density(2, 3, seed=k)
    power, degree = _power(rho, k, eps)
    oracle = np.linalg.matrix_power(rho.mat, k - 1)
    defect = np.linalg.norm(_dense(power) - oracle, 2)
    chernoff = 2 * math.exp(-degree ** 2 / (2 * (k - 1)))
    assert defect <= chernoff + 1e-12
    assert defect <= eps + 1e-12


def test_power_query_accounting():
    """p has the Chernoff-formula degree, and a report charges two
    purification-unitary queries per degree, on each readout-grid point
    of each circuit setting (two for a non-Hermitian observable)."""
    rho = random_density(2, 2, seed=8)
    pur = pt.purify(rho)
    observables = [(pt.Observable(np.eye(4, dtype=complex)), 1),
                   (pt.Observable(1j * np.eye(4, dtype=complex), hermitian=False), 2)]
    for k, eps in ((3, 0.05), (10, 1e-3), (33, 1e-2)):
        _, degree = _power(rho, k, eps)
        assert degree == pt.required_degree(k - 1, eps)
        for obs, settings in observables:  # ||O|| = 1, so the estimate's p keeps accuracy eps
            report = pt.estimate_trace_power(pur, obs, k, 2 * eps, mode="ideal")
            assert report.poly_degree == degree
            assert report.u_rho_queries_total == 2 * degree * report.ae_queries_K * settings


def test_power_k1_shortcut_is_exact():
    rho = random_density(1, 2, seed=9)
    power, _ = _power(rho, 2, eps=0.9)
    assert np.linalg.norm(_dense(power) - rho.mat, 2) <= 1e-12
    assert _model_error(rho, power, 2) <= 1e-12


def test_power_rejects_k_below_two():
    rho = random_density(1, 2, seed=10)
    with pytest.raises(pt.ValidationError):
        _power(rho, 1, eps=0.1)


# ------------------------------------------------------ the estimator's overlap

def test_identity_observable_reduces_to_power():
    rho = random_density(1, 2, seed=11)
    obs = pt.Observable(np.eye(2, dtype=complex))
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), obs, [3], 1e-3)
    power, _ = _power(rho, 3, eps=1e-3 / 2)
    assert alpha == pytest.approx(1.0)
    assert overlap == pytest.approx(np.trace(rho.mat @ _dense(power)), abs=1e-12)


def test_depolarized_projector_product():
    rho1 = pt.DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    obs = pt.Observable(PROJ0)
    overlap, _, _ = estimator._power_overlap(pt.purify(rho1), obs, [3], 1e-3)
    # p(rho) O ~ 0.81 |0><0|, so Tr(rho p(rho) O) ~ 0.9 * 0.81
    assert np.linalg.norm(dense_power_times_obs(rho1, obs, 3, 1e-3) - 0.81 * PROJ0, 2) <= 1e-3
    assert abs(overlap - 0.9 * 0.81) <= 1e-3


def test_trace_against_oracle_two_qubits():
    rho = random_density(2, 2, seed=12)
    zz = pt.Observable(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex))
    eps = 1e-3
    got, _, _ = estimator._power_overlap(pt.purify(rho), zz, [5], eps)
    want = pt.trace_power_obs_oracle(rho, zz, 5)
    assert abs(got - want) <= eps


def test_recorded_error_bounds_true_defect():
    """p(rho) O lies within alpha_O * eps_poly of rho^(k-1) O, and the
    overlap within ||O|| times p's model error of Tr(rho^k O)."""
    rho = random_density(2, 3, seed=13)
    obs = pt.Observable(3 * np.kron(PROJ0, np.eye(2)).astype(complex))
    k, eps = 6, 1e-2
    eps_poly = min(1.0, eps / (2 * obs.op_norm))
    overlap, alpha, (degree,) = estimator._power_overlap(pt.purify(rho), obs, [k], eps)
    target = np.linalg.matrix_power(rho.mat, k - 1) @ obs.mat
    assert pt.op_norm(target - dense_power_times_obs(rho, obs, k, eps)) <= alpha * eps_poly + 1e-8
    power, degree_alone = _power(rho, k, eps_poly)
    model_error = _model_error(rho, power, k)
    assert degree == degree_alone and model_error <= eps_poly
    oracle = pt.trace_power_obs_oracle(rho, obs, k)
    assert abs(overlap - oracle) <= obs.op_norm * model_error + 1e-12


def test_product_encoding_is_validated_once(numpy_decompositions):
    pur = pt.purify(random_density(2, 3, seed=16))
    obs = pt.Observable(np.kron(PROJ0, np.eye(2)).astype(complex))
    numpy_decompositions.clear()
    _, alpha, _ = estimator._power_overlap(pur, obs, [5], 1e-2)
    # the transform reads the spectrum rho's validation computed, and
    # alpha_O the norm the observable cached: no SVD, no eigh
    assert [name for name, _ in numpy_decompositions] == []
    assert alpha == max(1.0, obs.op_norm)


def test_rejects_zero_observable():
    rho = random_density(1, 2, seed=15)
    with pytest.raises(pt.ValidationError, match="nonzero"):
        pt.estimate_trace_power(pt.purify(rho), pt.Observable(np.zeros((2, 2))), 3, 1e-2)
