import dataclasses

import numpy as np
import pytest

import powertrace as pt

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _with_unitary(be):
    """Attach the one-ancilla Halmos dilation of block/alpha."""
    return dataclasses.replace(be, dilation=pt.halmos_dilate(be.block / be.alpha))


def random_contraction(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / (np.linalg.norm(g, 2) * (1 + rng.random()))


# ---------------------------------------------------------------- purify

def test_purify_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    pur = pt.purify(rho)
    assert pur.env_qubits == pur.sys_qubits == 1
    red = pur.reduced_state()
    assert np.allclose(red.mat, rho.mat, atol=1e-12)
    # equal weight on two orthogonal environment states
    psi = pur.vec.reshape(2, 2)
    weights = np.linalg.norm(psi, axis=1) ** 2
    assert np.allclose(weights, [0.5, 0.5], atol=1e-12)


def test_purify_pure_state_is_product():
    rho = pt.DensityMatrix(PROJ0)
    pur = pt.purify(rho)
    target = np.kron([1, 0], [1, 0]).astype(complex)
    assert abs(np.vdot(target, pur.vec)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_purify_round_trip_random(seed):
    rho = pt.random_density(2, 2, seed)
    back = pt.purify(rho).reduced_state()
    assert np.linalg.norm(back.mat - rho.mat, 2) <= 1e-11


@pytest.mark.parametrize("qubits,rank", [(1, 2), (2, 3), (3, 4)])
def test_purify_round_trip_dims(qubits, rank):
    for seed in range(5):
        rho = pt.random_density(qubits, rank, seed)
        back = pt.purify(rho).reduced_state()
        assert np.linalg.norm(back.mat - rho.mat, 2) <= 1e-11


def test_purified_state_rejects_unnormalized():
    with pytest.raises(pt.ValidationError):
        pt.PurifiedState(env_qubits=1, sys_qubits=1, vec=np.ones(4))


# ------------------------------------------------- density_block_encoding

def test_density_encoding_projector():
    be = pt.density_block_encoding(pt.purify(pt.DensityMatrix(PROJ0)))
    assert np.linalg.norm(be.dilation[:2, :2] - PROJ0, 2) <= 1e-10
    assert (be.alpha, be.ancillas, be.err) == (1.0, 2, 0.0)


def test_density_encoding_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    be = pt.density_block_encoding(pt.purify(rho))
    assert np.linalg.norm(be.dilation[:2, :2] - rho.mat, 2) <= 1e-10


@pytest.mark.parametrize("seed", range(50))
def test_density_encoding_exact_on_random_states(seed):
    qubits = 1 + seed % 2
    rho = pt.random_density(qubits, 1 + seed % 2 ** qubits, seed)
    be = pt.density_block_encoding(pt.purify(rho))
    assert pt.verify_block_encoding(be, rho.mat) <= 1e-10


def test_density_encoding_dilation_is_unitary():
    rho = pt.random_density(2, 3, seed=12)
    be = pt.density_block_encoding(pt.purify(rho))
    dim = be.dilation.shape[0]
    assert (
        np.linalg.norm(be.dilation.conj().T @ be.dilation - np.eye(dim), 2) <= 1e-9
    )


def test_density_encoding_respects_cap():
    pt.set_qubit_cap(4)
    try:
        rho = pt.random_density(2, 2, seed=0)
        with pytest.raises(pt.ResourceError):
            pt.density_block_encoding(pt.purify(rho))
    finally:
        pt.set_qubit_cap(14)


def test_density_block_is_the_encoding_without_its_dilation():
    pur = pt.purify(pt.random_density(2, 3, seed=13))
    bare = pt.density_block(pur)
    full = pt.density_block_encoding(pur)
    assert bare.dilation is None
    assert np.array_equal(bare.block, full.block)
    assert (bare.alpha, bare.ancillas, bare.err) == (full.alpha, full.ancillas, full.err)


def test_reduced_state_is_computed_once():
    pur = pt.purify(pt.random_density(2, 3, seed=15))
    assert pur.reduced_state() is pur.reduced_state()


# ----------------------------------------------------------- halmos_dilate

def test_halmos_zero_matrix():
    u = pt.halmos_dilate(np.zeros((2, 2)))
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.allclose(u, expected, atol=1e-12)


def test_halmos_identity():
    u = pt.halmos_dilate(np.eye(2))
    expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    assert np.allclose(u, expected, atol=1e-9)


def test_halmos_rank_one_kick_closed_form():
    # M = delta |nu><nu| dilates to [[dP, I+(s-1)P], [I+(s-1)P, -dP]]
    delta = 0.3
    rng = np.random.default_rng(4)
    nu = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    nu /= np.linalg.norm(nu)
    p = np.outer(nu, nu.conj())
    u = pt.halmos_dilate(delta * p)
    s = np.sqrt(1 - delta ** 2)
    off = np.eye(4) + (s - 1) * p
    expected = np.block([[delta * p, off], [off, -delta * p]])
    assert np.linalg.norm(u - expected, 2) <= 1e-10


@pytest.mark.parametrize("seed", range(100))
def test_halmos_unitarity(seed):
    m = random_contraction(4, seed)
    u = pt.halmos_dilate(m)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8), 2) <= 1e-9
    assert np.linalg.norm(u[:4, :4] - m, 2) <= 1e-12


def test_halmos_rejects_expansion():
    with pytest.raises(pt.ValidationError):
        pt.halmos_dilate(2.0 * np.eye(2))


# -------------------------------------------------------------- be_product

def test_product_scale_and_ancilla_bookkeeping():
    rho = pt.random_density(1, 2, seed=1)
    a = pt.density_block_encoding(pt.purify(rho))  # (1, 2, 0)
    b = pt.observable_block_encoding(pt.Observable(3 * PROJ0))  # (3, 1, 0)
    prod = pt.be_product(a, b)
    assert prod.alpha == pytest.approx(3.0)
    assert prod.ancillas == 3
    assert prod.err == 0.0
    assert np.allclose(prod.block, rho.mat @ (3 * PROJ0), atol=1e-12)


def test_product_identity_times_identity():
    ident = pt.observable_block_encoding(pt.Observable(np.eye(2, dtype=complex)))
    prod = pt.be_product(ident, ident)
    assert np.allclose(prod.block, np.eye(2), atol=1e-12)
    assert pt.op_norm(prod.block - np.eye(2)) <= 1e-10
    assert prod.dilation is None


@pytest.mark.parametrize("seed", range(20))
def test_product_defect_within_bookkeeping(seed):
    m_a = random_contraction(2, seed)
    m_b = random_contraction(2, seed + 1000)
    a = pt.BlockEncoding(m_a, 1.0, 1, 0.0, dilation=pt.halmos_dilate(m_a))
    b = pt.BlockEncoding(m_b, 1.0, 1, 0.0, dilation=pt.halmos_dilate(m_b))
    prod = pt.be_product(a, b)
    assert pt.op_norm(prod.block - m_a @ m_b) <= prod.err + 1e-8
    assert prod.dilation is None  # dilations on the factors are not composed


def test_product_error_composition():
    m = random_contraction(2, 7)
    a = pt.BlockEncoding(m, 2.0, 1, 0.125)
    b = pt.BlockEncoding(m, 4.0, 2, 0.0625)
    prod = pt.be_product(a, b)
    assert prod.alpha == pytest.approx(8.0)
    assert prod.ancillas == 3
    assert prod.err == pytest.approx(2.0 * 0.0625 + 4.0 * 0.125)
    assert prod.dilation is None  # no dilations on the factors
    recorded = pt.be_product(a, b, err=0.5)
    assert recorded.err == 0.5
    assert (recorded.alpha, recorded.ancillas) == (prod.alpha, prod.ancillas)
    assert np.array_equal(recorded.block, prod.block)


def test_product_dim_mismatch():
    a = pt.observable_block_encoding(pt.Observable(np.eye(2, dtype=complex)))
    b = pt.observable_block_encoding(pt.Observable(np.eye(4, dtype=complex)))
    with pytest.raises(pt.ValidationError):
        pt.be_product(a, b)


# --------------------------------------------------- verify_block_encoding

def test_verify_needs_dilation():
    be = pt.BlockEncoding(PROJ0, 1.0, 1, 0.0)
    with pytest.raises(pt.ValidationError):
        pt.verify_block_encoding(be, PROJ0)


def test_verify_flags_corrupted_dilation():
    rho = pt.random_density(1, 2, seed=3)
    be = pt.density_block_encoding(pt.purify(rho))
    corrupted = be.dilation.copy()
    corrupted[:, 0] *= -1.0  # phase flip on one basis column
    bad = pt.BlockEncoding(be.block, be.alpha, be.ancillas, be.err, dilation=corrupted)
    assert pt.verify_block_encoding(bad, rho.mat) > 1e-3


def test_verify_halmos_is_exact():
    m = random_contraction(4, 42)
    be = pt.BlockEncoding(m, 1.0, 1, 0.0, dilation=pt.halmos_dilate(m))
    assert pt.verify_block_encoding(be, m) <= 1e-10


# --------------------------------------------- observable_block_encoding

def test_observable_encoding_pauli():
    be = pt.observable_block_encoding(pt.Observable(Z))
    assert np.array_equal(be.block, Z)
    assert be.alpha == pytest.approx(1.0)
    assert be.ancillas == 1
    assert be.dilation is None
    assert pt.verify_block_encoding(_with_unitary(be), Z) <= 1e-10


def test_observable_encoding_scaled_projector():
    be = pt.observable_block_encoding(pt.Observable(3 * PROJ0))
    assert np.array_equal(be.block, 3 * PROJ0)
    assert be.alpha == pytest.approx(3.0, abs=1e-9)
    assert be.dilation is None
    unitary = _with_unitary(be)
    assert np.allclose(unitary.dilation[:2, :2], PROJ0, atol=1e-9)
    assert pt.verify_block_encoding(unitary, 3 * PROJ0) <= 1e-10


def test_observable_encoding_x_plus_z():
    be = pt.observable_block_encoding(pt.Observable(X + Z))
    assert be.alpha == pytest.approx(np.sqrt(2), abs=1e-9)


def test_observable_encoding_small_norm_keeps_alpha_one():
    be = pt.observable_block_encoding(pt.Observable(0.25 * Z))
    assert be.alpha == 1.0


# ------------------------------------------------------------ serialization

def test_block_encoding_json_round_trip():
    rho = pt.random_density(1, 2, seed=9)
    be = pt.density_block_encoding(pt.purify(rho))
    loaded = pt.BlockEncoding.from_json(be.to_json())
    assert np.allclose(loaded.block, be.block, atol=1e-15)
    assert loaded.alpha == be.alpha
    assert loaded.err == be.err
    assert loaded.ancillas == be.ancillas
    # the reloaded dilation is a fresh one-ancilla construction
    assert loaded.physical_ancillas == 1
    assert pt.verify_block_encoding(loaded, rho.mat) <= loaded.err + 1e-9


def test_alpha_below_norm_rejected():
    with pytest.raises(pt.ValidationError):
        pt.BlockEncoding(2 * np.eye(2, dtype=complex), 1.0, 1, 0.0)
