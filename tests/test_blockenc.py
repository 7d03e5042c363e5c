import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import powertrace as pt
from powertrace import blockenc, linalg, reference

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _unitary(be):
    """The one-ancilla Halmos dilation of block/alpha: a unitary realizing
    the block-only encoding."""
    return pt.halmos_dilate(be.block / be.alpha)


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


def _traced_back(rho):
    """The reduced state of purify(rho)'s vector alone, as a bare vector's
    purification computes it (purify's own result carries rho itself)."""
    vec = pt.purify(rho).vec
    return pt.PurifiedState(env_qubits=rho.qubits, sys_qubits=rho.qubits, vec=vec).reduced_state()


@pytest.mark.parametrize("seed", range(10))
def test_purify_round_trip_random(seed):
    rho = pt.random_density(2, 2, seed)
    back = _traced_back(rho)
    assert np.linalg.norm(back.mat - rho.mat, 2) <= 1e-11


@pytest.mark.parametrize("qubits,rank", [(1, 2), (2, 3), (3, 4)])
def test_purify_round_trip_dims(qubits, rank):
    for seed in range(5):
        rho = pt.random_density(qubits, rank, seed)
        back = _traced_back(rho)
        assert np.linalg.norm(back.mat - rho.mat, 2) <= 1e-11


def _purify_loop(rho):
    """The purification vector as built by one np.kron per eigenvalue, in
    the order of a Python sort on (-w, eigenvector entries as (re, im))."""
    w, v = rho.spectrum()

    def _tiebreak(i):
        return tuple((float(z.real), float(z.imag)) for z in v[:, i])

    order = sorted(range(rho.dim), key=lambda i: (-w[i], _tiebreak(i)))
    vec = np.zeros(rho.dim * rho.dim, dtype=np.complex128)
    for rank, i in enumerate(order):
        p = w[i]
        if p <= 0.0:
            continue
        env = np.zeros(rho.dim, dtype=np.complex128)
        env[rank] = 1.0
        vec += math.sqrt(p) * np.kron(env, v[:, i])
    vec /= np.linalg.norm(vec)
    return vec


def _rotated_spectrum(weights, seed):
    """U diag(weights) U^dag for a seeded random unitary U."""
    u = pt.random_unitary(len(weights), seed)
    m = (u * np.asarray(weights, dtype=float)) @ u.conj().T
    m = (m + m.conj().T) / 2
    return pt.DensityMatrix(m / np.trace(m).real)


@pytest.mark.parametrize(
    "rho",
    [
        pt.DensityMatrix(np.eye(2, dtype=complex) / 2),
        pt.DensityMatrix(np.eye(8, dtype=complex) / 8),
        pt.DensityMatrix(np.diag([0.4, 0.4, 0.1, 0.1]).astype(complex)),
        pt.DensityMatrix(np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex)),
        _rotated_spectrum([0.3, 0.3, 0.3, 0.1], seed=1),
        _rotated_spectrum([0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0], seed=2),
        pt.random_density(3, 1, seed=3),
        pt.random_density(3, 2, seed=4),
        pt.DensityMatrix(PROJ0),
    ],
    ids=["mixed-1", "mixed-3", "pairs", "rank-2-diag", "triple", "rank-4-rotated",
         "rank-1", "rank-2", "projector"],
)
def test_purify_is_byte_equal_to_the_loop(rho):
    assert pt.purify(rho).vec.tobytes() == _purify_loop(rho).tobytes()


def _with_exact_spectrum(weights, seed):
    """U diag(w) U^dag whose cached spectrum is exactly (w, U), w ascending:
    exact eigenvalue ties with complex eigenvectors, which a solver rarely
    returns, so the tie-break is exercised past the first entry. For odd
    seeds U = 1 + U', so all but the first column tie on their first entry."""
    w = np.sort(np.asarray(weights, dtype=float) / np.sum(weights))
    dim = len(w)
    u = pt.random_unitary(dim, seed)
    if seed % 2:
        u = scipy.linalg.block_diag(1.0, pt.random_unitary(dim - 1, seed)).astype(complex)
    m = (u * w) @ u.conj().T
    rho = pt.DensityMatrix((m + m.conj().T) / 2)
    object.__setattr__(rho, "_spectrum", linalg.EighResult(w, u))
    return rho


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 3),
    levels=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=8, max_size=8),
    kind=st.sampled_from(["diagonal", "rotated", "exact"]),
    seed=st.integers(0, 2 ** 16),
)
def test_purify_is_byte_equal_to_the_loop_on_degenerate_spectra(n, levels, kind, seed):
    weights = np.asarray(levels[: 2 ** n])
    if weights.sum() == 0.0:
        weights[0] = 1.0
    if kind == "rotated":
        rho = _rotated_spectrum(weights, seed)
    elif kind == "exact":
        rho = _with_exact_spectrum(weights, seed)
    else:
        rho = pt.DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
    assert pt.purify(rho).vec.tobytes() == _purify_loop(rho).tobytes()


def test_purified_state_rejects_unnormalized():
    with pytest.raises(pt.ValidationError):
        pt.PurifiedState(env_qubits=1, sys_qubits=1, vec=np.ones(4))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    kind=st.sampled_from(["diagonal", "rotated", "random"]),
    seed=st.integers(0, 2 ** 16),
)
def test_purification_traces_back_to_its_state(n, data, kind, seed):
    dim = 2 ** n
    rank = data.draw(st.integers(1, dim), label="rank")
    # few distinct levels, so nonzero eigenvalues tie as well as the zeros
    levels = data.draw(
        st.lists(st.sampled_from([0.1, 0.25, 0.5, 1.0]), min_size=rank, max_size=rank),
        label="levels",
    )
    weights = np.array(levels + [0.0] * (dim - rank))
    if kind == "rotated":
        rho = _rotated_spectrum(weights, seed)
    elif kind == "random":
        rho = pt.random_density(n, rank, seed)
    else:
        rho = pt.DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
    pur = pt.purify(rho)
    traced = pt.partial_trace(pur.vec, (dim, dim), keep="B")
    assert np.max(np.abs(traced - rho.mat)) <= 1e-12
    assert pur.reduced_state() is rho


def test_bare_vector_purification_validates_its_reduced_state_once(
    numpy_decompositions, partial_traces
):
    rho = pt.random_density(2, 3, seed=24)
    vec = pt.purify(rho).vec
    numpy_decompositions.clear()
    pur = pt.PurifiedState(env_qubits=2, sys_qubits=2, vec=vec)
    red = pur.reduced_state()
    assert pur.reduced_state() is red
    assert [name for name, _ in numpy_decompositions] == ["eigh"]
    assert partial_traces == [(4, 4)]
    assert np.linalg.norm(red.mat - rho.mat, 2) <= 1e-12


@pytest.mark.parametrize(
    "vec",
    [np.ones(4) / 2, np.ones(8) / np.sqrt(8), np.ones(16), np.array([1.0, np.nan, 0.0, 0.0] * 4)],
    ids=["short", "long", "unnormalized", "non-finite"],
)
def test_bare_vector_purification_rejects_a_bad_vector(vec, partial_traces):
    with pytest.raises(pt.ValidationError):
        pt.PurifiedState(env_qubits=2, sys_qubits=2, vec=vec)
    assert partial_traces == []


# ------------------------------------------------- density_block_unitary

def test_density_encoding_projector():
    pur = pt.purify(pt.DensityMatrix(PROJ0))
    unitary = reference.density_block_unitary(pur)
    assert np.linalg.norm(unitary[:2, :2] - PROJ0, 2) <= 1e-10
    be = pt.density_block(pur)
    assert (be.alpha, be.ancillas, be.err) == (1.0, 2, 0.0)


def test_density_encoding_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    unitary = reference.density_block_unitary(pt.purify(rho))
    assert np.linalg.norm(unitary[:2, :2] - rho.mat, 2) <= 1e-10


@pytest.mark.parametrize("seed", range(50))
def test_density_encoding_exact_on_random_states(seed):
    qubits = 1 + seed % 2
    rho = pt.random_density(qubits, 1 + seed % 2 ** qubits, seed)
    unitary = reference.density_block_unitary(pt.purify(rho))
    assert reference.verify_block_encoding(unitary, 1.0, rho.mat) <= 1e-10


def test_density_encoding_dilation_is_unitary():
    rho = pt.random_density(2, 3, seed=12)
    unitary = reference.density_block_unitary(pt.purify(rho))
    dim = unitary.shape[0]
    assert np.linalg.norm(unitary.conj().T @ unitary - np.eye(dim), 2) <= 1e-9


def test_density_encoding_respects_cap():
    pt.set_qubit_cap(4)
    try:
        rho = pt.random_density(2, 2, seed=0)
        with pytest.raises(pt.ResourceError):
            reference.density_block_unitary(pt.purify(rho))
    finally:
        pt.set_qubit_cap(14)


def test_density_block_is_the_encoding_without_its_dilation():
    """The pipeline's block-only density encoding is the top-left block of
    the SWAP-lemma unitary, on as many ancillas as the unitary has."""
    pur = pt.purify(pt.random_density(2, 3, seed=13))
    bare = pt.density_block(pur)
    unitary = reference.density_block_unitary(pur)
    assert unitary.shape[0] == 2 ** bare.ancillas * bare.dim
    assert np.linalg.norm(unitary[: bare.dim, : bare.dim] - bare.block, 2) <= 1e-10
    assert (bare.alpha, bare.err) == (1.0, 0.0)


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


# ------------------------------------------------------- alpha >= ||block||

@pytest.mark.parametrize("seed", range(5))
def test_alpha_below_the_block_norm_is_rejected(seed):
    block = 3.0 * random_contraction(4, seed)
    norm = pt.op_norm(block)
    with pytest.raises(pt.ValidationError, match="below the block norm"):
        pt.BlockEncoding(block, 0.5 * norm, 1, 0.0)
    pt.BlockEncoding(block, norm, 1, 0.0)


@pytest.mark.parametrize(
    "block, alpha, err",
    [(np.diag([0.5, 0.1]), math.nan, 0.0), (np.diag([0.5, 0.1]), 1.0, math.nan),
     (np.diag([0.5, 0.1]), math.inf, 0.0), (np.diag([0.5, 0.1]), -math.inf, 0.0),
     (np.diag([0.5, 0.1]), 1.0, math.inf), (np.diag([0.5, 0.1]), 1.0, -0.1),
     (np.diag([0.5, 0.1]), -1.0, 0.0), (np.zeros((2, 2)), 0.0, 0.0)],
    ids=["alpha-nan", "err-nan", "alpha-inf", "alpha-minus-inf", "err-inf", "err-negative",
         "alpha-negative", "alpha-zero"],
)
def test_scale_and_error_must_be_finite(block, alpha, err):
    with pytest.raises(pt.ValidationError, match="alpha must be|error must be"):
        pt.BlockEncoding(block, alpha, 1, err)


def test_loose_norm_bound_falls_back_to_the_exact_norm():
    block = 2.0 * PROJ0
    # a bound above alpha certifies nothing: the exact norm decides
    be = pt.BlockEncoding(block, 2.0, 1, 0.0, _norm_bound=4.0)
    assert be._norm_bound == pytest.approx(2.0)
    with pytest.raises(pt.ValidationError):
        pt.BlockEncoding(block, 1.0, 1, 0.0, _norm_bound=4.0)


@pytest.mark.parametrize("seed", range(10))
def test_pipeline_norm_bounds_hold(seed):
    pur = pt.purify(pt.random_density(2, 1 + seed % 4, seed))
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=seed))
    power, _ = pt.power_block_encoding(pur, 6, 1e-3)
    for be in (pt.density_block(pur), power, pt.observable_block_encoding(obs),
               pt.power_times_obs(pur, obs, 6, 1e-2)[0]):
        assert pt.op_norm(be.block) <= be._norm_bound + 1e-12
        assert pt.op_norm(be.block) <= be.alpha + blockenc.ALPHA_SLACK


# -------------------------------------------------------------- be_product

def test_product_scale_and_ancilla_bookkeeping():
    rho = pt.random_density(1, 2, seed=1)
    a = pt.density_block(pt.purify(rho))  # (1, 2, 0)
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


@pytest.mark.parametrize("seed", range(20))
def test_product_defect_within_bookkeeping(seed):
    m_a = random_contraction(2, seed)
    m_b = random_contraction(2, seed + 1000)
    a = pt.BlockEncoding(m_a, 1.0, 1, 0.0)
    b = pt.BlockEncoding(m_b, 1.0, 1, 0.0)
    prod = pt.be_product(a, b)
    assert pt.op_norm(prod.block - m_a @ m_b) <= prod.err + 1e-8


def test_product_error_composition():
    m = random_contraction(2, 7)
    a = pt.BlockEncoding(m, 2.0, 1, 0.125)
    b = pt.BlockEncoding(m, 4.0, 2, 0.0625)
    prod = pt.be_product(a, b)
    assert prod.alpha == pytest.approx(8.0)
    assert prod.ancillas == 3
    assert prod.err == pytest.approx(2.0 * 0.0625 + 4.0 * 0.125)
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
    """A unitary whose dimension is not a multiple of the target's cannot
    hold the target in its ancilla-zero block."""
    with pytest.raises(pt.ValidationError, match="does not dilate"):
        reference.verify_block_encoding(PROJ0, 1.0, np.eye(4))
    with pytest.raises(pt.ValidationError, match="does not dilate"):
        reference.verify_block_encoding(np.eye(6), 1.0, np.eye(4))


def test_verify_flags_corrupted_dilation():
    rho = pt.random_density(1, 2, seed=3)
    corrupted = reference.density_block_unitary(pt.purify(rho))
    corrupted[:, 0] *= -1.0  # phase flip on one basis column
    assert reference.verify_block_encoding(corrupted, 1.0, rho.mat) > 1e-3


def test_verify_halmos_is_exact():
    m = random_contraction(4, 42)
    assert reference.verify_block_encoding(pt.halmos_dilate(m), 1.0, m) <= 1e-10


# --------------------------------------------- observable_block_encoding

def test_observable_encoding_pauli():
    be = pt.observable_block_encoding(pt.Observable(Z))
    assert np.array_equal(be.block, Z)
    assert be.alpha == pytest.approx(1.0)
    assert be.ancillas == 1
    assert reference.verify_block_encoding(_unitary(be), be.alpha, Z) <= 1e-10


def test_observable_encoding_scaled_projector():
    be = pt.observable_block_encoding(pt.Observable(3 * PROJ0))
    assert np.array_equal(be.block, 3 * PROJ0)
    assert be.alpha == pytest.approx(3.0, abs=1e-9)
    unitary = _unitary(be)
    assert np.allclose(unitary[:2, :2], PROJ0, atol=1e-9)
    assert reference.verify_block_encoding(unitary, be.alpha, 3 * PROJ0) <= 1e-10


def test_observable_encoding_x_plus_z():
    be = pt.observable_block_encoding(pt.Observable(X + Z))
    assert be.alpha == pytest.approx(np.sqrt(2), abs=1e-9)


def test_observable_encoding_small_norm_keeps_alpha_one():
    be = pt.observable_block_encoding(pt.Observable(0.25 * Z))
    assert be.alpha == 1.0


def test_alpha_below_norm_rejected():
    with pytest.raises(pt.ValidationError):
        pt.BlockEncoding(2 * np.eye(2, dtype=complex), 1.0, 1, 0.0)
