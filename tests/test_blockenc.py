import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import powertrace as pt
from conftest import dense_power_times_obs
from powertrace import estimator, linalg, qsvt, reference

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _alpha_o(obs):
    """The scale alpha_O an estimate of Tr(rho^k O) reports for O."""
    rho = pt.DensityMatrix(np.eye(obs.dim, dtype=complex) / obs.dim)
    return pt.estimate_trace_power(pt.purify(rho), obs, 2, 0.5, mode="ideal").alpha_o


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
    assert unitary.shape == (2 ** 3, 2 ** 3)  # a + n = 2 ancillas on one system qubit


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
    """The state the pipeline transforms, the purification's reduced state,
    is the top-left block of the SWAP-lemma unitary on a + n ancillas."""
    pur = pt.purify(pt.random_density(2, 3, seed=13))
    rho = pur.reduced_state()
    unitary = reference.density_block_unitary(pur)
    assert unitary.shape[0] == 2 ** (pur.env_qubits + pur.sys_qubits) * rho.dim
    assert np.linalg.norm(unitary[: rho.dim, : rho.dim] - rho.mat, 2) <= 1e-10


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
    """A unitary holds block/alpha in its top-left block only if
    alpha >= ||block||: below it the Halmos dilation is refused."""
    block = 3.0 * random_contraction(4, seed)
    norm = pt.op_norm(block)
    with pytest.raises(pt.ValidationError, match="not a contraction"):
        pt.halmos_dilate(block / (0.5 * norm))
    unitary = pt.halmos_dilate(block / norm)
    assert reference.verify_block_encoding(unitary, norm, block) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_pipeline_norm_bounds_hold(seed):
    """|p(l_i)| <= 1 for the transform, alpha_O >= ||O||, and so
    |Tr(rho p(rho) O)| <= alpha_O: P(0) is a probability in both settings."""
    pur = pt.purify(pt.random_density(2, 1 + seed % 4, seed))
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=seed))
    (p_w, _), _ = pt.power_block_encoding(pur, 6, 1e-3)
    assert np.max(np.abs(p_w)) <= 1.0 + qsvt.SUP_NORM_SLACK
    overlap, alpha, _ = estimator._power_overlap(pur, obs, 6, 1e-2)
    assert pt.op_norm(obs.mat) <= alpha
    assert abs(overlap) <= alpha


# ---------------------------------------------------- p(rho) O and its budget

def test_product_scale_and_ancilla_bookkeeping():
    """The product with 3|0><0| is read at scale alpha_O = 3, and the
    overlap is its trace against rho."""
    rho = pt.random_density(1, 2, seed=1)
    obs = pt.Observable(3 * PROJ0)
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), obs, 4, 1e-2)
    assert alpha == pytest.approx(3.0)
    block = dense_power_times_obs(rho, obs, 4, 1e-2)
    assert overlap == pytest.approx(np.trace(rho.mat @ block), abs=1e-12)


def test_product_identity_times_identity():
    """At k = 2 the truncation is x itself, so with O = I the product is
    rho at scale 1 and the overlap is the purity Tr(rho^2)."""
    rho = pt.random_density(1, 2, seed=1)
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), pt.Observable(np.eye(2)), 2, 0.5)
    assert alpha == 1.0
    assert np.allclose(dense_power_times_obs(rho, pt.Observable(np.eye(2)), 2, 0.5), rho.mat, atol=1e-12)
    assert overlap == pytest.approx(np.trace(rho.mat @ rho.mat), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_product_defect_within_bookkeeping(seed):
    """p(rho) O is within alpha_O * eps_poly of rho^(k-1) O, the budget the
    estimate books for it, and the estimator's overlap is its trace
    against rho."""
    qubits = 1 + seed % 2
    rho = pt.random_density(qubits, 1 + seed % 2 ** qubits, seed)
    obs = pt.make_observable(pt.InstanceSpec(qubits=qubits, rank=1, seed=seed))
    k, eps = 2 + seed % 7, 1e-2
    block = dense_power_times_obs(rho, obs, k, eps)
    target = np.linalg.matrix_power(rho.mat, k - 1) @ obs.mat
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), obs, k, eps)
    assert pt.op_norm(block - target) <= alpha * min(1.0, eps / (2 * obs.op_norm)) + 1e-8
    assert abs(overlap - np.trace(rho.mat @ block)) <= 1e-12


def test_product_dim_mismatch():
    pur = pt.purify(pt.random_density(1, 2, seed=2))
    with pytest.raises(pt.ValidationError, match="does not match"):
        pt.estimate_trace_power(pur, pt.Observable(np.eye(4, dtype=complex)), 3, 0.05)


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


# ------------------------------------------ the observable's scale alpha_O

def test_observable_encoding_pauli():
    alpha = _alpha_o(pt.Observable(Z))
    assert alpha == pytest.approx(1.0)
    unitary = pt.halmos_dilate(Z / alpha)
    assert reference.verify_block_encoding(unitary, alpha, Z) <= 1e-10


def test_observable_encoding_scaled_projector():
    alpha = _alpha_o(pt.Observable(3 * PROJ0))
    assert alpha == pytest.approx(3.0, abs=1e-9)
    unitary = pt.halmos_dilate(3 * PROJ0 / alpha)
    assert np.allclose(unitary[:2, :2], PROJ0, atol=1e-9)
    assert reference.verify_block_encoding(unitary, alpha, 3 * PROJ0) <= 1e-10


def test_observable_encoding_x_plus_z():
    assert _alpha_o(pt.Observable(X + Z)) == pytest.approx(np.sqrt(2), abs=1e-9)


def test_observable_encoding_small_norm_keeps_alpha_one():
    assert _alpha_o(pt.Observable(0.25 * Z)) == 1.0


def test_alpha_below_norm_rejected():
    """alpha_O never falls below ||O||: 2I has no dilation at scale 1, and
    has one at the scale the estimate reports."""
    two = 2 * np.eye(2, dtype=complex)
    with pytest.raises(pt.ValidationError):
        pt.halmos_dilate(two / 1.0)
    assert _alpha_o(pt.Observable(two)) == pytest.approx(2.0)
    pt.halmos_dilate(two / 2.0)
