import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertrace as pt
import reference
from powertrace import blockenc, estimator, linalg, qsvt
from reference import dense_power_times_obs, random_density

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

def _vector(rho):
    return reference.purification_vector(rho)


def test_purify_maximally_mixed():
    rho = pt.DensityMatrix(np.eye(2, dtype=complex) / 2)
    vec = _vector(pt.purify(rho).state)
    assert vec.size == 4  # one environment qubit on one system qubit
    assert np.allclose(reference.partial_trace(vec, (2, 2), keep="B"), rho.mat, atol=1e-12)
    # equal weight on two orthogonal environment states
    psi = vec.reshape(2, 2)
    weights = np.linalg.norm(psi, axis=1) ** 2
    assert np.allclose(weights, [0.5, 0.5], atol=1e-12)


def test_purify_pure_state_is_product():
    rho = pt.DensityMatrix(PROJ0)
    vec = _vector(pt.purify(rho).state)
    # eigh order puts the unit eigenvalue last: environment |1>, system |0>
    target = np.kron([0, 1], [1, 0]).astype(complex)
    assert abs(np.vdot(target, vec)) == pytest.approx(1.0, abs=1e-12)


def _traced_back(rho):
    """The system's reduced state of rho's purification vector."""
    return reference.partial_trace(_vector(pt.purify(rho).state), (rho.dim, rho.dim), keep="B")


@pytest.mark.parametrize("seed", range(10))
def test_purify_round_trip_random(seed):
    rho = random_density(2, 2, seed)
    back = _traced_back(rho)
    assert np.linalg.norm(back - rho.mat, 2) <= 1e-11


@pytest.mark.parametrize("qubits,rank", [(1, 2), (2, 3), (3, 4)])
def test_purify_round_trip_dims(qubits, rank):
    for seed in range(5):
        rho = random_density(qubits, rank, seed)
        back = _traced_back(rho)
        assert np.linalg.norm(back - rho.mat, 2) <= 1e-11


def _rotated_spectrum(weights, seed):
    """U diag(weights) U^dag for a seeded random unitary U."""
    u = reference.haar_unitary(len(weights), seed)
    m = (u * np.asarray(weights, dtype=float)) @ u.conj().T
    m = (m + m.conj().T) / 2
    return pt.DensityMatrix(m / np.trace(m).real)


def test_purified_state_rejects_unnormalized():
    """Purified access is to a validated state: an unnormalized matrix is
    refused by ``DensityMatrix``, and a bare matrix by ``PurifiedState``."""
    with pytest.raises(pt.ValidationError):
        pt.PurifiedState(pt.DensityMatrix(np.eye(2, dtype=complex)))
    with pytest.raises(pt.ValidationError):
        pt.PurifiedState(np.eye(2, dtype=complex) / 2)


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
        rho = random_density(n, rank, seed)
    else:
        rho = pt.DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
    pur = pt.purify(rho)
    traced = reference.partial_trace(_vector(pur.state), (dim, dim), keep="B")
    assert np.max(np.abs(traced - rho.mat)) <= 1e-12
    assert pur.state is rho


@pytest.mark.parametrize(
    "vec",
    [np.ones(4) / 2, np.ones(8) / np.sqrt(8), np.ones(16), np.array([1.0, np.nan, 0.0, 0.0] * 4)],
    ids=["short", "long", "unnormalized", "non-finite"],
)
def test_bare_vector_purification_rejects_a_bad_vector(vec):
    """A purification is built from its state only: any bare vector is refused."""
    with pytest.raises(pt.ValidationError):
        pt.PurifiedState(vec)


def test_purify_allocates_no_vector():
    """purify(rho) at n = 8 carries rho and allocates far less than one
    256 x 256 complex array (1 MiB); the state is all a purification holds."""
    assert [f.name for f in dataclasses.fields(pt.PurifiedState)] == ["state"]
    assert not hasattr(blockenc, "partial_trace")
    rho = random_density(8, 2 ** 8, seed=8)
    pt.purify(random_density(1, 2, seed=0))
    tracemalloc.start()
    try:
        pur = pt.purify(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pur.state is rho
    assert peak < 0.1 * 2 ** 20


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
    rho = random_density(qubits, 1 + seed % 2 ** qubits, seed)
    unitary = reference.density_block_unitary(pt.purify(rho))
    assert reference.verify_block_encoding(unitary, 1.0, rho.mat) <= 1e-10


def test_density_encoding_dilation_is_unitary():
    rho = random_density(2, 3, seed=12)
    unitary = reference.density_block_unitary(pt.purify(rho))
    dim = unitary.shape[0]
    assert np.linalg.norm(unitary.conj().T @ unitary - np.eye(dim), 2) <= 1e-9


def test_density_encoding_respects_cap(monkeypatch):
    monkeypatch.setattr(linalg, "QUBIT_CAP", 4)
    rho = random_density(2, 2, seed=0)
    with pytest.raises(pt.ResourceError):
        reference.density_block_unitary(pt.purify(rho))


def test_density_block_is_the_encoding_without_its_dilation():
    """The state the pipeline transforms, the one the purification carries,
    is the top-left block of the SWAP-lemma unitary on a + n ancillas."""
    pur = pt.purify(random_density(2, 3, seed=13))
    rho = pur.state
    unitary = reference.density_block_unitary(pur)
    assert unitary.shape[0] == rho.dim ** 3
    assert np.linalg.norm(unitary[: rho.dim, : rho.dim] - rho.mat, 2) <= 1e-10


def test_reduced_state_is_computed_once():
    """The purification's reduced state is the state it was given: never
    computed again."""
    rho = random_density(2, 3, seed=15)
    assert pt.purify(rho).state is rho
    assert pt.purify(rho) == pt.PurifiedState(rho)


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


@pytest.mark.parametrize(
    "m, match",
    [(np.zeros((2, 2, 2)), "2-dimensional"), (np.zeros((2, 3)), "must be square"),
     (np.zeros((3, 3)), "not a power of two"), (np.diag([0.5, np.nan]), "non-finite")],
    ids=["stack", "rectangular", "dimension-3", "non-finite"],
)
def test_halmos_rejects_what_is_not_one_square_operator(m, match):
    with pytest.raises(pt.ValidationError, match=match):
        pt.halmos_dilate(m)


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
    pur = pt.purify(random_density(2, 1 + seed % 4, seed))
    obs = pt.make_observable(pt.InstanceSpec(qubits=2, rank=1, seed=seed))
    p_w, _ = qsvt.transform_spectra(pur.state.spectrum().eigenvalues[None], [6], [1e-3])
    assert np.max(np.abs(p_w)) <= 1.0 + qsvt.SUP_NORM_SLACK
    overlap, alpha, _ = estimator._power_overlap(pur, obs, [6], 1e-2)
    assert pt.op_norm(obs.mat) <= alpha
    assert abs(overlap) <= alpha


# ---------------------------------------------------- p(rho) O and its budget

def test_product_scale_and_ancilla_bookkeeping():
    """The product with 3|0><0| is read at scale alpha_O = 3, and the
    overlap is its trace against rho."""
    rho = random_density(1, 2, seed=1)
    obs = pt.Observable(3 * PROJ0)
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), obs, [4], 1e-2)
    assert alpha == pytest.approx(3.0)
    block = dense_power_times_obs(rho, obs, 4, 1e-2)
    assert overlap == pytest.approx(np.trace(rho.mat @ block), abs=1e-12)


def test_product_identity_times_identity():
    """At k = 2 the truncation is x itself, so with O = I the product is
    rho at scale 1 and the overlap is the purity Tr(rho^2)."""
    rho = random_density(1, 2, seed=1)
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), pt.Observable(np.eye(2)), [2], 0.5)
    assert alpha == 1.0
    assert np.allclose(dense_power_times_obs(rho, pt.Observable(np.eye(2)), 2, 0.5), rho.mat, atol=1e-12)
    assert overlap == pytest.approx(np.trace(rho.mat @ rho.mat), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_product_defect_within_bookkeeping(seed):
    """p(rho) O is within alpha_O * eps_poly of rho^(k-1) O, the budget the
    estimate books for it, and the estimator's overlap is its trace
    against rho."""
    qubits = 1 + seed % 2
    rho = random_density(qubits, 1 + seed % 2 ** qubits, seed)
    obs = pt.make_observable(pt.InstanceSpec(qubits=qubits, rank=1, seed=seed))
    k, eps = 2 + seed % 7, 1e-2
    block = dense_power_times_obs(rho, obs, k, eps)
    target = np.linalg.matrix_power(rho.mat, k - 1) @ obs.mat
    overlap, alpha, _ = estimator._power_overlap(pt.purify(rho), obs, [k], eps)
    assert pt.op_norm(block - target) <= alpha * min(1.0, eps / (2 * obs.op_norm)) + 1e-8
    assert abs(overlap - np.trace(rho.mat @ block)) <= 1e-12


def test_product_dim_mismatch():
    pur = pt.purify(random_density(1, 2, seed=2))
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
    rho = random_density(1, 2, seed=3)
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
