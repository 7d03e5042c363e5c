import numpy as np
import pytest
import scipy.linalg

import powertrace as pt
from powertrace.linalg import clip_spectrum

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PROJ0 = np.diag([1.0, 0.0]).astype(complex)


def bell_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


# ---------------------------------------------------------------- kron / eigh

def test_kron_identity():
    assert np.array_equal(pt.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_bit_flip_tensor():
    v00 = np.zeros(4)
    v00[0] = 1
    out = pt.kron(X, X) @ v00
    expected = np.zeros(4)
    expected[3] = 1  # |11>
    assert np.allclose(out, expected)


def test_kron_diagonal_product():
    got = pt.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_respects_qubit_cap():
    pt.set_qubit_cap(3)
    try:
        with pytest.raises(pt.ResourceError):
            pt.kron(np.eye(4), np.eye(4))
    finally:
        pt.set_qubit_cap(14)


def test_eigh_pauli_z():
    w, v = pt.eigh(Z)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)


def test_eigh_maximally_mixed():
    w, _ = pt.eigh(np.eye(2) / 2)
    assert np.allclose(w, [0.5, 0.5])


def test_eigh_diagonal_mixture():
    w, _ = pt.eigh(np.diag([0.7, 0.3]))
    assert np.allclose(w, [0.3, 0.7])


def test_eigh_rejects_non_hermitian():
    with pytest.raises(pt.ValidationError):
        pt.eigh(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("seed", range(5))
def test_eigh_reconstruction(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = g + g.conj().T
    w, v = pt.eigh(h)
    assert np.all(np.diff(w) >= 0)
    recon = (v * w) @ v.conj().T
    assert np.linalg.norm(h - recon, 2) <= 1e-9 * np.linalg.norm(h, 2)
    assert np.linalg.norm(v.conj().T @ v - np.eye(8), 2) <= 1e-10


# ------------------------------------------------------------- partial trace

def test_partial_trace_bell_state():
    red = pt.partial_trace(bell_vector(), (2, 2), keep="A")
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    v = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    red = pt.partial_trace(v, (2, 2), keep="A")
    assert np.allclose(red, PROJ0, atol=1e-12)


def _loop_partial_trace(mat, da, db, keep):
    # independent oracle: direct sums over index pairs
    out_dim = da if keep == "A" else db
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for a in range(da):
        for b in range(db):
            for ap in range(da):
                for bp in range(db):
                    if keep == "A" and b == bp:
                        out[a, ap] += mat[a * db + b, ap * db + bp]
                    if keep == "B" and a == ap:
                        out[b, bp] += mat[a * db + b, ap * db + bp]
    return out


@pytest.mark.parametrize("keep", ["A", "B"])
def test_partial_trace_matches_loop_oracle(keep):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    dm = np.outer(v, v.conj())
    got = pt.partial_trace(dm, (2, 2), keep=keep)
    assert np.allclose(got, _loop_partial_trace(dm, 2, 2, keep), atol=1e-12)
    assert abs(np.trace(got) - 1.0) <= 1e-12


def test_partial_trace_preserves_trace():
    rho = pt.random_density(2, 3, seed=5)
    red = pt.partial_trace(rho.mat, (2, 2), keep="B")
    assert abs(np.trace(red) - np.trace(rho.mat)) <= 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(pt.ValidationError):
        pt.partial_trace(np.eye(4), (2, 3), keep="A")


# ------------------------------------------------------------- trace powers

def test_trace_power_pure_projector_all_k():
    rho0 = pt.DensityMatrix(PROJ0)
    obs = pt.Observable(PROJ0)
    for k in (1, 2, 4, 9):
        assert pt.trace_power_obs_oracle(rho0, obs, k) == pytest.approx(1.0)


def test_trace_power_traceless_observable():
    rho = pt.DensityMatrix(np.eye(2) / 2)
    obs = pt.Observable(Z)
    for k in (1, 3, 7):
        assert abs(pt.trace_power_obs_oracle(rho, obs, k)) <= 1e-12


def test_trace_power_depolarized_projector():
    # (1-e)^k closed form, cross-checked with a dense matrix cube
    eps_prime = 0.1
    rho1 = pt.DensityMatrix(np.diag([1 - eps_prime, eps_prime]).astype(complex))
    obs = pt.Observable(PROJ0)
    got = pt.trace_power_obs_oracle(rho1, obs, 3)
    assert got == pytest.approx(0.729, abs=1e-12)
    dense = np.linalg.matrix_power(rho1.mat, 3)
    assert got == pytest.approx(np.trace(dense @ obs.mat).real, abs=1e-12)


def test_trace_power_rejects_k_zero():
    rho = pt.DensityMatrix(np.eye(2) / 2)
    with pytest.raises(pt.ValidationError):
        pt.trace_power_obs_oracle(rho, pt.Observable(Z), 0)


@pytest.mark.parametrize("seed", range(8))
def test_trace_power_identity_normalization(seed):
    qubits = 1 + seed % 3
    rank = 1 + seed % (2 ** qubits)
    rho = pt.random_density(qubits, rank, seed)
    obs = pt.Observable(np.eye(2 ** qubits, dtype=complex))
    assert pt.trace_power_obs_oracle(rho, obs, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed,k", [(0, 2), (1, 5), (2, 11), (3, 20)])
def test_trace_power_matches_repeated_multiplication(seed, k):
    rho = pt.random_density(4, 6, seed)  # dim 16
    obs = pt.make_observable(pt.InstanceSpec(qubits=4, rank=1, seed=seed))
    dense = np.linalg.matrix_power(rho.mat, k)
    expected = np.trace(dense @ obs.mat)
    got = pt.trace_power_obs_oracle(rho, obs, k)
    assert abs(got - expected) <= 1e-9
    assert abs(got.imag) <= 1e-10


def test_spectrum_is_computed_once_and_read_only():
    rho = pt.random_density(2, 3, seed=4)
    spec = rho.spectrum()
    assert spec is rho.spectrum()
    for arr in spec:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("seed,k", [(0, 0), (1, 1), (2, 7), (3, 40)])
def test_density_power_matches_repeated_multiplication(seed, k):
    rho = pt.random_density(3, 1 + seed, seed)
    dense = np.linalg.matrix_power(rho.mat, k)
    assert np.max(np.abs(rho.power(k) - dense)) <= 1e-12


# ------------------------------------------------- distances and fidelities

def test_fidelity_of_state_with_itself():
    rho = pt.random_density(2, 2, seed=0)
    assert pt.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_trace_distance_orthogonal_pure_states():
    a = pt.DensityMatrix(PROJ0)
    b = pt.DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert pt.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_product_law_for_copies():
    eps_prime = 0.2
    rho0 = pt.DensityMatrix(PROJ0)
    rho1 = pt.DensityMatrix(np.diag([1 - eps_prime, eps_prime]).astype(complex))
    assert pt.fidelity(rho0, rho1) == pytest.approx(0.8, abs=1e-10)
    for m in (1, 2, 3):
        a = pt.DensityMatrix(_tensor_power(rho0.mat, m))
        b = pt.DensityMatrix(_tensor_power(rho1.mat, m))
        assert pt.fidelity(a, b) == pytest.approx((1 - eps_prime) ** m, abs=1e-9)


def _tensor_power(m, k):
    out = np.array([[1.0 + 0.0j]])
    for _ in range(k):
        out = np.kron(out, m)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_fuchs_van_de_graaf(seed):
    a = pt.random_density(2, 2, seed)
    b = pt.random_density(2, 3, seed + 100)
    f = pt.fidelity(a, b)
    t = pt.trace_distance(a, b)
    assert 1 - np.sqrt(f) <= t + 1e-9
    assert t <= np.sqrt(max(1 - f, 0.0)) + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_fidelity_matches_sqrtm_oracle(seed):
    a = pt.random_density(2, 4, seed)
    b = pt.random_density(2, 4, seed + 50)
    ra = scipy.linalg.sqrtm(a.mat)
    expected = np.trace(scipy.linalg.sqrtm(ra @ b.mat @ ra)).real ** 2
    assert pt.fidelity(a, b) == pytest.approx(expected, abs=1e-9)


def test_op_norm_and_schatten1():
    m = X + Z
    assert pt.op_norm(m) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert pt.schatten1(m) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


# ----------------------------------------------------------- type validation

def test_density_matrix_rejects_bad_trace():
    with pytest.raises(pt.ValidationError):
        pt.DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    with pytest.raises(pt.ValidationError):
        pt.DensityMatrix(m)


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(pt.ValidationError):
        pt.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_rejects_non_power_of_two():
    with pytest.raises(pt.ValidationError):
        pt.DensityMatrix(np.eye(3, dtype=complex) / 3)


def test_observable_norm_cached():
    obs = pt.Observable(3 * PROJ0)
    assert obs.op_norm == pytest.approx(3.0, abs=1e-9)


def test_observable_non_hermitian_needs_flag():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(pt.ValidationError):
        pt.Observable(m)
    obs = pt.Observable(m, hermitian=False)
    assert obs.op_norm == pytest.approx(1.0, abs=1e-12)


def test_clip_spectrum_only_touches_tiny_negatives():
    w = np.array([-5e-11, -1e-12, 0.3, 0.7])
    out = clip_spectrum(w)
    assert np.all(out >= 0)
    assert np.allclose(out[2:], w[2:])


def test_matrix_json_round_trip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    back = pt.matrix_from_json(pt.matrix_to_json(m))
    assert np.array_equal(back, m)
