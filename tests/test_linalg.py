import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import powertrace as pt
from powertrace import instances, linalg
from powertrace.chebyshev import MAX_POWER
from reference import fidelity, partial_trace, random_density

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PROJ0 = np.diag([1.0, 0.0]).astype(complex)


def bell_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


# ---------------------------------------------------------------------- eigh

# The one eigh route: an observable's cached spectrum and a state's
# validating decomposition.

def test_eigh_pauli_z():
    w, v = pt.Observable(Z).spectrum()
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)


def test_eigh_maximally_mixed():
    w, _ = pt.DensityMatrix(np.eye(2) / 2).spectrum()
    assert np.allclose(w, [0.5, 0.5])


def test_eigh_diagonal_mixture():
    w, _ = pt.DensityMatrix(np.diag([0.7, 0.3])).spectrum()
    assert np.allclose(w, [0.3, 0.7])


def test_eigh_rejects_non_hermitian():
    with pytest.raises(pt.ValidationError, match="not Hermitian"):
        pt.Observable(np.array([[0, 1], [0, 0]], dtype=complex)).spectrum()


@pytest.mark.parametrize("seed", range(5))
def test_eigh_reconstruction(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = g + g.conj().T
    obs = pt.Observable(h)
    w, v = obs.spectrum()
    # the matrix is exactly Hermitian, so its Hermitian part is itself: numpy's own bits
    assert all(np.array_equal(a, b) for a, b in zip((w, v), np.linalg.eigh(obs.mat)))
    assert np.all(np.diff(w) >= 0)
    recon = (v * w) @ v.conj().T
    assert np.linalg.norm(h - recon, 2) <= 1e-9 * np.linalg.norm(h, 2)
    assert np.linalg.norm(v.conj().T @ v - np.eye(8), 2) <= 1e-10


# ------------------------------------------------------------- partial trace

def test_partial_trace_bell_state():
    red = partial_trace(bell_vector(), (2, 2), keep="A")
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    v = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    red = partial_trace(v, (2, 2), keep="A")
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
    got = partial_trace(dm, (2, 2), keep=keep)
    assert np.allclose(got, _loop_partial_trace(dm, 2, 2, keep), atol=1e-12)
    assert abs(np.trace(got) - 1.0) <= 1e-12


def test_partial_trace_preserves_trace():
    rho = random_density(2, 3, seed=5)
    red = partial_trace(rho.mat, (2, 2), keep="B")
    assert abs(np.trace(red) - np.trace(rho.mat)) <= 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(pt.ValidationError):
        partial_trace(np.eye(4), (2, 3), keep="A")


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
    rho = random_density(qubits, rank, seed)
    obs = pt.Observable(np.eye(2 ** qubits, dtype=complex))
    assert pt.trace_power_obs_oracle(rho, obs, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed,k", [(0, 2), (1, 5), (2, 11), (3, 20)])
def test_trace_power_matches_repeated_multiplication(seed, k):
    rho = random_density(4, 6, seed)  # dim 16
    obs = pt.make_observable(pt.InstanceSpec(qubits=4, rank=1, seed=seed))
    dense = np.linalg.matrix_power(rho.mat, k)
    expected = np.trace(dense @ obs.mat)
    got = pt.trace_power_obs_oracle(rho, obs, k)
    assert abs(got - expected) <= 1e-9
    assert abs(got.imag) <= 1e-10


def _eigen_route_oracle(w, v, o, k):
    """Tr(rho^k O) as sum_i w_i^k (V^dag O V)_ii over the cached spectrum."""
    diag_o = np.einsum("ij,jk,ki->i", v.conj().T, o.mat, v)
    return complex(np.sum(w ** int(k) * diag_o))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 3),
    rank_frac=st.floats(0.0, 1.0),
    k=st.integers(1, MAX_POWER),
    hermitian=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_oracle_by_squaring_matches_eigen_route_and_matrix_power(n, rank_frac, k, hermitian, seed):
    rank = 1 + round(rank_frac * (2 ** n - 1))
    rho = random_density(n, rank, seed)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    obs = pt.Observable((g + g.conj().T) / 2 if hermitian else g, hermitian=hermitian)
    w, v = rho.spectrum()
    eigen = _eigen_route_oracle(w, v, obs, k)
    dense = complex(np.trace(np.linalg.matrix_power(rho.mat, k) @ obs.mat))

    def no_spectrum(self):
        raise AssertionError("the oracle read the cached spectrum")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pt.DensityMatrix, "spectrum", no_spectrum)
        got = pt.trace_power_obs_oracle(rho, obs, k)
    scale = obs.op_norm
    assert abs(got - eigen) <= 1e-12 * scale
    assert abs(got - dense) <= 1e-12 * scale


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64])
def test_oracle_matches_k_fold_product(k):
    rho = random_density(3, 5, seed=k)
    obs = pt.make_observable(pt.InstanceSpec(qubits=3, rank=1, seed=k))
    product = np.eye(8, dtype=complex)
    for _ in range(k):
        product = product @ rho.mat
    expected = complex(np.trace(product @ obs.mat))
    assert abs(pt.trace_power_obs_oracle(rho, obs, k) - expected) <= 1e-14


def test_spectrum_is_computed_once_and_read_only():
    rho = random_density(2, 3, seed=4)
    spec = rho.spectrum()
    assert spec is rho.spectrum()
    for arr in spec:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("seed,k", [(0, 0), (1, 1), (2, 7), (3, 40)])
def test_density_power_matches_repeated_multiplication(seed, k):
    """The cached spectrum gives rho^k = V diag(w^k) V^dag, as the swap
    test's outcome law reads it."""
    rho = random_density(3, 1 + seed, seed)
    w, v = rho.spectrum()
    dense = np.linalg.matrix_power(rho.mat, k)
    assert np.max(np.abs((v * w ** k) @ v.conj().T - dense)) <= 1e-12


# ------------------------------------------------- distances and fidelities

def test_fidelity_of_state_with_itself():
    rho = random_density(2, 2, seed=0)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_product_law_for_copies():
    eps_prime = 0.2
    rho0 = pt.DensityMatrix(PROJ0)
    rho1 = pt.DensityMatrix(np.diag([1 - eps_prime, eps_prime]).astype(complex))
    assert fidelity(rho0, rho1) == pytest.approx(0.8, abs=1e-10)
    for m in (1, 2, 3):
        a = pt.DensityMatrix(_tensor_power(rho0.mat, m))
        b = pt.DensityMatrix(_tensor_power(rho1.mat, m))
        assert fidelity(a, b) == pytest.approx((1 - eps_prime) ** m, abs=1e-9)


def _tensor_power(m, k):
    out = np.array([[1.0 + 0.0j]])
    for _ in range(k):
        out = np.kron(out, m)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_fuchs_van_de_graaf(seed):
    a = random_density(2, 2, seed)
    b = random_density(2, 3, seed + 100)
    f = fidelity(a, b)
    t = 0.5 * np.linalg.norm(a.mat - b.mat, "nuc")  # trace distance
    assert 1 - np.sqrt(f) <= t + 1e-9
    assert t <= np.sqrt(max(1 - f, 0.0)) + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_fidelity_matches_sqrtm_oracle(seed):
    a = random_density(2, 4, seed)
    b = random_density(2, 4, seed + 50)
    ra = scipy.linalg.sqrtm(a.mat)
    expected = np.trace(scipy.linalg.sqrtm(ra @ b.mat @ ra)).real ** 2
    assert fidelity(a, b) == pytest.approx(expected, abs=1e-9)


def test_op_norm():
    m = X + Z
    assert pt.op_norm(m) == pytest.approx(np.sqrt(2), abs=1e-12)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rows=st.integers(1, 64), cols=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_op_norm_is_numpy_two_norm_bit_for_bit(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    assert pt.op_norm(m) == np.linalg.norm(m, 2)


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


def _skewed(base, t):
    """base plus t in its top-right entry: Hermitian defect t in operator
    norm and t sqrt(2) in Frobenius norm."""
    m = np.array(base, dtype=complex)
    m[0, 1] += t
    return m


@pytest.mark.parametrize(
    "build",
    [
        lambda m: pt.DensityMatrix(m),
        lambda m: pt.Observable(m),
    ],
    ids=["density", "observable"],
)
@pytest.mark.parametrize("base", [np.eye(2) / 2, np.diag([0.7, 0.3])], ids=["mixed", "diag"])
def test_hermitian_check_threshold_is_the_operator_norm(build, base):
    # below 1e-10 in Frobenius norm: certified without an SVD
    build(_skewed(base, 0.5e-10))
    # below 1e-10 in operator norm but above it in Frobenius norm: accepted
    build(_skewed(base, 0.999e-10))
    # just above 1e-10 in operator norm: rejected, and the message reports it
    with pytest.raises(pt.ValidationError, match="1.001e-10"):
        build(_skewed(base, 1.001e-10))


def test_density_matrix_validation_checks_hermiticity_once(monkeypatch, numpy_decompositions):
    calls = []
    for name in ("_eigh", "_check_hermitian", "_square_operator"):
        real = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name, lambda *a, _n=name, _r=real, **kw: calls.append(_n) or _r(*a, **kw)
        )
    pt.DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    # one coercion and finiteness scan, one Hermiticity check, one eigh
    assert calls == ["_square_operator", "_check_hermitian", "_eigh"]
    assert [name for name, _ in numpy_decompositions] == ["eigh"]


def test_observable_spectrum_is_computed_once_and_read_only(numpy_decompositions):
    obs = pt.Observable(np.kron(Z, X))
    assert [name for name, _ in numpy_decompositions].count("eigh") == 0
    w, v = obs.spectrum()
    assert obs.spectrum() is obs.spectrum()
    assert [name for name, _ in numpy_decompositions].count("eigh") == 1
    assert np.allclose((v * w) @ v.conj().T, obs.mat, atol=1e-12)
    assert not w.flags.writeable and not v.flags.writeable
    with pytest.raises(pt.ValidationError, match="not Hermitian"):
        pt.Observable(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=False).spectrum()


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
    """A state's cached spectrum reads an eigenvalue within the floor below
    0 as 0 and leaves the others; one below the floor is rejected."""
    w = pt.DensityMatrix(np.diag([-1e-11, 1e-12, 0.3, 0.7]).astype(complex)).spectrum().eigenvalues
    assert np.array_equal(w, [0.0, 1e-12, 0.3, 0.7])
    with pytest.raises(pt.ValidationError, match="negative eigenvalue -1.000e-09"):
        pt.DensityMatrix(np.diag([-1e-9, 1e-9, 0.3, 0.7]).astype(complex))


# ------------------------------------------------------------------ stacks

def _stack_of_states(count=4):
    return np.stack([random_density(2, 2, seed).mat for seed in range(count)])


@pytest.mark.parametrize(
    "spoil, match",
    [
        (lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-3), "density matrix \\[2\\] is not Hermitian"),
        (lambda m: m.__imul__(1.01), "density matrix \\[2\\] trace"),
        (lambda m: m.__setitem__(slice(None), np.diag([1.5, -0.5, 0.0, 0.0])), "density matrix \\[2\\] has negative eigenvalue"),
        (lambda m: m.__setitem__((1, 1), np.nan), "density matrix \\[2\\] contains non-finite entries"),
    ],
    ids=["non-hermitian", "trace", "negative-eigenvalue", "non-finite"],
)
def test_stack_validation_names_the_failing_index(spoil, match):
    mats = _stack_of_states()
    spoil(mats[2])
    with pytest.raises(pt.ValidationError, match=match):
        pt.DensityMatrix(mats)


def test_stacked_observable_check_names_the_failing_index():
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])]).astype(complex)
    with pytest.raises(pt.ValidationError, match="observable \\[2\\] is not Hermitian"):
        pt.Observable(mats)
    assert np.array_equal(pt.Observable(mats, hermitian=False).op_norm, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("ks", [[4, 15, 4], [16, 16, 16]], ids=["per-record-k", "shared-k"])
def test_stacked_state_and_oracle_are_each_matrix_alone(n, ks):
    """The stack's eighs (state and observable), norm SVD and oracle are
    bitwise the per-matrix calls, also for a k that only one record of the
    stack has; the oracle is bitwise the one-matrix power and trace."""
    seeds = [1, 2, 3]
    spec = pt.InstanceSpec(qubits=n, rank=2 ** n, seed=0)
    stack, obs = instances.make_states(spec, seeds), instances.make_observables(spec, seeds)
    oracle = linalg.trace_power_obs_oracles(stack, obs, ks)
    for i, seed in enumerate(seeds):
        one = dataclasses.replace(spec, seed=seed)
        rho, o = pt.make_state(one), pt.make_observable(one)
        assert np.array_equal(stack.spectrum().eigenvalues[i], rho.spectrum().eigenvalues)
        assert np.array_equal(stack.spectrum().eigenvectors[i], rho.spectrum().eigenvectors)
        assert np.array_equal(obs.spectrum().eigenvalues[i], o.spectrum().eigenvalues)
        assert np.array_equal(obs.spectrum().eigenvectors[i], o.spectrum().eigenvectors)
        assert obs.op_norm[i] == o.op_norm
        direct = complex(np.sum(np.linalg.matrix_power(rho.mat, ks[i]) * o.mat.T))
        assert oracle[i] == pt.trace_power_obs_oracle(rho, o, ks[i]) == direct
