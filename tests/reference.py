"""Circuit references and oracles that the pipeline's closed forms are tested against.

The estimation pipeline builds no unitary, no block and no purification
vector: P(0) of the Hadamard test is read from the spectral sum
Tr(rho p(rho) O) over rho's eigenbasis, the amplitude-estimation outcome
drawn bit by bit in O(log K). This test helper builds what those stand for
(a purification vector of the state, the SWAP-lemma unitary of the density
block encoding, the block identity ``closed_form_p_zero``, the simulated
Hadamard-test circuit, the dense phase-estimation law, the swap test's
cyclic permutation, ``partial_trace`` and ``fidelity``) so the tests can
compare the two. It also holds the dense Chebyshev oracles
``chebyshev_matrix`` and ``dense_power_times_obs``, the one seeded
``random_density`` the tests build their states from, and the seeded
``haar_unitary`` that rotates a chosen spectrum. It lives beside the
tests, outside the installed package, and the tests import it as
``reference``.
"""

from __future__ import annotations

import math

import numpy as np

import powertrace as pt
from powertrace.blockenc import PurifiedState
from powertrace.errors import ValidationError
from powertrace.linalg import DensityMatrix, _psd_sqrt, check_dim_within_cap, op_norm


def random_density(qubits: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random state G G^dag / Tr(G G^dag) with G complex Gaussian
    of shape (2^qubits, rank): the default ``random_mixed`` instance."""
    return pt.make_state(pt.InstanceSpec(qubits, rank, seed))


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar random unitary: Q of the QR decomposition of a complex
    Gaussian (dim, dim), real then imaginary part from ``default_rng(seed)``,
    its columns rephased by R's diagonal."""
    g = np.random.default_rng(seed).standard_normal((2, dim, dim))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases))


def chebyshev_matrix(c, mat) -> np.ndarray:
    """p(M) = sum_n c[n] T_n(M), by the matrix recurrence T_0 = I,
    T_1 = M, T_(n+1) = 2 M T_n - T_(n-1): no eigendecomposition, so it
    shares nothing with the pipeline's spectral route."""
    mat = np.asarray(mat, dtype=complex)
    prev, cur = np.eye(mat.shape[0], dtype=complex), mat
    out = c[0] * prev
    for n in range(1, len(c)):
        out = out + c[n] * cur
        prev, cur = cur, 2 * mat @ cur - prev
    return out


def dense_power_times_obs(rho, obs, k: int, eps: float) -> np.ndarray:
    """B = p(rho) O for the truncation p of x^(k-1) an estimate uses at
    eps, whose polynomial budget is eps / (2 ||O||), built densely by
    ``chebyshev_matrix``."""
    degree = pt.required_degree(k - 1, min(1.0, eps / (2 * obs.op_norm)))
    return chebyshev_matrix(pt.power_expansion(k - 1)[:degree + 1], rho.mat) @ obs.mat


def purification_vector(state: DensityMatrix) -> np.ndarray:
    """A unit vector on (environment, system), both n qubits wide, whose
    reduced state on the system is ``state``: the amplitude matrix
    diag(sqrt(w)) V^T, environment basis state i paired with eigenvector i
    in ``eigh`` order. Any purification gives the same circuit
    probabilities, so no order among tied eigenvalues is imposed."""
    w, v = state.spectrum()
    vec = (np.sqrt(w)[:, None] * v.T).reshape(-1)
    return vec / np.linalg.norm(vec)


def _swap_registers(dim_a: int, dim_b: int) -> np.ndarray:
    """Permutation sending |i>_A |j>_B to |j>_B |i>_A."""
    # row j * dim_a + i holds its 1 in column i * dim_b + j
    return np.eye(dim_a * dim_b)[np.arange(dim_a * dim_b).reshape(dim_a, dim_b).T.reshape(-1)]


def _complete_unitary(first_column: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector.

    Completed by Gram-Schmidt against the computational basis in index
    order, which makes the result deterministic.
    """
    dim = first_column.size
    cols = [first_column]
    for i in range(dim):
        cand = np.zeros(dim, dtype=np.complex128)
        cand[i] = 1.0
        for c in cols:
            cand -= c * (c.conj() @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-9:
            cols.append(cand / norm)
        if len(cols) == dim:
            break
    if len(cols) != dim:
        raise ValidationError("failed to complete a unitary from the first column")
    return np.stack(cols, axis=1)


def density_block_unitary(purification: PurifiedState) -> np.ndarray:
    """The SWAP lemma's 3n-qubit unitary, with the purified state in its
    top-left block: the density block encoding whose eigenvalue transform
    ``qsvt.transform_spectra`` evaluates on the state's spectrum.

    With U the unitary preparing ``purification_vector`` from |0>_E |0>_I
    and a fresh system-sized register appended, the product

        (U^dag x I_n) (I_a x SWAP_n) (U x I_n)

    places rho in the ancilla-zero block exactly, its a+n ancillas leading.
    """
    s_dim = a_dim = purification.state.dim
    check_dim_within_cap(a_dim * s_dim * s_dim, "density block encoding")
    u_big = np.kron(_complete_unitary(purification_vector(purification.state)), np.eye(s_dim))
    middle = np.kron(np.eye(a_dim), _swap_registers(s_dim, s_dim))
    return u_big.conj().T @ middle @ u_big


def verify_block_encoding(unitary, alpha: float, target) -> float:
    """Operator-norm defect || target - alpha * (<0^a| x I) U (|0^a> x I) ||.

    The ancilla-zero block is U's top-left target-sized block, whatever
    the ancilla count; the caller compares the defect with the encoding's
    recorded error.
    """
    unitary = np.asarray(unitary, dtype=np.complex128)
    target = np.asarray(target, dtype=np.complex128)
    dim = target.shape[0]
    if unitary.shape[0] != unitary.shape[1] or unitary.shape[0] % dim:
        raise ValidationError(f"a {unitary.shape} unitary does not dilate a {target.shape} target")
    return op_norm(target - alpha * unitary[:dim, :dim])


def closed_form_p_zero(block, alpha: float, purification: PurifiedState, w: str = "I") -> float:
    """The circuit-free identity P(0) = 1/2 + Re/Im(Tr(rho block))/(2 alpha).

    Exact for any unitary with ancilla-zero block block/alpha
    (``hadamard_test_prob`` simulates the circuit); ``w="I"`` takes the
    real part, ``"S_dagger"`` the imaginary part.
    """
    overlap = complex(np.sum(purification.state.mat * np.asarray(block).T))
    return 0.5 + (overlap.real if w == "I" else overlap.imag) / (2.0 * alpha)


def hadamard_test_prob(unitary, purification: PurifiedState, w: str = "I") -> float:
    """Exact control-0 probability of the Hadamard-test circuit.

    This is the circuit-level reference for ``closed_form_p_zero``.
    Registers are ordered (control, ancillas, environment, system). The
    circuit applies H on the control, the unitary on (ancillas, system)
    controlled on it, optionally the inverse phase gate on the control
    (setting ``w="S_dagger"``), and a final H, starting from
    |0>_c |0>_anc |purification>, the purification being
    ``purification_vector`` of the state, with an environment as wide as
    the system.

    The circuit is simulated on its state vector: the unitary's image of
    the ancilla-zero input is the purification, reshaped to (environment,
    system), contracted with the unitary's ancilla-zero columns. No
    operator on the whole circuit is built. The qubit cap bounds the
    circuit width, 1 + ancillas + environment + system, and is checked
    before anything is allocated.
    """
    if w not in ("I", "S_dagger"):
        raise ValidationError(f'w must be "I" or "S_dagger", got {w!r}')
    sys_dim = env_dim = purification.state.dim
    dim = np.shape(unitary)[0]
    anc_dim = dim // sys_dim
    if np.shape(unitary) != (dim, dim) or anc_dim * sys_dim != dim or anc_dim & (anc_dim - 1):
        raise ValidationError("unitary does not act on (ancillas, system) registers")
    # a power of two's bit length is 1 + its log2: the control plus the ancillas
    total_qubits = anc_dim.bit_length() + 2 * purification.state.qubits
    check_dim_within_cap(2 ** total_qubits, f"{total_qubits}-qubit Hadamard-test circuit")
    unitary = np.asarray(unitary, dtype=np.complex128)
    vec = purification_vector(purification.state)
    psi = vec.reshape(env_dim, sys_dim)
    # U (|0>_anc x |psi_e>) for every environment row e, ordered (env, anc, sys)
    image = (psi @ unitary[:, :sys_dim].T).reshape(env_dim, anc_dim, sys_dim)

    rest_dim = anc_dim * env_dim * sys_dim
    branch = np.zeros(rest_dim, dtype=np.complex128)
    branch[: env_dim * sys_dim] = vec  # ancillas in |0>

    # after H_c and the controlled unitary: (|0>|phi> + |1>U|phi>)/sqrt(2)
    amp0 = branch / math.sqrt(2.0)
    amp1 = image.transpose(1, 0, 2).reshape(rest_dim) / math.sqrt(2.0)
    if w == "S_dagger":
        amp1 = -1j * amp1
    # final H_c: outcome-0 amplitude (amp0 + amp1)/sqrt(2)
    p_zero = float(np.linalg.norm((amp0 + amp1) / math.sqrt(2.0)) ** 2)
    return min(max(p_zero, 0.0), 1.0)


def ae_outcome_distribution(p_true: float, grid_size: int) -> np.ndarray:
    """Phase-estimation outcome distribution over the K-point grid.

    The phase theta = arcsin(sqrt(p))/pi appears in both rotation
    directions; each branch contributes the squared Dirichlet kernel
    sin^2(K pi d) / (K^2 sin^2(pi d)) at grid offset d, and the branches
    mix with weight 1/2. This dense O(K) law is the reference for
    ``estimator._draw_outcome``'s O(log K) bit-by-bit draw.
    """
    theta = math.asin(math.sqrt(p_true)) / math.pi
    y = np.arange(grid_size)
    probs = np.zeros(grid_size, dtype=np.float64)
    for branch in (theta, -theta):
        delta = branch - y / grid_size
        sin_small = np.sin(np.pi * delta)
        on_grid = np.abs(sin_small) < 1e-14
        safe = np.where(on_grid, 1.0, sin_small)
        kernel = np.where(
            on_grid,
            1.0,
            (np.sin(grid_size * np.pi * delta) / (grid_size * safe)) ** 2,
        )
        probs += 0.5 * kernel
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValidationError(f"outcome distribution sums to {total}, not 1")
    return probs / total


def partial_trace(state_or_dm, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite state.

    ``state_or_dm`` may be a state vector of length dA*dB or a density
    matrix of shape (dA*dB, dA*dB). ``keep`` selects the surviving factor,
    "A" (leading register) or "B" (trailing register).
    """
    da, db = int(dims[0]), int(dims[1])
    if keep not in ("A", "B"):
        raise ValidationError(f'keep must be "A" or "B", got {keep!r}')
    arr = np.asarray(state_or_dm, dtype=np.complex128)
    if arr.ndim == 1 or (arr.ndim == 2 and 1 in arr.shape):
        vec = arr.reshape(-1)
        if vec.size != da * db:
            raise ValidationError(
                f"vector of length {vec.size} inconsistent with dims {dims}"
            )
        psi = vec.reshape(da, db)
        if keep == "A":
            return psi @ psi.conj().T
        return psi.T @ psi.conj()
    if arr.shape != (da * db, da * db):
        raise ValidationError(
            f"matrix of shape {arr.shape} inconsistent with dims {dims}"
        )
    t = arr.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    return np.einsum("abad->bd", t)


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    sqrt(a) is the package's PSD square root (``linalg._psd_sqrt``); the
    outer root reads the eigenvalues of the Hermitian part of the inner
    matrix, with negative rounding clipped to 0.
    """
    if a.dim != b.dim:
        raise ValidationError("fidelity requires matching dimensions")
    ra = _psd_sqrt(a.mat)
    inner = ra @ b.mat @ ra
    w = np.clip(np.linalg.eigh((inner + inner.conj().T) / 2).eigenvalues, 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)


def cyclic_permutation(k: int, d: int) -> np.ndarray:
    """Permutation matrix cycling k registers of dimension d:
    |a_1, a_2, ..., a_k>  ->  |a_k, a_1, ..., a_{k-1}>."""
    if k < 1 or d < 1:
        raise ValidationError("cyclic permutation needs k >= 1 and d >= 1")
    total = d ** k
    check_dim_within_cap(total, "cyclic permutation")
    idx = np.arange(total)
    weights = d ** np.arange(k - 1, -1, -1)
    digits = (idx[:, None] // weights[None, :]) % d
    rotated = np.concatenate([digits[:, -1:], digits[:, :-1]], axis=1)
    new_idx = rotated @ weights
    p = np.zeros((total, total))
    p[new_idx, idx] = 1.0
    return p
