"""Circuit-level references that the pipeline's closed forms are tested against.

The estimation pipeline builds no unitary and no block: P(0) of the
Hadamard test is read from the spectral sum Tr(rho p(rho) O) over rho's
eigenbasis, the amplitude-estimation draw from an O(window) law. This
module builds what those stand for (the SWAP-lemma unitary of the density
block encoding, the block identity ``closed_form_p_zero``, the simulated
Hadamard-test circuit and the dense phase-estimation law) so the tests can
compare the two. No pipeline module imports it.
"""

from __future__ import annotations

import math

import numpy as np

from .blockenc import PurifiedState
from .errors import ResourceError, ValidationError
from .linalg import as_complex_matrix, check_dim_within_cap, get_qubit_cap, kron, op_norm


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
    top-left block: the density block encoding that the eigenvalue
    transform (``qsvt.power_block_encoding``) acts on.

    With U the unitary preparing the purification from |0>_E |0>_I and a
    fresh system-sized register appended, the product

        (U^dag x I_n) (I_a x SWAP_n) (U x I_n)

    places rho in the ancilla-zero block exactly, its a+n ancillas leading.
    """
    a_dim = purification.env_dim
    s_dim = purification.sys_dim
    check_dim_within_cap(a_dim * s_dim * s_dim, "density block encoding")
    u_big = kron(_complete_unitary(purification.vec), np.eye(s_dim))
    middle = kron(np.eye(a_dim), _swap_registers(s_dim, s_dim))
    return u_big.conj().T @ middle @ u_big


def verify_block_encoding(unitary, alpha: float, target) -> float:
    """Operator-norm defect || target - alpha * (<0^a| x I) U (|0^a> x I) ||.

    The ancilla-zero block is U's top-left target-sized block, whatever
    the ancilla count; the caller compares the defect with the encoding's
    recorded error.
    """
    unitary = as_complex_matrix(unitary, "unitary")
    target = as_complex_matrix(target, "target")
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
    overlap = complex(np.sum(purification.reduced_state().mat * np.asarray(block).T))
    return 0.5 + (overlap.real if w == "I" else overlap.imag) / (2.0 * alpha)


def hadamard_test_prob(unitary, purification: PurifiedState, w: str = "I") -> float:
    """Exact control-0 probability of the Hadamard-test circuit.

    This is the circuit-level reference for ``closed_form_p_zero``.
    Registers are ordered (control, ancillas, environment, system). The
    circuit applies H on the control, the unitary on (ancillas, system)
    controlled on it, optionally the inverse phase gate on the control
    (setting ``w="S_dagger"``), and a final H, starting from
    |0>_c |0>_anc |purification>.

    The circuit is simulated on its state vector: the unitary's image of
    the ancilla-zero input is the purification, reshaped to (environment,
    system), contracted with the unitary's ancilla-zero columns. No
    operator on the whole circuit is built. The qubit cap bounds the
    circuit width, 1 + ancillas + environment + system, and is checked
    before anything is allocated.
    """
    if w not in ("I", "S_dagger"):
        raise ValidationError(f'w must be "I" or "S_dagger", got {w!r}')
    sys_dim = purification.sys_dim
    dim = np.shape(unitary)[0]
    anc_dim = dim // sys_dim
    if np.shape(unitary) != (dim, dim) or anc_dim * sys_dim != dim or anc_dim & (anc_dim - 1):
        raise ValidationError("unitary does not act on (ancillas, system) registers")
    # a power of two's bit length is 1 + its log2: the control plus the ancillas
    total_qubits = anc_dim.bit_length() + purification.env_qubits + purification.sys_qubits
    if total_qubits > get_qubit_cap():
        raise ResourceError(
            f"Hadamard-test circuit needs {total_qubits} qubits, cap is "
            f"{get_qubit_cap()}"
        )
    unitary = as_complex_matrix(unitary, "unitary")
    env_dim = purification.env_dim
    psi = purification.vec.reshape(env_dim, sys_dim)
    # U (|0>_anc x |psi_e>) for every environment row e, ordered (env, anc, sys)
    image = (psi @ unitary[:, :sys_dim].T).reshape(env_dim, anc_dim, sys_dim)

    rest_dim = anc_dim * env_dim * sys_dim
    branch = np.zeros(rest_dim, dtype=np.complex128)
    branch[: env_dim * sys_dim] = purification.vec  # ancillas in |0>

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
    ``estimator.amplitude_estimate``'s O(window) draw.
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
