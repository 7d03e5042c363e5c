"""Purifications, block encodings, and unitary dilations of contractions.

A block encoding of a matrix A is a unitary U together with a scale
``alpha >= ||A||`` such that the top-left block of U (the ancilla-zero
subspace, ancillas leading in Kronecker order) reproduces A/alpha up to the
recorded error:

    || A - alpha * (<0^a| x I) U (|0^a> x I) || <= err.

``BlockEncoding.ancillas`` is the ancilla count of the query-model
construction being simulated and is what complexity bookkeeping should
use. The explicit ``dilation`` matrix, when materialized, may realize the
same block with fewer physical ancillas (a single-ancilla contraction
dilation, for instance); its physical ancilla count is always derived from
its shape.

The estimation pipeline needs only the encoded block of the density
matrix (purified access), so it takes the dilation-free ``density_block``.
``density_block_encoding`` adds the explicit SWAP-lemma unitary on top of
the same block; it is kept as the lemma's verified construction and is not
on the pipeline's path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceError, ValidationError
from .linalg import (
    DensityMatrix,
    Observable,
    as_complex_matrix,
    check_dim_within_cap,
    clip_spectrum,
    eigh,
    get_qubit_cap,
    kron,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    partial_trace,
)

ALPHA_SLACK = 1e-9
UNITARITY_ATOL = 1e-9


@dataclass(frozen=True)
class PurifiedState:
    """Unit vector on (environment x system) whose reduced state is a target
    density matrix."""

    env_qubits: int
    sys_qubits: int
    vec: np.ndarray
    _reduced: DensityMatrix | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=np.complex128).reshape(-1)
        expected = 2 ** (self.env_qubits + self.sys_qubits)
        if vec.size != expected:
            raise ValidationError(
                f"purification vector length {vec.size} does not match "
                f"{self.env_qubits}+{self.sys_qubits} qubits"
            )
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"purification vector norm {norm} is not 1")
        if not np.all(np.isfinite(vec)):
            raise ValidationError("purification vector has non-finite entries")
        object.__setattr__(self, "vec", vec)

    @property
    def env_dim(self) -> int:
        return 2 ** self.env_qubits

    @property
    def sys_dim(self) -> int:
        return 2 ** self.sys_qubits

    def reduced_state(self) -> DensityMatrix:
        """Trace out the environment register (computed once, then cached)."""
        if self._reduced is None:
            red = partial_trace(self.vec, (self.env_dim, self.sys_dim), keep="B")
            red = (red + red.conj().T) / 2
            object.__setattr__(self, "_reduced", DensityMatrix(red))
        return self._reduced


@dataclass(frozen=True)
class BlockEncoding:
    """(alpha, ancillas, err) block encoding, optionally with its unitary."""

    block: np.ndarray
    alpha: float
    ancillas: int
    err: float
    dilation: np.ndarray | None = None

    def __post_init__(self):
        block = as_complex_matrix(self.block, "encoded block")
        if block.shape[0] != block.shape[1]:
            raise ValidationError("encoded block must be square")
        object.__setattr__(self, "block", block)
        if self.alpha < op_norm(block) - ALPHA_SLACK:
            raise ValidationError(
                f"alpha {self.alpha} is below the block norm {op_norm(block)}"
            )
        if self.err < 0:
            raise ValidationError("block-encoding error must be nonnegative")
        if self.ancillas < 0:
            raise ValidationError("ancilla count must be nonnegative")
        if self.dilation is not None:
            dil = as_complex_matrix(self.dilation, "dilation")
            if dil.shape[0] != dil.shape[1] or dil.shape[0] % block.shape[0]:
                raise ValidationError("dilation shape incompatible with block")
            ratio = dil.shape[0] // block.shape[0]
            if ratio & (ratio - 1):
                raise ValidationError("dilation ancilla dimension is not a power of two")
            object.__setattr__(self, "dilation", dil)

    @property
    def dim(self) -> int:
        return self.block.shape[0]

    @property
    def physical_ancillas(self) -> int:
        """Ancilla count of the materialized dilation (shape-derived)."""
        if self.dilation is None:
            raise ValidationError("block encoding carries no explicit dilation")
        return int(math.log2(self.dilation.shape[0] // self.dim))

    def to_json(self) -> dict:
        """Serialize without the dilation; load rebuilds one."""
        return {
            "block": matrix_to_json(self.block),
            "alpha": float(self.alpha),
            "ancillas": int(self.ancillas),
            "err": float(self.err),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockEncoding":
        """Rebuild from JSON, recomputing a fresh single-ancilla dilation."""
        block = matrix_from_json(obj["block"])
        alpha = float(obj["alpha"])
        return cls(
            block=block,
            alpha=alpha,
            ancillas=int(obj["ancillas"]),
            err=float(obj["err"]),
            dilation=halmos_dilate(block / alpha),
        )


def purify(rho: DensityMatrix) -> PurifiedState:
    """Canonical purification with an environment as wide as the system.

    Environment basis states are computational basis states indexed by the
    rank of the eigenvalue they accompany (descending eigenvalues; exact
    ties broken by lexicographic comparison of the eigenvector entries), so
    the construction is deterministic.
    """
    w, v = rho.spectrum()

    def _tiebreak(i: int):
        col = v[:, i]
        return tuple((float(z.real), float(z.imag)) for z in col)

    order = sorted(range(rho.dim), key=lambda i: (-w[i], _tiebreak(i)))
    n = rho.qubits
    vec = np.zeros(rho.dim * rho.dim, dtype=np.complex128)
    for rank, i in enumerate(order):
        p = w[i]
        if p <= 0.0:
            continue
        env = np.zeros(rho.dim, dtype=np.complex128)
        env[rank] = 1.0
        vec += math.sqrt(p) * np.kron(env, v[:, i])
    vec /= np.linalg.norm(vec)
    return PurifiedState(env_qubits=n, sys_qubits=n, vec=vec)


def _swap_registers(dim_a: int, dim_b: int) -> np.ndarray:
    """Permutation sending |i>_A |j>_B to |j>_B |i>_A."""
    s = np.zeros((dim_a * dim_b, dim_a * dim_b))
    for i in range(dim_a):
        for j in range(dim_b):
            s[j * dim_a + i, i * dim_b + j] = 1.0
    return s


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


def density_block(purification: PurifiedState) -> BlockEncoding:
    """Exact (1, a+n, 0) block encoding of the purified density matrix,
    without a dilation.

    The block is the reduced state and the ancilla count is that of the
    SWAP-lemma circuit of ``density_block_encoding``, which is all the
    eigenvalue transform and the query ledger read.
    """
    return BlockEncoding(
        block=purification.reduced_state().mat,
        alpha=1.0,
        ancillas=purification.env_qubits + purification.sys_qubits,
        err=0.0,
    )


def density_block_encoding(purification: PurifiedState) -> BlockEncoding:
    """``density_block`` together with its explicit 3n-qubit unitary.

    With U the unitary preparing the purification from |0>_E |0>_I and a
    fresh system-sized register appended, the product

        (U^dag x I_n) (I_a x SWAP_n) (U x I_n)

    places rho in the top-left block exactly. This is the SWAP lemma's
    verified construction; the estimation pipeline uses ``density_block``
    and never builds this unitary.
    """
    a_dim = purification.env_dim
    s_dim = purification.sys_dim
    total_dim = a_dim * s_dim * s_dim
    check_dim_within_cap(total_dim, "density block encoding")
    u_rho = _complete_unitary(purification.vec)
    eye_n = np.eye(s_dim)
    swap = _swap_registers(s_dim, s_dim)
    middle = kron(np.eye(a_dim), swap)
    u_big = kron(u_rho, eye_n)
    dilation = u_big.conj().T @ middle @ u_big
    return dataclasses.replace(density_block(purification), dilation=dilation)


def _psd_sqrt_clipped(m: np.ndarray) -> np.ndarray:
    w, v = eigh(m, atol=1e-8)
    w = np.clip(clip_spectrum(w), 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def halmos_dilate(m) -> np.ndarray:
    """One-ancilla unitary dilation of a contraction M:

        [[ M,              sqrt(I - M M^dag) ],
         [ sqrt(I - M^dag M),     -M^dag     ]].

    Square roots go through eigendecompositions of the PSD Gram matrices
    with tiny negative eigenvalues clipped.
    """
    m = as_complex_matrix(m, "contraction")
    if m.shape[0] != m.shape[1]:
        raise ValidationError("contraction must be square")
    norm = op_norm(m)
    if norm > 1.0 + 1e-6:
        raise ValidationError(f"matrix with norm {norm} is not a contraction")
    if norm > 1.0:
        m = m / norm
    dim = m.shape[0]
    check_dim_within_cap(2 * dim, "contraction dilation")
    eye = np.eye(dim)
    top_right = _psd_sqrt_clipped(eye - m @ m.conj().T)
    bottom_left = _psd_sqrt_clipped(eye - m.conj().T @ m)
    return np.block([[m, top_right], [bottom_left, -m.conj().T]])


def _embed_outer_pair(u: np.ndarray, dim_outer_pair: tuple[int, int], dim_mid: int) -> np.ndarray:
    """Embed U acting on (A, C) into (A, B, C) with identity on the middle B."""
    dim_a, dim_c = dim_outer_pair
    big = np.kron(u, np.eye(dim_mid))  # acts on (A, C, B)
    perm = np.kron(np.eye(dim_a), _swap_registers(dim_c, dim_mid))  # (A,C,B)->(A,B,C)
    return perm @ big @ perm.conj().T


def be_product(a: BlockEncoding, b: BlockEncoding) -> BlockEncoding:
    """Block encoding of the product A @ B from encodings of A and B.

    Scale and error compose as (alpha_a * alpha_b) and
    (alpha_a * err_b + alpha_b * err_a); ancilla counts add. The explicit
    dilation (built only when both factors carry one and the result fits
    under the qubit cap) is U_b applied on (b-ancillas, system) followed by
    U_a on (a-ancillas, system), with b's ancillas leading.
    """
    if a.dim != b.dim:
        raise ValidationError(
            f"block dimension mismatch: {a.dim} vs {b.dim}"
        )
    block = a.block @ b.block
    alpha = a.alpha * b.alpha
    err = a.alpha * b.err + b.alpha * a.err
    dilation = None
    if a.dilation is not None and b.dilation is not None:
        anc_a = 2 ** a.physical_ancillas
        anc_b = 2 ** b.physical_ancillas
        total = anc_b * anc_a * a.dim
        if total <= 2 ** get_qubit_cap():
            op_a = np.kron(np.eye(anc_b), a.dilation)  # (anc_b, anc_a, sys)
            op_b = _embed_outer_pair(b.dilation, (anc_b, a.dim), anc_a)
            dilation = op_a @ op_b
    return BlockEncoding(
        block=block,
        alpha=alpha,
        ancillas=a.ancillas + b.ancillas,
        err=err,
        dilation=dilation,
    )


def verify_block_encoding(be: BlockEncoding, target) -> float:
    """Operator-norm defect || target - alpha * (<0^a| x I) U (|0^a> x I) ||.

    The projection uses the dilation's own (physical) ancilla space; the
    caller compares the returned defect with ``be.err``.
    """
    if be.dilation is None:
        raise ValidationError("verify_block_encoding needs an explicit dilation")
    target = as_complex_matrix(target, "target")
    if target.shape != be.block.shape:
        raise ValidationError("target shape does not match the encoded block")
    dim = be.dim
    top_left = be.dilation[:dim, :dim]
    return op_norm(target - be.alpha * top_left)


def observable_block_encoding(o: Observable) -> BlockEncoding:
    """Error-free single-ancilla encoding of an observable.

    The scale is max(1, ||O||): never below the operator norm, and never
    below 1 so that O/alpha stays a contraction even for tiny observables.
    """
    alpha = max(1.0, o.op_norm)
    return BlockEncoding(
        block=o.mat,
        alpha=alpha,
        ancillas=1,
        err=0.0,
        dilation=halmos_dilate(o.mat / alpha),
    )
