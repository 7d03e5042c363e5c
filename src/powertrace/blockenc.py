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

The estimation pipeline reads only the encoded block (the Hadamard test's
outcome law depends on U only through it), so its encodings -- the
density block, the observable encoding and their product -- carry the
block, scale, error and ancilla count but no unitary.
``density_block_encoding`` (the SWAP lemma) and ``halmos_dilate`` (a
contraction's one-ancilla dilation) are the verified unitary
constructions; neither is on the pipeline's path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import (
    DensityMatrix,
    EighResult,
    Observable,
    _psd_sqrt,
    as_complex_matrix,
    check_dim_within_cap,
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
    density matrix: the one ``purify`` was given, or a bare vector's trace."""

    env_qubits: int
    sys_qubits: int
    vec: np.ndarray
    _reduced: DensityMatrix | None = field(default=None, repr=False, compare=False)
    # ((exponent, degree), (encoding, ledger)) of the last power_block_encoding
    _last_power: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        """The reduced state: the one ``purify`` was given, or, for a bare
        vector, its partial trace, validated by one ``eigh`` and cached."""
        if self._reduced is None:
            red = partial_trace(self.vec, (self.env_dim, self.sys_dim), keep="B")
            red = (red + red.conj().T) / 2
            object.__setattr__(self, "_reduced", DensityMatrix(red))
        return self._reduced


@dataclass(frozen=True)
class BlockEncoding:
    """(alpha, ancillas, err) block encoding, optionally with its unitary.

    alpha >= ||block|| is checked by an SVD, unless the pipeline's
    constructors pass an upper bound ``_norm_bound`` they hold (from a
    Hermitian block's spectrum, or ||A|| ||B|| for a product) that lies
    within alpha and so certifies it. ``_spectrum`` is a Hermitian block's
    known eigendecomposition (the state's own, or (p(l_i), V) for p(rho)).
    """

    block: np.ndarray
    alpha: float
    ancillas: int
    err: float
    dilation: np.ndarray | None = None
    _norm_bound: float | None = field(default=None, repr=False, compare=False)
    _spectrum: EighResult | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        block = as_complex_matrix(self.block, "encoded block")
        if block.shape[0] != block.shape[1]:
            raise ValidationError("encoded block must be square")
        object.__setattr__(self, "block", block)
        bound = self._norm_bound
        if bound is None or bound > self.alpha + ALPHA_SLACK:
            bound = op_norm(block)
            if self.alpha < bound - ALPHA_SLACK:
                raise ValidationError(f"alpha {self.alpha} is below the block norm {bound}")
        object.__setattr__(self, "_norm_bound", bound)
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
    nonzero ties broken by lexicographic comparison of the eigenvector
    entries, real part before imaginary, row by row), so the vector is
    deterministic. The (environment, system) amplitude matrix is
    diag(sqrt(w)) V^T in that order, built in one step. The result carries
    ``rho`` as its reduced state, so nothing on it decomposes rho again.
    """
    w, v = rho.spectrum()
    order = np.argsort(-w, kind="stable")
    positive = w[w > 0].tolist()
    if len(set(positive)) < len(positive):  # some nonzero weights tie exactly
        values, starts, sizes = np.unique(w[order], return_index=True, return_counts=True)
        tied = (sizes > 1) & (values > 0)  # zero weights give zero rows in any order
        for lo, size in zip(starts[tied], sizes[tied]):
            run = order[lo : lo + size]  # a view; np.lexsort sorts by its last key first
            keys = np.stack((v[:, run].real, v[:, run].imag), axis=1).reshape(-1, size)
            run[:] = run[np.lexsort(keys[::-1])]
    # adding into zeros keeps every zero amplitude +0.0
    amps = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    amps += np.sqrt(w[order])[:, None] * v[:, order].T
    vec = amps.reshape(-1)
    vec /= np.linalg.norm(vec)
    return PurifiedState(env_qubits=rho.qubits, sys_qubits=rho.qubits, vec=vec, _reduced=rho)


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


def density_block(purification: PurifiedState) -> BlockEncoding:
    """Exact (1, a+n, 0) block encoding of the purified density matrix,
    without a dilation.

    The block is the reduced state with its cached spectrum, and the
    ancilla count is that of the SWAP-lemma circuit of
    ``density_block_encoding``: all the transform and the ledger read.
    """
    rho = purification.reduced_state()
    spectrum = rho.spectrum()
    return BlockEncoding(
        block=rho.mat,
        alpha=1.0,
        ancillas=purification.env_qubits + purification.sys_qubits,
        err=0.0,
        _norm_bound=float(np.max(np.abs(spectrum.eigenvalues))),
        _spectrum=spectrum,
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
    top_right = _psd_sqrt(eye - m @ m.conj().T)
    bottom_left = _psd_sqrt(eye - m.conj().T @ m)
    return np.block([[m, top_right], [bottom_left, -m.conj().T]])


def be_product(
    a: BlockEncoding, b: BlockEncoding, err: float | None = None
) -> BlockEncoding:
    """Block encoding of the product A @ B from encodings of A and B.

    Scale and error compose as (alpha_a * alpha_b) and
    (alpha_a * err_b + alpha_b * err_a); ancilla counts add. A given
    ``err`` is recorded instead of the composed error, for a caller that
    bounds the defect against a different target. The result carries only
    the product block: no dilation is composed. Its norm check is certified
    by ||A B|| <= ||A|| ||B||.
    """
    if a.dim != b.dim:
        raise ValidationError(
            f"block dimension mismatch: {a.dim} vs {b.dim}"
        )
    return BlockEncoding(
        block=a.block @ b.block,
        alpha=a.alpha * b.alpha,
        ancillas=a.ancillas + b.ancillas,
        err=a.alpha * b.err + b.alpha * a.err if err is None else err,
        _norm_bound=a._norm_bound * b._norm_bound,
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
    return op_norm(target - be.alpha * be.dilation[: be.dim, : be.dim])


def observable_block_encoding(o: Observable) -> BlockEncoding:
    """Error-free single-ancilla (max(1, ||O||), 1, 0) encoding of an
    observable, without a dilation.

    The scale is max(1, ||O||): never below the operator norm, and never
    below 1 so that O/alpha stays a contraction even for tiny observables;
    ``halmos_dilate(o.mat / alpha)`` is then a unitary realizing the block.
    """
    return BlockEncoding(
        block=o.mat, alpha=max(1.0, o.op_norm), ancillas=1, err=0.0, _norm_bound=o.op_norm
    )
