"""Purifications, block encodings, and unitary dilations of contractions.

A block encoding of a matrix A is a scale ``alpha >= ||A||`` and an
ancilla count a such that some unitary U on (ancillas, system) holds A/alpha
in its top-left block (the ancilla-zero subspace, ancillas leading in
Kronecker order) up to the recorded error:

    || A - alpha * (<0^a| x I) U (|0^a> x I) || <= err.

The estimation pipeline reads only that block (the Hadamard test's outcome
law depends on U only through it), so a ``BlockEncoding`` is the block, its
scale, error and ancilla count, and no unitary: the density block, the
observable encoding and their product. ``ancillas`` is the count of the
query-model construction being simulated and is what complexity
bookkeeping uses. ``halmos_dilate`` builds a contraction's one-ancilla
unitary, which the hybrid-argument bound runs; the SWAP-lemma unitary of
the density block lives with the other test references in ``reference``.
"""

from __future__ import annotations

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
    op_norm,
    partial_trace,
)

ALPHA_SLACK = 1e-9


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
    """(alpha, ancillas, err) block encoding: the encoded block, no unitary.

    alpha must be finite and positive, err finite and nonnegative.
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
    _norm_bound: float | None = field(default=None, repr=False, compare=False)
    _spectrum: EighResult | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not (math.isfinite(self.err) and self.err >= 0):
            raise ValidationError(f"block-encoding error must be finite and nonnegative, got {self.err!r}")
        if self.ancillas < 0:
            raise ValidationError("ancilla count must be nonnegative")
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

    @property
    def dim(self) -> int:
        return self.block.shape[0]


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


def density_block(purification: PurifiedState) -> BlockEncoding:
    """Exact (1, a+n, 0) block encoding of the purified density matrix.

    The block is the reduced state with its cached spectrum, and the
    ancilla count is that of the SWAP-lemma circuit
    (``reference.density_block_unitary``): all the transform and the
    ledger read.
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
    bounds the defect against a different target. Its norm check is
    certified by ||A B|| <= ||A|| ||B||.
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


def observable_block_encoding(o: Observable) -> BlockEncoding:
    """Error-free single-ancilla (max(1, ||O||), 1, 0) encoding of an
    observable.

    The scale is max(1, ||O||): never below the operator norm, and never
    below 1 so that O/alpha stays a contraction even for tiny observables;
    ``halmos_dilate(o.mat / alpha)`` is then a unitary realizing the block.
    """
    return BlockEncoding(
        block=o.mat, alpha=max(1.0, o.op_norm), ancillas=1, err=0.0, _norm_bound=o.op_norm
    )
