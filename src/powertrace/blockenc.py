"""Purifications and unitary dilations of contractions.

A block encoding of a matrix A is a scale ``alpha >= ||A||`` and a unitary
U on (ancillas, system) holding A/alpha in its top-left block, the
ancilla-zero subspace with the ancillas leading in Kronecker order. The
estimation pipeline never builds one: the density block encoding of a
purified state holds rho, the eigenvalue transform maps it to p(rho), and
the Hadamard test reads Tr(rho p(rho) O)/alpha_O, which the estimator sums
over rho's spectrum. This module holds what that sum starts from: the
purification, which carries rho and its spectrum. ``halmos_dilate`` builds
a contraction's one-ancilla unitary, which the hybrid-argument bound runs;
the SWAP-lemma unitary of the density block lives with the other test
references in ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import (
    DensityMatrix,
    _psd_sqrt,
    as_complex_matrix,
    check_dim_within_cap,
    op_norm,
    partial_trace,
)


@dataclass(frozen=True)
class PurifiedState:
    """Unit vector on (environment x system) whose reduced state is a target
    density matrix: the one ``purify`` was given, or a bare vector's trace."""

    env_qubits: int
    sys_qubits: int
    vec: np.ndarray
    _reduced: DensityMatrix | None = field(default=None, repr=False, compare=False)

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
