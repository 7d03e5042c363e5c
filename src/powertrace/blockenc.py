"""Purified access to a state, and unitary dilations of contractions.

A block encoding of a matrix A is a scale ``alpha >= ||A||`` and a unitary
U on (ancillas, system) holding A/alpha in its top-left block, the
ancilla-zero subspace with the ancillas leading in Kronecker order. The
estimation pipeline never builds one: the density block encoding of a
purified state holds rho, the eigenvalue transform maps it to p(rho), and
the Hadamard test reads Tr(rho p(rho) O)/alpha_O, which the estimator sums
over rho's spectrum. So purified access is the state itself: a
``PurifiedState`` carries rho and its cached spectrum, and no purification
vector is built (the estimator counts the queries to the unitary
preparing one). ``halmos_dilate`` builds a contraction's one-ancilla
unitary, which the hybrid-argument bound runs; a purification
vector and the SWAP-lemma unitary of the density block live with the
other test references in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import DensityMatrix, _psd_sqrt, _square_operator, check_dim_within_cap, op_norm


@dataclass(frozen=True)
class PurifiedState:
    """Purified access to ``state``: what the estimators take, where the
    sample-access swap test takes the ``DensityMatrix`` itself."""

    state: DensityMatrix

    def __post_init__(self):
        if not isinstance(self.state, DensityMatrix):
            raise ValidationError(
                f"purified access needs a DensityMatrix, got {type(self.state).__name__}"
            )


def purify(rho: DensityMatrix) -> PurifiedState:
    """Purified access to rho. It carries rho and its cached spectrum, so
    nothing on it decomposes rho again."""
    return PurifiedState(rho)


def halmos_dilate(m) -> np.ndarray:
    """One-ancilla unitary dilation of a contraction M, square on a power-of-two dimension:

        [[ M,              sqrt(I - M M^dag) ],
         [ sqrt(I - M^dag M),     -M^dag     ]].

    Square roots go through eigendecompositions of the PSD Gram matrices
    with tiny negative eigenvalues clipped.
    """
    m = _square_operator(m, "contraction")
    if m.ndim != 2:
        raise ValidationError(f"contraction must be 2-dimensional, got shape {m.shape}")
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
