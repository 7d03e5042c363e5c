"""Dense complex linear algebra, quantum-state types, and the exact
ground-truth value of Tr(rho^k O).

Every matrix is coerced and checked by one route, ``_square_operator``,
and decomposed by one, ``_eigh`` (``numpy.linalg.eigh`` of the Hermitian
part, which leaves an exactly Hermitian matrix's bits as they are). A
``DensityMatrix`` is diagonalised once, by its validation, and every later
use reads that decomposition: purified access to a state is the state
itself, and the swap test's outcome law is read from the spectrum too. An
``Observable`` decomposes itself on first use and caches the result, and
the PSD square roots of a dilation take the same route.
The oracle ``trace_power_obs_oracle`` forms rho^k by repeated squaring
instead, so it shares no eigendecomposition with the estimation pipeline.
A ``DensityMatrix`` or ``Observable`` may hold a stack (..., d, d), one
matrix per record: each check names the first failing matrix, and the
``eigh``, the norm SVD and the oracle run once on the whole stack.

Everything is stored as dense ``numpy.complex128``. Composite registers
follow the Kronecker convention of ``numpy.kron``: in ``np.kron(a, b)``
the factor ``a`` is the more significant register, so ancilla registers written
to the left of a system register occupy the leading index blocks and the
"ancillas in |0>" subspace is the top-left block of a matrix.

The qubit cap ``QUBIT_CAP`` (14) bounds the dimension of any operator the
package builds and the width of any circuit it simulates, keeping every
simulation within a desk machine. A circuit simulated on its state vector
is checked against the cap by its width, before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ResourceError, ValidationError

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIG_FLOOR = -1e-10

QUBIT_CAP = 14


def check_dim_within_cap(dim: int, what: str) -> None:
    """Raise ResourceError if a dim x dim operator exceeds the qubit cap."""
    if dim > 2 ** QUBIT_CAP:
        raise ResourceError(
            f"{what} of dimension {dim} exceeds the qubit cap "
            f"({QUBIT_CAP} qubits = dimension {2 ** QUBIT_CAP})"
        )


def _fail_first(bad, what: str, message: str, values=None) -> None:
    """Raise ValidationError for the first matrix ``bad`` flags (one flag per
    matrix), naming its index in a stack and its entry of ``values``."""
    if bad.any() if bad.size > 1 else bad:  # a numpy bool's .any() costs more than the check
        i = np.unravel_index(np.argmax(bad), np.shape(bad))
        name = f"{what} {[int(j) for j in i]}" if i else what
        raise ValidationError(f"{name} " + message.format(None if values is None else np.asarray(values)[i]))


def _square_operator(m, name: str) -> np.ndarray:
    """Coerce to finite square complex matrices (..., d), d a power of two."""
    mat = np.asarray(m, dtype=np.complex128)
    if mat.ndim < 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {mat.shape}")
    dim = mat.shape[-1]
    if dim != mat.shape[-2]:
        raise ValidationError(f"{name} must be square")
    if dim < 1 or dim & (dim - 1):
        raise ValidationError(f"{name} dimension {dim} is not a power of two")
    if not np.isfinite(mat).all():
        _fail_first(~np.isfinite(mat).all(axis=(-2, -1)), name, "contains non-finite entries")
    return mat


class EighResult(NamedTuple):
    """Spectral decomposition H = V diag(w) V^dag (``eigh`` sorts w ascending)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def op_norm(m):
    """Operator (spectral) norm of a finite matrix: its largest singular
    value, the same float as ``np.linalg.norm(m, 2)``, one SVD. A stack
    (..., d, d) gives its matrices' norms from one SVD call, as nested
    lists (``ndarray.tolist``)."""
    return np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)[..., 0].tolist()


def _check_defect(diff: np.ndarray, atol: float, what: str, message: str) -> None:
    """Raise ValidationError, ``message`` formatted with the defect, if ||diff|| > atol in operator norm for
    diff or a matrix of its stack. The Frobenius norm bounds it, so an SVD runs only when that exceeds atol."""
    if np.linalg.norm(diff) > atol:  # the stack's norm bounds each matrix's
        defect = np.asarray(op_norm(diff))
        _fail_first(defect > atol, what, message, defect)


def _check_hermitian(m: np.ndarray, atol: float, what: str, hint: str = "") -> None:
    """Raise ValidationError if ||m - m^dag|| > atol in operator norm for m or a matrix of its stack."""
    _check_defect(m - m.conj().swapaxes(-1, -2), atol, what, "is not Hermitian (defect {:.3e})" + hint)


def _eigh(m: np.ndarray) -> EighResult:
    """Eigendecomposition of the Hermitian part (m + m^dag)/2 of a checked
    matrix or stack: the package's one ``eigh``."""
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    return EighResult(w, v)


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite, unit-trace matrix on a power-of-two dimension,
    or a stack (..., d, d) of them.

    Validation tolerances, per matrix: Hermiticity defect and |Tr - 1| at
    most 1e-10, minimum eigenvalue at least -1e-10. The matrix is coerced
    once, checked Hermitian once and decomposed once; that ``eigh`` is what
    ``spectrum`` returns.
    """

    mat: np.ndarray
    _spectrum: EighResult = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _square_operator(self.mat, "density matrix")
        _check_hermitian(mat, HERMITIAN_ATOL, "density matrix")
        w, v = _eigh(mat)
        tr = mat.trace(axis1=-2, axis2=-1)
        _fail_first(abs(tr - 1.0) > TRACE_ATOL, "density matrix", "trace {} is not 1", tr)
        _fail_first(w[..., 0] < EIG_FLOOR, "density matrix", "has negative eigenvalue {:.3e}", w[..., 0])
        # what passed the floor and is still negative is a solver's rounding
        w[w < 0] = 0.0
        w.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_spectrum", EighResult(w, v))

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    @property
    def qubits(self) -> int:
        return int(math.log2(self.dim))

    def spectrum(self) -> EighResult:
        """Eigendecomposition with tiny negative eigenvalues clipped to 0,
        as read-only arrays: the one ``eigh`` that validation ran."""
        return self._spectrum


@dataclass(frozen=True)
class Observable:
    """Observable with cached operator norm and (lazy) eigendecomposition.

    Hermitian by default; pass ``hermitian=False`` to carry a general
    matrix (downstream estimation then needs both the real- and
    imaginary-part circuit settings). A stack's ``op_norm`` lists its
    matrices' norms.
    """

    mat: np.ndarray
    hermitian: bool = True
    op_norm: float = field(init=False)
    _spectrum: EighResult | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _square_operator(self.mat, "observable")
        if self.hermitian:
            _check_hermitian(
                mat, HERMITIAN_ATOL, "observable",
                "; pass hermitian=False for general matrices",
            )
            mat = (mat + mat.conj().swapaxes(-1, -2)) / 2
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "op_norm", op_norm(mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def spectrum(self) -> EighResult:
        """Eigendecomposition by ``_eigh`` on first use, then cached read-only.
        Validation already made a Hermitian observable's matrix exactly
        Hermitian, so its Hermitian part is itself, bit for bit; one with
        ``hermitian=False`` has no spectrum."""
        if self._spectrum is None:
            if not self.hermitian:
                raise ValidationError("observable is not Hermitian; its spectrum needs hermitian=True")
            w, v = _eigh(self.mat)
            w.flags.writeable = v.flags.writeable = False
            object.__setattr__(self, "_spectrum", EighResult(w, v))
        return self._spectrum


def trace_power_obs_oracle(rho: DensityMatrix, o: Observable, k: int) -> complex:
    """Exact Tr(rho^k O) by repeated squaring, for any integer k >= 1: the
    one-state case of ``trace_power_obs_oracles``.

    rho^k takes about log2(k) matrix products and never reads the cached
    spectrum, so the oracle is independent of the eigendecomposition the
    estimation pipeline transforms; the trace against O is O(d^2).
    """
    return trace_power_obs_oracles(rho, o, [k])[0]


def trace_power_obs_oracles(rho: DensityMatrix, o: Observable, ks: list) -> list[complex]:
    """Exact Tr(rho^k O) for each of the R states of ``rho``, with ``ks``
    their R powers and ``o`` one observable or a stack of the same shape as
    ``rho``; ``matrix_power`` runs once per distinct k, on the states that
    have it.
    """
    if rho.dim != o.dim:
        raise ValidationError(f"state dim {rho.dim} does not match observable dim {o.dim}")
    if o.mat.shape[:-2] not in ((), rho.mat.shape[:-2]):
        raise ValidationError(
            f"observable stack {o.mat.shape[:-2]} does not match state stack {rho.mat.shape[:-2]}"
        )
    count = rho.mat[..., 0, 0].size
    if len(ks) != count or not all(isinstance(k, (int, np.integer)) and k >= 1 for k in ks):
        raise ValidationError(f"{count} trace power orders must be integers >= 1, got {ks!r}")
    mats = rho.mat.reshape(count, rho.dim, rho.dim)
    o_t = o.mat.reshape(-1, o.dim, o.dim).swapaxes(-1, -2)  # products in C order: each trace sums row by row
    distinct, out = set(ks), np.empty(count, dtype=complex)
    for k in distinct:
        sel = slice(None) if len(distinct) == 1 else np.equal(ks, k)
        power = np.linalg.matrix_power(mats[sel], int(k))
        out[sel] = np.multiply(power, o_t if len(o_t) == 1 else o_t[sel], order="C").sum(axis=(-2, -1))
    return out.tolist()


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = _eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
