"""Dense complex linear algebra, quantum-state types, and the exact
ground-truth value of Tr(rho^k O).

A ``DensityMatrix`` is diagonalised once, by its validation, and every
later use reads that ``eigh``: purified access to a state is the state
itself, and the swap test's outcome law is read from the spectrum too.
The oracle ``trace_power_obs_oracle`` forms rho^k by repeated squaring
instead, so it shares no eigendecomposition with the estimation pipeline.

Everything is stored as dense ``numpy.complex128``. Composite registers
follow the Kronecker convention of ``numpy.kron``: in ``kron(a, b)`` the
factor ``a`` is the more significant register, so ancilla registers written
to the left of a system register occupy the leading index blocks and the
"ancillas in |0>" subspace is the top-left block of a matrix.

A global qubit cap (default 14) bounds the dimension of any operator the
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

DEFAULT_QUBIT_CAP = 14
_qubit_cap = DEFAULT_QUBIT_CAP


def get_qubit_cap() -> int:
    """Current global qubit cap."""
    return _qubit_cap


def set_qubit_cap(n: int) -> None:
    """Set the global qubit cap (dimension cap is 2**n)."""
    global _qubit_cap
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"qubit cap must be a positive integer, got {n!r}")
    _qubit_cap = int(n)


def check_dim_within_cap(dim: int, what: str = "operator") -> None:
    """Raise ResourceError if a dim x dim operator exceeds the qubit cap."""
    if dim > 2 ** _qubit_cap:
        raise ResourceError(
            f"{what} of dimension {dim} exceeds the qubit cap "
            f"({_qubit_cap} qubits = dimension {2 ** _qubit_cap})"
        )


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _square_operator(m, name: str) -> np.ndarray:
    """Coerce to a finite square complex matrix on a power-of-two dimension."""
    mat = as_complex_matrix(m, name)
    dim = mat.shape[0]
    if dim != mat.shape[1]:
        raise ValidationError(f"{name} must be square")
    if dim < 1 or dim & (dim - 1):
        raise ValidationError(f"{name} dimension {dim} is not a power of two")
    return mat


class EighResult(NamedTuple):
    """Spectral decomposition H = V diag(w) V^dag (``eigh`` sorts w ascending)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def kron(a, b) -> np.ndarray:
    """Kronecker product with the global dimension cap enforced."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    out_dim = max(a.shape) * max(b.shape)
    check_dim_within_cap(out_dim, "kron product")
    return np.kron(a, b)


def op_norm(m) -> float:
    """Operator (spectral) norm of a finite matrix: its largest singular
    value, the same float as ``np.linalg.norm(m, 2)``, one SVD."""
    return float(np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)[0])


def _check_hermitian(m: np.ndarray, atol: float, what: str, hint: str = "") -> None:
    """Raise ValidationError if ||m - m^dag|| > atol in operator norm. The
    Frobenius norm bounds it, so an SVD runs only when that exceeds atol."""
    diff = m - m.conj().T
    if np.linalg.norm(diff) > atol:
        defect = op_norm(diff)
        if defect > atol:
            raise ValidationError(f"{what} is not Hermitian (defect {defect:.3e}){hint}")


def eigh(h, atol: float = 1e-8, what: str = "eigh input") -> EighResult:
    """Eigendecomposition of a Hermitian matrix.

    Raises ValidationError when the input deviates from Hermitian by more
    than ``atol`` in operator norm; ``what`` names the input in the error.
    """
    h = as_complex_matrix(h, what)
    if h.shape[0] != h.shape[1]:
        raise ValidationError(f"{what} must be square")
    _check_hermitian(h, atol, what)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return EighResult(w, v)


def clip_spectrum(w: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Zero out tiny negative eigenvalues in [floor, 0) produced by solvers."""
    w = np.asarray(w, dtype=np.float64).copy()
    mask = (w < 0) & (w >= floor)
    w[mask] = 0.0
    return w


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
    mat = as_complex_matrix(arr, "partial_trace input")
    if mat.shape != (da * db, da * db):
        raise ValidationError(
            f"matrix of shape {mat.shape} inconsistent with dims {dims}"
        )
    t = mat.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    return np.einsum("abad->bd", t)


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite, unit-trace matrix on a power-of-two dimension.

    Validation tolerances: Hermiticity defect and |Tr - 1| at most 1e-10,
    minimum eigenvalue at least -1e-10. The matrix is coerced once, checked
    Hermitian once and decomposed once; that ``eigh`` is what ``spectrum``
    returns.
    """

    mat: np.ndarray
    _spectrum: EighResult = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _square_operator(self.mat, "density matrix")
        _check_hermitian(mat, HERMITIAN_ATOL, "density matrix")
        w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"density matrix trace {tr} is not 1")
        if w[0] < EIG_FLOOR:
            raise ValidationError(
                f"density matrix has negative eigenvalue {w[0]:.3e}"
            )
        w = clip_spectrum(w)
        w.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_spectrum", EighResult(w, v))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

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
    imaginary-part circuit settings).
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
            mat = (mat + mat.conj().T) / 2
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "op_norm", op_norm(mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def spectrum(self) -> EighResult:
        """Eigendecomposition by ``eigh`` on first use, then cached read-only."""
        if self._spectrum is None:
            w, v = eigh(self.mat)
            w.flags.writeable = v.flags.writeable = False
            object.__setattr__(self, "_spectrum", EighResult(w, v))
        return self._spectrum


def trace_power_obs_oracle(rho: DensityMatrix, o: Observable, k: int) -> complex:
    """Exact Tr(rho^k O) by repeated squaring.

    rho^k takes about log2(k) matrix products and never reads the cached
    spectrum, so the oracle is independent of the eigendecomposition the
    estimation pipeline transforms; the trace against O is O(d^2).
    Accepts any integer k >= 1.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"trace power order must be an integer >= 1, got {k!r}")
    if rho.dim != o.dim:
        raise ValidationError(
            f"dimension mismatch: state dim {rho.dim}, observable dim {o.dim}"
        )
    power = np.linalg.matrix_power(rho.mat, int(k))
    return complex(np.sum(power * o.mat.T))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    Square roots are taken through eigendecompositions with negative
    eigenvalue clipping, the same route used for matrix powers.
    """
    if a.dim != b.dim:
        raise ValidationError("fidelity requires matching dimensions")
    ra = _psd_sqrt(a.mat)
    inner = ra @ b.mat @ ra
    w = np.clip(eigh(inner, atol=1e-7).eigenvalues, 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)
