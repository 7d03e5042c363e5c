"""Dense complex linear algebra, quantum-state types, and the exact
ground-truth value of Tr(rho^k O).

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


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a square matrix as {"dim": n, "re": [...], "im": [...]} row-major."""
    arr = as_complex_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError("only square matrices serialize to JSON")
    flat = arr.reshape(-1)
    return {
        "dim": int(arr.shape[0]),
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj["im"], dtype=np.float64)
    if re.size != dim * dim or im.size != dim * dim:
        raise ValidationError("matrix JSON entry count does not match dim*dim")
    return (re + 1j * im).reshape(dim, dim)


class EighResult(NamedTuple):
    """Spectral decomposition H = V diag(w) V^dag, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def kron(a, b) -> np.ndarray:
    """Kronecker product with the global dimension cap enforced."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    out_dim = max(a.shape) * max(b.shape)
    check_dim_within_cap(out_dim, "kron product")
    return np.kron(a, b)


def eigh(h, atol: float = 1e-8) -> EighResult:
    """Eigendecomposition of a Hermitian matrix.

    Raises ValidationError when the input deviates from Hermitian by more
    than ``atol`` in operator norm.
    """
    h = as_complex_matrix(h, "eigh input")
    if h.shape[0] != h.shape[1]:
        raise ValidationError("eigh input must be square")
    defect = np.linalg.norm(h - h.conj().T, 2)
    if defect > atol:
        raise ValidationError(f"eigh input is not Hermitian (defect {defect:.3e})")
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
            return np.einsum("ab,cb->ac", psi, psi.conj())
        return np.einsum("ab,ac->bc", psi, psi.conj())
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
    minimum eigenvalue at least -1e-10.
    """

    mat: np.ndarray
    _spectrum: EighResult | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        mat = as_complex_matrix(self.mat, "density matrix")
        if mat.shape[0] != mat.shape[1]:
            raise ValidationError("density matrix must be square")
        if not _is_power_of_two(mat.shape[0]):
            raise ValidationError(
                f"density matrix dimension {mat.shape[0]} is not a power of two"
            )
        herm_defect = np.linalg.norm(mat - mat.conj().T, 2)
        if herm_defect > HERMITIAN_ATOL:
            raise ValidationError(
                f"density matrix is not Hermitian (defect {herm_defect:.3e})"
            )
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"density matrix trace {tr} is not 1")
        wmin = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
        if wmin < EIG_FLOOR:
            raise ValidationError(
                f"density matrix has negative eigenvalue {wmin:.3e}"
            )
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def qubits(self) -> int:
        return int(math.log2(self.dim))

    def spectrum(self) -> EighResult:
        """Eigendecomposition with tiny negative eigenvalues clipped to 0
        (computed once, then cached as read-only arrays)."""
        if self._spectrum is None:
            w, v = eigh(self.mat)
            w = clip_spectrum(w)
            w.flags.writeable = v.flags.writeable = False
            object.__setattr__(self, "_spectrum", EighResult(w, v))
        return self._spectrum

    def power(self, k: int) -> np.ndarray:
        """rho^k = V diag(w^k) V^dag from the cached spectrum, any integer k >= 0."""
        w, v = self.spectrum()
        return (v * w ** int(k)) @ v.conj().T

    def to_json(self) -> dict:
        return matrix_to_json(self.mat)

    @classmethod
    def from_json(cls, obj: dict) -> "DensityMatrix":
        return cls(matrix_from_json(obj))


@dataclass(frozen=True)
class Observable:
    """Observable with cached operator norm.

    Hermitian by default; pass ``hermitian=False`` to carry a general
    matrix (downstream estimation then needs both the real- and
    imaginary-part circuit settings).
    """

    mat: np.ndarray
    hermitian: bool = True
    op_norm: float = field(init=False)

    def __post_init__(self):
        mat = as_complex_matrix(self.mat, "observable")
        if mat.shape[0] != mat.shape[1]:
            raise ValidationError("observable must be square")
        if not _is_power_of_two(mat.shape[0]):
            raise ValidationError(
                f"observable dimension {mat.shape[0]} is not a power of two"
            )
        if self.hermitian:
            defect = np.linalg.norm(mat - mat.conj().T, 2)
            if defect > HERMITIAN_ATOL:
                raise ValidationError(
                    f"observable flagged Hermitian has defect {defect:.3e}; "
                    "pass hermitian=False for general matrices"
                )
            mat = (mat + mat.conj().T) / 2
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "op_norm", float(np.linalg.norm(mat, 2)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def to_json(self) -> dict:
        out = matrix_to_json(self.mat)
        out["hermitian"] = self.hermitian
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Observable":
        return cls(matrix_from_json(obj), hermitian=bool(obj.get("hermitian", True)))


def trace_power_obs_oracle(rho: DensityMatrix, o: Observable, k: int) -> complex:
    """Exact Tr(rho^k O) through the eigendecomposition of rho.

    The matrix-power route of ``DensityMatrix.power`` (the cached, clipped
    spectrum of rho), contracted against O in the eigenbasis.
    Accepts any integer k >= 1.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"trace power order must be an integer >= 1, got {k!r}")
    if rho.dim != o.dim:
        raise ValidationError(
            f"dimension mismatch: state dim {rho.dim}, observable dim {o.dim}"
        )
    w, v = rho.spectrum()
    diag_o = np.einsum("ij,jk,ki->i", v.conj().T, o.mat, v)
    return complex(np.sum(w ** int(k) * diag_o))


def op_norm(m) -> float:
    """Operator (spectral) norm: largest singular value."""
    return float(np.linalg.norm(as_complex_matrix(m), 2))


def schatten1(m) -> float:
    """Schatten 1-norm (trace norm): sum of singular values."""
    return float(np.linalg.norm(as_complex_matrix(m), "nuc"))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """T(a, b) = (1/2) ||a - b||_1."""
    if a.dim != b.dim:
        raise ValidationError("trace_distance requires matching dimensions")
    return 0.5 * schatten1(a.mat - b.mat)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = eigh(m)
    w = np.clip(clip_spectrum(w), 0.0, None)
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
    w = np.clip(clip_spectrum(eigh(inner, atol=1e-7).eigenvalues), 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)
