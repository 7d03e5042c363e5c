"""Seeded generation of problem instances for experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ValidationError
from .linalg import DensityMatrix, Observable

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class InstanceSpec:
    """Flat description of one experiment instance; fully seed-determined."""

    qubits: int
    rank: int
    seed: int
    state_kind: str = "random_mixed"
    observable_kind: str = "random_hermitian"
    k: int = 2
    eps: float = 0.05

    def to_json(self) -> dict:
        return asdict(self)


def derive_seed(master: int, index: int) -> int:
    """Child seed number ``index`` of a master seed, via SeedSequence."""
    return int(np.random.SeedSequence((master, index)).generate_state(1)[0])


def random_density(qubits: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random state G G^dag / Tr(G G^dag) with G complex Gaussian
    of shape (2^qubits, rank)."""
    dim = 2 ** qubits
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return DensityMatrix(m / np.trace(m).real)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. "ZI" or "XX"."""
    if not label or any(ch not in _PAULI for ch in label):
        raise ValidationError(f"invalid Pauli string {label!r}")
    out = np.array([[1.0 + 0.0j]])
    for ch in label:
        out = np.kron(out, _PAULI[ch])
    return out


def make_state(spec: InstanceSpec) -> DensityMatrix:
    dim = 2 ** spec.qubits
    kind = spec.state_kind
    if kind == "random_mixed":
        return random_density(spec.qubits, spec.rank, spec.seed)
    if kind == "pure":
        return random_density(spec.qubits, 1, spec.seed)
    if kind == "diagonal":
        rng = np.random.default_rng(spec.seed)
        w = rng.random(spec.rank)
        probs = np.zeros(dim)
        probs[: spec.rank] = w / w.sum()
        return DensityMatrix(np.diag(probs).astype(complex))
    if kind.startswith("named:"):
        name = kind.split(":", 1)[1]
        if name == "rho0":
            m = np.zeros((dim, dim), dtype=complex)
            m[0, 0] = 1.0
            return DensityMatrix(m)
        if name == "max_mixed":
            return DensityMatrix(np.eye(dim, dtype=complex) / dim)
        if name.startswith("rho1_"):
            # one-qubit (1-e)|0><0| + e|1><1|, e encoded after the underscore
            eps_prime = float(name.split("_", 1)[1])
            if spec.qubits != 1:
                raise ValidationError("rho1_* states are one-qubit")
            return DensityMatrix(np.diag([1 - eps_prime, eps_prime]).astype(complex))
        raise ValidationError(f"unknown named state {name!r}")
    raise ValidationError(f"unknown state kind {kind!r}")


def make_observable(spec: InstanceSpec) -> Observable:
    dim = 2 ** spec.qubits
    kind = spec.observable_kind
    if kind == "random_hermitian":
        rng = np.random.default_rng(spec.seed + 1)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        return Observable(h / np.linalg.norm(h, 2))
    if kind == "projector":
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
        return Observable(m)
    if kind == "identity":
        return Observable(np.eye(dim, dtype=complex))
    if kind.startswith("pauli:"):
        label = kind.split(":", 1)[1]
        if len(label) != spec.qubits:
            raise ValidationError(
                f"Pauli string {label!r} does not match {spec.qubits} qubits"
            )
        return Observable(pauli_string(label))
    raise ValidationError(f"unknown observable kind {kind!r}")
