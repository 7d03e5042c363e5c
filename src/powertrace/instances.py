"""Seeded generation of problem instances for experiments and tests."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import DensityMatrix, Observable, check_dim_within_cap, op_norm

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
        return dict(vars(self))


def derive_seed(master: int, index: int) -> int:
    """Child seed number ``index`` of a master seed, via SeedSequence."""
    return int(np.random.SeedSequence((master, index)).generate_state(1)[0])


def _gaussians(shape: tuple, seeds: list) -> np.ndarray:
    """A complex Gaussian of ``shape`` per seed, each from its own
    ``default_rng(seed)``, stacked."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return np.stack(out)


def _random_densities(qubits: int, rank: int, seeds: list) -> np.ndarray:
    """The stack of G G^dag / Tr(G G^dag), G complex Gaussian of shape
    (2^qubits, rank), one per seed."""
    dim = 2 ** qubits
    check_dim_within_cap(dim, "random state")
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {rank}")
    g = _gaussians((dim, rank), seeds)
    m = g @ g.conj().swapaxes(-1, -2)
    del g  # built in place from here: m and one transpose temporary
    m += m.conj().swapaxes(-1, -2)
    m /= 2
    m /= m.trace(axis1=-2, axis2=-1).real[..., None, None]
    return m


def random_density(qubits: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random state G G^dag / Tr(G G^dag) with G complex Gaussian
    of shape (2^qubits, rank)."""
    return DensityMatrix(_random_densities(qubits, rank, [seed])[0])


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


def _state_matrices(spec: InstanceSpec, seeds: list) -> np.ndarray:
    """The stack of the unvalidated matrices of ``spec`` under ``seeds``."""
    kind = spec.state_kind
    if kind in ("random_mixed", "pure"):
        return _random_densities(spec.qubits, spec.rank if kind == "random_mixed" else 1, seeds)
    dim = 2 ** spec.qubits
    check_dim_within_cap(dim, "state")
    if kind == "diagonal":
        if not 1 <= spec.rank <= dim:
            raise ValidationError(f"rank must lie in [1, {dim}], got {spec.rank}")
        probs = np.zeros((len(seeds), dim))
        for row, seed in zip(probs, seeds):
            w = np.random.default_rng(seed).random(spec.rank)
            row[: spec.rank] = w / w.sum()
        return (probs[:, :, None] * np.eye(dim)).astype(complex)
    if kind.startswith("named:"):
        name = kind.split(":", 1)[1]
        if name == "rho0":
            m = np.zeros((dim, dim), dtype=complex)
            m[0, 0] = 1.0
        elif name == "max_mixed":
            m = np.eye(dim, dtype=complex) / dim
        elif name.startswith("rho1_"):
            # one-qubit (1-e)|0><0| + e|1><1|, e encoded after the underscore
            eps_prime = float(name.split("_", 1)[1])
            if spec.qubits != 1:
                raise ValidationError("rho1_* states are one-qubit")
            m = np.diag([1 - eps_prime, eps_prime]).astype(complex)
        else:
            raise ValidationError(f"unknown named state {name!r}")
        return np.stack([m] * len(seeds))  # seed-independent
    raise ValidationError(f"unknown state kind {kind!r}")


def make_state(spec: InstanceSpec) -> DensityMatrix:
    return DensityMatrix(_state_matrices(spec, [spec.seed])[0])


def make_states(spec: InstanceSpec, seeds: list) -> DensityMatrix:
    """The stack of the states of ``spec`` under each of ``seeds``, validated
    once as a stack."""
    return DensityMatrix(_state_matrices(spec, seeds))


def _random_hermitians(qubits: int, seeds: list) -> np.ndarray:
    """The stack of Hermitian parts of complex Gaussians, seeded seed + 1,
    each scaled to operator norm 1."""
    dim = 2 ** qubits
    check_dim_within_cap(dim, "random observable")
    g = _gaussians((dim, dim), [seed + 1 for seed in seeds])
    h = (g + g.conj().swapaxes(-1, -2)) / 2
    return h / np.asarray(op_norm(h))[..., None, None]


def make_observable(spec: InstanceSpec) -> Observable:
    """The observable of ``spec``. A seeded ``random_hermitian`` is built
    fresh; every other kind depends only on (kind, qubits) and is the one
    read-only ``shared_observable``."""
    if spec.observable_kind == "random_hermitian":
        return Observable(_random_hermitians(spec.qubits, [spec.seed])[0])
    return shared_observable(spec.observable_kind, spec.qubits)


def make_observables(spec: InstanceSpec, seeds: list) -> Observable:
    """The stack of the ``random_hermitian`` observables of ``spec`` under
    each of ``seeds``; for any other kind, its one ``shared_observable``."""
    if spec.observable_kind == "random_hermitian":
        return Observable(_random_hermitians(spec.qubits, seeds))
    return make_observable(spec)


@functools.cache
def shared_observable(kind: str, qubits: int) -> Observable:
    """The seed-independent observable ``kind`` ("identity", "projector" or
    "pauli:<label>") on ``qubits`` qubits, built once and shared read-only."""
    dim = 2 ** qubits
    check_dim_within_cap(dim, "observable")
    if kind == "projector":
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
    elif kind == "identity":
        mat = np.eye(dim, dtype=complex)
    elif kind.startswith("pauli:"):
        label = kind.split(":", 1)[1]
        if len(label) != qubits:
            raise ValidationError(f"Pauli string {label!r} does not match {qubits} qubits")
        mat = pauli_string(label)
    else:
        raise ValidationError(f"unknown observable kind {kind!r}")
    obs = Observable(mat)
    obs.mat.flags.writeable = False
    return obs
