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
    """Child seed ``index`` of a master seed: SeedSequence((master, index))'s first word."""
    return int(np.random.SeedSequence((master, index)).generate_state(1)[0])


# A stack of STACK_SEEDS or more seeds runs numpy's SeedSequence hash (bit_generator.pyx; hash
# constant j is init * mult^j mod 2^32) once, as uint64 arrays; below it numpy's own is cheaper.
STACK_SEEDS = 16
INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
INIT_B, MULT_B, XSHIFT, _MASK32 = 0x8B51F9DD, 0x58F38DED, np.uint64(16), np.uint64(2 ** 32 - 1)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_POOL_CONSTS, _STATE_CONSTS = (np.array([[a * pow(m, j, 2 ** 32) % 2 ** 32] for j in range(n)], np.uint64)
                               for a, m, n in ((INIT_A, MULT_A, 17), (INIT_B, MULT_B, 9)))


def _seed_state(masters: list, indices: list, n_words: int) -> np.ndarray | None:
    """``SeedSequence((master, index)).generate_state(n_words)`` of each
    pair, as (n_words, R) words. The entropy row, master's uint32 words then
    index's, hashes as if zero-padded to the 4-word pool. None for a value
    that is not an integer in [0, 2^64), whose row may outgrow the pool;
    numpy's own hash serves those, as it serves stacks below STACK_SEEDS."""
    def hashmix(v, consts):  # numpy's hashmix of row j of v with constants consts[j], consts[j + 1]
        v = (v ^ consts[:-1]) * consts[1:] & _MASK32
        return v ^ v >> XSHIFT

    m, i = np.asarray(masters), np.asarray(indices)
    if not all(a.dtype.kind in "iu" and a.min() >= 0 for a in (m, i)):
        return None
    m, i = m.astype(np.uint64), i.astype(np.uint64)
    m_hi, i_lo, i_hi, wide = m >> np.uint64(32), i & _MASK32, i >> np.uint64(32), m > _MASK32
    pool = hashmix(np.stack([m & _MASK32, np.where(wide, m_hi, i_lo), np.where(wide, i_lo, i_hi),
                             np.where(wide, i_hi, 0)]), _POOL_CONSTS[:5])
    for src in range(4):  # pool word src is read only by the other three's updates: one step
        dst = [j for j in range(4) if j != src]
        mixed = MIX_MULT_L * pool[dst] - MIX_MULT_R * hashmix(pool[src], _POOL_CONSTS[4 + 3 * src:8 + 3 * src])
        mixed &= _MASK32
        pool[dst] = mixed ^ mixed >> XSHIFT
    return hashmix(pool[np.arange(n_words) % 4], _STATE_CONSTS[:n_words + 1])


def derive_seeds(masters: list, indices: list) -> list[int]:
    """``[derive_seed(m, i) for m, i in zip(masters, indices)]``, one array hash where it can."""
    state = _seed_state(masters, indices, 1) if len(masters) >= STACK_SEEDS else None
    return [derive_seed(m, i) for m, i in zip(masters, indices)] if state is None else state[0].tolist()


def generators(seeds: list):
    """Yield per seed a ``Generator`` whose stream is ``default_rng(seed)``'s.
    The entropy (seed) pads as (seed, 0), so ``_seed_state`` hashes a stack;
    each seed's words (seed, seq) go through PCG64's set-seq init, inc =
    2 seq + 1 and state = ((inc + seed) PCG64_MULT + inc) mod 2^128, into one
    shared PCG64 through ``.state``: a stack's generators are one object, so use
    each up before drawing the next. Otherwise it yields ``default_rng(seed)``."""
    words = _seed_state(seeds, [0] * len(seeds), 8) if len(seeds) >= STACK_SEEDS else None
    if words is None:
        yield from map(np.random.default_rng, seeds)
        return
    gen, mask = np.random.Generator(np.random.PCG64(0)), 2 ** 128 - 1
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*(words[0::2] | words[1::2] << np.uint64(32)).tolist()):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & mask
        state = ((inc + (seed_hi << 64 | seed_lo)) * PCG64_MULT + inc) & mask
        gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield gen


def _gaussians(shape: tuple, seeds: list) -> np.ndarray:
    """A complex Gaussian of ``shape`` per seed, its real then imaginary part from ``default_rng(seed)``:
    the streams fill one buffer, combined once as re + 1j im (in place, to the same bits)."""
    parts = np.empty((len(seeds), 2, *shape))
    for part, rng in zip(parts, generators(seeds)):
        rng.standard_normal(out=part)
    return np.add(z := 1j * parts[:, 1], parts[:, 0], out=z)


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


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. "ZI" or "XX"."""
    if not label or any(ch not in _PAULI for ch in label):
        raise ValidationError(f"invalid Pauli string {label!r}")
    check_dim_within_cap(2 ** len(label), "Pauli string")
    out = np.array([[1.0 + 0.0j]])
    for ch in label:
        out = np.kron(out, _PAULI[ch])
    return out


def _state_matrices(spec: InstanceSpec, seeds: list) -> np.ndarray:
    """The unvalidated matrices of ``spec`` under ``seeds``: ``random_mixed`` (G G^dag / Tr,
    G of ``spec.rank`` columns) or ``diagonal`` (seeded weights on the first ``spec.rank``
    basis states, so rank 1 is |0><0| exactly)."""
    if spec.state_kind == "random_mixed":
        return _random_densities(spec.qubits, spec.rank, seeds)
    if spec.state_kind != "diagonal":
        raise ValidationError(f"unknown state kind {spec.state_kind!r}; choose random_mixed or diagonal")
    dim = 2 ** spec.qubits
    check_dim_within_cap(dim, "state")
    if not 1 <= spec.rank <= dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {spec.rank}")
    probs = np.zeros((len(seeds), dim))
    for row, rng in zip(probs, generators(seeds)):
        w = rng.random(spec.rank)
        row[: spec.rank] = w / w.sum()
    return (probs[:, :, None] * np.eye(dim)).astype(complex)


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
