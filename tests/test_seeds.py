"""Stacked seeds: ``derive_seeds`` and ``generators`` against numpy.

A stack of at least ``STACK_SEEDS`` seeds runs numpy's SeedSequence hash
once as arrays and sets PCG64's state directly; every seed must still give
the ``SeedSequence`` word and the ``default_rng`` stream bit for bit.
"""

import numpy as np
import pytest

from powertrace.instances import STACK_SEEDS, _gaussians, derive_seeds, generators

MASTERS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 100]  # the last is above 64 bits: numpy's path
SIZES = [STACK_SEEDS - 1, STACK_SEEDS, 200]


def _indices(size: int) -> list[int]:
    """``size`` indices, three of them at and above 2^32."""
    return [7919 * j for j in range(size - 3)] + [2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5]


def _stream(rng) -> np.ndarray:
    return np.concatenate([rng.random(64), rng.standard_normal(8)])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("master", MASTERS)
def test_derive_seeds_equal_seed_sequence(master, size):
    indices = _indices(size)
    expected = [int(np.random.SeedSequence((master, i)).generate_state(1)[0]) for i in indices]
    assert derive_seeds([master] * size, indices) == expected


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("master", MASTERS)
def test_generators_equal_default_rng(master, size):
    seeds = [master ^ i for i in _indices(size)]
    streams = [_stream(rng) for rng in generators(seeds)]
    assert len(streams) == size
    for seed, stream in zip(seeds, streams):
        assert np.array_equal(stream, _stream(np.random.default_rng(seed)))


def test_a_stack_is_hashed_as_arrays_and_a_small_one_by_numpy(monkeypatch):
    """The array path calls neither numpy entry point; below STACK_SEEDS,
    or with a value above 64 bits, numpy's own runs once per seed."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.random, "SeedSequence", counting(np.random.SeedSequence))
    monkeypatch.setattr(np.random, "default_rng", counting(np.random.default_rng))
    seeds = list(range(STACK_SEEDS))
    derive_seeds([3] * STACK_SEEDS, seeds)
    [rng.random() for rng in generators(seeds)]
    assert calls == []
    derive_seeds([3] * (STACK_SEEDS - 1), seeds[1:])
    [rng.random() for rng in generators(seeds[1:])]
    assert len(calls) == 2 * (STACK_SEEDS - 1)
    calls.clear()
    derive_seeds([2 ** 64] + [3] * (STACK_SEEDS - 1), seeds)
    assert len(calls) == STACK_SEEDS


@pytest.mark.parametrize("bad", [-1, 1.5])
def test_a_seed_numpy_refuses_is_refused_in_a_stack(bad):
    with pytest.raises((ValueError, TypeError)):
        derive_seeds([bad] * STACK_SEEDS, list(range(STACK_SEEDS)))
    with pytest.raises((ValueError, TypeError)):
        next(generators([bad] * STACK_SEEDS))


@pytest.mark.parametrize("size", [1, *SIZES])
@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3, 5)])
def test_gaussians_are_the_per_record_draws(shape, size):
    """One buffer per stack holds the bits of each seed's two draws, combined per record."""
    seeds = [2 ** 40 + 17 * j for j in range(size)]
    expected = np.stack([rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                         for rng in map(np.random.default_rng, seeds)])
    got = _gaussians(shape, seeds)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
