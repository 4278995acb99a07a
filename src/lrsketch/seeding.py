"""Deterministic RNG derivation.

All randomness in the package flows through numpy's SeedSequence / PCG64.
A master integer seed plus a small integer path (a "stream address")
identifies every random draw, so reruns with the same seed reproduce
results bit-for-bit and independent streams never collide.
"""

from __future__ import annotations

import functools

import numpy as np


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for `seed` at derivation path `path` (non-negative ints)."""
    return np.random.SeedSequence(seed, spawn_key=tuple(path))


def rng_from(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator seeded from `seed` at derivation path `path`."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *path)))


@functools.lru_cache(maxsize=256, typed=True)
def derived_seed(seed: int, *path: int) -> int:
    """Collapse a derivation path into a single reusable integer seed.

    Memoized: the result is a pure function of its arguments and an immutable
    int, and the cells of a sweep derive the same trial seeds again. Generators
    and SeedSequences are stateful, so rng_from and seed_sequence are not.
    """
    return int(seed_sequence(seed, *path).generate_state(1, np.uint64)[0])
