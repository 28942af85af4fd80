"""Reproducible random-number streams.

Every stochastic routine in this package derives its generator from a
64-bit master seed plus a structured integer key (purpose tag, replica
index, block index, ...) via ``numpy.random.SeedSequence`` spawn keys.
A stream is therefore a pure function of ``(seed, key)`` and results do
not depend on execution order or worker count.
"""

from __future__ import annotations

import numpy as np

# Purpose tags used as the first spawn-key component.  Fixed constants:
# changing them changes every derived stream.
STREAM_ENV = 1
STREAM_PATH = 2
STREAM_SPLIT = 4
STREAM_GAMMA_W = 5
STREAM_SEED_DERIVE = 6


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))


def derive_seed(seed: int, *key: int) -> int:
    """A u64 sub-seed derived from (seed, key), for seeding nested runs."""
    state = np.random.SeedSequence(int(seed), spawn_key=(STREAM_SEED_DERIVE, *map(int, key))).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)
