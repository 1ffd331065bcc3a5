"""Counter-based RNG streams.

Every stochastic routine in levylab draws from a Philox generator keyed by a
master seed plus an integer path (sample index, stratum index, ...).  Streams
are therefore independent of execution order and worker count: sample i of an
ensemble is the same bit pattern whether it is produced by worker 0 of 1 or
worker 3 of 8.
"""

from __future__ import annotations

import numpy as np


def _seed_sequence(master_seed: int, path) -> np.random.SeedSequence:
    """SeedSequence for (master seed, index path).  The path length is folded
    into the entropy because SeedSequence pads short entropy lists with zeros,
    which would alias (i,) with (i, 0)."""
    if master_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed and path entries must be non-negative")
    return np.random.SeedSequence(
        entropy=[int(master_seed), len(path), *map(int, path)])


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for a given (master seed, index path).

    The same arguments always yield an identical stream; distinct paths yield
    statistically independent streams (SeedSequence hashing).
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(master_seed, path)))


def substream_seed(master_seed: int, *path: int) -> int:
    """Derive a 63-bit child seed for nested runs (same entropy as substream)."""
    state = _seed_sequence(master_seed, path).generate_state(1, dtype=np.uint64)
    return int(state[0] >> 1)
