"""Counter-based RNG streams.

Every stochastic routine in levylab draws from a Philox generator keyed by a
master seed plus an integer path (sample index, stratum index, ...).  Streams
are therefore independent of execution order and worker count: sample i of an
ensemble is the same bit pattern whether it is produced by worker 0 of 1 or
worker 3 of 8.

The key of (master seed, path) is numpy's SeedSequence hash of the entropy
[master seed, len(path), *path] (the length is folded in because the hash pads
short entropy with zeros, which would alias (i,) with (i, 0)).  _seed_hash
reproduces that hash on uint32 arrays, vectorized over the last path entry
(the other words stay Python integers), so the keys of KEYS_PER_BLOCK
consecutive last entries cost about as much as one; a small cache keeps the
latest blocks.  The Philox generator takes its key from a _PhiloxKey holder,
so no SeedSequence is built per stream.  numpy.random loads with the first
stream, not with this module.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

KEYS_PER_BLOCK = 1024  # divides 2**32, so a block's indices share their high words

_MASK = 0xFFFFFFFF
# numpy's SeedSequence constants (pool of 4 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list:
    """n as little-endian uint32 words, [0] for 0: how SeedSequence splits an
    entropy integer."""
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _wrap(x):
    """x modulo 2^32: a Python integer is reduced, a uint32 array wraps itself."""
    return x & _MASK if isinstance(x, int) else x


def _seed_hash(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4) for each row, the 4 uint32
    words of a Philox key.

    entropy: per word a Python integer below 2^32, the same in every row, or
    a uint32 array of the rows' values; returns the states as a shape + (4,)
    uint32 array, shape that of the arrays (() without one).  A word stays a
    Python integer until the hash mixes it with an array, so only the mixing
    that differs between rows costs array operations; the arrays wrap modulo
    2^32 without a warning.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK
        value = _wrap(value * h)
        return value ^ (value >> 16)

    def mix(x, y):
        out = _wrap(_wrap(x * _MIX_MULT_L) - _wrap(y * _MIX_MULT_R))
        return out ^ (out >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    shape = next((w.shape for w in entropy if not isinstance(w, int)), ())
    state = np.empty(shape + (_POOL_SIZE,), dtype=np.uint32)
    for i, value in enumerate(pool):
        value = value ^ h
        h = h * _MULT_B & _MASK
        value = _wrap(value * h)
        state[..., i] = value ^ (value >> 16)
    return state


def _philox_keys(entropy: list) -> np.ndarray:
    """The Philox keys, shape + (2,) uint64, of the rows of _seed_hash(entropy):
    generate_state(2, uint64), which pairs the words little-endian."""
    return _seed_hash(entropy).astype("<u4", copy=False).view("<u8").astype(np.uint64)


@lru_cache(maxsize=4)
def _key_block(master_seed: int, head: tuple, block: int) -> np.ndarray:
    """Philox keys, shape (KEYS_PER_BLOCK, 2) uint64 and read-only, of the
    paths head + (i,) for i in block * KEYS_PER_BLOCK + arange(KEYS_PER_BLOCK):
    SeedSequence([master_seed, len(head) + 1, *head, i]).generate_state(2,
    uint64) row by row."""
    first = block * KEYS_PER_BLOCK
    low = np.arange(first & _MASK, (first & _MASK) + KEYS_PER_BLOCK, dtype=np.uint32)
    keys = _philox_keys([*_words(master_seed), *_words(len(head) + 1),
                         *(w for p in head for w in _words(p)), low, *_words(first)[1:]])
    keys.setflags(write=False)
    return keys


def _key(master_seed: int, path: tuple) -> np.ndarray:
    """The (2,) uint64 Philox key of (master seed, path)."""
    master_seed, path = int(master_seed), tuple(map(int, path))
    if master_seed < 0 or min(path, default=0) < 0:
        raise ValueError("seed and path entries must be non-negative")
    if not path:
        return _philox_keys([*_words(master_seed), 0])
    last = path[-1]
    return _key_block(master_seed, path[:-1], last // KEYS_PER_BLOCK)[last % KEYS_PER_BLOCK]


class _PhiloxKey:
    """A precomputed Philox key in the role of Philox's seed sequence: Philox
    asks it for exactly generate_state(2, np.uint64).  Registered as a
    numpy ISeedSequence when the first stream is made (_philox)."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (2, np.uint64):
            raise ValueError("a Philox key holder hands out only its two uint64 words")
        return self.key


@cache
def _philox():
    from numpy.random.bit_generator import ISeedSequence  # loads numpy.random

    ISeedSequence.register(_PhiloxKey)
    return np.random.Philox


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return a new generator for a given (master seed, index path).

    The same arguments always yield an identical stream, the one
    Philox(SeedSequence([master_seed, len(path), *path])) draws; distinct
    paths yield statistically independent streams.
    """
    return np.random.Generator(_philox()(_PhiloxKey(_key(master_seed, path))))


def substream_seed(master_seed: int, *path: int) -> int:
    """Derive a 63-bit child seed for nested runs: the first 64 bits of the
    hash substream keys its generator with, shifted right by one."""
    return int(_key(master_seed, path)[0] >> 1)
