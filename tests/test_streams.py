import numpy as np
import pytest

from levylab import streams, substream, substream_seed


def test_substream_deterministic():
    a = substream(42, 1, 2).standard_normal(8)
    b = substream(42, 1, 2).standard_normal(8)
    assert np.array_equal(a, b)


PATHS = [(0,), (1,), (0, 0), (0, 1), (1, 0)]


def test_substream_path_separation():
    draws = {
        path: tuple(substream(42, *path).standard_normal(4))
        for path in PATHS
    }
    vals = list(draws.values())
    assert len(set(vals)) == len(vals)


def test_substream_seed_path_separation():
    # (), (0,), (0, 0) and (0, 0, 0) alias under zero-padded entropy
    seeds = [substream_seed(42, *path) for path in [(), *PATHS, (0, 0, 0)]]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2**63 for s in seeds)


def test_substream_master_seed_separation():
    a = substream(1, 5).standard_normal(4)
    b = substream(2, 5).standard_normal(4)
    assert not np.array_equal(a, b)


# numpy's SeedSequence is the reference for the seed hash: entropy
# [seed, len(path), *path], each entry split into uint32 words
SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1]
INDICES = [0, 1023, 1024, 2**32 - 1]
HASH_PATHS = [()] + [(i,) for i in INDICES] + [(j, i) for j in (0, 7, 2**32) for i in INDICES]


def reference_generator(seed, path):
    ss = np.random.SeedSequence([seed, len(path), *path])
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_hash_matches_seed_sequence(seed):
    for path in HASH_PATHS:
        ss = np.random.SeedSequence([seed, len(path), *path])
        assert substream_seed(seed, *path) == int(ss.generate_state(1, np.uint64)[0] >> 1)
        draws = substream(seed, *path).integers(0, 2**63, 4)
        assert np.array_equal(draws, reference_generator(seed, path).integers(0, 2**63, 4))


def test_seed_hash_keys_a_whole_block_at_once():
    # every index of the first block, and the first index of the next
    seed = 2**63 - 1
    keys = [streams._key(seed, (3, i)) for i in range(streams.KEYS_PER_BLOCK + 1)]
    ref = [np.random.SeedSequence([seed, 2, 3, i]).generate_state(2, np.uint64)
           for i in range(streams.KEYS_PER_BLOCK + 1)]
    assert np.array_equal(keys, ref)


def test_substream_calls_are_independent_generators():
    a, b = substream(42, 5), substream(42, 5)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.standard_normal(6)
    assert np.array_equal(first, b.standard_normal(6))  # b is not advanced by a
    assert not np.array_equal(a.standard_normal(6), first)


@pytest.mark.parametrize("args", [(-1,), (1, -1), (1, 2, -1), (-5, 3)])
def test_negative_seed_or_path_raises(args):
    with pytest.raises(ValueError, match="non-negative"):
        substream(*args)
    with pytest.raises(ValueError, match="non-negative"):
        substream_seed(*args)
