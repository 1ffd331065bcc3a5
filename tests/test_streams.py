import numpy as np

from levylab import substream, substream_seed


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
