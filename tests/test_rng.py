import numpy as np
import pytest

from volterrasim.rng import normal_matrix, path_keys

SEEDS = (0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 3)
STREAMS = (0, 1, 202, 2**33 + 1)


def seed_sequence(seed, stream, path):
    return np.random.SeedSequence(entropy=seed, spawn_key=(stream, path))


def path_rng(seed, stream, path):
    """Oracle: numpy's generator for one (stream, path) pair of a run."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, stream,
                                                              path)))


def oracle_matrix(seed, stream, n_rows, n_paths, path_offset=0):
    """The draws one generator per path gives, path p in column p."""
    out = np.empty((n_rows, n_paths))
    for p in range(n_paths):
        out[:, p] = path_rng(seed, stream,
                             path_offset + p).standard_normal(n_rows)
    return out


class TestPathKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream", STREAMS)
    def test_match_seed_sequence(self, seed, stream):
        # paths 0-4999, derived in pieces that start at several offsets
        cuts = (0, 1, 64, 65, 1000, 4999, 5000)
        keys = np.vstack([path_keys(seed, stream, lo, hi - lo)
                          for lo, hi in zip(cuts[:-1], cuts[1:])])
        expected = np.array([seed_sequence(seed, stream, p)
                             .generate_state(2, np.uint64)
                             for p in range(5000)])
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, expected)

    @pytest.mark.parametrize("start", [2**32 - 3, 2**64 - 3, 2**96 - 3])
    def test_across_a_word_boundary(self, start):
        # the path index gains a 32-bit word inside the call
        for seed in SEEDS:
            keys = path_keys(seed, 202, start, 6)
            expected = [seed_sequence(seed, 202, start + p)
                        .generate_state(2, np.uint64) for p in range(6)]
            assert np.array_equal(keys, expected)

    def test_empty(self):
        assert path_keys(3, 1, 10, 0).shape == (0, 2)


class TestNormalMatrix:
    @pytest.mark.parametrize("n_paths", [1, 3, 64])
    @pytest.mark.parametrize("offset", [0, 5, 130])
    def test_matches_one_generator_per_path(self, n_paths, offset):
        for seed, stream in ((4, 0), (2**32 + 5, 2**33 + 1)):
            Z = normal_matrix(seed, stream, 37, n_paths, offset)
            assert Z.shape == (37, n_paths)
            assert np.array_equal(
                Z, oracle_matrix(seed, stream, 37, n_paths, offset))

    def test_paths_are_contiguous(self):
        Z = normal_matrix(1, 2, 50, 8)
        assert Z.T.flags.c_contiguous

    def test_block_split_does_not_matter(self):
        whole = normal_matrix(9, 3, 20, 70, 11)
        parts = np.hstack([normal_matrix(9, 3, 20, n, 11 + lo)
                           for lo, n in ((0, 1), (1, 3), (4, 64), (68, 2))])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("seed, stream, offset", [
        (-1, 0, 0), (1, -1, 0), (1, 0, -2)])
    def test_negative_value_raises(self, seed, stream, offset):
        with pytest.raises(ValueError, match="non-negative"):
            normal_matrix(seed, stream, 4, 3, offset)
