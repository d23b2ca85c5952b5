import numpy as np
import pytest

from consensuslab.rng import StreamPool, philox4x64, philox_key, substream, uniform_lanes


def test_pool_matches_substream_after_32_bit_draws():
    # a 32-bit draw leaves half of a 64-bit word buffered; re-seating must
    # drop it, or the next seat starts with a word of the previous one
    pool = StreamPool(7)
    key = philox_key(7)
    for path in ((1, 2, 3), (1, 2, 4), (5, 0, 9)):
        gen, ref = pool.at(*path), substream(key, *path)
        np.testing.assert_array_equal(gen.integers(0, 5, 3), ref.integers(0, 5, 3))
        np.testing.assert_array_equal(gen.random(2), ref.random(2))


@pytest.mark.parametrize("path", [(4, 1, 17), (1, 2**40 + 3, 0), (3, 5), (6,)])
def test_path_fills_high_counter_words_first(path):
    # the layout written out by hand: path (a, b, c) is counter [0, c, b, a]
    key = philox_key(11)
    a, b, c = (*path, 0, 0)[:3]
    ref = np.random.Generator(np.random.Philox(key=key, counter=[0, c, b, a]))
    expect = ref.random(6)
    np.testing.assert_array_equal(substream(key, *path).random(6), expect)
    np.testing.assert_array_equal(StreamPool(key).at(*path).random(6), expect)


def test_path_longer_than_three_rejected():
    with pytest.raises(ValueError):
        substream(philox_key(0), 1, 2, 3, 4)
    with pytest.raises(ValueError):
        StreamPool(0).at(1, 2, 3, 4)


def test_kernel_matches_numpy_philox_blocks():
    # numpy advances word 0 of the counter, then emits the block at it
    rng = np.random.default_rng(2024)
    keys = rng.integers(0, 2**64, (40, 2), dtype=np.uint64, endpoint=False)
    counters = rng.integers(0, 2**64, (40, 4), dtype=np.uint64, endpoint=False)
    counters[:, 0] >>= np.uint64(2)  # room for three blocks without a carry
    for key, counter in zip(keys, counters):
        raw = np.random.Philox(key=key, counter=counter).random_raw(12).reshape(3, 4)
        blocks = counter + np.array([[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]], dtype=np.uint64)
        np.testing.assert_array_equal(philox4x64(blocks, key), raw)
    # broadcast: every counter under every key in one call
    grid = philox4x64(counters[:, None, :], keys[None, :, :])
    assert grid.shape == (40, 40, 4)
    for i, j in ((0, 0), (7, 3), (39, 21)):
        np.testing.assert_array_equal(grid[i, j], philox4x64(counters[i], keys[j]))


@pytest.mark.parametrize("count", [1, 4, 25, 81])
def test_uniform_lanes_match_substream(count):
    keys = np.array([philox_key(s) for s in range(64)])
    paths = [(1, 0, t) for t in range(1, 65)]
    U = uniform_lanes(keys, paths, count, -0.25, 0.25)
    assert U.shape == (64, 64, count)
    for r in range(0, 64, 9):
        for s, path in enumerate(paths):
            np.testing.assert_array_equal(U[s, r], substream(keys[r], *path).uniform(-0.25, 0.25, count))
    # short paths fill the high counter words first, as in substream
    short = uniform_lanes(keys[:2], [(6,), (2, 2**40 + 3)], count, 0.0, 1.0)
    np.testing.assert_array_equal(short[1, 1], substream(keys[1], 2, 2**40 + 3).random(count))
    np.testing.assert_array_equal(short[0, 0], substream(keys[0], 6).random(count))
