import numpy as np
import pytest

from consensuslab.rng import StreamPool, philox_key, substream


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
    np.testing.assert_array_equal(StreamPool(11).at(*path).random(6), expect)


def test_path_longer_than_three_rejected():
    with pytest.raises(ValueError):
        substream(philox_key(0), 1, 2, 3, 4)
    with pytest.raises(ValueError):
        StreamPool(0).at(1, 2, 3, 4)

