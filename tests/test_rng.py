import numpy as np

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
