"""Counter-based random substreams.

Every random quantity in the library is drawn from a Philox stream
addressed by a root seed plus a short integer path (tag, replica, time,
...).  Distinct paths map to disjoint counter ranges of the same keyed
Philox sequence, so any draw can be reproduced in isolation regardless
of execution order: Monte Carlo replicas, topology blocks, and rounds
are independently re-derivable.

The stream layout, by engine (R is the number of Monte Carlo replicas
or MANET runs advanced together; `replica` is the sampler's index, 0
unless set):

- edge noise, `dynamics.EdgeNoiseSampler`: path (TAG_EDGE_NOISE,
  replica, t).  An (n, n) draw per step for single runs and an
  (n, n, R) draw for batches of uniform noise; an (n, R) draw of
  standard normals, the aggregates themselves, for batches of i.i.d.
  Gaussian noise.
- innovations of moving-average and martingale-difference noise: path
  (TAG_INNOVATION, replica, s), an (n, n) draw, or (n, n, R) in a
  batch, per innovation time s.
- random-block topologies, `topology.RandomBlockProcess`: path
  (TAG_TOPOLOGY_BLOCK, block) under the process's own seed, one uniform
  for connectivity, then a permutation of n when the block connects.
- MANET rounds, `manet`: path (TAG_MANET_ROUND, 0, l) for a single run
  and (TAG_MANET_ROUND, 1, l) for a batch of R runs (R = 1 for the
  single run); one uniform per unordered node pair (R, n(n-1)/2), in
  `np.triu_indices(n, 1)` order, quantization noise (R, n), then
  standard normals (R, n), one per receiver, in that order.
- random-block Monte Carlo gives replica r its own process and noise
  seeds, derived by `SeedSequence(seed, spawn_key=(TAG_REPLICA, r))`.
  Replica r draws exactly what a single run with those seeds draws; the
  replicas are only evaluated together.

The same config and seed give the same bytes within one version; each
change of this layout is named in CHANGES.md.

Philox4x64-10 is a pure function of (counter, key) (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  numpy's Philox
increments word 0 of the counter before it computes each block, so the
draws of path (a, b, c) are the words of blocks [k, c, b, a], k = 1, 2,
....  `philox4x64` evaluates those blocks for whole arrays of counters
and keys, and `uniform_lanes` turns them into the doubles numpy's
`Generator.uniform` would draw: the same bytes for many keys and paths
in one call, with the stream layout above unchanged.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags.  Path layout is (tag, a, b); the low counter word is left
# free for in-stream advancement.
TAG_EDGE_NOISE = 1
TAG_INNOVATION = 2
TAG_TOPOLOGY_BLOCK = 3
TAG_MANET_ROUND = 4
TAG_REPLICA = 5
TAG_MISC = 6


def philox_key(seed: int) -> np.ndarray:
    """128-bit Philox key derived from an integer seed."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _counter(path: tuple[int, ...]) -> list[int]:
    """Philox counter words of `path`: up to three components in the high
    words, first component highest; word 0 advances as the stream is
    consumed."""
    if len(path) > 3:
        raise ValueError("substream path supports at most 3 components")
    words = [0, 0, 0, 0]
    words[4 - len(path):] = [int(part) & _MASK64 for part in reversed(path)]
    return words


def substream(key: np.ndarray, *path: int) -> np.random.Generator:
    """Fresh generator positioned at the counter block addressed by `path`."""
    counter = np.array(_counter(path), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# Philox4x64 round multipliers and Weyl key increments (Random123)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * b, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _S32
    b_lo, hi = b & _LOW32, b >> _S32
    mid = m_lo * hi
    cross = m_hi * b_lo  # plus the carries below: at most 2^64 - 1
    cross += (m_lo * b_lo) >> _S32
    cross += mid & _LOW32
    hi *= m_hi
    hi += mid >> _S32
    hi += cross >> _S32
    return hi, m * b


def philox4x64(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words for uint64 `counter` (last axis 4) and
    `key` (last axis 2), broadcast against each other: the block numpy's
    Philox computes after it has advanced its counter to `counter`."""
    c0, c1, c2, c3 = (counter[..., i] for i in range(4))
    keys = key[..., None, :] + np.arange(10, dtype=np.uint64)[:, None] * _PHILOX_W
    with np.errstate(over="ignore"):  # uint64 products wrap by design
        for r in range(10):
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            hi1, hi0 = hi1 ^ keys[..., r, 0], hi0 ^ keys[..., r, 1]
            hi1 ^= c1
            hi0 ^= c3
            c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)


def uniform_lanes(keys: np.ndarray, paths, count: int, low: float, high: float) -> np.ndarray:
    """`substream(key, *path).uniform(low, high, count)` for every row of
    the (R, 2) uint64 `keys` and every path (up to three components), as one
    (len(paths), R, count) array with the same bytes."""
    blocks = -(-count // 4)
    counter = np.empty((len(paths), 1, blocks, 4), dtype=np.uint64)
    counter[..., 0] = np.arange(1, blocks + 1, dtype=np.uint64)
    tops = np.array([_counter(path)[1:] for path in paths], dtype=np.uint64)
    counter[..., 1:] = tops[:, None, None]
    words = philox4x64(counter, keys[:, None, :]).reshape(len(paths), len(keys), 4 * blocks)
    u = np.multiply(words[..., :count] >> np.uint64(11), 1.0 / 9007199254740992.0)
    u *= high - low  # low + (high - low) * u, as numpy's uniform, in place
    u += low
    return u


class StreamPool:
    """Reusable generator yielding the same draws as `substream`.

    Re-seating the counter on one Philox instance is several times
    cheaper than constructing a fresh bit generator, which matters in
    per-step simulation loops.  Not safe to share across threads.
    """

    def __init__(self, seed_or_key) -> None:
        key = seed_or_key if isinstance(seed_or_key, np.ndarray) else philox_key(seed_or_key)
        self.key = key
        self._bitgen = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bitgen)
        # the state every seat writes; only its counter changes
        self._state = self._bitgen.state
        self._state["buffer_pos"] = 4  # discard buffered words from prior position
        self._state["has_uint32"] = 0  # and a buffered 32-bit half of one
        self._state["uinteger"] = 0

    def at(self, *path: int) -> np.random.Generator:
        """Position the shared generator at `path` and return it."""
        self._state["state"]["counter"] = _counter(path)
        self._bitgen.state = self._state
        return self._gen
