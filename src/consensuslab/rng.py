"""Counter-based random substreams.

Every random quantity in the library is drawn from a Philox stream
addressed by a root seed plus a short integer path (tag, replica, time,
...).  Distinct paths map to disjoint counter ranges of the same keyed
Philox sequence, so any draw can be reproduced in isolation regardless
of execution order: Monte Carlo replicas, topology blocks, and rounds
are independently re-derivable.

The stream layout, by engine (R is the number of Monte Carlo replicas
or MANET runs advanced together):

- edge noise, `dynamics.EdgeNoiseSampler`: path (TAG_EDGE_NOISE, 0, t).
  An (n, n) draw per step for single runs and an (n, n, R) draw for
  batches; an (n, R) draw of standard normals, the aggregates
  themselves, for batches of i.i.d. Gaussian noise.
- innovations of moving-average and martingale-difference noise: path
  (TAG_INNOVATION, 0, s), an (n, n) draw, or (n, n, R) in a batch, per
  innovation time s.
- random-block topologies, `topology.RandomBlockProcess`: path
  (TAG_TOPOLOGY_BLOCK, block) under the process's own seed, one uniform
  for connectivity, then a permutation of n when the block connects.
- MANET rounds, `manet`: path (TAG_MANET_ROUND, 0, l) for a single run
  and (TAG_MANET_ROUND, 1, l) for a batch of R runs (R = 1 for the
  single run); one uniform per unordered node pair (R, n(n-1)/2), in
  `np.triu_indices(n, 1)` order, quantization noise (R, n), then
  standard normals (R, n), one per receiver, in that order.
- random-block Monte Carlo gives replica r its own process seed, word 0
  of `SeedSequence(seed, spawn_key=(TAG_REPLICA, r))`; the noise of all
  replicas is one batched edge-noise draw per step under `seed`, as for
  shared topologies, with the replica axis trailing.

The same config and seed give the same bytes within one version; each
change of this layout is named in CHANGES.md.
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


class StreamPool:
    """Reusable generator yielding the same draws as `substream`.

    Re-seating the counter on one Philox instance is several times
    cheaper than constructing a fresh bit generator, which matters in
    per-step simulation loops.  Not safe to share across threads.
    """

    def __init__(self, seed: int) -> None:
        self._bitgen = np.random.Philox(key=philox_key(seed))
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
