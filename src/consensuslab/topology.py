"""Topology sequences: schedules, generators, and joint-connectivity checks.

A topology process emits one `WeightedDigraph` per integer time t >= 1,
deterministically given its parameters and seed.  Joint connectivity is
tracked through milestone schedules t_1 < t_2 < ... with t_1 = 1 where
the union of the graphs over each window [t_{k-1}, t_k) is strongly
connected and window growth is bounded by t_k <= t_{k-1} + c t_{k-1}^delta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import (
    WeightedDigraph,
    complete_graph,
    empty_graph,
    from_edges,
    is_strongly_connected,
    pair_graph,
    star_graph,
    union,
)
from .rng import TAG_TOPOLOGY_BLOCK, StreamPool

_BOUND_SLACK = 1e-9
_ARGMIN_CHUNK = 1 << 20  # steps per gain evaluation in AdversarialProcess


@dataclass(frozen=True)
class ConnectivitySchedule:
    """Milestone times certifying extensible joint connectivity.

    delta is the extensible exponent, c >= 1 the schedule constant, and
    times the strictly increasing milestones starting at 1.
    """

    delta: float
    c: float
    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.int64)
        if t.size == 0 or t[0] != 1:
            raise ValueError("schedule must start at t_1 = 1")
        if np.any(np.diff(t) <= 0):
            raise ValueError("schedule times must be strictly increasing")
        if self.delta < 0 or self.c < 1:
            raise ValueError("need delta >= 0 and c >= 1")
        prev = t[:-1].astype(float)
        if np.any(t[1:] > prev + self.c * prev**self.delta + _BOUND_SLACK):
            raise ValueError("schedule violates t_k <= t_{k-1} + c t_{k-1}^delta")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)


def _next_milestone(prev: int, delta: float, c: float) -> int:
    """t_k = t_{k-1} + c floor(t_{k-1}^delta), clamped to advance and floored."""
    return prev + max(1, int(math.floor(c * math.floor(prev**delta) + 1e-9)))


def schedule_times(delta: float, c: float, horizon: int) -> ConnectivitySchedule:
    """Milestones from the recursion t_k = t_{k-1} + c floor(t_{k-1}^delta).

    The increment is clamped below at 1 so the schedule always advances
    (a no-op for c >= 1, t_1 = 1) and floored so times stay integral;
    for integer c the recursion is exact.  Returns all t_k <= horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if delta < 0 or c < 1:
        raise ValueError("need delta >= 0 and c >= 1")
    times = [1]
    while (nxt := _next_milestone(times[-1], delta, c)) <= horizon:
        times.append(nxt)
    return ConnectivitySchedule(delta, c, np.array(times, dtype=np.int64))


def _times_and_next(schedule: ConnectivitySchedule) -> np.ndarray:
    """The milestones plus the next one, which lies past the horizon, so
    every t <= horizon falls inside a window."""
    last = int(schedule.times[-1])
    return np.append(schedule.times, _next_milestone(last, schedule.delta, schedule.c))


def window_indices(schedule: ConnectivitySchedule, i: int, t: int) -> tuple[int, int]:
    """(k_i, k_tilde): first milestone index with t_k >= i+1 and last with
    t_k - 1 <= t.  Indices are 1-based like the milestone numbering."""
    times = schedule.times
    if not (1 <= i <= t <= int(times[-1])):
        raise ValueError("need 1 <= i <= t <= last scheduled time")
    pos = int(np.searchsorted(times, i + 1, side="left"))
    if pos == len(times):
        raise ValueError(f"no milestone t_k >= {i + 1} in schedule")
    k_i = pos + 1
    k_tilde = int(np.searchsorted(times, t + 1, side="right"))
    if k_tilde == 0:
        raise ValueError(f"no milestone with t_k - 1 <= {t}")
    return k_i, k_tilde


def _earliest_completions(trace: Sequence[WeightedDigraph]) -> np.ndarray:
    """comp[s] = earliest e > s with the union over times [s, e) strongly
    connected, or horizon + 2 if no window starting at s completes.

    comp is nondecreasing in s (shrinking a window cannot create
    connectivity), so a sliding window with edge multiplicities computes
    all values in one pass.  Entries are indexed 1..horizon + 1.
    """
    horizon = len(trace)
    if not horizon:
        raise ValueError("trace must be nonempty")
    n = trace[0].n
    INF = horizon + 2
    comp = np.full(horizon + 2, INF, dtype=np.int64)
    counts = np.zeros((n, n), dtype=np.int64)
    e = 1  # window is [s, e): graphs at times s..e-1 are inside
    for s in range(1, horizon + 2):
        if e < s:
            e = s
        while True:
            if e > s and is_strongly_connected(counts):
                comp[s] = e
                break
            if e > horizon:
                break
            counts += trace[e - 1].weights != 0
            e += 1
        if s <= horizon and e > s:
            counts -= trace[s - 1].weights != 0
    return comp


def _feasible_milestones(comp: np.ndarray, horizon: int, delta: float, c: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Feasibility of each candidate milestone under the (delta, c) bound.

    A time t is a feasible milestone iff t = 1 or some feasible s < t has
    a connected window union (comp[s] <= t) and meets its deadline
    (s + c s^delta >= t).  comp monotonicity reduces the search to a
    prefix maximum of deadlines; parents allow witness reconstruction.
    """
    feasible = np.zeros(horizon + 2, dtype=bool)
    parent = np.zeros(horizon + 2, dtype=np.int64)
    feasible[1] = True
    dl = lambda s: s + c * float(s) ** delta
    p = 0  # largest s with comp[s] <= current t
    best_dl, best_s = -np.inf, 0
    for t in range(2, horizon + 2):
        while p + 1 <= horizon + 1 and comp[p + 1] <= t:
            p += 1
            if feasible[p] and dl(p) > best_dl:
                best_dl, best_s = dl(p), p
        if best_s and best_dl >= t - _BOUND_SLACK:
            feasible[t] = True
            parent[t] = best_s
    return feasible, parent


def _final_milestones(feasible: np.ndarray, horizon: int, delta: float, c: float
                      ) -> list[int]:
    """Feasible milestones whose deadline passes the end of the trace: the
    final window starting there is censored rather than failed."""
    return [s for s in range(1, horizon + 2)
            if feasible[s] and s + c * float(s) ** delta > horizon + _BOUND_SLACK]


def verify_joint_connectivity(
    trace: Sequence[WeightedDigraph], delta: float, c: float
) -> tuple[bool, ConnectivitySchedule | None]:
    """Exact witness search for the (delta, c) joint-connectivity bound.

    The condition holds iff milestones 1 = t_1 < t_2 < ... can be placed
    so that every window union is strongly connected within its deadline
    t_k <= t_{k-1} + c t_{k-1}^delta; a final window whose deadline
    extends past the trace is censored rather than failed.  Feasible
    milestone positions are computed by a forward scan (greedy earliest
    completion alone can reject valid traces, so all positions are
    tracked).  Returns a witness schedule when the bound holds.
    """
    trace = list(trace)
    horizon = len(trace)
    comp = _earliest_completions(trace)
    feasible, parent = _feasible_milestones(comp, horizon, delta, c)
    ok = _final_milestones(feasible, horizon, delta, c)
    if not ok:
        return False, None
    chain = [max(ok)]
    while chain[-1] != 1:
        chain.append(int(parent[chain[-1]]))
    chain.reverse()
    return True, ConnectivitySchedule(delta, c, np.array(chain, dtype=np.int64))


def minimal_delta(
    trace: Sequence[WeightedDigraph], c: float, grid_step: float = 0.01, grid_max: float = 5.0
) -> float:
    """Smallest grid delta for which `verify_joint_connectivity` holds.

    Feasibility is monotone in delta (looser deadlines only enlarge the
    feasible milestone set), so a bisection over the grid suffices; the
    window-completion table is delta-independent and computed once.
    """
    trace = list(trace)
    horizon = len(trace)
    comp = _earliest_completions(trace)

    def passes(delta: float) -> bool:
        feasible, _ = _feasible_milestones(comp, horizon, delta, c)
        return bool(_final_milestones(feasible, horizon, delta, c))

    steps = int(round(grid_max / grid_step))
    if not passes(grid_max):
        if not is_strongly_connected(union(trace)):
            raise ValueError("joint connectivity never completes within the trace")
        raise ValueError("no delta on the grid certifies this trace")
    if passes(0.0):
        return 0.0
    lo, hi = 0, steps  # grid index of smallest passing delta in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid * grid_step):
            hi = mid
        else:
            lo = mid
    return round(hi * grid_step, 10)


class TopologyProcess:
    """Deterministic mapping t >= 1 -> WeightedDigraph.

    `deterministic` means the emitted graphs are a pure function of time
    (no sampling), which enables exact moment propagation and shared
    topologies across Monte Carlo replicas.
    """

    n: int
    deterministic: bool = True

    def graph_at(self, t: int) -> WeightedDigraph:
        raise NotImplementedError

    def reseeded(self, seed: int) -> "TopologyProcess":
        """Same process with fresh randomness; identity for deterministic kinds."""
        return self

    def trace(self, horizon: int) -> list[WeightedDigraph]:
        return [self.graph_at(t) for t in range(1, horizon + 1)]


class FixedProcess(TopologyProcess):
    def __init__(self, graph: WeightedDigraph):
        self.n = graph.n
        self._g = graph

    def graph_at(self, t: int) -> WeightedDigraph:
        return self._g


class PeriodicProcess(TopologyProcess):
    """G(t) = components[(t-1) mod period], period = len(components); the
    union must be strongly connected."""

    def __init__(self, components: Sequence[WeightedDigraph]):
        components = list(components)
        if not is_strongly_connected(union(components)):
            raise ValueError("union of periodic components must be strongly connected")
        self.n = components[0].n
        self.components = components
        self.period = len(components)

    def graph_at(self, t: int) -> WeightedDigraph:
        return self.components[(t - 1) % self.period]


@functools.lru_cache(maxsize=4096)
def _dealt_graph(n: int, pairs: tuple[tuple[int, int, float], ...], width: int, slot: int,
                 a_max: float) -> WeightedDigraph:
    """Slot `slot` of a `width`-slot window over which the undirected
    (j, i, w) pairs are dealt round-robin: pairs[slot::width] in both
    directions, or the empty graph if there are none.

    Graphs are immutable, so every process shares one object per key and
    its Laplacian is computed once.
    """
    picked = pairs[slot::width]
    if not picked:
        return empty_graph(n, a_max)
    return from_edges(n, picked + tuple((i, j, w) for j, i, w in picked), a_max)


@functools.lru_cache(maxsize=4096)
def _cycle_slot_graphs(n: int, perm: tuple[int, ...], K: int) -> tuple[WeightedDigraph, ...]:
    """The K slot graphs of a block whose permutation cycle visits `perm`
    in order (all empty for perm = ()), dealt by `_dealt_graph`."""
    cycle = tuple((u, perm[(k + 1) % n], 1.0) for k, u in enumerate(perm))
    return tuple(_dealt_graph(n, cycle, K, slot, 1.0) for slot in range(K))


class ExtensibleBlockProcess(TopologyProcess):
    """Connected unions exactly at milestone windows of a (delta, c) schedule.

    The base graph's undirected edges are dealt round-robin over each
    window's slots (both directions of a pair stay together, so every
    emitted graph is symmetric and hence balanced).  Every window's union
    equals the base graph, so the trace satisfies the (delta, c) bound by
    construction while the windows stretch with time.
    """

    def __init__(self, base: WeightedDigraph, delta: float, c: float, horizon: int):
        if not is_strongly_connected(base):
            raise ValueError("base graph must be strongly connected")
        if not np.array_equal(base.weights, base.weights.T):
            raise ValueError("base graph must have symmetric weights")
        self.n = base.n
        self.base = base
        self.schedule = schedule_times(delta, c, horizon)
        self._times = _times_and_next(self.schedule)
        self._pairs = tuple((j, i, w) for j, i, w in base.edges() if j < i)

    def graph_at(self, t: int) -> WeightedDigraph:
        k = int(np.searchsorted(self._times, t, side="right")) - 1
        if k < 0 or t > self._times[-1]:
            raise ValueError(f"time {t} outside the generated schedule")
        start, end = int(self._times[k]), int(self._times[k + 1])
        return _dealt_graph(self.n, self._pairs, end - start, t - start, self.base.a_max)


class AdversarialProcess(TopologyProcess):
    """Worst-case two-graph sequence built open-loop from a gain schedule.

    Windows follow t_k = t_{k-1} + c floor(t_{k-1}^delta); inside each
    window the complete graph appears exactly once, at the slot where the
    gain is smallest (ties broken at the earliest slot), and the
    single-pair graph fills the rest.  All emitted graphs are balanced.
    """

    def __init__(self, gains, delta: float, c: float, n: int, horizon: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.delta = delta
        self.c = c
        self.horizon = horizon
        self.times = _times_and_next(schedule_times(delta, c, horizon))
        self._complete = complete_graph(n)
        self._pair = pair_graph(n)
        starts, ends = self.times[:-1], self.times[1:]
        g1 = np.empty(starts.size, dtype=np.int64)
        k = 0
        while k < starts.size:  # windows k..j-1, about _ARGMIN_CHUNK steps at a time
            j = max(k + 1, int(np.searchsorted(ends, starts[k] + _ARGMIN_CHUNK, side="right")))
            ts = np.arange(starts[k], ends[j - 1])
            vals = gains.values(ts)
            offs = starts[k:j] - starts[k]
            lows = np.repeat(np.minimum.reduceat(vals, offs), ends[k:j] - starts[k:j])
            hits = np.flatnonzero(vals == lows)
            g1[k:j] = ts[hits[np.searchsorted(hits, offs)]]  # earliest minimum per window
            k = j
        self.g1_times = g1

    def graph_at(self, t: int) -> WeightedDigraph:
        if t < 1 or t > self.times[-1] - 1:
            raise ValueError(f"time {t} outside the generated schedule")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        return self._complete if t == self.g1_times[k] else self._pair


class RandomBlockProcess(TopologyProcess):
    """Random topologies whose connectivity probability decays like a power.

    Time is partitioned into length-K blocks.  A block starting at time s
    is connected with probability min(1, p s^{-mu} log s) (natural log,
    zero at s = 1), independently of the past; a connected block spreads
    the edges of a uniformly random permutation cycle round-robin over
    its K slots, and a disconnected block is all-empty.  Every emitted
    graph is symmetric with unit weights, hence balanced.
    """

    deterministic = False

    def __init__(self, K: int, mu: float, p: float, n: int, seed: int):
        if n < 2:
            raise ValueError(f"need n >= 2, got n = {n}")
        if K < 1:
            raise ValueError("need K >= 1")
        if not (0 < mu < 0.5):
            raise ValueError("need mu in (0, 1/2)")
        if p <= 0:
            raise ValueError("need p > 0")
        self.n = n
        self.K = K
        self.mu = mu
        self.p = p
        self.seed = seed
        self._pool = StreamPool(seed)
        self._current: tuple[int, tuple[WeightedDigraph, ...]] = (-1, ())

    def reseeded(self, seed: int) -> "RandomBlockProcess":
        return RandomBlockProcess(self.K, self.mu, self.p, self.n, seed)

    def connection_probability(self, block: int) -> float:
        s = 1 + block * self.K
        return min(1.0, self.p * s ** (-self.mu) * max(math.log(s), 0.0))

    def _block_graphs(self, block: int) -> tuple[WeightedDigraph, ...]:
        """Slot graphs of `block`, drawn from path (TAG_TOPOLOGY_BLOCK,
        block); only the latest block is kept, since graph_at is called in
        time order and the graphs themselves are shared."""
        if self._current[0] == block:
            return self._current[1]
        gen = self._pool.at(TAG_TOPOLOGY_BLOCK, block)
        perm = ()
        if gen.random() < self.connection_probability(block):
            perm = tuple(gen.permutation(self.n).tolist())
        graphs = _cycle_slot_graphs(self.n, perm, self.K)
        self._current = (block, graphs)
        return graphs

    def graph_at(self, t: int) -> WeightedDigraph:
        if t < 1:
            raise ValueError("time starts at 1")
        block, slot = divmod(t - 1, self.K)
        return self._block_graphs(block)[slot]


def star_rotation_components(n: int) -> list[WeightedDigraph]:
    """n stars with rotating centers; each component is itself connected."""
    return [star_graph(n, center) for center in range(n)]


def cycle_edge_components(n: int) -> list[WeightedDigraph]:
    """The n single-edge pieces of the undirected n-cycle (period n)."""
    comps = []
    for k in range(n):
        u, v = k, (k + 1) % n
        comps.append(from_edges(n, [(u, v, 1.0), (v, u, 1.0)], 1.0))
    return comps
