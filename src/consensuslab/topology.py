"""Topology sequences: schedules, generators, and joint-connectivity checks.

A topology process emits one `WeightedDigraph` per integer time t >= 1,
deterministically given its parameters and seed.  Joint connectivity is
tracked through milestone schedules t_1 < t_2 < ... with t_1 = 1 where
the union of the graphs over each window [t_{k-1}, t_k) is strongly
connected and window growth is bounded by t_k <= t_{k-1} + c t_{k-1}^delta.
"""

from __future__ import annotations

import bisect
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
_WINDOW_CHUNK = 1024  # windows per stacked connectivity check; bounds its temporaries


def _check_bound(delta: float, c: float) -> None:
    """Reject a (delta, c) pair outside delta >= 0, c >= 1, NaN included."""
    if not delta >= 0:
        raise ValueError(f"need delta >= 0 and c >= 1, got delta = {delta}")
    if not c >= 1:
        raise ValueError(f"need delta >= 0 and c >= 1, got c = {c}")


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
        _check_bound(self.delta, self.c)
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
    _check_bound(delta, c)
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

    Adding graphs to a window cannot break its connectivity, so for each s
    the windows [s, e) are connected for every e from comp[s] on, and comp
    is nondecreasing in s.  Every comp[s] is found at once by bisection on
    e: with cum[t] the edge-presence counts over times 1..t, the union
    over [s, e) is cum[e - 1] - cum[s - 1], and each round checks all open
    windows in stacked `is_strongly_connected` calls of at most
    `_WINDOW_CHUNK` windows.  Entries are indexed 1..horizon + 1.
    """
    horizon = len(trace)
    if not horizon:
        raise ValueError("trace must be nonempty")
    n = trace[0].n
    ids = np.fromiter(map(id, trace), dtype=np.int64, count=horizon)
    _, first, idx = np.unique(ids, return_index=True, return_inverse=True)
    graphs = [trace[i] for i in first]  # each distinct graph once
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs in a trace must share the node count")
    dtype = np.min_scalar_type(horizon)
    cum = np.zeros((horizon + 1, n, n), dtype=dtype)
    np.take(np.array([g.weights != 0 for g in graphs], dtype=dtype), idx, axis=0, out=cum[1:],
            mode="clip")  # in range; "raise" would buffer the output
    np.cumsum(cum, axis=0, out=cum)

    def connected(s: np.ndarray, e: np.ndarray) -> np.ndarray:
        ok = np.empty(s.size, dtype=bool)
        for k in range(0, s.size, _WINDOW_CHUNK):
            counts = cum[e[k:k + _WINDOW_CHUNK] - 1]
            counts -= cum[s[k:k + _WINDOW_CHUNK] - 1]
            ok[k:k + _WINDOW_CHUNK] = is_strongly_connected(counts)
        return ok

    comp = np.full(horizon + 2, horizon + 2, dtype=np.int64)
    s = np.arange(1, horizon + 1)
    hi = np.full(horizon, horizon + 1)
    s = s[connected(s, hi)]  # windows that ever complete
    lo, hi = s, hi[:s.size]  # [s, lo) disconnected, [s, hi) connected
    while True:
        done = hi - lo <= 1
        comp[s[done]] = hi[done]
        s, lo, hi = s[~done], lo[~done], hi[~done]
        if not s.size:
            return comp
        mid = (lo + hi) // 2
        ok = connected(s, mid)
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)


def _deadlines(horizon: int, delta: float, c: float) -> list[float]:
    """s + c s^delta for s = 0..horizon + 1, each from a scalar Python
    power, so no vectorized power can move the last bit of a deadline."""
    return [s + c * float(s) ** delta for s in range(horizon + 2)]


def _feasible_milestones(comp: np.ndarray, deadlines: list[float]) -> tuple[int, list[int]]:
    """The certified end milestone and the parent of every feasible one.

    A time t is a feasible milestone iff t = 1 or some feasible s < t has
    a connected window union (comp[s] <= t) and meets its deadline
    (deadlines[s] >= t).  comp is nondecreasing, so the s with comp[s] <= t
    are a prefix 1..p(t), and deadlines increase with s, so the largest
    feasible s <= p(t) is the best parent; parent[t] = 0 marks an
    infeasible t.  The end is the last feasible milestone if its deadline
    passes the end of the trace (the final window starting there is
    censored rather than failed), else 0: no witness exists.
    """
    horizon = len(comp) - 2
    prefix = np.searchsorted(comp[1:], np.arange(horizon + 2), side="right").tolist()
    parent = [0] * (horizon + 2)
    latest = [0, 1]  # latest[s] = largest feasible milestone <= s
    for t in range(2, horizon + 2):
        s = latest[prefix[t]]
        if s and deadlines[s] >= t - _BOUND_SLACK:
            parent[t] = s
            latest.append(t)
        else:
            latest.append(latest[-1])
    end = latest[-1] if deadlines[latest[-1]] > horizon + _BOUND_SLACK else 0
    return end, parent


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
    tracked).  Returns a witness schedule when the bound holds; raises
    ValueError for delta < 0, c < 1 (NaN included) or a trace whose
    graphs disagree on the node count.
    """
    _check_bound(delta, c)
    trace = list(trace)
    horizon = len(trace)
    end, parent = _feasible_milestones(_earliest_completions(trace), _deadlines(horizon, delta, c))
    if not end:
        return False, None
    chain = [end]
    while chain[-1] != 1:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return True, ConnectivitySchedule(delta, c, np.array(chain, dtype=np.int64))


def minimal_delta(
    trace: Sequence[WeightedDigraph], c: float, grid_step: float = 0.01, grid_max: float = 5.0
) -> float:
    """Smallest delta on the grid k * grid_step <= grid_max, k = 0, 1, ...,
    for which `verify_joint_connectivity` holds.

    Feasibility is monotone in delta (looser deadlines only enlarge the
    feasible milestone set), so a bisection over the grid suffices; the
    window-completion table is delta-independent and computed once.
    Raises ValueError for c < 1, a grid_step that is not positive and
    finite, or a grid_max that is not nonnegative and finite.
    """
    _check_bound(0.0, c)
    if not (grid_step > 0 and math.isfinite(grid_step)):
        raise ValueError(f"need a finite grid_step > 0, got grid_step = {grid_step}")
    if not (grid_max >= 0 and math.isfinite(grid_max)):
        raise ValueError(f"need a finite grid_max >= 0, got grid_max = {grid_max}")
    trace = list(trace)
    horizon = len(trace)
    comp = _earliest_completions(trace)

    def passes(delta: float) -> bool:
        return _feasible_milestones(comp, _deadlines(horizon, delta, c))[0] > 0

    steps = math.floor(grid_max / grid_step + 1e-9)  # the grid is k * grid_step, k = 0..steps
    if not passes(steps * grid_step):
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
        self._times = _times_and_next(self.schedule).tolist()
        self._pairs = tuple((j, i, w) for j, i, w in base.edges() if j < i)

    def graph_at(self, t: int) -> WeightedDigraph:
        """Graph at time t, for 1 <= t < the first milestone past the horizon."""
        k = bisect.bisect_right(self._times, t) - 1
        if k < 0 or t >= self._times[-1]:
            raise ValueError(f"time {t} outside the generated schedule")
        start, end = self._times[k], self._times[k + 1]
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
        if not (p > 0 and math.isfinite(p)):
            raise ValueError(f"need a finite p > 0, got p = {p}")
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
