"""The consensus protocol engine.

State update per step: x(t+1) = (I - a(t) L(t)) x(t) + a(t) w_hat(t),
where w_hat(t) stacks the weighted sums of the per-edge noises received
by each node.  The module provides gain-schedule designs with certified
constants, edge-noise models, seeded single runs, vectorized Monte Carlo
over replicas, and an exact second-moment recursion used as an oracle
for the Monte Carlo path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .graph import WeightedDigraph, _cached_laplacian
from .rng import TAG_EDGE_NOISE, TAG_INNOVATION, TAG_REPLICA, StreamPool
from .topology import AdversarialProcess, RandomBlockProcess, TopologyProcess, _cycle_slot_graphs

GAIN_KINDS = ("constant", "power", "log_corrected", "table")
NOISE_KINDS = ("zero", "iid_gaussian", "iid_uniform", "m_dependent_ma", "martingale_difference")


# ---------------------------------------------------------------------------
# Gain schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainSchedule:
    """Open-loop gain sequence a(t), t >= 1.

    kinds:
      constant      a(t) = alpha
      power         a(t) = alpha / ((t + shift)^exponent + t_star)
      log_corrected a(t) = alpha / ((sqrt(t) + t_star) log(t + t_star))
      table         explicit values, 1-indexed
    """

    kind: str
    alpha: float = 1.0
    t_star: float = 0.0
    exponent: float = 1.0
    shift: float = 0.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in GAIN_KINDS:
            raise ValueError(f"unknown gain kind {self.kind!r}")
        for name in ("alpha", "t_star", "shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name} = {getattr(self, name)}")
        if self.alpha < 0 or self.t_star < 0:
            raise ValueError("alpha and t_star must be nonnegative")
        if self.kind == "power" and not (0 < self.exponent <= 1):
            raise ValueError("power exponent must lie in (0, 1]")
        if self.kind == "table":
            if self.table is None:
                raise ValueError("table kind requires explicit values")
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 1 or np.any(tab < 0):
                raise ValueError("table must be a 1-d array of nonnegative gains")
            tab.flags.writeable = False
            object.__setattr__(self, "table", tab)

    def value(self, t: int) -> float:
        return float(self.values(np.asarray([t]))[0])

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized a(t) for integer times t >= 1."""
        ts = np.asarray(ts)
        if np.any(ts < 1):
            raise ValueError("gains are defined for t >= 1")
        if self.kind == "constant":
            return np.full(ts.shape, self.alpha, dtype=float)
        if self.kind == "power":
            return self.alpha / ((ts + self.shift) ** self.exponent + self.t_star)
        if self.kind == "log_corrected":
            arg = ts + self.t_star
            if np.any(arg <= 1):
                raise ValueError("log_corrected gain needs t + t_star > 1")
            return self.alpha / ((np.sqrt(ts) + self.t_star) * np.log(arg))
        if np.any(ts > len(self.table)):
            raise ValueError("time outside the gain table")
        return self.table[np.asarray(ts, dtype=np.int64) - 1]


def design_gain_schedule(n: int, c: float, a_max: float, delta: float) -> GainSchedule:
    """Gain constants guaranteeing mean-square consensus at exponent delta.

    For delta < 1/2 returns the power schedule a(t) = alpha/(t^{1-delta} + t*)
    with alpha = 32 n (n-1)^4 c / (2n-3)^2 and t* = floor(2 alpha (n-1) a_max);
    for delta = 1/2 the log-corrected schedule with alpha doubled.  These
    constants keep a(t) <= 1/(2 d_max) from t = 1 on.  delta > 1/2 is
    rejected: no open-loop gain works there.

    Because t* is large (2488 for n=4, c=1, a_max=1), a(t) follows its
    power law alpha t^-(1-delta) only past the crossover
    t_c = t*^(1/(1-delta)), where t^(1-delta) overtakes t* (for those
    constants t_c ~ 1.8e4, 7.1e4, 4.6e5 at delta = 0.2, 0.3, 0.4).  A
    rate fitted over a window that ends before t_c measures the
    pre-asymptotic slope, not -(1-2 delta).
    """
    if n < 2 or c < 1 or a_max < 1:
        raise ValueError("need n >= 2, c >= 1, a_max >= 1")
    if delta < 0 or delta > 0.5 + 1e-12:
        raise ValueError("no consensus guarantee exists for delta > 1/2")
    base = 32 * n * (n - 1) ** 4 * c / (2 * n - 3) ** 2
    if abs(delta - 0.5) <= 1e-12:
        alpha = 2 * base
        t_star = math.floor(2 * alpha * (n - 1) * a_max)
        return GainSchedule("log_corrected", alpha=alpha, t_star=t_star)
    alpha = base
    t_star = math.floor(2 * alpha * (n - 1) * a_max)
    return GainSchedule("power", alpha=alpha, t_star=t_star, exponent=1 - delta)


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Edge-noise generator with per-edge variance exactly v.

    Noise exists for every ordered node pair at every time; the protocol
    only reads the values on present edges.  Cross-edge noises at a fixed
    time are independent in every kind.  The moving-average kind carries
    dependence over at most `m` steps; the martingale-difference kind is
    uncorrelated but not independent across time.
    """

    kind: str
    v: float = 0.0
    theta: np.ndarray | None = None  # MA weights, scaled so Var = v

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not math.isfinite(self.v):
            raise ValueError(f"noise variance v must be finite, got v = {self.v}")
        if self.kind != "zero" and self.v <= 0:
            raise ValueError("noise variance bound v must be positive")
        if self.kind == "m_dependent_ma":
            th = np.asarray(self.theta, dtype=float)
            if th.ndim != 1 or th.size < 1 or not np.any(th):
                raise ValueError("MA kind needs a nonzero weight vector")
            th = th * math.sqrt(self.v / float(np.dot(th, th)))
            th.flags.writeable = False
            object.__setattr__(self, "theta", th)

    @property
    def memory(self) -> int:
        """Longest lag with nonzero dependence."""
        if self.kind == "m_dependent_ma":
            return len(self.theta) - 1
        if self.kind == "martingale_difference":
            return 1
        return 0

    @property
    def independent_across_time(self) -> bool:
        return self.kind in ("zero", "iid_gaussian", "iid_uniform")


def make_noise(kind: str, v: float = 0.0, theta: Sequence[float] | None = None,
               half_width: float | None = None, std: float | None = None,
               m: int | None = None) -> NoiseModel:
    """Construct a noise model; convenience params pin v where natural.

    iid_uniform accepts half_width (v = half_width^2 / 3); iid_gaussian
    accepts std (v = std^2); m_dependent_ma accepts either explicit
    weights theta or a lag count m (flat weights), rescaled so the
    marginal variance is exactly v.
    """
    if kind == "zero":
        return NoiseModel("zero", 0.0)
    if kind == "iid_uniform" and half_width is not None:
        v = half_width**2 / 3.0
    if kind == "iid_gaussian" and std is not None:
        v = std**2
    if kind == "m_dependent_ma":
        if theta is None:
            if m is None:
                raise ValueError("MA kind needs theta or m")
            theta = np.ones(m + 1)
        return NoiseModel(kind, v, np.asarray(theta, dtype=float))
    if kind in ("iid_gaussian", "iid_uniform", "martingale_difference"):
        return NoiseModel(kind, v)
    raise ValueError(f"unknown noise kind {kind!r}")


class EdgeNoiseSampler:
    """Deterministic noise access for one seed.

    The full (n, n) matrix of ordered-pair noises at time t is addressed
    by the counter path (TAG_EDGE_NOISE, 0, t); batched variants append
    the replica axis to the same draw so Monte Carlo columns stay
    independent.  The one exception is the batched i.i.d. Gaussian
    aggregate, which draws the (n, replicas) aggregates themselves from
    that path (see `aggregate_batch`).
    """

    def __init__(self, model: NoiseModel, n: int, seed: int):
        self.model = model
        self.n = n
        self.pool = StreamPool(seed)
        self._innov_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- raw draws ---------------------------------------------------------
    def _iid_matrix(self, t: int, extra: tuple[int, ...]) -> np.ndarray:
        gen = self.pool.at(TAG_EDGE_NOISE, 0, t)
        shape = (self.n, self.n) + extra
        if self.model.kind == "iid_gaussian":
            return gen.standard_normal(shape) * math.sqrt(self.model.v)
        h = math.sqrt(3.0 * self.model.v)
        return gen.uniform(-h, h, shape)

    def _innovation(self, s: int, extra: tuple[int, ...]) -> np.ndarray:
        key = (s, int(bool(extra)))
        hit = self._innov_cache.get(key)
        if hit is not None and hit.shape == (self.n, self.n) + extra:
            return hit
        gen = self.pool.at(TAG_INNOVATION, 0, s)
        arr = gen.standard_normal((self.n, self.n) + extra)
        self._innov_cache[key] = arr
        if len(self._innov_cache) > 4 * (self.model.memory + 2):
            self._innov_cache.pop(next(iter(self._innov_cache)))
        return arr

    def edge_matrix(self, t: int, extra: tuple[int, ...] = ()) -> np.ndarray:
        """w_{ji}(t) for all ordered pairs; entry [i, j] rides edge (j, i)."""
        m = self.model
        if m.kind == "zero":
            return np.zeros((self.n, self.n) + extra)
        if m.kind in ("iid_gaussian", "iid_uniform"):
            return self._iid_matrix(t, extra)
        if m.kind == "m_dependent_ma":
            acc = np.zeros((self.n, self.n) + extra)
            for k, th in enumerate(m.theta):
                s = t - k
                if s >= 1 - len(m.theta):  # innovations exist for all s
                    acc += th * self._innovation(s, extra)
            return acc
        # martingale difference: w(t) = sqrt(v) eps(t) sign(eps(t-1))
        eps = self._innovation(t, extra)
        prev = self._innovation(t - 1, extra)
        return math.sqrt(m.v) * eps * np.sign(prev)

    # -- aggregates --------------------------------------------------------
    def aggregate(self, g: WeightedDigraph, t: int) -> np.ndarray:
        """w_hat(t): per-receiver weighted noise sums for the present edges."""
        if self.model.kind == "zero":
            return np.zeros(self.n)
        W = self.edge_matrix(t)
        return (g.weights * W).sum(axis=1)

    def aggregate_batch(self, g, t: int, replicas: int) -> np.ndarray:
        """Aggregate noise of step t for `replicas` replicas.

        `g` is one graph that every replica shares, and the result is
        (n, replicas), replicas on the trailing axis; or the (replicas, n,
        n) stack of each replica's weight matrix, and the result is
        (replicas, n).  For i.i.d. Gaussian noise w_hat_i = sum_j a_ij w_ij
        is exactly N(0, v sum_j a_ij^2), independent across receivers, so
        it is drawn directly: (n, replicas) standard normals from the
        counter path (TAG_EDGE_NOISE, 0, t), each scaled by its standard
        deviation.  That has the distribution of the per-edge sum but not
        its bytes.  Every other kind sums the (n, n, replicas) edge draw
        per replica.
        """
        shared = isinstance(g, WeightedDigraph)
        if self.model.kind == "zero":
            return np.zeros((self.n, replicas) if shared else (replicas, self.n))
        if self.model.kind == "iid_gaussian":
            Z = self.pool.at(TAG_EDGE_NOISE, 0, t).standard_normal((self.n, replicas))
            if not shared:
                return Z.T * np.sqrt(self.model.v * (g * g).sum(axis=2))
            Z *= np.sqrt(self.model.v * _received_weight_sq(g))[:, None]
            return Z
        W = self.edge_matrix(t, (replicas,))
        if shared:
            return np.einsum("ij,ijr->ir", g.weights, W)
        return np.einsum("rij,ijr->ri", g, W)


def _received_weight_sq(g: WeightedDigraph) -> np.ndarray:
    """sum_j a_ij^2 for each receiver i: Var(w_hat_i) / v for cross-edge
    independent noise of per-edge variance v.  Pinned to the immutable
    graph like its Laplacian; read-only because it is shared."""
    sq = g.__dict__.get("_received_sq")
    if sq is None:
        sq = (g.weights**2).sum(axis=1)
        sq.flags.writeable = False
        object.__setattr__(g, "_received_sq", sq)
    return sq


def aggregate_noise_covariance(g: WeightedDigraph, model: NoiseModel) -> np.ndarray:
    """Cov(w_hat(t)) = v diag(sum_j a_ij^2) for cross-edge independent noise."""
    return model.v * np.diag(_received_weight_sq(g))


# ---------------------------------------------------------------------------
# Protocol engine
# ---------------------------------------------------------------------------

def step(x: np.ndarray, g, a: float, w_hat: np.ndarray) -> np.ndarray:
    """(I - a L(g)) x + a w_hat.  `g` is a graph, whose Laplacian acts on
    x (n,) or on the columns of x (n, R); or an (R, n, n) stack of
    Laplacians, L[r] acting on row r of x (R, n)."""
    if a < 0:
        raise ValueError("gain must be nonnegative")
    if isinstance(g, WeightedDigraph):
        Lx = _cached_laplacian(g) @ x
    else:
        Lx = np.matmul(g, x[..., None])[..., 0]
    return x - a * Lx + a * w_hat


@dataclass
class SimulationTrace:
    """States, disagreement, and gains of one protocol run.

    `ts[k]` indexes states[k]; gains_used[k] is the gain the protocol
    would apply at ts[k].  The consensus value is the state average at
    the final time.
    """

    ts: np.ndarray
    states: np.ndarray
    disagreement: np.ndarray
    gains_used: np.ndarray
    initial_average: float
    consensus_value: float


def _disagreement_vec(X: np.ndarray) -> np.ndarray:
    """Column-wise V (centered sum of squares) for an (n, R) state block,
    or for each block of a (k, n, R) stack, giving (k, R)."""
    C = X - X.mean(axis=-2, keepdims=True)
    return np.einsum("...ir,...ir->...r", C, C)


def _require_finite(ts: np.ndarray, V: np.ndarray) -> None:
    """Raise ValueError naming the first time whose V is not finite; row k
    of V (one value or one per replica) belongs to ts[k]."""
    bad = ~np.isfinite(V).reshape(ts.size, -1).all(axis=1)
    if bad.any():
        raise ValueError(f"V is not finite at t = {int(ts[np.argmax(bad)])}: "
                         "the state diverged")


def _trace(ts: np.ndarray, x1: np.ndarray, steps: Iterator[np.ndarray],
           gains_used: np.ndarray) -> SimulationTrace:
    """Record x1 and every state `steps` yields, one row per entry of ts."""
    states = np.empty((ts.size, x1.size))
    V = np.empty(ts.size)
    for k, x in enumerate(itertools.chain([x1], steps)):
        states[k] = x
        V[k] = float(_disagreement_vec(x[:, None])[0])
    _require_finite(ts, V)
    return SimulationTrace(ts, states, V, gains_used, float(x1.mean()), float(x.mean()))


def _advance(process: TopologyProcess, a_all: np.ndarray, x: np.ndarray, horizon: int,
             w_hat: Callable[[WeightedDigraph, int], np.ndarray]) -> Iterator[np.ndarray]:
    """Yield the state after each step t = 1..horizon; w_hat(g, t) is the
    aggregate noise of step t, shaped like x."""
    for t in range(1, horizon + 1):
        g = process.graph_at(t)
        x = step(x, g, a_all[t - 1], w_hat(g, t))
        yield x


def run(process: TopologyProcess, gains: GainSchedule, noise: NoiseModel,
        x1: Sequence[float], horizon: int, seed: int) -> SimulationTrace:
    """Iterate the protocol from t = 1 to horizon with derived noise streams."""
    x1 = np.asarray(x1, dtype=float)
    n = x1.size
    if process.n != n:
        raise ValueError("process and initial state disagree on n")
    sampler = EdgeNoiseSampler(noise, n, seed)
    ts = np.arange(1, horizon + 2)
    a_all = gains.values(ts)
    return _trace(ts, x1, _advance(process, a_all, x1, horizon, sampler.aggregate), a_all)


@dataclass
class MonteCarloResult:
    """Per-time mean and standard error of V plus the final state block."""

    ts: np.ndarray
    mean_V: np.ndarray
    stderr_V: np.ndarray
    final_states: np.ndarray | None  # (replicas, n); None for exact moments
    replicas: int


# steps of state blocks buffered per V reduction in _summarize: at n = 5,
# R = 500 on a 2-CPU x86-64 host a 16-step buffer (320 kB) reduced
# fastest, and a 64-step one fell out of cache
_V_CHUNK = 16


def _summarize(ts: np.ndarray, X: np.ndarray, blocks: Iterator[np.ndarray]) -> MonteCarloResult:
    """Mean and standard error of V over the replica columns of the (n, R)
    block X and of every block `blocks` yields, one block per entry of ts;
    the last block holds the final states.

    Blocks are buffered _V_CHUNK steps at a time and V is reduced once per
    chunk.  The buffer keeps the memory layout of X (C order, or the
    transpose of a C-order (R, n) array): a sum over nodes runs in memory
    order, so the layout fixes its bytes, and a chunk gives the same bytes
    as one reduction per block."""
    replicas = X.shape[1]
    meanV = np.empty(ts.size)
    seV = np.empty(ts.size)
    if X.flags.f_contiguous and not X.flags.c_contiguous:
        buf = np.empty((_V_CHUNK,) + X.T.shape).transpose(0, 2, 1)
    else:
        buf = np.empty((_V_CHUNK,) + X.shape)
    blocks = itertools.chain([X], blocks)
    for lo in range(0, ts.size, _V_CHUNK):
        hi = min(lo + _V_CHUNK, ts.size)
        chunk = buf[:hi - lo]
        for j, X in zip(range(hi - lo), blocks):
            chunk[j] = X
        V = _disagreement_vec(chunk)
        _require_finite(ts[lo:hi], V)
        meanV[lo:hi] = V.mean(axis=1)
        seV[lo:hi] = V.std(axis=1, ddof=1)
    seV /= math.sqrt(replicas)
    return MonteCarloResult(ts, meanV, seV, X.T.copy(), replicas)


def monte_carlo_V(process: TopologyProcess, gains: GainSchedule, noise: NoiseModel,
                  x1: Sequence[float], horizon: int, replicas: int,
                  seed: int) -> MonteCarloResult:
    """Replica mean and standard error of V(x(t)).

    Every path draws its noise from one sampler seeded with `seed`, one
    batched draw per step with the replicas on the trailing axis.
    Deterministic processes share their topology across replicas and are
    advanced as one (n, replicas) block.  Random processes give replica r
    its own process, seeded by word 0 of (seed, TAG_REPLICA, r), and
    advance as one (replicas, n) block with one stacked-Laplacian `step`
    per time.  Both paths reduce their blocks with the same recorder.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    x1 = np.asarray(x1, dtype=float)
    n = x1.size
    if process.n != n:
        raise ValueError("process and initial state disagree on n")
    ts = np.arange(1, horizon + 2)
    a_all = gains.values(ts)
    X = np.tile(x1[:, None], (1, replicas))
    sampler = EdgeNoiseSampler(noise, n, seed)
    if process.deterministic:
        blocks = _advance(process, a_all, X, horizon,
                          lambda g, t: sampler.aggregate_batch(g, t, replicas))
        return _summarize(ts, X, blocks)
    spawn = (np.random.SeedSequence(seed, spawn_key=(TAG_REPLICA, r)) for r in range(replicas))
    procs = [process.reseeded(int(ss.generate_state(1, np.uint64)[0])) for ss in spawn]

    def blocks() -> Iterator[np.ndarray]:
        x = np.tile(x1, (replicas, 1))
        for t in range(1, horizon + 1):
            gs = [proc.graph_at(t) for proc in procs]
            w_hat = sampler.aggregate_batch(np.array([g.weights for g in gs]), t, replicas)
            x = step(x, np.array([_cached_laplacian(g) for g in gs]), a_all[t - 1], w_hat)
            yield x.T

    return _summarize(ts, X, blocks())


# ---------------------------------------------------------------------------
# Exact second moments
# ---------------------------------------------------------------------------

def exact_second_moment(process: TopologyProcess, gains: GainSchedule,
                        noise_cov, x1: Sequence[float],
                        horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """E V(x(t)) for deterministic topologies and time-independent noise.

    With J the centering projector and A_t = I - a(t) L(t), the centered
    second moment M obeys M(t+1) = J A_t M(t) A_t' J + a(t)^2 J C_w(t) J
    and E V(x(t)) = tr M(t).  `noise_cov` may be a NoiseModel (must be an
    independent-across-time kind) or a constant (n, n) matrix.

    L and J C_w J are computed once per distinct graph.  Two steps are
    skipped where they are exact identities in floating point: on an
    empty graph A_t = I, and I M I' is M itself (each entry sums one
    product 1 * m and exact zeros); and where J C_w J is all zero, adding
    it leaves M unchanged.  Every other operation runs in the order
    written above, so for finite gains and moments the output does not
    depend on the skips.
    """
    if not process.deterministic:
        raise ValueError("exact second moments need a deterministic topology process")
    x1 = np.asarray(x1, dtype=float)
    n = x1.size
    if process.n != n:
        raise ValueError("process and initial state disagree on n")
    if isinstance(noise_cov, NoiseModel):
        if not noise_cov.independent_across_time:
            raise ValueError("exact recursion requires noise independent across time")
        model = noise_cov
        cov_at = lambda g: aggregate_noise_covariance(g, model)
    else:
        C = np.asarray(noise_cov, dtype=float)
        cov_at = lambda g: C
    I = np.eye(n)
    J = I - np.ones((n, n)) / n
    y = J @ x1
    M = np.outer(y, y)
    ts = np.arange(1, horizon + 2)
    EV = np.empty(horizon + 1)
    EV[0] = float(np.trace(M))
    a_all = gains.values(np.arange(1, horizon + 1))
    # id(g) -> (g, L or None if zero, J C J or None if zero); holding g
    # keeps its id from being reused
    per_graph: dict[int, tuple] = {}
    for t in range(1, horizon + 1):
        g = process.graph_at(t)
        hit = per_graph.get(id(g))
        if hit is None:
            L = _cached_laplacian(g)
            JCJ = J @ cov_at(g) @ J
            hit = per_graph[id(g)] = (g, L if L.any() else None, JCJ if JCJ.any() else None)
        _, L, JCJ = hit
        a = a_all[t - 1]
        if L is not None:
            A = I - a * L
            M = A @ M @ A.T
        M = J @ M @ J
        if JCJ is not None:
            M += a * a * JCJ
        EV[t] = M.trace()
    _require_finite(ts, EV)
    return ts, EV


def random_block_exact_moments(process: RandomBlockProcess, gains: GainSchedule,
                               noise: NoiseModel, x1: Sequence[float],
                               horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact annealed E V(x(t)) of a random-block process, averaged over
    its blocks and over noise independent across time.

    Blocks are independent, and a connected block's K slot graphs come
    from one uniform permutation pi of the nodes.  Its graphs are
    symmetric, so the centered second moment M = E (J x)(J x)' at the
    block's start splits into one branch per permutation, and slot s of
    the block steps every branch by

        M_pi <- A M_pi A' + a^2 J C_pi,s J,   A = I - a L_pi,s,

    with E V = q mean_pi tr M_pi + (1 - q) tr M, q the block's
    `connection_probability`: a disconnected block is all-empty, so it
    moves neither the state nor the noise.  At the block's end
    M <- q mean_pi M_pi + (1 - q) M.  The n! branches advance as one
    (n!, n, n) stack, so this suits small n.
    """
    x1 = np.asarray(x1, dtype=float)
    n, K = x1.size, process.K
    if process.n != n:
        raise ValueError("process and initial state disagree on n")
    if not noise.independent_across_time:
        raise ValueError("exact recursion requires noise independent across time")
    slots = [_cycle_slot_graphs(n, perm, K) for perm in itertools.permutations(range(n))]
    Ls = np.array([[_cached_laplacian(g) for g in gs] for gs in slots])  # (n!, K, n, n)
    I = np.eye(n)
    J = I - np.ones((n, n)) / n
    JCJ = np.array([[J @ aggregate_noise_covariance(g, noise) @ J for g in gs] for gs in slots])
    y = J @ x1
    M = np.outer(y, y)
    ts = np.arange(1, horizon + 2)
    EV = np.empty(horizon + 1)
    EV[0] = M.trace()
    a_all = gains.values(np.arange(1, horizon + 1))
    for start in range(0, horizon, K):  # block start // K covers steps start + 1 .. start + K
        q = process.connection_probability(start // K)
        Mp = M
        for s in range(min(K, horizon - start)):
            a = a_all[start + s]
            A = I - a * Ls[:, s]
            Mp = A @ Mp @ A.transpose(0, 2, 1) + a * a * JCJ[:, s]
            EV[start + s + 1] = q * np.einsum("pii->", Mp) / len(Mp) + (1 - q) * M.trace()
        M = q * Mp.mean(axis=0) + (1 - q) * M
    _require_finite(ts, EV)
    return ts, EV


_SCAN_CHUNK = 1 << 14  # steps per affine scan in adversarial_exact_moments


def _affine_scan(s: np.ndarray, b: np.ndarray, y0) -> np.ndarray:
    """Every y_t of y_t = s_t y_(t-1) + b_t, t = 0, 1, ..., along the last
    axis, starting from y_(-1) = y0.

    Prefix doubling composes the affine maps in log2(len) passes; it never
    divides, so a product that underflows only zeroes dead terms.
    """
    S, B = s.copy(), b.copy()
    d = 1
    while d < S.shape[-1]:
        B[..., d:] += S[..., d:] * B[..., :-d]
        S[..., d:] *= S[..., :-d]
        d *= 2
    return S * np.asarray(y0)[..., None] + B


def adversarial_exact_moments(process: AdversarialProcess, gains: GainSchedule,
                              v: float, x1: Sequence[float], horizon: int,
                              record_ts: Sequence[int] | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Fast exact E V for the two-graph adversarial construction.

    Both emitted Laplacians share the orthonormal eigenbasis of the
    complete/pair graphs, so the centered second moment stays diagonal in
    that basis and each mode k follows y_k <- s y_k + a^2 q_k.  Mode 1 has
    s = (1 - 2a)^2 on pair steps; every mode >= 2 has s = 1 there; all
    modes have s = (1 - n a)^2 on the complete slot.  So E V is the sum of
    two scalar recursions, mode 1 and the sum of the modes >= 2, solved in
    chunks of `_SCAN_CHUNK` steps by `_affine_scan`.  Requires i.i.d.
    noise with per-edge variance v; matches `exact_second_moment` to
    machine precision.

    record_ts restricts the output to the given (sorted) times in
    [1, horizon + 1]; by default every time is recorded.
    """
    from .graph import complete_graph, complete_pair_eigenbasis, pair_graph

    n = process.n
    x1 = np.asarray(x1, dtype=float)
    if x1.size != n:
        raise ValueError("x1 has wrong length")
    if horizon > process.horizon:
        raise ValueError("horizon exceeds the process horizon")
    if record_ts is None:
        record_ts = np.arange(1, horizon + 2)
    rec = np.asarray(record_ts, dtype=np.int64)
    if rec.size and (rec[0] < 1 or rec[-1] > horizon + 1 or np.any(np.diff(rec) <= 0)):
        raise ValueError("record_ts must be sorted within [1, horizon + 1]")
    P, _ = complete_pair_eigenbasis(n)
    J = np.eye(n) - np.ones((n, n)) / n
    q = [np.diag(P.T @ J @ aggregate_noise_covariance(g, NoiseModel("iid_gaussian", v)) @ J @ P)
         for g in (pair_graph(n), complete_graph(n))]
    q_pair, q_comp = (np.array([[qk[1]], [qk[2:].sum()]]) for qk in q)
    m = (P.T @ (J @ x1)) ** 2  # per-mode second moments; mode 0, the average, is 0
    y = np.array([m[1], m[2:].sum()])
    EV = np.empty(rec.size)
    ptr = int(np.searchsorted(rec, 1, side="right"))
    EV[:ptr] = m[1:].sum()
    g1 = process.g1_times
    for lo in range(1, horizon + 1, _SCAN_CHUNK):
        if ptr == rec.size:
            break
        hi = min(lo + _SCAN_CHUNK, horizon + 1)  # steps lo..hi-1 give times lo+1..hi
        a = gains.values(np.arange(lo, hi))
        complete = np.zeros(a.size, dtype=bool)
        complete[g1[np.searchsorted(g1, lo):np.searchsorted(g1, hi)] - lo] = True
        s = np.where(complete, (1.0 - n * a) ** 2, [(1.0 - 2.0 * a) ** 2, np.ones_like(a)])
        ys = _affine_scan(s, a * a * np.where(complete, q_comp, q_pair), y)
        y = ys[:, -1]
        end = int(np.searchsorted(rec, hi, side="right"))
        EV[ptr:end] = ys[:, rec[ptr:end] - lo - 1].sum(axis=0)
        ptr = end
    _require_finite(rec, EV)
    return rec, EV


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Columns t, x_1..x_n, V, a."""
    n = trace.states.shape[1]
    header = "t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",V,a"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k, t in enumerate(trace.ts):
            xs = ",".join(f"{x:.12g}" for x in trace.states[k])
            fh.write(f"{int(t)},{xs},{trace.disagreement[k]:.12g},{trace.gains_used[k]:.12g}\n")


def write_monte_carlo_csv(result: MonteCarloResult, path) -> None:
    """Columns t, meanV, stderrV, replicas."""
    with open(path, "w") as fh:
        fh.write("t,meanV,stderrV,replicas\n")
        for k, t in enumerate(result.ts):
            fh.write(f"{int(t)},{result.mean_V[k]:.12g},{result.stderr_V[k]:.12g},{result.replicas}\n")
