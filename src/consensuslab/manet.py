"""Mobile ad-hoc network application: agent motion, erf-based reception
probabilities from the shadowing/path-loss model, and the periodic
broadcast-acknowledge consensus protocol.

Each period [lT, (l+1)T) agent i broadcasts at lT + (i-1)T/n; a directed
reception succeeds with a probability depending on the sender's link
budget and the pairwise distance at the broadcast instant.  Agents that
received each other form the (undirected) neighbor set of the round, and
states update by

    x_i <- x_i + a_l sum_{j in N_i} (x_j + xi_j + zeta_ij - x_i)

with quantization noise xi per sender and reception noise zeta per
ordered pair.  Relative speeds are held at their round-start value
within a round so positions integrate exactly.

A round draws what the update needs, not every reception.  Only the
mutual-reception graph enters the update, and its pairs {i, j} are
independent Bernoulli(q_ij), q_ij = p_ij p_ji, because the directed
receptions are; so one uniform per unordered pair gives the same graph
law.  Given the graph, sum_j zeta_ij over i's neighbours is N(0,
zeta_std^2 deg_i), independent across receivers; so one standard normal
per receiver, scaled by zeta_std sqrt(deg_i), gives the same state law.
`exact_disagreement` is the exact annealed E V of this protocol, the
oracle the Monte Carlo engines are checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erf

from .dynamics import GainSchedule, MonteCarloResult, SimulationTrace, _summarize, _trace
from .graph import WeightedDigraph
from .rng import TAG_MANET_ROUND, StreamPool

def reception_probability(alpha: float, beta: float, d_km) -> np.ndarray | float:
    """Packet success probability (1 + erf(alpha - beta log10 d)) / 2.

    Strictly decreasing in d, equal to 1/2 at d = 10^(alpha/beta).
    d = 0 (co-located agents) is treated as the limit, probability 1.
    """
    d = np.asarray(d_km, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    safe = np.where(d > 0, d, 1.0)
    out = np.where(d > 0, 0.5 * (1.0 + erf(alpha - beta * np.log10(safe))), 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RadioParams:
    """Per-agent reception offsets and the shared slope.

    alpha[j] = (S_j - 32.4 - 20 log10 f_j - R_th) / (sqrt(2) sigma) and
    beta = 10 sqrt(2) / sigma, with sigma the shadowing standard
    deviation in dB.
    """

    alpha: np.ndarray
    beta: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float)).copy()
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        if self.beta <= 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class ManetScene:
    """Scene geometry, motion rule, radio model, and noise levels.

    Relative speed of every agent is speed_scale / (t + speed_t0)^speed_b
    along its fixed heading; positions are in km and the broadcast period
    is `period` time units.
    """

    positions0: np.ndarray          # (n, 2) km
    headings: np.ndarray            # (n,) radians
    radio: RadioParams
    initial_states: np.ndarray      # (n,)
    speed_scale: float = 1.0
    speed_t0: float = 200.0
    speed_b: float = 1.0
    period: float = 1.0
    xi_half_width: float = 1.0 / 16.0   # quantization noise, uniform
    zeta_std: float = 0.05              # reception noise, gaussian

    def __post_init__(self):
        p = np.asarray(self.positions0, dtype=float)
        h = np.asarray(self.headings, dtype=float)
        x = np.asarray(self.initial_states, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or h.shape != (p.shape[0],) or x.shape != (p.shape[0],):
            raise ValueError("positions0 (n,2), headings (n,), initial_states (n,) must agree")
        if self.radio.alpha.size not in (1, p.shape[0]):
            raise ValueError(f"radio.alpha has {self.radio.alpha.size} entries; "
                             f"need 1 or n = {p.shape[0]}")
        for name in ("xi_half_width", "zeta_std"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("period", "speed_t0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name, arr in (("positions0", p), ("headings", h), ("initial_states", x)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.positions0.shape[0]

    def relative_speed(self, t: float) -> float:
        return self.speed_scale / (t + self.speed_t0) ** self.speed_b

    def round_displacements(self, rounds: int) -> np.ndarray:
        """Cumulative along-heading displacement at each round start.

        Speeds are sampled at round starts and held for the round, so
        displacement accumulates as a plain cumulative sum; entry l is
        the displacement at time lT, entry 0 being 0.
        """
        ls = np.arange(rounds, dtype=float)
        per_round = self.relative_speed(ls * self.period) * self.period
        out = np.zeros(rounds + 1)
        out[1:] = np.cumsum(per_round)
        return out

    def positions_at(self, l: int, tau_offset: float, cum_disp: float) -> np.ndarray:
        """(n, 2) positions at time lT + tau_offset within round l."""
        s_l = self.relative_speed(l * self.period)
        disp = cum_disp + s_l * tau_offset
        u = np.stack([np.cos(self.headings), np.sin(self.headings)], axis=1)
        return self.positions0 + u * disp


def _alpha_vector(scene: ManetScene) -> np.ndarray:
    a = scene.radio.alpha
    return np.full(scene.n, float(a[0])) if a.size == 1 else a


_ROUND_CHUNK = 64  # rounds of reception probabilities computed per vectorized pass


def _round_probabilities(scene: ManetScene, start: int, stop: int,
                         disps: np.ndarray) -> np.ndarray:
    """probs[k, i, j]: probability that j receives i's broadcast in round
    start + k, for the rounds start <= l < stop.

    disps[l] is the cumulative displacement at time lT.  Each element is
    computed with the same operations as `ManetScene.positions_at` for
    sender i at tau = (i/n) T, so the table does not depend on the chunk.
    """
    n = scene.n
    alpha = _alpha_vector(scene)
    # scalar `**` per round: a vectorized power can differ in the last bit
    s = np.array([scene.relative_speed(l * scene.period) for l in range(start, stop)])
    tau = np.array([(i / n) * scene.period for i in range(n)])
    disp = disps[start:stop, None] + s[:, None] * tau            # (rounds, sender)
    u = np.stack([np.cos(scene.headings), np.sin(scene.headings)], axis=1)
    pos = scene.positions0 + u * disp[:, :, None, None]          # (rounds, sender, agent, 2)
    sender = scene.positions0 + u * disp[:, :, None]              # (rounds, sender, 2)
    d = np.linalg.norm(pos - sender[:, :, None, :], axis=-1)
    probs = reception_probability(alpha[None, :, None], scene.radio.beta, d)
    idx = np.arange(n)
    probs[:, idx, idx] = 0.0
    return probs


def _reception_rows(scene: ManetScene, rounds: int):
    """Yield the (n, n) reception probabilities of rounds 0 .. rounds-1,
    computed _ROUND_CHUNK rounds at a time."""
    disps = scene.round_displacements(rounds)
    for start in range(0, rounds, _ROUND_CHUNK):
        yield from _round_probabilities(scene, start, min(start + _ROUND_CHUNK, rounds), disps)


def _check_rounds(rounds: int) -> None:
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The unordered pairs i < j of n nodes in `np.triu_indices(n, 1)` order:
    (iu, ju, E1, E2, E), E1 and E2 the (n, m) 0/1 incidence of each pair's
    first and second node and E = (E1 + E2)'.  Cached per n, read-only."""
    iu, ju = np.triu_indices(n, 1)
    E1 = np.zeros((n, iu.size))
    E2 = np.zeros((n, iu.size))
    E1[iu, np.arange(iu.size)] = 1.0
    E2[ju, np.arange(iu.size)] = 1.0
    out = (iu, ju, E1, E2, (E1 + E2).T.copy())
    for arr in out:
        arr.flags.writeable = False
    return out


def _round_update(scene: ManetScene, X: np.ndarray, a_l: float, gen: np.random.Generator,
                  probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One broadcast period for a (runs, n) block of states: mutual
    receptions form each run's graph.

    probs is the round's (n, n) reception table (`_reception_rows`).
    Draw order from gen: pair uniforms (runs, m), m = n(n-1)/2, in
    `np.triu_indices(n, 1)` order; quantization noise xi (runs, n);
    standard normals z (runs, n).  Returns the new states and b, b[r, e]
    being 1.0 when the pair e is a mutual reception in run r.

    Pair e = {i, j} is mutual with probability p_ij p_ji, independently of
    the other pairs, so comparing one uniform with that product draws the
    graph `succ & succ'` of two directed draws in law.  The reception
    noise enters only through sum_j b_ij zeta_ij, which given the graph
    is N(0, zeta_std^2 deg_i) independently across receivers, so
    zeta_std sqrt(deg_i) z_i has its law.  The update runs on the pair
    list: with Y = X + xi and deg = b E,
    term = (b * Y E2) E1' + (b * Y E1) E2' + zeta_std sqrt(deg) z - deg X.
    """
    runs, n = X.shape
    iu, ju, E1, E2, E = _pairs(n)
    b = (gen.random((runs, iu.size)) < probs[iu, ju] * probs[ju, iu]).astype(float)
    Y = X + gen.uniform(-scene.xi_half_width, scene.xi_half_width, (runs, n))
    z = gen.standard_normal((runs, n))
    deg = b @ E
    term = ((b * (Y @ E2)) @ E1.T + (b * (Y @ E1)) @ E2.T
            + scene.zeta_std * np.sqrt(deg) * z - deg * X)
    return X + a_l * term, b


def simulate_round(scene: ManetScene, l: int, states: Sequence[float], a_l: float,
                   stream: StreamPool, probs: np.ndarray
                   ) -> tuple[np.ndarray, WeightedDigraph]:
    """Round l of a single run, drawn from the (round, run 0) substream;
    returns the new states and the round's graph of mutual receptions."""
    x = np.asarray(states, dtype=float)
    X, b = _round_update(scene, x[None, :], a_l, stream.at(TAG_MANET_ROUND, 0, l), probs)
    iu, ju = _pairs(scene.n)[:2]
    w = np.zeros((scene.n, scene.n))
    w[iu, ju] = b[0]
    w[ju, iu] = b[0]
    return X[0], WeightedDigraph(scene.n, w, 1.0)


def run_manet(scene: ManetScene, gains: GainSchedule, rounds: int, seed: int) -> SimulationTrace:
    """Iterate rounds l = 0 .. rounds-1; round l applies gain a(l+1) of the
    schedule (round indexing starts at zero, gain tables at one)."""
    _check_rounds(rounds)
    stream = StreamPool(seed)
    a_all = gains.values(np.arange(1, rounds + 2))

    def states():
        x = scene.initial_states
        for l, probs in enumerate(_reception_rows(scene, rounds)):
            x, _ = simulate_round(scene, l, x, a_all[l], stream, probs)
            yield x

    return _trace(np.arange(rounds + 1), scene.initial_states, states(), a_all)


def run_manet_batch(scene: ManetScene, gains: GainSchedule, rounds: int,
                    runs: int, seed: int) -> MonteCarloResult:
    """Advance `runs` independent replicas together; returns the mean and
    standard error of V at rounds 0 .. rounds and the final states.

    All replicas share the deterministic motion, so reception
    probabilities are computed once for all of them, a chunk of rounds at
    a time; per-replica draws ride the leading axis of the round
    substream's draws.
    """
    _check_rounds(rounds)
    if runs < 2:
        raise ValueError("need at least 2 runs")
    stream = StreamPool(seed)
    a_all = gains.values(np.arange(1, rounds + 1))
    X = np.tile(scene.initial_states, (runs, 1))

    def blocks():
        Y = X
        for l, probs in enumerate(_reception_rows(scene, rounds)):
            Y, _ = _round_update(scene, Y, a_all[l], stream.at(TAG_MANET_ROUND, 1, l), probs)
            yield Y.T

    return _summarize(np.arange(rounds + 1), X.T, blocks())


def exact_disagreement(scene: ManetScene, gains: GainSchedule, rounds: int) -> np.ndarray:
    """Exact E V at rounds 0 .. rounds, averaged over receptions and noise,
    with the gains of `run_manet_batch`.

    Pairs e = {i, j} are mutual with probability q_e = p_ij p_ji,
    independently; Q = P o P' and Lbar = diag(Q 1) - Q is the mean
    Laplacian.  With u_e = e_i - e_j, var_xi = xi_half_width^2 / 3 and the
    uncentered second moment S = E x x' (the noise moves the average),
    round l applies

        S <- S - a (Lbar S + S Lbar) + a^2 [Lbar S Lbar
             + sum_e q_e (1 - q_e) (u_e' S u_e) u_e u_e'
             + var_xi (Q^2 + diag sum_j q_ij (1 - q_ij)) + zeta_std^2 diag(Q 1)],

    the terms being E L S L and the mean covariance of the aggregate
    noise; E V = tr(J S J) = tr S - 1' S 1 / n.
    """
    _check_rounds(rounds)
    n = scene.n
    a_all = gains.values(np.arange(1, rounds + 1))
    var_xi = scene.xi_half_width ** 2 / 3.0
    S = np.outer(scene.initial_states, scene.initial_states)
    EV = np.empty(rounds + 1)
    EV[0] = np.trace(S) - S.sum() / n
    for l, probs in enumerate(_reception_rows(scene, rounds)):
        a = a_all[l]
        Q = probs * probs.T
        W = Q * (1.0 - Q)
        deg = Q.sum(axis=1)
        Lbar = np.diag(deg) - Q
        d = np.diag(S)
        C = W * (d[:, None] + d[None, :] - 2.0 * S)  # q_e (1 - q_e) u_e' S u_e
        LS = Lbar @ S
        S = S - a * (LS + LS.T) + a * a * (
            LS @ Lbar + np.diag(C.sum(axis=1)) - C
            + var_xi * (Q @ Q + np.diag(W.sum(axis=1)))
            + scene.zeta_std ** 2 * np.diag(deg))
        EV[l + 1] = np.trace(S) - S.sum() / n
    return EV


def scenario_preset(figure: str) -> tuple[ManetScene, GainSchedule]:
    """The three simulation scenarios: nine agents on the unit circle.

    Agent i starts at angle (i-1) pi/8 with that same heading and state
    (i-1)/8; relative speed decays like 1/(t+200)^b with b = 1, 0.9, 0.8
    for fig2, fig3, fig4.  The gain at round l is 1/(l+30)^0.99.
    """
    exponents = {"fig2": 1.0, "fig3": 0.9, "fig4": 0.8}
    if figure not in exponents:
        raise ValueError(f"unknown scenario {figure!r}; pick one of {sorted(exponents)}")
    n = 9
    theta = np.arange(n) * np.pi / 8
    scene = ManetScene(
        positions0=np.stack([np.cos(theta), np.sin(theta)], axis=1),
        headings=theta,
        radio=RadioParams(alpha=np.full(n, 4.0), beta=10 * math.sqrt(2)),
        initial_states=np.arange(n) / 8.0,
        speed_scale=1.0,
        speed_t0=200.0,
        speed_b=exponents[figure],
        period=1.0,
        xi_half_width=1.0 / 16.0,
        zeta_std=0.05,
    )
    # evaluated at t = l + 1 with shift 29, i.e. exactly 1/(l+30)^0.99
    gains = GainSchedule("power", alpha=1.0, t_star=0.0, exponent=0.99, shift=29.0)
    return scene, gains


def write_positions_csv(scene: ManetScene, rounds: int, path) -> None:
    """Columns l, agent, px, py at round starts (motion is deterministic)."""
    disps = scene.round_displacements(rounds)
    with open(path, "w") as fh:
        fh.write("l,agent,px,py\n")
        for l in range(rounds + 1):
            pos = scene.positions_at(l, 0.0, float(disps[l]))
            for i in range(scene.n):
                fh.write(f"{l},{i + 1},{pos[i, 0]:.12g},{pos[i, 1]:.12g}\n")
