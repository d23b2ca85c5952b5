"""Weighted digraphs, Laplacians, and connectivity predicates.

Conventions
-----------
Nodes are 0-based.  The weight matrix follows the receiver-row
convention: `weights[i, j]` is the weight of the directed edge (j, i),
i.e. what node i applies to information received from node j.  Zero
encodes absence; every present edge weight must lie in [1, a_max].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_BALANCE_TOL = 1e-9
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Immutable weighted digraph on nodes 0..n-1.

    Parameters
    ----------
    n : node count, at least 2.
    weights : (n, n) array, `weights[i, j]` = weight of edge (j, i).
    a_max : declared upper bound on edge weights.
    """

    n: int
    weights: np.ndarray
    a_max: float = 1.0

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if self.n < 2:
            raise ValueError("graph needs n >= 2")
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-loops are not allowed")
        nz = w[w != 0]
        if nz.size and (np.any(nz < 1 - _WEIGHT_TOL) or np.any(nz > self.a_max + _WEIGHT_TOL)):
            raise ValueError(f"nonzero weights must lie in [1, {self.a_max}]")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def edges(self) -> list[tuple[int, int, float]]:
        """Present edges as (sender j, receiver i, weight), sorted."""
        ii, jj = np.nonzero(self.weights)
        return sorted((int(j), int(i), float(self.weights[i, j])) for i, j in zip(ii, jj))

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.weights))


def empty_graph(n: int, a_max: float = 1.0) -> WeightedDigraph:
    return WeightedDigraph(n, np.zeros((n, n)), a_max)


def from_edges(n: int, edges: Iterable[tuple[int, int, float]], a_max: float | None = None) -> WeightedDigraph:
    """Build a graph from 0-based (sender, receiver, weight) triples."""
    w = np.zeros((n, n))
    for j, i, wt in edges:
        w[i, j] = wt
    if a_max is None:
        a_max = max(1.0, float(w.max(initial=0.0)))
    return WeightedDigraph(n, w, a_max)


def complete_graph(n: int) -> WeightedDigraph:
    """Undirected complete graph with unit weights."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return WeightedDigraph(n, np.ones((n, n)) - np.eye(n), 1.0)


def pair_graph(n: int) -> WeightedDigraph:
    """Single symmetric unit-weight edge between nodes 0 and 1."""
    if n < 2:
        raise ValueError("pair graph needs n >= 2")
    w = np.zeros((n, n))
    w[0, 1] = w[1, 0] = 1.0
    return WeightedDigraph(n, w, 1.0)


def cycle_graph(n: int) -> WeightedDigraph:
    """Undirected n-cycle with unit weights."""
    w = np.zeros((n, n))
    for k in range(n):
        w[k, (k + 1) % n] = w[(k + 1) % n, k] = 1.0
    return WeightedDigraph(n, w, 1.0)


def star_graph(n: int, center: int = 0) -> WeightedDigraph:
    """Undirected unit-weight star centered at `center`."""
    w = np.zeros((n, n))
    for j in range(n):
        if j != center:
            w[center, j] = w[j, center] = 1.0
    return WeightedDigraph(n, w, 1.0)


def _cached_laplacian(g: WeightedDigraph) -> np.ndarray:
    # pinned to the (immutable) graph so hot loops never recompute it;
    # the array is read-only because it is shared
    L = g.__dict__.get("_lap")
    if L is None:
        L = np.diag(g.weights.sum(axis=1)) - g.weights
        L.flags.writeable = False
        object.__setattr__(g, "_lap", L)
    return L


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """L = D_in - A; rows sum to zero."""
    return _cached_laplacian(g).copy()


def degrees(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """(in_degrees, out_degrees): weighted row and column sums."""
    return g.weights.sum(axis=1), g.weights.sum(axis=0)


def is_balanced(g: WeightedDigraph, tol: float = DEFAULT_BALANCE_TOL) -> bool:
    """True iff in-degree equals out-degree at every node, within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    din, dout = degrees(g)
    return bool(np.all(np.abs(din - dout) <= tol))


def is_strongly_connected(g: WeightedDigraph | np.ndarray) -> bool | np.ndarray:
    """Directed path between every ordered node pair.

    `g` is a graph, or a square matrix or a (..., n, n) stack of them in
    the receiver-row convention, where a nonzero entry [i, j] is an edge
    j -> i.  The reflexive closure (I | A)^(2^k) covers every path of
    length at most 2^k, so k = ceil(log2(n - 1)) boolean squarings reach
    all paths of length n - 1; a stack is squared matrix by matrix in one
    call.  Returns a Python bool for one matrix and a boolean array of
    the stack's leading shape otherwise.
    """
    adj = g.weights if isinstance(g, WeightedDigraph) else np.asarray(g)
    n = adj.shape[-1]
    reach = adj != 0
    reach |= np.eye(n, dtype=bool)
    for _ in range((n - 2).bit_length()):
        reach = reach @ reach
    ok = reach.all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def union(graphs: Sequence[WeightedDigraph]) -> np.ndarray:
    """Summed weight matrix of digraphs; a nonzero entry marks an edge
    present at least once."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot unite an empty sequence of graphs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs in a union must share the node count")
    return np.sum([g.weights for g in graphs], axis=0)


def complete_pair_eigenbasis(n: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Shared orthonormal eigenbasis of the complete and pair graphs.

    Columns are v_1 = n^{-1/2} 1, v_2 = (1, -1, 0, ...)/sqrt(2) and
    v_i = (i^2 - i)^{-1/2} (1, ..., 1, 1-i, 0, ..., 0).  P diagonalizes
    both L_complete (spectrum {0, n, ..., n}) and L_pair (spectrum
    {0, 2, 0, ..., 0}); the returned residuals are the Frobenius
    reconstruction errors of those two factorizations.
    """
    if n < 2:
        raise ValueError("basis needs n >= 2")
    P = np.zeros((n, n))
    P[:, 0] = 1.0 / np.sqrt(n)
    for i in range(2, n + 1):
        v = np.zeros(n)
        v[: i - 1] = 1.0
        v[i - 1] = 1.0 - i
        P[:, i - 1] = v / np.sqrt(i * i - i)
    L1 = laplacian(complete_graph(n))
    L2 = laplacian(pair_graph(n))
    d1 = np.full(n, float(n))
    d1[0] = 0.0
    d2 = np.zeros(n)
    d2[1] = 2.0
    res1 = float(np.linalg.norm(P @ np.diag(d1) @ P.T - L1))
    res2 = float(np.linalg.norm(P @ np.diag(d2) @ P.T - L2))
    return P, (res1, res2)
