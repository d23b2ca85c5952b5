"""Weighted digraphs, Laplacians, and connectivity predicates.

Conventions
-----------
Nodes are 0-based internally and 1-based in all text I/O.  The weight
matrix follows the receiver-row convention: `weights[i, j]` is the weight
of the directed edge (j, i), i.e. what node i applies to information
received from node j.  Zero encodes absence; every present edge weight
must lie in [1, a_max].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

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


@dataclass(frozen=True, eq=False)
class UnionGraph:
    """Accumulated union of digraphs over a time window.

    `edge_present[i, j]` is True iff edge (j, i) appeared at least once;
    `total_weight[i, j]` sums the weights over all appearances (the only
    multi-edge information the downstream sums need).
    """

    n: int
    edge_present: np.ndarray
    total_weight: np.ndarray

    def __post_init__(self):
        if not np.array_equal(self.edge_present, self.total_weight > 0):
            raise ValueError("edge_present must match total_weight > 0")


GraphLike = Union[WeightedDigraph, UnionGraph]


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


def canonical_graph(n: int, kind: str) -> WeightedDigraph:
    """The two canonical benchmark graphs: "complete" or "pair"."""
    if kind == "complete":
        return complete_graph(n)
    if kind == "pair":
        return pair_graph(n)
    raise ValueError(f"unknown canonical graph kind: {kind!r}")


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


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    # adj[i, j]: edge j -> i; we walk sender -> receiver, so follow columns.
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        j = stack.pop()
        for i in np.nonzero(adj[:, j])[0]:
            if not seen[i]:
                seen[i] = True
                stack.append(int(i))
    return bool(seen.all())


def is_strongly_connected(g: GraphLike | np.ndarray) -> bool:
    """Directed path between every ordered node pair.

    `g` is a graph, a union, or a boolean presence matrix in the
    receiver-row convention (adj[i, j]: edge j -> i).  Node 0 must reach
    every node and be reachable from every node, which is equivalent to
    strong connectivity.
    """
    if isinstance(g, WeightedDigraph):
        adj = g.weights != 0
    elif isinstance(g, UnionGraph):
        adj = g.edge_present
    else:
        adj = g
    return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)


def union(graphs: Sequence[WeightedDigraph]) -> UnionGraph:
    """Union of digraphs: presence is OR-ed, weights accumulate."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot unite an empty sequence of graphs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs in a union must share the node count")
    total = np.zeros((n, n))
    for g in graphs:
        total += g.weights
    return UnionGraph(n, total > 0, total)


def gershgorin_bound(g: WeightedDigraph) -> float:
    """Circle-theorem bound on lambda_max(L + L').

    Returns max_i (2 L_ii + sum_{j != i} |L_ji + L_ij|), which is at most
    4 (n-1) a_max for unit-lower-bounded weights.
    """
    L = laplacian(g)
    s = L + L.T
    off = np.abs(s) - np.diag(np.abs(np.diag(s)))
    return float(np.max(np.diag(s) + off.sum(axis=1)))


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


def graph_to_text(g: WeightedDigraph) -> str:
    """Edge-list form: header `n a_max`, then `j i w` lines (1-based)."""
    lines = [f"{g.n} {g.a_max:.12g}"]
    for j, i, w in g.edges():
        lines.append(f"{j + 1} {i + 1} {w:.12g}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> WeightedDigraph:
    """Parse the edge-list form written by `graph_to_text`."""
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty graph text")
    head = rows[0].split()
    n, a_max = int(head[0]), float(head[1])
    edges = []
    for ln in rows[1:]:
        j, i, w = ln.split()
        edges.append((int(j) - 1, int(i) - 1, float(w)))
    return from_edges(n, edges, a_max)
