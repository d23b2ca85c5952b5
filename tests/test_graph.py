import itertools

import numpy as np
import pytest

from consensuslab import graph as G


def dfs_strongly_connected(adj: np.ndarray) -> bool:
    """Oracle independent of the library's closure: node 0 reaches every
    node along the edges and against them (depth-first search)."""
    adj = np.asarray(adj) != 0

    def reaches_all(a: np.ndarray) -> bool:
        # a[i, j]: edge j -> i, so the successors of j are column j
        seen, stack = {0}, [0]
        while stack:
            j = stack.pop()
            for i in np.nonzero(a[:, j])[0]:
                if int(i) not in seen:
                    seen.add(int(i))
                    stack.append(int(i))
        return len(seen) == a.shape[0]

    return reaches_all(adj) and reaches_all(adj.T)


def gershgorin_bound(g: G.WeightedDigraph) -> float:
    """Circle-theorem bound on lambda_max(L + L').

    Returns max_i (2 L_ii + sum_{j != i} |L_ji + L_ij|), which is at most
    4 (n-1) a_max for unit-lower-bounded weights.
    """
    L = G.laplacian(g)
    s = L + L.T
    off = np.abs(s) - np.diag(np.abs(np.diag(s)))
    return float(np.max(np.diag(s) + off.sum(axis=1)))


class TestLaplacian:
    def test_pair_graph_matrix(self):
        L = G.laplacian(G.pair_graph(3))
        expect = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(L, expect)

    def test_complete_graph_matrix(self):
        for n in (2, 3, 5, 9):
            L = G.laplacian(G.complete_graph(n))
            np.testing.assert_allclose(L, n * np.eye(n) - np.ones((n, n)))

    def test_empty_graph_zero(self):
        np.testing.assert_array_equal(G.laplacian(G.empty_graph(4)), np.zeros((4, 4)))

    def test_row_sums_zero_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = np.where(rng.random((n, n)) < 0.5, rng.uniform(1, 3, (n, n)), 0.0)
            np.fill_diagonal(w, 0.0)
            g = G.WeightedDigraph(n, w, 3.0)
            assert np.abs(G.laplacian(g).sum(axis=1)).max() <= 1e-12


class TestDegreesBalance:
    def test_pair_graph_degrees(self):
        din, dout = G.degrees(G.pair_graph(3))
        np.testing.assert_allclose(din, [1, 1, 0])
        np.testing.assert_allclose(dout, [1, 1, 0])

    def test_complete_degrees(self):
        din, dout = G.degrees(G.complete_graph(4))
        np.testing.assert_allclose(din, [3, 3, 3, 3])
        np.testing.assert_allclose(dout, [3, 3, 3, 3])

    def test_single_directed_edge(self):
        g = G.from_edges(3, [(0, 1, 2.0)])  # 1 -> 2 with weight 2
        din, dout = G.degrees(g)
        np.testing.assert_allclose(din, [0, 2, 0])
        np.testing.assert_allclose(dout, [2, 0, 0])
        assert not G.is_balanced(g)

    def test_symmetric_weights_balanced(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        w[i, j] = w[j, i] = rng.uniform(1, 2)
            g = G.WeightedDigraph(n, w, 2.0)
            assert G.is_balanced(g, tol=0.0)

    def test_empty_graph_balanced(self):
        assert G.is_balanced(G.empty_graph(3), tol=0.0)

    def test_directed_cycle_balanced(self):
        g = G.from_edges(3, [(0, 1, 1.5), (1, 2, 1.5), (2, 0, 1.5)], a_max=2.0)
        assert G.is_balanced(g, tol=0.0)


class TestValidation:
    def test_rejects_self_loop(self):
        w = np.zeros((2, 2))
        w[0, 0] = 1.0
        with pytest.raises(ValueError):
            G.WeightedDigraph(2, w)

    def test_rejects_small_weight(self):
        w = np.zeros((2, 2))
        w[0, 1] = 0.5
        with pytest.raises(ValueError):
            G.WeightedDigraph(2, w, 1.0)

    def test_rejects_big_weight(self):
        w = np.zeros((2, 2))
        w[0, 1] = 3.0
        with pytest.raises(ValueError):
            G.WeightedDigraph(2, w, 2.0)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            G.WeightedDigraph(1, np.zeros((1, 1)))


class TestStrongConnectivity:
    def test_complete_connected(self):
        assert G.is_strongly_connected(G.complete_graph(4))

    def test_pair_n3_disconnected(self):
        assert not G.is_strongly_connected(G.pair_graph(3))

    def test_directed_cycle(self):
        g = G.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        assert G.is_strongly_connected(g)

    def test_exhaustive_small_n(self):
        # every digraph on 2..4 nodes against the DFS oracle
        for n in (2, 3, 4):
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            for bits in range(1 << len(pairs)):
                adj = np.zeros((n, n), dtype=bool)
                for k, (i, j) in enumerate(pairs):
                    if bits >> k & 1:
                        adj[i, j] = True
                g = G.WeightedDigraph(n, adj.astype(float), 1.0)
                assert G.is_strongly_connected(g) == dfs_strongly_connected(adj)
                assert G.is_strongly_connected(adj) == dfs_strongly_connected(adj)

    def test_exhaustive_n5(self):
        # all 2^20 digraphs on 5 nodes against a batched closure oracle
        n = 5
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        total = 1 << len(pairs)
        bits = np.arange(total, dtype=np.uint32)
        adj = np.zeros((total, n, n), dtype=bool)
        for k, (i, j) in enumerate(pairs):
            adj[:, i, j] = (bits >> k) & 1
        reach = adj | np.eye(n, dtype=bool)
        for _ in range(3):  # (I | A)^8 covers all paths of length <= 4
            reach = np.einsum("bij,bjk->bik", reach, reach, dtype=np.uint8).astype(bool)
        oracle = reach.all(axis=(1, 2))
        for case in range(total):
            u = adj[case].astype(float)  # a union's summed weight matrix
            assert G.is_strongly_connected(u) == oracle[case], f"case {case}"

    def test_randomized_n_up_to_8(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            m = int(rng.integers(2, 9))
            adj = rng.random((m, m)) < rng.uniform(0.1, 0.7)
            np.fill_diagonal(adj, False)
            g = G.WeightedDigraph(m, adj.astype(float), 1.0)
            assert G.is_strongly_connected(g) == dfs_strongly_connected(adj)

    def test_directed_cycle_past_64_nodes(self):
        # a 70-cycle needs paths of length 69, i.e. seven squarings
        n = 70
        ring = [(k, (k + 1) % n, 1.0) for k in range(n)]
        g = G.from_edges(n, ring)
        cut = G.from_edges(n, ring[:-1])
        assert G.is_strongly_connected(g) and dfs_strongly_connected(g.weights)
        assert not G.is_strongly_connected(cut) and not dfs_strongly_connected(cut.weights)
        assert G.is_strongly_connected(g.weights != 0)


class TestStackedStrongConnectivity:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 9])
    def test_stack_matches_per_matrix(self, n):
        rng = np.random.default_rng(n)
        stack = rng.random((4, 30, n, n)) < rng.uniform(0.05, 0.6, (4, 30, 1, 1))
        counts = stack * rng.integers(1, 4, stack.shape)  # a union's edge counts
        got = G.is_strongly_connected(counts)
        assert got.shape == (4, 30) and got.dtype == bool
        expect = [[G.is_strongly_connected(m) for m in row] for row in counts]
        np.testing.assert_array_equal(got, expect)
        assert got.any() and not got.all()

    def test_one_matrix_gives_python_bool(self):
        assert type(G.is_strongly_connected(G.cycle_graph(4))) is bool
        assert type(G.is_strongly_connected(np.ones((3, 3)))) is bool
        assert type(G.is_strongly_connected(G.pair_graph(3).weights)) is bool

    def test_empty_stack(self):
        assert G.is_strongly_connected(np.zeros((0, 4, 4))).shape == (0,)


class TestUnion:
    def test_cycle_of_pieces_connected(self):
        gs = [G.pair_graph(3),
              G.from_edges(3, [(1, 2, 1.0)]),
              G.from_edges(3, [(2, 0, 1.0)])]
        u = G.union(gs)
        assert G.is_strongly_connected(u)

    def test_double_union_accumulates(self):
        g = G.complete_graph(3)
        u = G.union([g, g])
        np.testing.assert_allclose(u, 2 * g.weights)
        np.testing.assert_array_equal(u != 0, g.weights > 0)

    def test_empty_sequence_errors(self):
        with pytest.raises(ValueError):
            G.union([])

    def test_mismatched_n_errors(self):
        with pytest.raises(ValueError):
            G.union([G.complete_graph(3), G.complete_graph(4)])


class TestGershgorin:
    def test_complete_n3(self):
        g = G.complete_graph(3)
        assert gershgorin_bound(g) == pytest.approx(8.0)
        L = G.laplacian(g)
        assert np.linalg.eigvalsh(L + L.T).max() == pytest.approx(6.0)

    def test_pair_n3(self):
        g = G.pair_graph(3)
        b = gershgorin_bound(g)
        L = G.laplacian(g)
        lam = np.linalg.eigvalsh(L + L.T).max()
        assert lam == pytest.approx(4.0)
        assert b >= lam
        assert b <= 8.0

    def test_empty(self):
        assert gershgorin_bound(G.empty_graph(4)) == 0.0

    def test_dominates_lambda_max_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a_max = float(rng.uniform(1, 3))
            w = np.where(rng.random((n, n)) < 0.5, rng.uniform(1, a_max, (n, n)), 0.0)
            np.fill_diagonal(w, 0.0)
            g = G.WeightedDigraph(n, w, a_max)
            L = G.laplacian(g)
            lam = np.linalg.eigvalsh(L + L.T).max()
            assert gershgorin_bound(g) >= lam - 1e-9
            assert gershgorin_bound(g) <= 4 * (n - 1) * a_max + 1e-9


class TestEigenbasis:
    def test_residuals_small(self):
        for n in range(2, 51):
            P, (r1, r2) = G.complete_pair_eigenbasis(n)
            assert r1 <= 1e-10 and r2 <= 1e-10

    def test_orthonormal(self):
        for n in (2, 3, 7, 20):
            P, _ = G.complete_pair_eigenbasis(n)
            off = P.T @ P - np.eye(n)
            assert np.abs(off).max() <= 1e-12

    def test_n2_matrix(self):
        P, (r1, r2) = G.complete_pair_eigenbasis(2)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(P), [[s, s], [s, s]], atol=1e-15)
        assert r1 <= 1e-12 and r2 <= 1e-12


class TestDoublyStochastic:
    def test_balanced_gives_doubly_stochastic(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        w[i, j] = w[j, i] = rng.uniform(1, 3)
            if not w.any():
                w[0, 1] = w[1, 0] = 1.0
            g = G.WeightedDigraph(n, w, 3.0)
            d_max = G.degrees(g)[0].max()
            a = rng.uniform(0, 1) / d_max
            A = np.eye(n) - a * G.laplacian(g)
            assert A.min() >= -1e-12
            np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)


def test_canonical_graph_kinds():
    # the complete and pair graphs of the adversarial construction
    np.testing.assert_allclose(G.complete_graph(3).weights, np.ones((3, 3)) - np.eye(3))
    np.testing.assert_allclose(G.pair_graph(3).weights,
                               [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # at n=2 the two coincide
    np.testing.assert_allclose(G.pair_graph(2).weights, G.complete_graph(2).weights)
    for build in (G.pair_graph, G.complete_graph):
        with pytest.raises(ValueError):
            build(1)
