import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import consensuslab as cl
from consensuslab import graph as G
from consensuslab import topology as T
from consensuslab.rng import TAG_TOPOLOGY_BLOCK, philox_key, substream


class TestScheduleTimes:
    def test_sqrt_schedule(self):
        s = T.schedule_times(0.5, 1, 13)
        assert list(s.times) == [1, 2, 3, 4, 6, 8, 10, 13]

    def test_uniform_schedule(self):
        s = T.schedule_times(0.0, 1, 6)
        assert list(s.times) == [1, 2, 3, 4, 5, 6]

    def test_doubling_schedule(self):
        s = T.schedule_times(1.0, 1, 16)
        assert list(s.times) == [1, 2, 4, 8, 16]

    def test_bound_invariant_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = float(rng.uniform(0, 1))
            c = float(rng.integers(1, 5))
            s = T.schedule_times(delta, c, int(rng.integers(10, 500)))
            prev = s.times[:-1].astype(float)
            assert np.all(np.diff(s.times) >= 1)
            assert np.all(s.times[1:] <= prev + c * prev**delta + 1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            T.schedule_times(-0.1, 1, 10)
        with pytest.raises(ValueError):
            T.schedule_times(0.2, 0.5, 10)
        with pytest.raises(ValueError):
            T.schedule_times(0.2, 1, 0)


class TestWindowIndices:
    def setup_method(self):
        self.s = cl.ConnectivitySchedule(0.5, 1.0, np.array([1, 2, 3, 4, 6, 8]))

    def test_worked_example(self):
        assert T.window_indices(self.s, 3, 7) == (4, 6)

    def test_i_equals_one(self):
        k_i, _ = T.window_indices(self.s, 1, 5)
        assert k_i == 2

    def test_boundary(self):
        # t = t_m - 1 gives k_tilde = m
        for m, tm in enumerate(self.s.times, start=1):
            if tm - 1 >= 1:
                _, k_tilde = T.window_indices(self.s, 1, int(tm) - 1)
                assert k_tilde == m

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            T.window_indices(self.s, 0, 5)
        with pytest.raises(ValueError):
            T.window_indices(self.s, 3, 2)
        with pytest.raises(ValueError):
            T.window_indices(self.s, 1, 9)
        with pytest.raises(ValueError):
            T.window_indices(self.s, 8, 8)


class TestVerifyJointConnectivity:
    def test_period3_cycle(self):
        comps = T.cycle_edge_components(3)
        proc = T.PeriodicProcess(comps)
        trace = proc.trace(30)
        holds, witness = T.verify_joint_connectivity(trace, 0.0, 3.0)
        assert holds and witness is not None
        assert witness.times[0] == 1

    def test_all_empty_fails(self):
        trace = [G.empty_graph(3)] * 20
        holds, witness = T.verify_joint_connectivity(trace, 0.0, 3.0)
        assert not holds and witness is None

    def test_adversarial_trace_holds(self):
        gains = cl.GainSchedule("power", alpha=1.0, t_star=30.0, exponent=0.3)
        proc = T.AdversarialProcess(gains, 0.7, 1, 3, 400)
        trace = proc.trace(400)
        holds, witness = T.verify_joint_connectivity(trace, 0.7, 1.0)
        assert holds
        assert all(G.is_balanced(g) for g in trace)

    def test_extensible_block_holds_at_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            delta = float(rng.uniform(0, 0.6))
            c = float(rng.integers(1, 4))
            proc = T.ExtensibleBlockProcess(G.cycle_graph(4), delta, c, 300)
            holds, _ = T.verify_joint_connectivity(proc.trace(300), delta, c)
            assert holds


def scipy_strongly_connected(adj) -> bool:
    """Oracle independent of the library's closure."""
    return connected_components(np.asarray(adj) != 0, connection="strong")[0] == 1


def brute_completions(trace) -> np.ndarray:
    """comp[s] by a per-s scan: grow the union over [s, e) one graph at a
    time until it is strongly connected; horizon + 2 if it never is."""
    horizon, n = len(trace), trace[0].n
    comp = np.full(horizon + 2, horizon + 2, dtype=np.int64)
    for s in range(1, horizon + 1):
        seen = np.zeros((n, n), dtype=bool)
        for e in range(s + 1, horizon + 2):
            seen |= trace[e - 2].weights != 0
            # every node sending and receiving is necessary; check only then
            if seen.any(0).all() and seen.any(1).all() and scipy_strongly_connected(seen):
                comp[s] = e
                break
    return comp


def scan_certify(trace, delta, c):
    """(holds, witness times) from a prefix-maximum scan over every
    candidate milestone and a list of every censored final milestone."""
    horizon = len(trace)
    comp = brute_completions(trace)
    dl = lambda s: s + c * float(s) ** delta
    feasible = np.zeros(horizon + 2, dtype=bool)
    parent = np.zeros(horizon + 2, dtype=np.int64)
    feasible[1] = True
    p, best_dl, best_s = 0, -np.inf, 0
    for t in range(2, horizon + 2):
        while p + 1 <= horizon + 1 and comp[p + 1] <= t:
            p += 1
            if feasible[p] and dl(p) > best_dl:
                best_dl, best_s = dl(p), p
        if best_s and best_dl >= t - 1e-9:
            feasible[t] = True
            parent[t] = best_s
    ok = [s for s in range(1, horizon + 2) if feasible[s] and dl(s) > horizon + 1e-9]
    if not ok:
        return False, None
    chain = [max(ok)]
    while chain[-1] != 1:
        chain.append(int(parent[chain[-1]]))
    return True, chain[::-1]


def random_trace(rng, n, horizon, density, empty_frac=0.0):
    trace = []
    for _ in range(horizon):
        adj = (rng.random((n, n)) < density) & (rng.random() >= empty_frac)
        np.fill_diagonal(adj, False)
        trace.append(G.WeightedDigraph(n, adj.astype(float), 1.0))
    return trace


class TestEarliestCompletions:
    @pytest.mark.parametrize("chunk", [7, T._WINDOW_CHUNK])
    def test_random_directed_traces_match_brute_force(self, monkeypatch, chunk):
        monkeypatch.setattr(T, "_WINDOW_CHUNK", chunk)
        rng = np.random.default_rng(17)
        for case in range(150):
            n = int(rng.integers(2, 7))
            horizon = int(rng.integers(1, 61))
            trace = random_trace(rng, n, horizon, rng.uniform(0.02, 0.3), rng.uniform(0, 0.7))
            np.testing.assert_array_equal(T._earliest_completions(trace), brute_completions(trace),
                                          err_msg=f"case {case}")

    def test_traces_that_never_connect(self):
        # node 3 never receives: no window is ever connected
        g = G.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 0, 1.0)])
        for trace in ([G.empty_graph(4)] * 7, [g, G.empty_graph(4)] * 9, [g]):
            comp = T._earliest_completions(trace)
            np.testing.assert_array_equal(comp, np.full(len(trace) + 2, len(trace) + 2))
            np.testing.assert_array_equal(comp, brute_completions(trace))

    def test_benchmark_prefix_matches_brute_force(self):
        # the first 6000 steps of the (delta, c) = (0.3, 2) cycle process,
        # the prefix the exact_certify workload certifies
        trace = T.ExtensibleBlockProcess(G.cycle_graph(5), 0.3, 2.0, 12000).trace(6000)
        np.testing.assert_array_equal(T._earliest_completions(trace), brute_completions(trace))

    def test_connectivity_checked_once_per_round(self, monkeypatch):
        # all windows of a round (fewer than _WINDOW_CHUNK here) are checked
        # in one stacked call through the module global
        trace = T.ExtensibleBlockProcess(G.cycle_graph(5), 0.3, 2.0, 1000).trace(1000)
        calls = []
        check = T.is_strongly_connected
        monkeypatch.setattr(T, "is_strongly_connected", lambda a: calls.append(a.shape) or check(a))
        T._earliest_completions(trace)
        assert 1 < len(calls) <= 2 + math.ceil(math.log2(1000))
        assert all(len(shape) == 3 for shape in calls)


class TestCertifyMatchesScan:
    def test_random_traces(self):
        rng = np.random.default_rng(23)
        for case in range(120):
            n = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 61))
            trace = random_trace(rng, n, horizon, rng.uniform(0.1, 0.6), rng.uniform(0, 0.8))
            delta, c = float(rng.uniform(0, 1.2)), float(rng.uniform(1, 3))
            holds, witness = T.verify_joint_connectivity(trace, delta, c)
            ref_holds, ref_chain = scan_certify(trace, delta, c)
            assert holds == ref_holds, f"case {case}"
            if holds:
                assert witness.times.tolist() == ref_chain, f"case {case}"

    def test_extensible_block_witness(self):
        trace = T.ExtensibleBlockProcess(G.cycle_graph(4), 0.4, 2.0, 400).trace(400)
        holds, witness = T.verify_joint_connectivity(trace, 0.4, 2.0)
        assert holds and witness.times.tolist() == scan_certify(trace, 0.4, 2.0)[1]


class TestCertifyRejectsBadInput:
    TRACE = T.PeriodicProcess(T.cycle_edge_components(3)).trace(30)

    @pytest.mark.parametrize("delta, c, bad", [(-0.1, 2.0, "delta = -0.1"),
                                               (math.nan, 2.0, "delta = nan"),
                                               (0.3, 0.5, "c = 0.5"),
                                               (0.3, math.nan, "c = nan")])
    def test_verify_bound(self, delta, c, bad):
        with pytest.raises(ValueError, match=f"need delta >= 0 and c >= 1, got {bad}"):
            T.verify_joint_connectivity(self.TRACE, delta, c)

    def test_minimal_delta_c_below_one(self):
        with pytest.raises(ValueError, match="c >= 1, got c = 0.5"):
            T.minimal_delta(self.TRACE, 0.5)

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
    def test_minimal_delta_grid_step(self, step):
        with pytest.raises(ValueError, match="grid_step"):
            T.minimal_delta(self.TRACE, 3.0, grid_step=step)

    @pytest.mark.parametrize("top", [-1.0, math.nan, math.inf])
    def test_minimal_delta_grid_max(self, top):
        with pytest.raises(ValueError, match="grid_max"):
            T.minimal_delta(self.TRACE, 3.0, grid_max=top)

    def test_mixed_node_counts(self):
        trace = [G.complete_graph(3), G.complete_graph(4)]
        with pytest.raises(ValueError, match="node count"):
            T.verify_joint_connectivity(trace, 0.3, 2.0)
        with pytest.raises(ValueError, match="node count"):
            T.minimal_delta(trace, 2.0)

    def test_schedule_rejects_nan(self):
        with pytest.raises(ValueError, match="delta = nan"):
            T.schedule_times(math.nan, 2.0, 10)
        with pytest.raises(ValueError, match="c = nan"):
            cl.ConnectivitySchedule(0.3, math.nan, np.array([1, 2]))


class TestExtensibleBlockProcess:
    def test_last_milestone_is_outside_the_schedule(self):
        proc = T.ExtensibleBlockProcess(G.cycle_graph(5), 0.3, 2.0, 100)
        assert proc.schedule.times[-1] <= 100 < 105 == proc._times[-1]
        proc.graph_at(104)
        for t in (0, 105, 106):
            with pytest.raises(ValueError, match=f"time {t} outside the generated schedule"):
                proc.graph_at(t)

    def test_window_slots_deal_pairs_round_robin(self):
        # slot s of a width-w window holds base pairs s, s + w, ... (sorted
        # sender < receiver), in both directions; every window unions to the base
        base = G.cycle_graph(5)
        pairs = [(j, i, w) for j, i, w in base.edges() if j < i]
        proc = T.ExtensibleBlockProcess(base, 0.5, 2.0, 200)
        times = list(proc.schedule.times) + [201]
        for start, end in zip(times, times[1:]):
            width = end - start
            for slot in range(width):
                picked = pairs[slot::width]
                direct = G.from_edges(5, picked + [(i, j, w) for j, i, w in picked], base.a_max)
                np.testing.assert_array_equal(proc.graph_at(start + slot).weights, direct.weights)
            if end <= 200:
                window = G.union([proc.graph_at(t) for t in range(start, end)])
                np.testing.assert_array_equal(window, base.weights)

    def test_instances_on_one_base_share_slot_graphs(self):
        base = G.cycle_graph(5)
        p1 = T.ExtensibleBlockProcess(base, 0.5, 2.0, 300)
        p2 = T.ExtensibleBlockProcess(G.cycle_graph(5), 0.5, 2.0, 300)
        for t in range(1, 301):
            assert p1.graph_at(t) is p2.graph_at(t)


class TestMinimalDelta:
    def test_period3(self):
        trace = T.PeriodicProcess(T.cycle_edge_components(3)).trace(60)
        assert T.minimal_delta(trace, 3.0) == 0.0

    def test_fixed_connected(self):
        trace = [G.complete_graph(4)] * 50
        assert T.minimal_delta(trace, 1.0) == 0.0

    def test_doubling_blocks(self):
        proc = T.ExtensibleBlockProcess(G.cycle_graph(4), 1.0, 1.0, 600)
        md = T.minimal_delta(proc.trace(600), 1.0)
        assert md == pytest.approx(1.0, abs=0.05)

    def test_never_connected_errors(self):
        with pytest.raises(ValueError):
            T.minimal_delta([G.empty_graph(3)] * 50, 1.0)

    def test_grid_max_between_grid_points(self):
        # the grid is {0, 0.15}: 0.22 certifies but is no grid point, and
        # 0.15 does not certify
        trace = T.ExtensibleBlockProcess(G.cycle_graph(4), 0.2, 2.0, 3000).trace(3000)
        assert T.verify_joint_connectivity(trace, 0.22, 2.0)[0]
        assert not T.verify_joint_connectivity(trace, 0.15, 2.0)[0]
        with pytest.raises(ValueError, match="no delta on the grid"):
            T.minimal_delta(trace, 2.0, grid_step=0.15, grid_max=0.22)
        assert T.minimal_delta(trace, 2.0, grid_step=0.15, grid_max=0.3) == 0.3
        assert T.minimal_delta(trace, 2.0, grid_step=0.1, grid_max=0.3) == 0.2

    def test_agrees_with_verify(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            delta = float(rng.uniform(0, 0.5))
            c = float(rng.integers(1, 4))
            proc = T.ExtensibleBlockProcess(G.cycle_graph(3), delta, c, 200)
            trace = proc.trace(200)
            md = T.minimal_delta(trace, c)
            assert T.verify_joint_connectivity(trace, md, c)[0]
            if md >= 0.01:
                assert not T.verify_joint_connectivity(trace, md - 0.01, c)[0]


class TestPeriodicProcess:
    def test_cycle_components(self):
        proc = T.PeriodicProcess(T.cycle_edge_components(3))
        assert proc.graph_at(1) is proc.graph_at(4)

    def test_fixed_single(self):
        proc = T.PeriodicProcess([G.complete_graph(3)])
        assert proc.graph_at(7) is proc.graph_at(1)

    def test_disconnected_union_rejected(self):
        with pytest.raises(ValueError):
            T.PeriodicProcess([G.pair_graph(3), G.pair_graph(3)])


class TestAdversarialProcess:
    def test_min_gain_slot_gets_complete_graph(self):
        # schedule (1,2,3,4,6,8): window [4,6) with a(4)=0.1 > a(5)=0.05
        table = np.array([0.2, 0.15, 0.12, 0.1, 0.05, 0.2, 0.2])
        gains = cl.GainSchedule("table", table=table)
        proc = T.AdversarialProcess(gains, 0.5, 1, 3, 7)
        assert proc.graph_at(5).num_edges == G.complete_graph(3).num_edges
        assert proc.graph_at(4).num_edges == G.pair_graph(3).num_edges

    def test_constant_gain_tie_break_first_slot(self):
        gains = cl.GainSchedule("constant", alpha=0.1)
        proc = T.AdversarialProcess(gains, 0.5, 1, 3, 20)
        for k in range(len(proc.times) - 1):
            assert proc.g1_times[k] == proc.times[k]

    def test_emits_only_balanced(self):
        gains = cl.GainSchedule("power", alpha=1.0, t_star=10.0, exponent=0.5)
        proc = T.AdversarialProcess(gains, 0.5, 1, 4, 100)
        for t in range(1, 101):
            assert G.is_balanced(proc.graph_at(t))

    def test_one_complete_graph_per_window(self):
        gains = cl.GainSchedule("power", alpha=1.0, t_star=5.0, exponent=0.7)
        proc = T.AdversarialProcess(gains, 0.3, 1, 4, 200)
        for k in range(len(proc.times) - 2):
            lo, hi = int(proc.times[k]), int(proc.times[k + 1])
            kinds = [proc.graph_at(t).num_edges for t in range(lo, hi)]
            assert kinds.count(G.complete_graph(4).num_edges) == 1

    @pytest.mark.parametrize("chunk", [16, 1 << 20])
    def test_segmented_argmin_matches_per_window_argmin(self, monkeypatch, chunk):
        # gains from three levels, so most windows hold repeated minima
        monkeypatch.setattr(T, "_ARGMIN_CHUNK", chunk)
        rng = np.random.default_rng(7)
        table = rng.choice([0.1, 0.2, 0.3], size=2000)
        gains = cl.GainSchedule("table", table=table)
        proc = T.AdversarialProcess(gains, 0.6, 1, 3, 1500)
        times = proc.times
        ref = [s + int(np.argmin(table[s - 1:e - 1])) for s, e in zip(times[:-1], times[1:])]
        np.testing.assert_array_equal(proc.g1_times, ref)
        assert np.any([np.sum(table[s - 1:e - 1] == table[s - 1:e - 1].min()) > 1
                       for s, e in zip(times[:-1], times[1:]) if e - s > 1])
        assert np.diff(times).max() > 16


class TestRandomBlockProcess:
    def test_earlier_block_after_later_block_same_graphs(self):
        proc = T.RandomBlockProcess(3, 0.3, 5.0, 5, seed=4)
        first = [proc.graph_at(t) for t in range(1, 31)]
        proc.graph_at(3000)
        again = [proc.graph_at(t) for t in range(1, 31)]
        assert all(g is h for g, h in zip(first, again))

    def test_bit_reproducible(self):
        p1 = T.RandomBlockProcess(3, 0.3, 1.0, 5, seed=42)
        p2 = T.RandomBlockProcess(3, 0.3, 1.0, 5, seed=42)
        for t in (1, 5, 17, 100, 999):
            np.testing.assert_array_equal(p1.graph_at(t).weights, p2.graph_at(t).weights)

    def test_different_seeds_differ(self):
        p1 = T.RandomBlockProcess(3, 0.3, 1.0, 5, seed=1)
        p2 = p1.reseeded(2)
        same = all(np.array_equal(p1.graph_at(t).weights, p2.graph_at(t).weights)
                   for t in range(1, 200))
        assert not same

    def test_k1_n2_single_edge_blocks(self):
        proc = T.RandomBlockProcess(1, 0.3, 5.0, 2, seed=3)
        pair = G.pair_graph(2)
        saw_edge = False
        for t in range(2, 200):
            g = proc.graph_at(t)
            if g.num_edges:
                np.testing.assert_array_equal(g.weights, pair.weights)
                saw_edge = True
        assert saw_edge

    def test_connected_block_union_is_connected(self):
        proc = T.RandomBlockProcess(3, 0.3, 1.0, 6, seed=9)
        for b in range(1, 60):
            graphs = [proc.graph_at(1 + b * 3 + s) for s in range(3)]
            u = G.union(graphs)
            if u.any():
                assert G.is_strongly_connected(u)
                assert all(G.is_balanced(g, tol=0.0) for g in graphs)

    def test_slot_graphs_shared_across_replicas(self):
        # each slot graph equals a direct build from the block's own draws,
        # and processes meeting the same permutation share one object
        n, K = 4, 2
        first = T.RandomBlockProcess(K, 0.3, 50.0, n, seed=1)
        procs = (first, first.reseeded(2))
        seen, keys = {}, []
        for proc in procs:
            keys.append(set())
            for block in range(1, 40):
                gen = substream(philox_key(proc.seed), TAG_TOPOLOGY_BLOCK, block)
                assert gen.random() < proc.connection_probability(block)
                perm = tuple(int(v) for v in gen.permutation(n))
                cyc = [(perm[k], perm[(k + 1) % n]) for k in range(n)]
                for slot in range(K):
                    picked = cyc[slot::K]
                    direct = G.from_edges(n, [(u, v, 1.0) for u, v in picked]
                                          + [(v, u, 1.0) for u, v in picked], 1.0)
                    g = proc.graph_at(1 + block * K + slot)
                    np.testing.assert_array_equal(g.weights, direct.weights)
                    assert seen.setdefault((perm, slot), g) is g
                    keys[-1].add((perm, slot))
        assert keys[0] & keys[1]

    def test_empty_blocks_shared_across_replicas(self):
        # a disconnected block emits one shared empty graph per (n, K, slot)
        first = T.RandomBlockProcess(2, 0.45, 0.3, 4, seed=1)
        empties = {}
        for proc in (first, first.reseeded(2), first.reseeded(3)):
            for t in range(1, 200):
                g = proc.graph_at(t)
                if not g.num_edges:
                    assert empties.setdefault((t - 1) % 2, g) is g
        assert len(empties) == 2

    def test_block_frequency_matches_probability(self):
        # empirical connection frequency within the binomial 99% interval
        K, mu, p, n = 3, 0.45, 0.3, 4
        reps, base = 20_000, 100_000
        for block in (4, 10, 100):
            q = T.RandomBlockProcess(K, mu, p, n, 0).connection_probability(block)
            assert 0 < q < 1
            hits = 0
            for seed in range(base, base + reps):
                proc = T.RandomBlockProcess(K, mu, p, n, seed)
                t0 = 1 + block * K
                hits += any(proc.graph_at(t0 + s).num_edges for s in range(K))
            freq = hits / reps
            half = 2.576 * np.sqrt(q * (1 - q) / reps)
            assert abs(freq - q) <= half, (block, freq, q, half)

    def test_probability_clipping(self):
        proc = T.RandomBlockProcess(2, 0.1, 50.0, 3, seed=0)
        assert proc.connection_probability(5) == 1.0
        assert proc.connection_probability(0) == 0.0  # log 1 = 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            T.RandomBlockProcess(0, 0.3, 1.0, 3, 0)
        with pytest.raises(ValueError):
            T.RandomBlockProcess(2, 0.6, 1.0, 3, 0)
        with pytest.raises(ValueError):
            T.RandomBlockProcess(2, 0.3, 0.0, 3, 0)

    def test_rejects_single_node_at_construction(self):
        with pytest.raises(ValueError, match="n >= 2, got n = 1"):
            T.RandomBlockProcess(3, 0.3, 1.0, 1, seed=0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite_p(self, p):
        # min(1.0, nan) is 1.0: a NaN p would connect every block
        with pytest.raises(ValueError, match=f"p = {p}"):
            T.RandomBlockProcess(3, 0.3, p, 5, seed=0)


def test_star_rotation_components_all_connected():
    comps = T.star_rotation_components(5)
    assert len(comps) == 5
    for g in comps:
        assert G.is_strongly_connected(g)
        assert G.is_balanced(g, tol=0.0)
