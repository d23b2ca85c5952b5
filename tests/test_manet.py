import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf

import consensuslab as cl
from consensuslab import dynamics as D
from consensuslab import graph as G
from consensuslab import manet as M
from consensuslab import topology as T
from consensuslab.rng import StreamPool, TAG_MANET_ROUND, TAG_MISC, philox_key, substream


class TestReceptionProbability:
    def test_half_at_crossover_distance(self):
        alpha, beta = 4.0, 10 * math.sqrt(2)
        d_half = 10 ** (alpha / beta)
        assert M.reception_probability(alpha, beta, d_half) == pytest.approx(0.5, abs=1e-12)

    def test_unit_distance_near_certain(self):
        p = M.reception_probability(4.0, 10 * math.sqrt(2), 1.0)
        assert p == pytest.approx(0.5 * (1 + erf(4.0)), abs=1e-15)
        assert 1 - p == pytest.approx(7.7e-9, rel=0.05)

    def test_limits_and_monotonicity(self):
        alpha, beta = 4.0, 10 * math.sqrt(2)
        ds = np.geomspace(0.01, 100.0, 200)
        ps = M.reception_probability(alpha, beta, ds)
        assert np.all(np.diff(ps) <= 0)
        interior = (ps > 1e-14) & (ps < 1 - 1e-14)  # erf saturates in float64
        assert np.all(np.diff(ps[interior]) < 0)
        assert M.reception_probability(alpha, beta, 1e9) <= 1e-12
        assert M.reception_probability(alpha, beta, 0.0) == 1.0


def _static_scene(n, radius, zeta_std=0.05, xi_half=0.0):
    theta = 2 * np.pi * np.arange(n) / n
    return M.ManetScene(
        positions0=radius * np.stack([np.cos(theta), np.sin(theta)], axis=1),
        headings=theta,
        radio=M.RadioParams(alpha=np.full(n, 4.0), beta=10 * math.sqrt(2)),
        initial_states=np.arange(n, dtype=float) / max(n - 1, 1),
        speed_scale=0.0,
        xi_half_width=xi_half,
        zeta_std=zeta_std,
    )


def _loop_probabilities(scene, l, cum_disp):
    """Reception probabilities of round l, one sender at a time: the
    reference for the vectorized table."""
    n = scene.n
    alpha = M._alpha_vector(scene)
    probs = np.empty((n, n))
    for i in range(n):
        pos = scene.positions_at(l, (i / n) * scene.period, cum_disp)
        d = np.linalg.norm(pos - pos[i], axis=1)
        probs[i] = M.reception_probability(alpha[i], scene.radio.beta, d)
        probs[i, i] = 0.0
    return probs


def _first_round_probabilities(scene):
    return M._round_probabilities(scene, 0, 1, scene.round_displacements(1))[0]


class TestRoundProbabilities:
    # starts mid-chunk and crosses two chunk boundaries
    START, STOP = M._ROUND_CHUNK // 2, 2 * M._ROUND_CHUNK + 7

    @pytest.mark.parametrize("scene", [
        *(M.scenario_preset(fig)[0] for fig in ("fig2", "fig3", "fig4")),
        _static_scene(6, 1.7),
    ], ids=["fig2", "fig3", "fig4", "static"])
    def test_table_equals_per_sender_loop(self, scene):
        disps = scene.round_displacements(self.STOP)
        table = M._round_probabilities(scene, self.START, self.STOP, disps)
        assert table.shape == (self.STOP - self.START, scene.n, scene.n)
        ref = np.array([_loop_probabilities(scene, l, float(disps[l]))
                        for l in range(self.START, self.STOP)])
        np.testing.assert_array_equal(table, ref)

    def test_rows_cover_every_round_once(self):
        scene, _ = M.scenario_preset("fig4")
        disps = scene.round_displacements(self.STOP)
        rows = list(M._reception_rows(scene, self.STOP))
        assert len(rows) == self.STOP
        for l in (0, M._ROUND_CHUNK - 1, M._ROUND_CHUNK, self.STOP - 1):
            np.testing.assert_array_equal(rows[l], _loop_probabilities(scene, l, float(disps[l])))
        assert list(M._reception_rows(scene, 0)) == []


class TestSimulateRound:
    def test_colocated_full_connectivity(self):
        scene = _static_scene(5, 0.0)
        states, g = M.simulate_round(scene, 0, scene.initial_states, 0.05, StreamPool(1),
                                     _first_round_probabilities(scene))
        assert g.num_edges == 5 * 4

    def test_one_round_exact_averaging(self):
        scene = _static_scene(4, 0.0, zeta_std=0.0, xi_half=0.0)
        x = np.array([0.0, 1.0, 2.0, 5.0])
        new, _ = M.simulate_round(scene, 0, x, 1.0 / 4.0, StreamPool(2),
                                  _first_round_probabilities(scene))
        np.testing.assert_allclose(new, 2.0, atol=1e-12)

    def test_realized_graph_undirected_balanced(self):
        scene = _static_scene(6, 1.7)
        stream = StreamPool(3)
        for l, probs in enumerate(M._reception_rows(scene, 30)):
            _, g = M.simulate_round(scene, l, scene.initial_states, 0.01, stream, probs)
            np.testing.assert_array_equal(g.weights, g.weights.T)
            assert G.is_balanced(g, tol=0.0)
            assert set(np.unique(g.weights)) <= {0.0, 1.0}


def _reference_round(scene, l, x, a_l, stream, probs):
    """One round of a single run, one unordered pair i < j at a time, in the
    kernel's draw order: the reference for the pair-list kernel.  Returns
    the new states and recv, the (n, n) mutual-reception matrix."""
    n = scene.n
    gen = stream.at(TAG_MANET_ROUND, 0, l)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    u = gen.random(len(pairs))
    xi = gen.uniform(-scene.xi_half_width, scene.xi_half_width, n)
    z = gen.standard_normal(n)
    recv = np.zeros((n, n), dtype=bool)
    heard = np.zeros(n)
    deg = np.zeros(n)
    for e, (i, j) in enumerate(pairs):
        if u[e] < probs[i, j] * probs[j, i]:
            recv[i, j] = recv[j, i] = True
            heard[i] += x[j] + xi[j]
            heard[j] += x[i] + xi[i]
            deg[i] += 1
            deg[j] += 1
    term = heard + scene.zeta_std * np.sqrt(deg) * z - deg * x
    return x + a_l * term, recv


def _ordered_pair_round(scene, X, a_l, gen, probs):
    """The ordered-pair round kernel: one reception uniform (runs, n, n)
    and one reception noise value (runs, n, n) per ordered pair, after the
    quantization noise (runs, n).  Equal in law to `manet._round_update`;
    kept to check the exact oracle against a second draw layout."""
    runs, n = X.shape
    succ = gen.random((runs, n, n)) < probs    # succ[r, i, j]: j receives i
    adj = succ & np.swapaxes(succ, 1, 2)       # mutual reception
    idx = np.arange(n)
    adj[:, idx, idx] = False
    xi = gen.uniform(-scene.xi_half_width, scene.xi_half_width, (runs, n))
    zeta = gen.normal(0.0, scene.zeta_std, (runs, n, n))
    recv = np.swapaxes(adj, 1, 2)
    term = (np.einsum("sij,sj->si", recv.astype(float), X + xi)
            + (recv * zeta).sum(axis=2) - recv.sum(axis=2) * X)
    return X + a_l * term, recv


def _ordered_pair_batch(scene, gains, rounds, runs, seed):
    """`run_manet_batch` with `_ordered_pair_round` as its kernel."""
    stream = StreamPool(seed)
    a_all = gains.values(np.arange(1, rounds + 1))
    X = np.tile(scene.initial_states, (runs, 1))

    def blocks():
        Y = X
        for l, probs in enumerate(M._reception_rows(scene, rounds)):
            Y, _ = _ordered_pair_round(scene, Y, a_all[l], stream.at(TAG_MANET_ROUND, 1, l), probs)
            yield Y.T

    return D._summarize(np.arange(rounds + 1), X.T, blocks())


class TestRunManet:
    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4"])
    def test_matches_single_run_reference(self, fig):
        # same graphs every round; states agree up to the rounding of the
        # per-pair sums against the kernel's incidence products
        scene, gains = M.scenario_preset(fig)
        rounds, seed = 2000, 20240707
        trace = M.run_manet(scene, gains, rounds, seed)
        stream = StreamPool(seed)
        a_all = gains.values(np.arange(1, rounds + 1))
        x = scene.initial_states
        for l, probs in enumerate(M._reception_rows(scene, rounds)):
            _, g = M.simulate_round(scene, l, x, a_all[l], stream, probs)
            x, recv = _reference_round(scene, l, x, a_all[l], stream, probs)
            np.testing.assert_array_equal(g.weights, recv.astype(float))
            np.testing.assert_allclose(trace.states[l + 1], x, rtol=0, atol=1e-13)


    def test_same_seed_identical(self):
        scene, gains = M.scenario_preset("fig2")
        a = M.run_manet(scene, gains, 200, seed=5)
        b = M.run_manet(scene, gains, 200, seed=5)
        np.testing.assert_array_equal(a.states, b.states)
        c = M.run_manet(scene, gains, 200, seed=6)
        assert not np.array_equal(a.states, c.states)

    def test_initial_average_half(self):
        scene, gains = M.scenario_preset("fig2")
        tr = M.run_manet(scene, gains, 10, seed=0)
        assert tr.initial_average == pytest.approx(0.5)

    def test_matches_dynamics_on_induced_random_graphs(self):
        # static agents; reception noise only -> the protocol seen by the
        # dynamics engine on an iid pair-probability random graph process
        n, radius, zeta = 5, 1.65, 0.05
        scene = _static_scene(n, radius, zeta_std=zeta, xi_half=0.0)
        rounds, runs = 60, 4000
        gains = cl.GainSchedule("power", alpha=1.0, t_star=4.0, exponent=0.9)
        batch = M.run_manet_batch(scene, gains, rounds, runs, seed=21)

        probs = _first_round_probabilities(scene)
        pair_prob = probs * probs.T  # mutual reception per unordered pair

        class PairProcess(T.TopologyProcess):
            deterministic = False

            def __init__(self, seed):
                self.n = n
                self.seed = seed
                self._key = philox_key(seed)

            def reseeded(self, seed):
                return PairProcess(seed)

            def graph_at(self, t):
                gen = substream(self._key, TAG_MISC, t)
                u = gen.random((n, n))
                upper = np.triu(u < pair_prob, k=1)
                w = (upper | upper.T).astype(float)
                return G.WeightedDigraph(n, w, 1.0)

        nm = D.make_noise("iid_gaussian", v=zeta**2)
        mc = D.monte_carlo_V(PairProcess(0), gains, nm, scene.initial_states,
                             rounds, runs, seed=22)
        se = np.sqrt(mc.stderr_V**2 + (batch.mean_V * 0.0 + mc.stderr_V.max()) ** 2)
        dev = np.abs(batch.mean_V - mc.mean_V) / np.maximum(se, 1e-300)
        assert dev.max() <= 4.0, dev.max()


class TestRunManetBatch:
    def test_stderr_finite_nonnegative_zero_at_start(self):
        scene, gains = M.scenario_preset("fig3")
        res = M.run_manet_batch(scene, gains, 150, 12, seed=4)
        assert res.stderr_V.shape == res.mean_V.shape == (151,)
        np.testing.assert_array_equal(res.ts, np.arange(151))
        assert np.all(np.isfinite(res.stderr_V)) and np.all(res.stderr_V >= 0)
        assert res.stderr_V[0] == 0.0 and res.stderr_V[-1] > 0
        assert res.final_states.shape == (12, scene.n) and res.replicas == 12

    def test_fewer_than_two_runs_rejected(self):
        scene, gains = M.scenario_preset("fig2")
        for runs in (0, 1):
            with pytest.raises(ValueError, match="2 runs"):
                M.run_manet_batch(scene, gains, 10, runs, seed=0)


def _geometric_rounds(rounds, points=40):
    return np.unique(np.geomspace(1, rounds, points).astype(int))


class TestManetExactOracle:
    SEED = 20240707  # c7's seed

    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4"])
    def test_c7_scene_within_4_stderr(self, fig, c7_batch):
        # c7's seed, runs and rounds
        scene, gains = M.scenario_preset(fig)
        rounds = 10_000
        batch = c7_batch(fig)
        ev = M.exact_disagreement(scene, gains, rounds)
        assert ev.shape == batch.mean_V.shape and ev[0] == pytest.approx(batch.mean_V[0])
        grid = _geometric_rounds(rounds)
        dev = np.abs(batch.mean_V[grid] - ev[grid])
        assert np.all(dev <= 4 * batch.stderr_V[grid]), (dev / batch.stderr_V[grid]).max()

    def test_ordered_pair_layout_within_4_stderr(self):
        # the oracle agrees with the per-ordered-pair draws as well
        scene, gains = M.scenario_preset("fig2")
        rounds = 2000
        batch = _ordered_pair_batch(scene, gains, rounds, 200, self.SEED)
        ev = M.exact_disagreement(scene, gains, rounds)
        grid = _geometric_rounds(rounds)
        dev = np.abs(batch.mean_V[grid] - ev[grid])
        assert np.all(dev <= 4 * batch.stderr_V[grid]), (dev / batch.stderr_V[grid]).max()

    def test_static_ring_within_4_stderr(self):
        # ring neighbours are mutual with q near 0.59, so the Bernoulli
        # variance of each pair and the xi correlation of receivers that
        # share a neighbour (Q^2) both move E V well past 4 stderr
        scene = _static_scene(5, 1.5, zeta_std=0.05, xi_half=0.25)
        P = _first_round_probabilities(scene)
        assert 0.3 < P[0, 1] * P[1, 0] < 0.9
        gains = cl.GainSchedule("power", alpha=1.0, t_star=4.0, exponent=0.9)
        rounds = 60
        batch = M.run_manet_batch(scene, gains, rounds, 4000, seed=21)
        ev = M.exact_disagreement(scene, gains, rounds)
        dev = np.abs(batch.mean_V[1:] - ev[1:])
        assert np.all(dev <= 4 * batch.stderr_V[1:]), (dev / batch.stderr_V[1:]).max()

    def test_colocated_noiseless_is_deterministic(self):
        # every pair is mutual with probability 1 and nothing is random:
        # L is the complete graph's n I - 1 1', so J x shrinks by 1 - n a
        n, rounds = 5, 300
        scene = _static_scene(n, 0.0, zeta_std=0.0, xi_half=0.0)
        gains = cl.GainSchedule("power", alpha=0.5, t_star=4.0, exponent=0.8)
        ev = M.exact_disagreement(scene, gains, rounds)
        a_all = gains.values(np.arange(1, rounds + 1))
        L = n * np.eye(n) - np.ones((n, n))
        x = scene.initial_states
        V = [float(np.sum((x - x.mean()) ** 2))]
        for a in a_all:
            x = x - a * (L @ x)
            V.append(float(np.sum((x - x.mean()) ** 2)))
        np.testing.assert_allclose(ev, V, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ev, V[0] * np.cumprod(np.r_[1.0, (1 - n * a_all) ** 2]),
                                   rtol=0, atol=1e-12)
        trace = M.run_manet(scene, gains, rounds, seed=3)
        np.testing.assert_allclose(trace.disagreement, V, rtol=0, atol=1e-12)

    def test_zero_rounds(self):
        scene, gains = M.scenario_preset("fig3")
        ev = M.exact_disagreement(scene, gains, 0)
        assert ev.shape == (1,)
        assert ev[0] == pytest.approx(np.sum((scene.initial_states - 0.5) ** 2))


class TestManetRejectsBadInput:
    @pytest.mark.parametrize("field, value", [
        ("zeta_std", -0.05), ("zeta_std", math.nan), ("zeta_std", math.inf),
        ("xi_half_width", -1 / 16), ("xi_half_width", math.nan), ("xi_half_width", math.inf),
        ("period", 0.0), ("period", -1.0), ("speed_t0", 0.0), ("speed_t0", -1.0),
    ])
    def test_scene_field(self, field, value):
        scene, _ = M.scenario_preset("fig2")
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(scene, **{field: value})

    @pytest.mark.parametrize("engine", [
        lambda scene, gains: M.run_manet(scene, gains, -3, seed=0),
        lambda scene, gains: M.run_manet_batch(scene, gains, -3, 4, seed=0),
        lambda scene, gains: M.exact_disagreement(scene, gains, -3),
    ], ids=["run_manet", "run_manet_batch", "exact_disagreement"])
    def test_negative_rounds(self, engine):
        scene, gains = M.scenario_preset("fig2")
        with pytest.raises(ValueError, match="rounds"):
            engine(scene, gains)


class TestManetScene:
    def test_alpha_length_must_be_one_or_n(self):
        scene = _static_scene(5, 1.0)
        for alpha in (np.full(3, 4.0), np.full(6, 4.0)):
            with pytest.raises(ValueError, match="alpha"):
                M.ManetScene(scene.positions0, scene.headings,
                             M.RadioParams(alpha=alpha, beta=10.0), scene.initial_states)
        for alpha in (4.0, np.full(5, 4.0)):
            M.ManetScene(scene.positions0, scene.headings,
                         M.RadioParams(alpha=alpha, beta=10.0), scene.initial_states)


class TestScenarioPresets:
    def test_relative_speed_values(self):
        fig2, _ = M.scenario_preset("fig2")
        assert fig2.relative_speed(0.0) == pytest.approx(1 / 200)
        fig3, _ = M.scenario_preset("fig3")
        assert fig3.speed_b == pytest.approx(0.9)
        fig4, _ = M.scenario_preset("fig4")
        assert fig4.speed_b == pytest.approx(0.8)

    def test_initial_average_is_half(self):
        for fig in ("fig2", "fig3", "fig4"):
            scene, _ = M.scenario_preset(fig)
            assert scene.initial_states.mean() == pytest.approx(0.5)

    def test_gain_sequence_matches_round_indexing(self):
        _, gains = M.scenario_preset("fig2")
        # round l applies the schedule at t = l + 1: a(l) = 1/(l+30)^0.99
        for l in (0, 1, 10, 99):
            assert gains.value(l + 1) == pytest.approx(1 / (l + 30) ** 0.99)

    def test_geometry(self):
        scene, _ = M.scenario_preset("fig2")
        assert scene.n == 9
        np.testing.assert_allclose(np.linalg.norm(scene.positions0, axis=1), 1.0)
        np.testing.assert_allclose(scene.headings, np.arange(9) * np.pi / 8)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            M.scenario_preset("fig9")


def test_positions_csv_schema(tmp_path):
    scene, _ = M.scenario_preset("fig2")
    path = tmp_path / "pos.csv"
    M.write_positions_csv(scene, 5, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "l,agent,px,py"
    assert len(rows) == 1 + 6 * 9
