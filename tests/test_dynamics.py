import itertools
import math

import numpy as np
import pytest

import consensuslab as cl
from consensuslab import dynamics as D
from consensuslab import graph as G
from consensuslab import topology as T
from consensuslab.rng import TAG_EDGE_NOISE, TAG_REPLICA


def transition_product(process, gains, i: int, t: int) -> np.ndarray:
    """Ordered product (I - a(t)L(t)) ... (I - a(i)L(i)); identity if t < i."""
    n = process.n
    out = np.eye(n)
    for l in range(i, t + 1):
        A = np.eye(n) - gains.value(l) * G.laplacian(process.graph_at(l))
        out = A @ out
    return out


class TestDesignGainSchedule:
    def test_n3_delta0_constants(self):
        g = D.design_gain_schedule(3, 1, 1.0, 0.0)
        assert g.kind == "power" and g.exponent == 1.0
        assert g.alpha == pytest.approx(512 / 3, rel=1e-12)
        assert g.t_star == 682

    def test_n9_delta03_constants(self):
        g = D.design_gain_schedule(9, 1, 1.0, 0.3)
        assert g.alpha == pytest.approx(1179648 / 225, rel=1e-12)
        assert g.t_star == 83886
        assert g.exponent == pytest.approx(0.7)

    def test_delta_half_log_corrected(self):
        g = D.design_gain_schedule(4, 1, 1.0, 0.5)
        assert g.kind == "log_corrected"
        assert g.alpha == pytest.approx(64 * 4 * 81 / 25, rel=1e-12)

    def test_delta_above_half_rejected(self):
        with pytest.raises(ValueError):
            D.design_gain_schedule(3, 1, 1.0, 0.6)

    def test_stays_below_half_inverse_degree(self):
        # a(t) <= 1/(2 d_max) with d_max <= (n-1) a_max, from t = 1 on
        for n in (2, 3, 5, 9):
            for c in (1, 2, 5):
                for a_max in (1.0, 2.0):
                    for delta in (0.0, 0.25, 0.4, 0.5):
                        g = D.design_gain_schedule(n, c, a_max, delta)
                        bound = 1.0 / (2 * (n - 1) * a_max)
                        ts = np.arange(1, 50)
                        assert np.all(g.values(ts) <= bound + 1e-12)


class TestGainValue:
    def test_power_with_offset(self):
        g = cl.GainSchedule("power", alpha=1.0, t_star=30.0, exponent=0.99)
        assert g.value(1) == pytest.approx(1 / 31)

    def test_power_alpha_over_t(self):
        g = cl.GainSchedule("power", alpha=2.0, t_star=0.0, exponent=1.0)
        assert g.value(4) == pytest.approx(0.5)

    def test_log_corrected(self):
        g = cl.GainSchedule("log_corrected", alpha=1.0, t_star=0.0)
        t = round(math.e**2)
        assert g.value(t) == pytest.approx(1 / (math.sqrt(t) * math.log(t)))
        assert g.value(t) == pytest.approx(1 / (2 * math.sqrt(t)), rel=0.03)

    def test_log_corrected_rejects_log_of_one(self):
        g = cl.GainSchedule("log_corrected", alpha=1.0, t_star=0.0)
        with pytest.raises(ValueError):
            g.value(1)

    def test_table_bounds(self):
        g = cl.GainSchedule("table", table=np.array([0.3, 0.2, 0.1]))
        assert g.value(3) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            g.value(4)

    def test_time_starts_at_one(self):
        g = cl.GainSchedule("constant", alpha=0.1)
        with pytest.raises(ValueError):
            g.value(0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["alpha", "t_star", "shift"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cl.GainSchedule("power", **{"alpha": 1.0, "exponent": 0.7, field: value})


class TestMakeNoise:
    def test_uniform_variance_from_half_width(self):
        nm = D.make_noise("iid_uniform", half_width=1 / 16)
        assert nm.v == pytest.approx((1 / 16) ** 2 / 3)
        assert nm.v == pytest.approx(1.3021e-3, rel=1e-3)

    def test_gaussian_variance_from_std(self):
        nm = D.make_noise("iid_gaussian", std=0.05)
        assert nm.v == pytest.approx(2.5e-3)

    def test_zero_kind(self):
        nm = D.make_noise("zero")
        sampler = D.EdgeNoiseSampler(nm, 4, 0)
        assert not sampler.edge_matrix(5).any()

    @pytest.mark.parametrize("kind,kw", [
        ("iid_gaussian", {}),
        ("iid_uniform", {}),
        ("m_dependent_ma", {"m": 2}),
        ("martingale_difference", {}),
    ])
    def test_zero_mean_unit_scale(self, kind, kw):
        v = 0.04
        nm = D.make_noise(kind, v=v, **kw)
        sampler = D.EdgeNoiseSampler(nm, 2, 123)
        draws = np.array([sampler.edge_matrix(t)[0, 1] for t in range(1, 20001)])
        assert abs(draws.mean()) <= 4 * draws.std() / math.sqrt(len(draws))
        assert draws.var() == pytest.approx(v, rel=0.08)

    def test_ma_correlation_range(self):
        nm = D.make_noise("m_dependent_ma", v=1.0, theta=[1.0, 1.0, 1.0])
        sampler = D.EdgeNoiseSampler(nm, 2, 7)
        w = np.array([sampler.edge_matrix(t)[0, 1] for t in range(1, 30001)])
        corr1 = np.corrcoef(w[:-1], w[1:])[0, 1]
        corr3 = np.corrcoef(w[:-3], w[3:])[0, 1]
        assert corr1 == pytest.approx(2 / 3, abs=0.03)  # overlapping weights
        assert abs(corr3) <= 0.03  # beyond the m-dependence range

    def test_martingale_uncorrelated_but_bounded(self):
        nm = D.make_noise("martingale_difference", v=0.25)
        sampler = D.EdgeNoiseSampler(nm, 2, 11)
        w = np.array([sampler.edge_matrix(t)[0, 1] for t in range(1, 20001)])
        corr1 = np.corrcoef(w[:-1], w[1:])[0, 1]
        assert abs(corr1) <= 0.03
        assert w.var() == pytest.approx(0.25, rel=0.08)

    @pytest.mark.parametrize("kind,kw", [
        ("iid_gaussian", {"v": math.nan}),
        ("iid_uniform", {"v": math.inf}),
        ("m_dependent_ma", {"v": math.nan, "m": 2}),
        ("martingale_difference", {"v": -math.inf}),
        ("iid_gaussian", {"std": math.nan}),
        ("iid_gaussian", {"std": math.inf}),
        ("iid_uniform", {"half_width": math.nan}),
        ("iid_uniform", {"half_width": math.inf}),
    ])
    def test_non_finite_variance_rejected(self, kind, kw):
        # NaN compares false with 0, so the positivity check alone lets it through
        with pytest.raises(ValueError, match="variance v must be finite"):
            D.make_noise(kind, **kw)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            D.make_noise("iid_gaussian", v=0.0)
        with pytest.raises(ValueError):
            D.make_noise("m_dependent_ma", v=1.0)
        with pytest.raises(ValueError):
            D.make_noise("white")


class TestAggregateNoise:
    def test_zero_noise_zero_vector(self):
        g = G.pair_graph(3)
        out = D.EdgeNoiseSampler(D.make_noise("zero"), g.n, 0).aggregate(g, 1)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_pair_graph_covariance(self):
        g = G.pair_graph(3)
        nm = D.make_noise("iid_gaussian", v=1.0)
        sampler = D.EdgeNoiseSampler(nm, 3, 42)
        samples = np.array([sampler.aggregate(g, t) for t in range(1, 20001)])
        cov = np.cov(samples.T)
        np.testing.assert_allclose(np.diag(cov), [1.0, 1.0, 0.0], atol=0.06)
        assert abs(cov[0, 1]) <= 0.05

    def test_weight_scales_variance(self):
        g = G.from_edges(3, [(0, 1, 2.0)], a_max=2.0)  # one edge, weight 2
        nm = D.make_noise("iid_gaussian", v=1.0)
        sampler = D.EdgeNoiseSampler(nm, 3, 9)
        samples = np.array([sampler.aggregate(g, t)[1] for t in range(1, 20001)])
        assert samples.var() == pytest.approx(4.0, rel=0.08)

    def test_received_weight_sq_pinned_to_graph(self):
        g = G.from_edges(3, [(0, 1, 2.0), (2, 1, 1.5)], a_max=2.0)
        sq = D._received_weight_sq(g)
        np.testing.assert_array_equal(sq, [0.0, 6.25, 0.0])
        assert D._received_weight_sq(g) is sq and not sq.flags.writeable

    def test_covariance_helper(self):
        g = G.from_edges(3, [(0, 1, 2.0)], a_max=2.0)
        C = D.aggregate_noise_covariance(g, D.make_noise("iid_gaussian", v=1.0))
        np.testing.assert_allclose(C, np.diag([0.0, 4.0, 0.0]))

    def test_gaussian_batch_matches_covariance(self):
        # node 3 sends but receives nothing, so its aggregate is exactly 0
        g = G.from_edges(4, [(0, 1, 2.0), (2, 1, 1.25), (1, 0, 1.0), (3, 0, 1.5),
                             (1, 2, 1.75), (3, 2, 1.0)], a_max=2.0)
        nm = D.make_noise("iid_gaussian", v=0.3)
        R = 20000
        W = D.EdgeNoiseSampler(nm, 4, 11).aggregate_batch(g, 5, R)
        assert W.shape == (4, R)
        # the stack input, every replica with its own copy of g, gives the
        # same draw with row r per replica, so the checks below hold for it
        stack = D.EdgeNoiseSampler(nm, 4, 11).aggregate_batch(np.tile(g.weights, (R, 1, 1)), 5, R)
        np.testing.assert_array_equal(stack.T, W)
        assert np.all(W[3] == 0.0)
        C = D.aggregate_noise_covariance(g, nm)
        S = np.cov(W)
        # Var of a Gaussian sample covariance entry: (C_ij^2 + C_ii C_jj) / R
        se = np.sqrt((C**2 + np.outer(np.diag(C), np.diag(C))) / R)
        live = se > 0
        assert np.all(np.abs(S - C)[live] <= 4 * se[live])
        np.testing.assert_array_equal(S[~live], 0.0)

    @pytest.mark.parametrize("kind", ["iid_uniform", "m_dependent_ma", "martingale_difference"])
    def test_non_gaussian_batch_sums_edge_draw(self, kind):
        g = G.from_edges(4, [(0, 1, 2.0), (2, 1, 1.25), (1, 0, 1.0), (3, 2, 1.0)], a_max=2.0)
        nm = D.make_noise(kind, v=0.02, m=2)
        stack = g.weights * np.arange(1.0, 7.0)[:, None, None]  # replica r: (r + 1) g
        for t in (1, 2, 9):
            got = D.EdgeNoiseSampler(nm, 4, 3).aggregate_batch(g, t, 6)
            W = D.EdgeNoiseSampler(nm, 4, 3).edge_matrix(t, (6,))
            np.testing.assert_array_equal(got, np.einsum("ij,ijr->ir", g.weights, W))
            # the stack input: row r sums replica r's column of the same draw
            # with its own weights (einsum may sum in another order)
            got = D.EdgeNoiseSampler(nm, 4, 3).aggregate_batch(stack, t, 6)
            want = np.array([(stack[r] * W[..., r]).sum(axis=1) for r in range(6)])
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)


class TestStep:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_stacked_laplacians_match_per_row_steps(self, n):
        rng = np.random.default_rng(n)
        graphs = [T.RandomBlockProcess(1 + k % 3, 0.3, 5.0, n, seed=k).graph_at(2 + k)
                  for k in range(60)]
        graphs += [G.WeightedDigraph(n, rng.uniform(1.0, 3.0, (n, n)) * (1 - np.eye(n)), 3.0)
                   for _ in range(60)]
        x = rng.standard_normal((len(graphs), n)) * 10
        w = rng.standard_normal((len(graphs), n))
        Ls = np.array([G.laplacian(g) for g in graphs])
        got = D.step(x, Ls, 0.0123, w)
        want = np.array([D.step(x[r], g, 0.0123, w[r]) for r, g in enumerate(graphs)])
        np.testing.assert_array_equal(got, want)

    def test_complete_graph_averaging(self):
        g = G.complete_graph(4)
        out = D.step(np.array([0.0, 1.0, 2.0, 5.0]), g, 0.25, np.zeros(4))
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0, 2.0], atol=1e-14)

    def test_zero_gain_identity(self):
        g = G.pair_graph(2)
        x = np.array([3.0, -1.0])
        np.testing.assert_array_equal(D.step(x, g, 0.0, np.ones(2)), x)

    def test_two_node_hand_case(self):
        out = D.step(np.array([0.0, 1.0]), G.pair_graph(2), 0.25, np.zeros(2))
        np.testing.assert_allclose(out, [0.25, 0.75])


class TestRun:
    def test_zero_noise_monotone_V(self):
        proc = T.FixedProcess(G.cycle_graph(5))
        gains = cl.GainSchedule("power", alpha=2.0, t_star=10.0, exponent=1.0)
        tr = D.run(proc, gains, D.make_noise("zero"), np.linspace(0, 1, 5), 200, seed=0)
        assert np.all(np.diff(tr.disagreement) <= 1e-12)

    def test_consensus_state_is_fixed_point(self):
        proc = T.FixedProcess(G.complete_graph(3))
        gains = cl.GainSchedule("constant", alpha=0.1)
        tr = D.run(proc, gains, D.make_noise("zero"), [2.0, 2.0, 2.0], 50, seed=1)
        np.testing.assert_allclose(tr.states, 2.0)
        np.testing.assert_allclose(tr.disagreement, 0.0, atol=1e-30)

    def test_same_seed_identical(self):
        proc = T.PeriodicProcess(T.star_rotation_components(4))
        gains = cl.GainSchedule("power", alpha=1.0, t_star=5.0, exponent=1.0)
        nm = D.make_noise("iid_uniform", v=0.01)
        tr1 = D.run(proc, gains, nm, np.linspace(0, 1, 4), 100, seed=7)
        tr2 = D.run(proc, gains, nm, np.linspace(0, 1, 4), 100, seed=7)
        np.testing.assert_array_equal(tr1.states, tr2.states)
        tr3 = D.run(proc, gains, nm, np.linspace(0, 1, 4), 100, seed=8)
        assert not np.array_equal(tr1.states, tr3.states)

    def test_balanced_zero_noise_preserves_average(self):
        proc = T.PeriodicProcess(T.cycle_edge_components(4))
        gains = cl.GainSchedule("constant", alpha=0.3)
        tr = D.run(proc, gains, D.make_noise("zero"), [0.0, 1.0, 0.5, 0.25], 100, seed=0)
        means = tr.states.mean(axis=1)
        np.testing.assert_allclose(means, means[0], atol=1e-13)


class TestTransitionProduct:
    def test_empty_product_identity(self):
        proc = T.FixedProcess(G.complete_graph(3))
        gains = cl.GainSchedule("constant", alpha=0.1)
        np.testing.assert_array_equal(transition_product(proc, gains, 5, 4), np.eye(3))

    def test_single_factor(self):
        proc = T.FixedProcess(G.pair_graph(3))
        gains = cl.GainSchedule("constant", alpha=0.2)
        expect = np.eye(3) - 0.2 * G.laplacian(G.pair_graph(3))
        np.testing.assert_allclose(transition_product(proc, gains, 4, 4), expect)

    def test_balanced_product_bistochastic(self):
        proc = T.PeriodicProcess(T.star_rotation_components(4))
        gains = cl.GainSchedule("power", alpha=0.8, t_star=2.0, exponent=1.0)
        phi = transition_product(proc, gains, 1, 20)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(phi.sum(axis=0), 1.0, atol=1e-12)


class TestExactSecondMoment:
    def test_hand_case(self):
        proc = T.FixedProcess(G.pair_graph(2))
        gains = cl.GainSchedule("constant", alpha=0.25)
        nm = D.make_noise("iid_gaussian", v=1.0)
        ts, EV = D.exact_second_moment(proc, gains, nm, [0.0, 1.0], 2)
        assert EV[0] == pytest.approx(0.5, abs=1e-15)
        assert EV[1] == pytest.approx(0.1875, abs=1e-15)

    def test_zero_noise_equals_transient(self):
        proc = T.PeriodicProcess(T.star_rotation_components(3))
        gains = cl.GainSchedule("power", alpha=0.5, t_star=1.0, exponent=1.0)
        x1 = np.array([0.0, 1.0, 2.0])
        ts, EV = D.exact_second_moment(proc, gains, np.zeros((3, 3)), x1, 20)
        for t in (1, 5, 20):
            phi = transition_product(proc, gains, 1, t - 1)
            assert EV[t - 1] == pytest.approx(cl.disagreement(phi @ x1), rel=1e-12)

    def test_consensus_start_zero_noise_stays_zero(self):
        proc = T.FixedProcess(G.complete_graph(3))
        gains = cl.GainSchedule("constant", alpha=0.2)
        _, EV = D.exact_second_moment(proc, gains, np.zeros((3, 3)), [1.0, 1.0, 1.0], 10)
        np.testing.assert_allclose(EV, 0.0, atol=1e-28)

    def test_random_process_rejected(self):
        proc = T.RandomBlockProcess(2, 0.3, 1.0, 3, 0)
        gains = cl.GainSchedule("constant", alpha=0.1)
        with pytest.raises(ValueError):
            D.exact_second_moment(proc, gains, D.make_noise("iid_gaussian", v=1.0), [0, 0, 1], 5)

    def test_wrong_length_x1_rejected(self):
        proc = T.FixedProcess(G.cycle_graph(4))
        gains = cl.GainSchedule("constant", alpha=0.1)
        with pytest.raises(ValueError, match="disagree on n"):
            D.exact_second_moment(proc, gains, D.make_noise("iid_gaussian", v=1.0),
                                  [0.0, 0.5, 1.0], 5)

    def test_dependent_noise_rejected(self):
        proc = T.FixedProcess(G.pair_graph(2))
        gains = cl.GainSchedule("constant", alpha=0.1)
        nm = D.make_noise("m_dependent_ma", v=1.0, m=2)
        with pytest.raises(ValueError):
            D.exact_second_moment(proc, gains, nm, [0.0, 1.0], 5)


def dense_second_moment(process, gains, noise_cov, x1, horizon):
    """The exact recursion as four matmuls per step, with the identity,
    the Laplacian and J C J rebuilt every step: no step skipped."""
    x1 = np.asarray(x1, dtype=float)
    n = x1.size
    J = np.eye(n) - np.ones((n, n)) / n
    y = J @ x1
    M = np.outer(y, y)
    EV = np.empty(horizon + 1)
    EV[0] = float(np.trace(M))
    a_all = gains.values(np.arange(1, horizon + 1))
    for t in range(1, horizon + 1):
        g = process.graph_at(t)
        a = a_all[t - 1]
        A = np.eye(n) - a * G.laplacian(g)
        M = A @ M @ A.T
        M = J @ M @ J
        C = (D.aggregate_noise_covariance(g, noise_cov) if isinstance(noise_cov, D.NoiseModel)
             else np.asarray(noise_cov, dtype=float))
        M += a * a * (J @ C @ J)
        EV[t] = float(np.trace(M))
    return EV


class TestExactSecondMomentSkips:
    """The per-graph cache and the skipped identity steps change no bit."""

    GAINS = cl.GainSchedule("power", alpha=0.6, t_star=3.0, exponent=0.8)

    @pytest.mark.parametrize("case", ["fixed", "periodic", "extensible", "empty"])
    @pytest.mark.parametrize("noise", ["model", "constant", "zero"])
    def test_matches_dense_recursion_bit_for_bit(self, case, noise):
        n = 5
        process = {
            "fixed": lambda: T.FixedProcess(G.cycle_graph(n)),
            "periodic": lambda: T.PeriodicProcess(T.cycle_edge_components(n)),
            "extensible": lambda: T.ExtensibleBlockProcess(G.cycle_graph(n), 0.3, 2.0, 600),
            "empty": lambda: T.FixedProcess(G.empty_graph(n)),
        }[case]()
        rng = np.random.default_rng(11)
        B = rng.normal(size=(n, n))
        noise_cov = {"model": D.make_noise("iid_gaussian", v=0.01),
                     "constant": 0.02 * (B @ B.T),  # nonzero also on empty-graph steps
                     "zero": np.zeros((n, n))}[noise]
        x1 = rng.uniform(-1.0, 1.0, n)
        _, EV = D.exact_second_moment(process, self.GAINS, noise_cov, x1, 500)
        ref = dense_second_moment(process, self.GAINS, noise_cov, x1, 500)
        np.testing.assert_array_equal(EV, ref)

    def test_constant_noise_enters_on_empty_steps(self):
        # every step of this trace is empty, so only the noise moves E V
        process = T.FixedProcess(G.empty_graph(3))
        gains = cl.GainSchedule("constant", alpha=0.5)
        C = np.diag([1.0, 2.0, 3.0])
        _, EV = D.exact_second_moment(process, gains, C, [0.0, 0.0, 0.0], 4)
        step = 0.25 * np.trace((np.eye(3) - 1 / 3) @ C @ (np.eye(3) - 1 / 3))
        np.testing.assert_allclose(EV, step * np.arange(5), rtol=1e-15)

    def test_benchmark_trace_matches_dense_recursion(self):
        # the (delta, c) = (0.3, 2) cycle process of the exact_certify
        # workload, three quarters of whose steps are empty graphs
        gains = D.design_gain_schedule(5, 2.0, 1.0, 0.3)
        process = T.ExtensibleBlockProcess(G.cycle_graph(5), 0.3, 2.0, 3000)
        nm = D.make_noise("iid_gaussian", v=0.01)
        x1 = np.linspace(0.0, 1.0, 5)
        _, EV = D.exact_second_moment(process, gains, nm, x1, 3000)
        np.testing.assert_array_equal(EV, dense_second_moment(process, gains, nm, x1, 3000))


class TestAdversarialExactMoments:
    def test_matches_dense_recursion(self):
        gains = D.design_gain_schedule(4, 1, 1.0, 0.3)
        proc = T.AdversarialProcess(gains, 0.3, 1, 4, 2000)
        x1 = np.linspace(0, 1, 4)
        nm = D.make_noise("iid_gaussian", v=0.01)
        ts_d, EV_d = D.exact_second_moment(proc, gains, nm, x1, 2000)
        ts_f, EV_f = D.adversarial_exact_moments(proc, gains, 0.01, x1, 2000)
        np.testing.assert_allclose(EV_f, EV_d, rtol=1e-12)

    def test_record_grid_subset(self):
        gains = cl.GainSchedule("power", alpha=1.0, t_star=10.0, exponent=0.5)
        proc = T.AdversarialProcess(gains, 0.5, 1, 3, 500)
        x1 = np.array([0.0, 0.5, 1.0])
        grid = np.array([1, 7, 63, 200, 501])
        ts_all, EV_all = D.adversarial_exact_moments(proc, gains, 0.02, x1, 500)
        ts_g, EV_g = D.adversarial_exact_moments(proc, gains, 0.02, x1, 500, record_ts=grid)
        np.testing.assert_allclose(EV_g, EV_all[grid - 1], rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_dense_recursion_across_chunks(self, monkeypatch, n):
        monkeypatch.setattr(D, "_SCAN_CHUNK", 64)
        gains = cl.GainSchedule("power", alpha=0.5, t_star=2.0 * n, exponent=0.7)
        proc = T.AdversarialProcess(gains, 0.5, 1, n, 300)
        x1 = np.linspace(0, 1, n) ** 2
        nm = D.make_noise("iid_gaussian", v=0.03)
        _, EV_d = D.exact_second_moment(proc, gains, nm, x1, 300)
        _, EV_f = D.adversarial_exact_moments(proc, gains, 0.03, x1, 300)
        np.testing.assert_allclose(EV_f, EV_d, rtol=1e-12)

    def test_constant_gains_record_across_seams(self, monkeypatch):
        monkeypatch.setattr(D, "_SCAN_CHUNK", 64)
        gains = cl.GainSchedule("constant", alpha=0.05)
        proc = T.AdversarialProcess(gains, 0.3, 2, 5, 400)
        x1 = np.array([3.0, -1.0, 0.5, 0.0, 2.0])
        grid = np.array([1, 2, 63, 64, 65, 66, 128, 129, 130, 257, 400, 401])
        _, EV_d = D.exact_second_moment(proc, gains, D.make_noise("iid_uniform", v=0.02), x1, 400)
        ts, EV_f = D.adversarial_exact_moments(proc, gains, 0.02, x1, 400, record_ts=grid)
        np.testing.assert_array_equal(ts, grid)
        np.testing.assert_allclose(EV_f, EV_d[grid - 1], rtol=1e-12)

    def test_matches_dense_recursion_past_two_chunks(self):
        horizon = 2 * D._SCAN_CHUNK + 123
        gains = D.design_gain_schedule(4, 1, 1.0, 0.3)
        proc = T.AdversarialProcess(gains, 0.3, 1, 4, horizon)
        x1 = np.linspace(0, 1, 4)
        grid = np.unique(np.geomspace(1, horizon + 1, 60).astype(int))
        _, EV_d = D.exact_second_moment(proc, gains, D.make_noise("iid_gaussian", v=0.01),
                                        x1, horizon)
        _, EV_f = D.adversarial_exact_moments(proc, gains, 0.01, x1, horizon, record_ts=grid)
        np.testing.assert_allclose(EV_f, EV_d[grid - 1], rtol=1e-12)

    def test_horizon_past_process_rejected(self):
        gains = cl.GainSchedule("constant", alpha=0.1)
        proc = T.AdversarialProcess(gains, 0.5, 1, 3, 50)
        with pytest.raises(ValueError, match="process horizon"):
            D.adversarial_exact_moments(proc, gains, 0.01, [0.0, 0.5, 1.0], 51)


class TestAffineScan:
    @staticmethod
    def _loop(s, b, y0):
        y, out = y0, np.empty_like(s)
        for t in range(s.size):
            y = s[t] * y + b[t]
            out[t] = y
        return out

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 1024, 1025])
    def test_matches_python_loop(self, length):
        rng = np.random.default_rng(length)
        s = rng.uniform(0.0, 1.5, length)
        s[::5] = 1.0
        s[3::11] = 0.0
        b = rng.uniform(0.0, 1.0, length)
        np.testing.assert_allclose(D._affine_scan(s, b, 2.5), self._loop(s, b, 2.5), rtol=1e-12)

    def test_rows_scan_independently(self):
        rng = np.random.default_rng(0)
        s, b = rng.uniform(0.0, 1.5, (2, 100)), rng.uniform(0.0, 1.0, (2, 100))
        out = D._affine_scan(s, b, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out[0], self._loop(s[0], b[0], 1.0), rtol=1e-12)
        np.testing.assert_allclose(out[1], self._loop(s[1], b[1], 0.0), rtol=1e-12)


def _per_replica_reference(process, gains, noise, x1, horizon, replicas, seed):
    """One run per replica on its derived process seed, fed column r of
    each step's shared noise draw; V is reduced over the (time, n,
    replica) stack of their states, in the layout the Monte Carlo
    recorder reduces."""
    n = len(x1)
    sampler = D.EdgeNoiseSampler(noise, n, seed)
    a_all = gains.values(np.arange(1, horizon + 1))
    states = []
    for r in range(replicas):
        sub = np.random.SeedSequence(entropy=seed, spawn_key=(TAG_REPLICA, r))
        proc = process.reseeded(int(sub.generate_state(1, np.uint64)[0]))
        x = np.asarray(x1, dtype=float)
        rows = [x]
        for t in range(1, horizon + 1):
            g = proc.graph_at(t)
            if noise.kind == "iid_gaussian":
                z = sampler.pool.at(TAG_EDGE_NOISE, 0, t).standard_normal((n, replicas))[:, r]
                w_hat = z * np.sqrt(noise.v * (g.weights * g.weights).sum(axis=1))
            else:
                w_hat = (g.weights * sampler.edge_matrix(t, (replicas,))[:, :, r]).sum(axis=1)
            x = D.step(x, g, a_all[t - 1], w_hat)
            rows.append(x)
        states.append(np.array(rows))
    V = D._disagreement_vec(np.stack(states, axis=-1))
    return V.mean(axis=1), V.std(axis=1, ddof=1) / math.sqrt(replicas), np.array(states)[:, -1]


class TestMonteCarlo:
    # replica r is the single run on its process seed fed column r of
    # each step's noise draw, which pins the topology seeding of the random
    # branch and keeps every replica's noise its own; n = 2 repeats its one
    # pair in the cycle; K = 1 puts the whole cycle in every slot
    @pytest.mark.parametrize("kind,K,n,replicas", [
        pytest.param("iid_gaussian", 3, 5, 12, id="iid_gaussian"),
        pytest.param("iid_uniform", 3, 5, 12, id="iid_uniform"),
        pytest.param("m_dependent_ma", 3, 5, 12, id="m_dependent_ma"),
        pytest.param("martingale_difference", 2, 4, 12, id="martingale_difference"),
        pytest.param("zero", 3, 5, 12, id="zero"),
        pytest.param("iid_uniform", 1, 5, 12, id="iid_uniform-K1"),
        pytest.param("iid_uniform", 3, 2, 12, id="iid_uniform-n2"),
        pytest.param("iid_uniform", 2, 9, 7, id="iid_uniform-n9-R7"),
    ])
    def test_random_process_matches_per_replica_runs(self, kind, K, n, replicas):
        proc = T.RandomBlockProcess(K, 0.3, 1.0, n, seed=0)
        gains = cl.GainSchedule("power", alpha=8.0, t_star=64.0, exponent=0.7)
        nm = D.make_noise(kind, v=0.01, m=2)
        x1 = np.linspace(0, 1, n)
        mc = D.monte_carlo_V(proc, gains, nm, x1, 300, replicas, seed=20240909)
        mean, se, finals = _per_replica_reference(proc, gains, nm, x1, 300, replicas, 20240909)
        np.testing.assert_array_equal(mc.final_states, finals)
        np.testing.assert_array_equal(mc.mean_V, mean)
        np.testing.assert_array_equal(mc.stderr_V, se)

    @pytest.mark.parametrize("random", [False, True])
    def test_wrong_length_x1_rejected(self, random):
        gains = cl.GainSchedule("constant", alpha=0.1)
        proc = (T.RandomBlockProcess(2, 0.3, 1.0, 4, seed=0) if random
                else T.FixedProcess(G.cycle_graph(4)))
        with pytest.raises(ValueError, match="disagree on n"):
            D.monte_carlo_V(proc, gains, D.make_noise("iid_gaussian", v=0.01),
                            [0.0, 0.5, 1.0], 5, 4, seed=0)

    def test_zero_noise_degenerate(self):
        proc = T.FixedProcess(G.cycle_graph(4))
        gains = cl.GainSchedule("constant", alpha=0.2)
        x1 = np.linspace(0, 1, 4)
        mc = D.monte_carlo_V(proc, gains, D.make_noise("zero"), x1, 30, 8, seed=0)
        tr = D.run(proc, gains, D.make_noise("zero"), x1, 30, seed=0)
        np.testing.assert_allclose(mc.mean_V, tr.disagreement, atol=1e-14)
        np.testing.assert_allclose(mc.stderr_V, 0.0, atol=1e-16)

    def test_matches_exact_oracle(self):
        proc = T.PeriodicProcess(T.star_rotation_components(3))
        gains = cl.GainSchedule("power", alpha=1.0, t_star=4.0, exponent=1.0)
        nm = D.make_noise("iid_uniform", v=0.05)
        x1 = np.array([0.0, 1.0, 2.0])
        mc = D.monte_carlo_V(proc, gains, nm, x1, 40, 4000, seed=3)
        _, EV = D.exact_second_moment(proc, gains, nm, x1, 40)
        dev = np.abs(mc.mean_V - EV) / np.maximum(mc.stderr_V, 1e-300)
        assert dev[1:].max() <= 4.0

    def test_stderr_shrinks_with_replicas(self):
        proc = T.FixedProcess(G.complete_graph(3))
        gains = cl.GainSchedule("constant", alpha=0.1)
        nm = D.make_noise("iid_gaussian", v=0.1)
        x1 = np.zeros(3)
        mc1 = D.monte_carlo_V(proc, gains, nm, x1, 50, 2000, seed=1)
        mc2 = D.monte_carlo_V(proc, gains, nm, x1, 50, 4000, seed=2)
        ratio = (mc2.stderr_V[10:] / mc1.stderr_V[10:]).mean()
        assert ratio == pytest.approx(1 / math.sqrt(2), abs=0.08)

    def test_deterministic_given_seed(self):
        proc = T.PeriodicProcess(T.cycle_edge_components(3))
        gains = cl.GainSchedule("power", alpha=1.0, t_star=2.0, exponent=1.0)
        nm = D.make_noise("iid_gaussian", v=0.01)
        a = D.monte_carlo_V(proc, gains, nm, [0, 0.5, 1], 30, 50, seed=5)
        b = D.monte_carlo_V(proc, gains, nm, [0, 0.5, 1], 30, 50, seed=5)
        np.testing.assert_array_equal(a.mean_V, b.mean_V)
        np.testing.assert_array_equal(a.final_states, b.final_states)

    def test_random_process_loop_path(self):
        proc = T.RandomBlockProcess(2, 0.3, 2.0, 3, seed=0)
        gains = cl.GainSchedule("power", alpha=1.0, t_star=2.0, exponent=0.7)
        nm = D.make_noise("iid_gaussian", v=0.01)
        a = D.monte_carlo_V(proc, gains, nm, [0, 0.5, 1], 40, 6, seed=9)
        b = D.monte_carlo_V(proc, gains, nm, [0, 0.5, 1], 40, 6, seed=9)
        np.testing.assert_array_equal(a.mean_V, b.mean_V)
        assert a.final_states.shape == (6, 3)

    def test_replica_floor(self):
        proc = T.FixedProcess(G.pair_graph(2))
        gains = cl.GainSchedule("constant", alpha=0.1)
        with pytest.raises(ValueError):
            D.monte_carlo_V(proc, gains, D.make_noise("zero"), [0, 1], 5, 1, seed=0)


def _per_step_summary(ts, blocks):
    """Test-only reference: mean and stderr of V reduced one step at a time."""
    meanV, seV = np.empty(ts.size), np.empty(ts.size)
    for k, X in enumerate(blocks):
        v = D._disagreement_vec(X)
        meanV[k] = v.mean()
        seV[k] = v.std(ddof=1) / math.sqrt(X.shape[1])
    return meanV, seV, X.T.copy()


class TestSummarize:
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("replicas", [2, 7, 500])
    def test_matches_per_step_reduction(self, steps, replicas):
        rng = np.random.default_rng(steps * 100 + replicas)
        blocks = rng.standard_normal((steps, 4, replicas)) * rng.uniform(0.1, 10.0, (steps, 1, 1))
        ts = np.arange(1, steps + 1)
        res = D._summarize(ts, blocks[0], iter(blocks[1:]))
        meanV, seV, finals = _per_step_summary(ts, blocks)
        np.testing.assert_array_equal(res.mean_V, meanV)
        np.testing.assert_array_equal(res.stderr_V, seV)
        np.testing.assert_array_equal(res.final_states, finals)
        assert res.replicas == replicas


    @pytest.mark.parametrize("steps", [1, 65, 130])
    def test_transposed_blocks_match_per_step_reduction(self, steps):
        # MANET passes transposes of C-order (runs, n) arrays; at n = 9 a sum
        # over their nodes runs in another order than over C-order blocks
        rng = np.random.default_rng(steps)
        rows = rng.standard_normal((steps, 7, 9)) * rng.uniform(0.1, 10.0, (steps, 1, 1))
        blocks = [r.T for r in rows]
        res = D._summarize(np.arange(1, steps + 1), blocks[0], iter(blocks[1:]))
        meanV, seV, finals = _per_step_summary(np.arange(1, steps + 1), blocks)
        np.testing.assert_array_equal(res.mean_V, meanV)
        np.testing.assert_array_equal(res.stderr_V, seV)
        np.testing.assert_array_equal(res.final_states, finals)


class TestNonFiniteState:
    # a = 10 on the complete graph of 3 nodes multiplies the disagreement
    # by -29 per step, so V overflows first at t = 107
    PROC = T.FixedProcess(G.complete_graph(3))
    GAINS = cl.GainSchedule("constant", alpha=10.0)
    NOISE = D.make_noise("iid_gaussian", v=0.01)

    def test_monte_carlo_names_first_time(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite at t = 107:"):
            D.monte_carlo_V(self.PROC, self.GAINS, self.NOISE, [0.0, 0.5, 1.0], 400, 8, seed=0)

    def test_run_names_first_time(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite at t = 107:"):
            D.run(self.PROC, self.GAINS, self.NOISE, [0.0, 0.5, 1.0], 400, seed=0)

    # a = 1 on the 4-cycle: I - L has the eigenvalue -3, so E V grows about
    # 9-fold per step and overflows near t = 320; a = 2 on the random 4-cycles
    # and the adversarial pair graph (whose I - 2L has -3 too) overflows sooner
    @pytest.mark.parametrize("oracle", [
        lambda x1, noise: D.exact_second_moment(
            T.FixedProcess(G.cycle_graph(4)), cl.GainSchedule("constant", alpha=1.0), noise, x1,
            400),
        lambda x1, noise: D.random_block_exact_moments(
            T.RandomBlockProcess(1, 0.3, 1.0, 4, seed=0), cl.GainSchedule("constant", alpha=2.0),
            noise, x1, 400),
        lambda x1, noise: D.adversarial_exact_moments(
            T.AdversarialProcess(cl.GainSchedule("constant", alpha=2.0), 0.3, 1, 4, 400),
            cl.GainSchedule("constant", alpha=2.0), noise.v, x1, 400),
    ], ids=["exact_second_moment", "random_block_exact_moments", "adversarial_exact_moments"])
    def test_exact_paths_name_first_time(self, oracle):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"not finite at t = \d+:"):
            oracle([0.0, 0.5, 1.0, 0.25], self.NOISE)

class TestCsvWriters:
    def test_trace_roundtrip(self, tmp_path):
        proc = T.FixedProcess(G.pair_graph(2))
        gains = cl.GainSchedule("constant", alpha=0.2)
        tr = D.run(proc, gains, D.make_noise("iid_gaussian", v=0.01), [0, 1], 10, seed=0)
        path = tmp_path / "trace.csv"
        D.write_trace_csv(tr, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x_1,x_2,V,a"
        assert len(rows) == 12
        first = rows[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.0 and float(first[2]) == 1.0

    def test_monte_carlo_csv(self, tmp_path):
        proc = T.FixedProcess(G.pair_graph(2))
        gains = cl.GainSchedule("constant", alpha=0.2)
        mc = D.monte_carlo_V(proc, gains, D.make_noise("iid_gaussian", v=0.01),
                             [0, 1], 5, 10, seed=0)
        path = tmp_path / "mc.csv"
        D.write_monte_carlo_csv(mc, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,meanV,stderrV,replicas"
        assert len(rows) == 7  # header plus t = 1..horizon+1
        assert rows[1].endswith(",10")


class TestRandomBlockExactOracle:
    """The annealed E V of `random_block_exact_moments` against the random
    branch of `monte_carlo_V`, on c9's process, gains and seed."""

    @staticmethod
    def _z(mc, ev, ts):
        """|mean_V - E V| / stderr_V at the times ts; where the stderr is
        0 (no block has connected yet) the two must agree to rounding."""
        k = ts - 1
        dev, se = np.abs(mc.mean_V[k] - ev[k]), mc.stderr_V[k]
        np.testing.assert_allclose(mc.mean_V[k][se == 0], ev[k][se == 0], rtol=1e-12)
        return dev[se > 0] / se[se > 0]

    @pytest.mark.parametrize("noise", ["c9", "iid_uniform"])
    def test_wide_batch_within_4_stderr(self, c9_run, noise):
        # 20,000 replicas to horizon 30: every time, the first blocks too
        nm = c9_run.noise if noise == "c9" else D.make_noise("iid_uniform", v=0.01)
        args = (c9_run.process, c9_run.gains, nm, c9_run.x1, 30)
        mc = D.monte_carlo_V(*args, 20_000, seed=c9_run.seed)
        ts, ev = D.random_block_exact_moments(*args)
        np.testing.assert_array_equal(ts, mc.ts)
        z = self._z(mc, ev, ts)
        assert z.size and np.all(z <= 4.0), z.max()

    def test_c9_monte_carlo_within_4_stderr(self, c9_run):
        # c9's own 64 replicas on a geometric grid; at R = 64 the stderr of
        # the first connected blocks is itself noisy, which the wide batch
        # covers, so this gate starts at t = 31
        ts, ev = D.random_block_exact_moments(c9_run.process, c9_run.gains, c9_run.noise,
                                              c9_run.x1, c9_run.horizon)
        grid = np.unique(np.geomspace(1, c9_run.horizon + 1, 40).astype(int))
        z = self._z(c9_run.mc, ev, grid[grid >= 31])
        assert np.all(z <= 4.0), z.max()

    def test_certain_block_matches_permutation_average(self):
        # q = 1 from block 1 on: E V is the plain average over the n! cycles
        # of the exact recursion run on each one's slot graphs
        proc = T.RandomBlockProcess(2, 0.1, 50.0, 3, seed=0)
        gains = cl.GainSchedule("power", alpha=0.5, t_star=2.0, exponent=0.8)
        nm = D.make_noise("iid_uniform", v=0.02)
        x1 = np.array([0.0, 1.0, 3.0])
        _, ev = D.random_block_exact_moments(proc, gains, nm, x1, 4)
        assert proc.connection_probability(1) == 1.0
        runs = []
        for perm in itertools.permutations(range(3)):
            # block 0 never connects (log 1 = 0), block 1 deals this cycle
            blocks = T._cycle_slot_graphs(3, (), 2) + T._cycle_slot_graphs(3, perm, 2)
            runs.append(D.exact_second_moment(T.PeriodicProcess(blocks), gains, nm, x1, 4)[1])
        np.testing.assert_allclose(ev, np.mean(runs, axis=0), rtol=1e-12)

    def test_rejects_dependent_noise_and_wrong_length(self):
        proc = T.RandomBlockProcess(2, 0.3, 1.0, 3, seed=0)
        gains = cl.GainSchedule("constant", alpha=0.1)
        with pytest.raises(ValueError, match="independent across time"):
            D.random_block_exact_moments(proc, gains, D.make_noise("m_dependent_ma", v=0.1, m=2),
                                         [0.0, 0.5, 1.0], 5)
        with pytest.raises(ValueError, match="disagree on n"):
            D.random_block_exact_moments(proc, gains, D.make_noise("zero"), [0.0, 1.0], 5)
