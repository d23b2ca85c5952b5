import math

import numpy as np
import pytest

import consensuslab as cl
from consensuslab import analysis as A
from consensuslab import dynamics as D
from consensuslab import graph as G
from consensuslab import topology as T


class TestDisagreement:
    def test_examples(self):
        assert A.disagreement([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert A.disagreement([5.0, 5.0, 5.0, 5.0]) == 0.0
        assert A.disagreement([1.0, -1.0]) == pytest.approx(2.0)

    def test_shift_invariant_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(int(rng.integers(2, 10)))
            c = float(rng.standard_normal())
            lam = float(rng.standard_normal())
            assert A.disagreement(x + c) == pytest.approx(A.disagreement(x), rel=1e-9, abs=1e-12)
            assert A.disagreement(lam * x) == pytest.approx(lam**2 * A.disagreement(x), rel=1e-9)


class TestFitRate:
    def test_recovers_exact_power_laws(self):
        ts = np.arange(1, 2001)
        for coeff, p in ((3.0, -1.0), (5.0, -0.4), (0.2, -1.7)):
            fit = A.fit_rate(ts, coeff * ts.astype(float) ** p, (10, 2000))
            assert abs(fit.slope - p) <= 1e-6
            assert fit.stderr_slope <= 1e-9

    def test_log_series_slope_flattens(self):
        ts = np.arange(2, 10**6, 97)
        y = 1 / np.log(ts)
        slopes = []
        for lo, hi in ((1e3, 1e4), (1e4, 1e5), (1e5, 1e6)):
            slopes.append(abs(A.fit_rate(ts, y, (lo, hi)).slope))
        assert slopes[0] > slopes[1] > slopes[2]
        assert slopes[2] < 0.12

    def test_rejects_nonpositive(self):
        ts = np.arange(1, 100)
        y = np.ones(99)
        y[50] = 0.0
        with pytest.raises(ValueError):
            A.fit_rate(ts, y, (1, 99))

    def test_rejects_short_window(self):
        ts = np.arange(1, 100)
        with pytest.raises(ValueError):
            A.fit_rate(ts, 1.0 / ts, (1, 5))


class TestScheduleProductBounds:
    def test_worked_example_delta0(self):
        sched = T.schedule_times(0.0, 1.0, 12)
        b = A.schedule_product_bounds(sched, c1=2.0, t_star=0, delta=0.0, i=1, t=10)
        # product over j = 2..10 of (1 - 2/(j+1)) telescopes to 2/110
        assert b.lhs_product == pytest.approx(2.0 / 110.0, rel=1e-12)
        assert b.rhs_power == pytest.approx(3.0 / 11.0, rel=1e-12)
        assert b.lhs_product < b.rhs_power
        assert b.lhs_log_product < b.rhs_log_power

    def test_empty_product_is_one(self):
        sched = T.schedule_times(0.0, 1.0, 12)
        b = A.schedule_product_bounds(sched, c1=0.5, t_star=0, delta=0.0, i=5, t=5)
        assert b.lhs_product == 1.0
        assert b.lhs_log_product == 1.0

    def test_randomized_strict_inequalities(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            delta = float(rng.uniform(0, 0.5))
            c = float(rng.integers(1, 4))
            sched = T.schedule_times(delta, c, int(rng.integers(30, 400)))
            t_star = int(rng.integers(0, 80))
            tmax = int(sched.times[-1])
            t = int(rng.integers(2, tmax + 1))
            i = int(rng.integers(1, t + 1))
            t2 = float(sched.times[1])
            plain_min = t2 ** (1 - delta) + t_star
            log_min = plain_min * math.log(t2 + t_star)
            c1 = float(rng.uniform(0.05, 0.95)) * min(plain_min, log_min)
            b = A.schedule_product_bounds(sched, c1, t_star, delta, i, t)
            assert b.lhs_product < b.rhs_power
            assert b.lhs_log_product < b.rhs_log_power

    def test_rejects_factor_outside_unit_interval(self):
        sched = T.schedule_times(0.0, 1.0, 12)
        with pytest.raises(ValueError):
            A.schedule_product_bounds(sched, c1=10.0, t_star=0, delta=0.0, i=1, t=10)


def _random_balanced_base(rng, n):
    w = np.zeros((n, n))
    for k in range(n):  # ring guarantees strong connectivity
        w[k, (k + 1) % n] = w[(k + 1) % n, k] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0 and rng.random() < 0.3:
                wt = rng.uniform(1.0, 2.0)
                w[i, j] = w[j, i] = wt
    return G.WeightedDigraph(n, w, 2.0)


class TestWindowContraction:
    def test_fixed_complete_graph(self):
        trace = [G.complete_graph(4)] * 30
        sched = T.schedule_times(0.0, 1.0, 31)
        gains = cl.GainSchedule("constant", alpha=0.1)
        chk = A.check_window_contraction(trace, gains, sched, i=1, t=30, seed=1)
        assert chk.holds
        assert chk.lhs <= chk.rhs

    def test_consensus_vector_trivial(self):
        trace = [G.complete_graph(3)] * 10
        sched = T.schedule_times(0.0, 1.0, 11)
        gains = cl.GainSchedule("constant", alpha=0.1)
        chk = A.check_window_contraction(trace, gains, sched, z=np.ones(3))
        assert chk.lhs == pytest.approx(0.0, abs=1e-20)
        assert chk.holds

    def test_randomized_joint_traces(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            delta = float(rng.uniform(0, 0.5))
            c = float(rng.integers(1, 4))
            horizon = int(rng.integers(30, 150))
            proc = T.ExtensibleBlockProcess(_random_balanced_base(rng, n), delta, c, horizon)
            trace = proc.trace(horizon)
            d_max = max(float(G.degrees(g)[0].max()) for g in trace)
            gains = cl.GainSchedule("constant", alpha=float(rng.uniform(0.05, 0.95)) / d_max)
            i = int(rng.integers(1, horizon // 2 + 1))
            t = int(rng.integers(i, horizon + 1))
            chk = A.check_window_contraction(trace, gains, proc.schedule, i=i, t=t,
                                             seed=int(rng.integers(1 << 30)))
            assert chk.holds, (n, delta, c, i, t)

    def test_gain_out_of_range_rejected(self):
        trace = [G.complete_graph(3)] * 10
        sched = T.schedule_times(0.0, 1.0, 11)
        gains = cl.GainSchedule("constant", alpha=0.9)  # 1/d_max = 0.5
        with pytest.raises(ValueError):
            A.check_window_contraction(trace, gains, sched)


class TestStepLowerBound:
    def test_hand_case(self):
        chk = A.check_step_lower_bound(G.pair_graph(2), 0.25, [0.0, 1.0])
        assert chk.lhs == pytest.approx(0.125)
        assert chk.rhs == pytest.approx(0.0, abs=1e-15)
        assert chk.holds

    def test_zero_gain_equality(self):
        x = [0.3, -0.7, 1.1]
        chk = A.check_step_lower_bound(G.complete_graph(3), 0.0, x)
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    def test_randomized_digraphs(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a_max = float(rng.uniform(1, 3))
            w = np.where(rng.random((n, n)) < 0.5, rng.uniform(1, a_max, (n, n)), 0.0)
            np.fill_diagonal(w, 0.0)
            g = G.WeightedDigraph(n, w, a_max)
            chk = A.check_step_lower_bound(g, float(rng.uniform(0, 1.5)), rng.standard_normal(n))
            assert chk.holds


class TestConsensusStats:
    def test_zero_noise_balanced_recovers_average(self):
        proc = T.PeriodicProcess(T.cycle_edge_components(3))
        gains = cl.GainSchedule("power", alpha=2.0, t_star=4.0, exponent=1.0)
        mc = D.monte_carlo_V(proc, gains, D.make_noise("zero"), [0.0, 0.5, 1.0], 400, 10, seed=0)
        stats = A.consensus_stats(mc.final_states, [0.0, 0.5, 1.0])
        assert stats.var_final == pytest.approx(0.0, abs=1e-20)
        assert stats.mean_final == pytest.approx(0.5, abs=1e-9)
        assert stats.target_average == 0.5

    def test_unbiased_within_four_stderr(self):
        proc = T.PeriodicProcess(T.star_rotation_components(3))
        gains = cl.GainSchedule("power", alpha=1.0, t_star=4.0, exponent=1.0)
        nm = D.make_noise("iid_gaussian", v=0.02)
        mc = D.monte_carlo_V(proc, gains, nm, [0.0, 0.5, 1.0], 500, 4000, seed=11)
        stats = A.consensus_stats(mc.final_states, [0.0, 0.5, 1.0])
        se = math.sqrt(stats.var_final / stats.replicas)
        assert abs(stats.mean_final - stats.target_average) <= 4 * se

    def test_needs_two_replicas(self):
        with pytest.raises(ValueError):
            A.consensus_stats(np.zeros((1, 3)), [0, 0, 0])
