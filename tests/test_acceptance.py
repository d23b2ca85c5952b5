"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure).  The suite is seeded and deterministic; total runtime is a few
minutes on a laptop.

The adversarial rate criterion (c2) is checked in two halves.  The
certified gain a(t) = alpha/(t^(1-delta) + t*) follows its power law
alpha t^-(1-delta) only past t_c = t*^(1/(1-delta)): about 1.8e4, 7.1e4
and 4.6e5 at delta = 0.2, 0.3, 0.4.  The Monte Carlo run at horizon 1e5
is tied point by point to the exact second-moment oracle, and the rate
-(1-2 delta) is fitted on that oracle at a horizon past t_c.
"""

import functools
import math

import numpy as np
import pytest

import consensuslab as cl
from consensuslab import analysis as A
from consensuslab import dynamics as D
from consensuslab import graph as G
from consensuslab import manet as M
from consensuslab import topology as T
from consensuslab.cli import run_verify_suites


def _criterion(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- 1. Theta(1/t) rate under balanced uniformly jointly connected topology

def test_c1_rate_uniform_joint_connectivity():
    n, horizon, replicas = 5, 100_000, 500
    proc = T.PeriodicProcess(T.star_rotation_components(n))
    gains = D.design_gain_schedule(n, 1, 1.0, 0.0)
    noise = D.make_noise("iid_gaussian", v=0.01)
    mc = D.monte_carlo_V(proc, gains, noise, np.linspace(0, 1, n), horizon,
                         replicas, seed=20240601)
    fit = A.fit_rate(mc.ts, mc.mean_V, (20_000, horizon))
    ok = abs(fit.slope - (-1.0)) <= 0.15
    assert _criterion("1 uniform-rate", ok,
                      f"slope {fit.slope:.4f} vs -1.0 +/- 0.15")


# -- 2. Theta(1/t^(1-2 delta)) on adversarial topologies ---------------------
# The gain constants are the certified design values (alpha = 414.72,
# t* = 2488) for (n=4, c=1).  The rate is a claim about t past
# t_c = t*^(1/(1-delta)); below t_c the gain is t*-dominated and any fitted
# slope is pre-asymptotic (at delta = 0.4 it is positive on [2e4, 1e5]).
# Each case therefore asserts
#   1. the engine: the Monte Carlo mean of V at horizon 1e5 lies within
#      4 stderr (c4's bound) of the exact oracle on the same process, at
#      every time of a fixed geometric grid in [2e4, 1e5];
#   2. the rate: the oracle's E V for the same gains, at a horizon H past
#      t_c, has slope -(1-2 delta) +/- 0.15 on [0.2 H, H].
# The Monte Carlo slope on [2e4, 1e5] is printed for the record.

_C2_LONG_HORIZON = {0.2: 1_000_000, 0.3: 4_000_000, 0.4: 20_000_000}


@functools.lru_cache(maxsize=None)
def _c2_long_horizon_slope(delta: float) -> float:
    """Slope of the exact E V on [0.2 H, H] for the certified gains."""
    horizon = _C2_LONG_HORIZON[delta]
    gains = D.design_gain_schedule(4, 1, 1.0, delta)
    proc = T.AdversarialProcess(gains, delta, 1, 4, horizon)
    grid = np.unique(np.geomspace(horizon // 100, horizon, 200).astype(int))
    ts, EV = D.adversarial_exact_moments(proc, gains, 0.01, np.linspace(0, 1, 4),
                                         horizon, record_ts=grid)
    return A.fit_rate(ts, EV, (0.2 * horizon, horizon)).slope


@pytest.mark.parametrize("delta", [0.2, 0.3, 0.4])
def test_c2_adversarial_rates(delta):
    n, horizon, replicas = 4, 100_000, 500
    x1 = np.linspace(0, 1, n)
    gains = D.design_gain_schedule(n, 1, 1.0, delta)
    proc = T.AdversarialProcess(gains, delta, 1, n, horizon)
    noise = D.make_noise("iid_gaussian", v=0.01)
    mc = D.monte_carlo_V(proc, gains, noise, x1, horizon, replicas,
                         seed=20240602 + int(delta * 10))
    grid = np.unique(np.geomspace(20_000, horizon, 20).astype(int))
    _, EV = D.adversarial_exact_moments(proc, gains, noise.v, x1, horizon,
                                        record_ts=grid)
    z = np.abs(mc.mean_V[grid - 1] - EV) / mc.stderr_V[grid - 1]
    mc_slope = A.fit_rate(mc.ts, mc.mean_V, (20_000, horizon)).slope
    slope = _c2_long_horizon_slope(delta)
    target = -(1 - 2 * delta)
    ok = z.max() <= 4.0 and abs(slope - target) <= 0.15
    assert _criterion(f"2 adversarial-rate delta={delta}", ok,
                      f"max |mc-exact| {z.max():.2f} stderr (limit 4) on [2e4, 1e5]; "
                      f"mc slope [2e4, 1e5] {mc_slope:.4f}; exact slope at "
                      f"H={_C2_LONG_HORIZON[delta]:.0e} {slope:.4f} vs {target:.1f} +/- 0.15")


def test_c2_long_horizon_exact():
    # same certified constants, horizons where t^(1-delta) >> t*
    results = []
    for delta in _C2_LONG_HORIZON:
        slope = _c2_long_horizon_slope(delta)
        target = -(1 - 2 * delta)
        results.append((delta, slope, target, abs(slope - target) <= 0.15))
    ok = all(r[3] for r in results)
    detail = "; ".join(f"d={d}: {s:.3f} vs {t:.1f}" for d, s, t, _ in results)
    assert _criterion("2s adversarial-rate long-horizon", ok, detail)


# -- 3. Critical-exponent divergence at delta = 0.7 --------------------------

def test_c3_no_consensus_above_critical_exponent():
    n, horizon, delta = 3, 100_000, 0.7
    x1 = np.linspace(0, 1, n)
    rng = np.random.default_rng(20240603)
    schedules = [
        cl.GainSchedule("power", alpha=512 / 3, t_star=682.0, exponent=0.3),
        cl.GainSchedule("power", alpha=1.0, t_star=30.0, exponent=0.3),
    ]
    for _ in range(5):
        t_star = float(rng.integers(0, 100))
        alpha = float(rng.uniform(0.3, 3.0))
        alpha = min(alpha, 0.5 * (1 + t_star))  # keep a(1) <= 1/2
        schedules.append(cl.GainSchedule("power", alpha=alpha, t_star=t_star,
                                         exponent=0.3))
    grid = np.unique(np.geomspace(100, horizon, 300).astype(int))
    all_ok = True
    details = []
    for k, gains in enumerate(schedules):
        proc = T.AdversarialProcess(gains, delta, 1, n, horizon)
        ts, EV = D.adversarial_exact_moments(proc, gains, 0.01, x1, horizon,
                                             record_ts=grid)
        fit = A.fit_rate(ts, EV, (20_000, horizon))
        ok = EV[-1] > 1e-3 and fit.slope >= -0.05
        all_ok &= ok
        details.append(f"s{k}: V(T)={EV[-1]:.3g} slope={fit.slope:+.3f}")
    assert _criterion("3 critical-exponent", all_ok, "; ".join(details))


# -- 4. Monte Carlo vs exact second-moment oracle ----------------------------

def _random_periodic_process(rng):
    n = int(rng.integers(2, 6))
    period = int(rng.integers(1, 5))
    comps = [G.cycle_graph(n)]
    for _ in range(period - 1):
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    w[i, j] = w[j, i] = float(rng.uniform(1.0, 2.0))
        comps.append(G.WeightedDigraph(n, w, 2.0))
    return T.PeriodicProcess(comps)


def test_c4_oracle_equivalence():
    rng = np.random.default_rng(20240404)
    horizon, replicas = 60, 10_000
    worst = 0.0
    for case in range(20):
        proc = _random_periodic_process(rng)
        n = proc.n
        d_max = max(float(G.degrees(g)[0].max()) for g in proc.components)
        t_star = float(rng.uniform(3, 30))
        u = float(rng.uniform(0.3, 0.95))
        gains = cl.GainSchedule("power", alpha=u * (1 + t_star) / (2 * d_max),
                                t_star=t_star, exponent=float(rng.uniform(0.6, 1.0)))
        kind = "iid_gaussian" if case % 2 == 0 else "iid_uniform"
        noise = D.make_noise(kind, v=float(rng.uniform(0.001, 0.05)))
        x1 = rng.standard_normal(n)
        mc = D.monte_carlo_V(proc, gains, noise, x1, horizon, replicas,
                             seed=77000 + case)
        _, EV = D.exact_second_moment(proc, gains, noise, x1, horizon)
        dev = np.abs(mc.mean_V - EV) / np.maximum(mc.stderr_V, 1e-300)
        dev[0] = 0.0  # V(x(1)) is deterministic
        worst = max(worst, float(dev.max()))
    # hand-computed case: n=2, a = 0.25, unit noise, E V(2) = 0.1875
    proc2 = T.FixedProcess(G.pair_graph(2))
    gains2 = cl.GainSchedule("constant", alpha=0.25)
    noise2 = D.make_noise("iid_gaussian", v=1.0)
    mc2 = D.monte_carlo_V(proc2, gains2, noise2, [0.0, 1.0], 2, replicas, seed=78000)
    _, EV2 = D.exact_second_moment(proc2, gains2, noise2, [0.0, 1.0], 2)
    assert abs(EV2[1] - 0.1875) < 1e-14
    hand_dev = abs(mc2.mean_V[1] - 0.1875) / mc2.stderr_V[1]
    worst = max(worst, float(hand_dev))
    ok = worst <= 4.0
    assert _criterion("4 oracle-equivalence", ok,
                      f"worst |mc-exact| = {worst:.2f} stderr (limit 4)")


# -- 5. Inequality suites -----------------------------------------------------

def test_c5_lemma_suites():
    results = run_verify_suites(cases=500, seed=20240505)
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}:{r.cases - r.failures}/{r.cases}" for r in results)
    assert _criterion("5 inequality-suites", ok, detail)


# -- 6. Unbiasedness and variance control -------------------------------------

def test_c6_unbiasedness_and_variance_control():
    n, horizon, replicas = 3, 5_000, 10_000
    proc = T.PeriodicProcess(T.cycle_edge_components(n))
    noise = D.make_noise("iid_gaussian", v=0.01)
    x1 = np.array([0.0, 0.5, 1.0])
    variances = []
    bias_ok = True
    bias_detail = ""
    for k, t_star in enumerate((10.0, 100.0, 1000.0)):
        gains = cl.GainSchedule("power", alpha=5.0, t_star=t_star, exponent=1.0)
        mc = D.monte_carlo_V(proc, gains, noise, x1, horizon, replicas,
                             seed=20240606 + k)
        stats = A.consensus_stats(mc.final_states, x1)
        variances.append(stats.var_final)
        if t_star == 10.0:
            se = math.sqrt(stats.var_final / stats.replicas)
            bias = abs(stats.mean_final - stats.target_average)
            bias_ok = bias <= 4 * se
            bias_detail = f"|bias| {bias:.2e} <= 4se {4 * se:.2e}"
    var_ok = variances[0] > variances[1] > variances[2]
    ok = bias_ok and var_ok
    assert _criterion("6 unbiasedness-variance", ok,
                      f"{bias_detail}; Var(x*) along t* grid: "
                      + " > ".join(f"{v:.3g}" for v in variances))


# -- 7. MANET figure scenarios -------------------------------------------------

def test_c7_manet_scenarios(c7_batch):
    # each scene's 10^4-round, 100-run batch at seed 20240707 (conftest)
    medians = {}
    fig2_ok = True
    fig2_detail = ""
    for fig in ("fig2", "fig3", "fig4"):
        finals = c7_batch(fig).final_states
        final_range = np.ptp(finals, axis=1)
        medians[fig] = float(np.median(final_range))
        if fig == "fig2":
            frac = float((final_range < 0.05).mean())
            mean_final = float(finals.mean(axis=1).mean())
            fig2_ok = frac >= 0.9 and 0.45 <= mean_final <= 0.55
            fig2_detail = f"range<0.05 in {frac:.0%}, mean final {mean_final:.4f}"
    order_ok = medians["fig4"] > medians["fig3"] > medians["fig2"]
    ok = fig2_ok and order_ok
    assert _criterion("7 manet-scenarios", ok,
                      f"{fig2_detail}; median ranges b=0.8/0.9/1.0: "
                      f"{medians['fig4']:.4f} > {medians['fig3']:.4f} > {medians['fig2']:.4f}")


# -- 8. delta = 1/2 logarithmic regime ----------------------------------------

def test_c8_logarithmic_regime():
    n, horizon = 3, 30_000_000
    gains = cl.GainSchedule("log_corrected", alpha=2.0, t_star=6.0)
    proc = T.AdversarialProcess(gains, 0.5, 1, n, horizon)
    x1 = np.linspace(0, 1, n)
    grid = np.unique(np.geomspace(1, horizon, 800).astype(int))
    ts, EV = D.adversarial_exact_moments(proc, gains, 0.01, x1, horizon,
                                         record_ts=grid)
    fit = A.fit_rate(ts, EV, (horizon / 10, horizon))
    i0 = np.searchsorted(ts, 10_000)
    decays = bool(EV[-1] < EV[i0])
    mask = (ts >= 10_000) & (ts <= horizon)
    lv = np.log(EV[mask])
    lt = np.log(ts[mask].astype(float))
    llt = np.log(np.log(ts[mask].astype(float)))
    resid_log = lv + llt - (lv + llt).mean()  # V-hat = A / log t
    Xp = np.vstack([np.ones_like(lt), lt]).T  # V-hat = B t^s
    beta, *_ = np.linalg.lstsq(Xp, lv, rcond=None)
    resid_pow = lv - Xp @ beta
    sse_log = float(resid_log @ resid_log)
    sse_pow = float(resid_pow @ resid_pow)
    ok = decays and abs(fit.slope) < 0.1 and sse_log < sse_pow
    assert _criterion("8 log-regime", ok,
                      f"decays={decays}, final-decade slope {fit.slope:.4f}, "
                      f"SSE 1/log {sse_log:.3g} < power {sse_pow:.3g}")


# -- 9. Random-topology consensus rate ----------------------------------------

def test_c9_random_topology_rate(c9_run):
    # n = 5, K = 3, mu = 0.3, 64 replicas to horizon 30,000 (conftest)
    mc, horizon, mu = c9_run.mc, c9_run.horizon, c9_run.process.mu
    fit = A.fit_rate(mc.ts, mc.mean_V, (6_000, horizon))
    bound = -(1 - 2 * mu) + 0.2
    ok = fit.slope <= bound
    assert _criterion("9 random-topology-rate", ok,
                      f"slope {fit.slope:.4f} <= {bound:.1f}")
