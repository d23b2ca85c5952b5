"""Fixtures shared by every test module under tests/."""

import functools
from typing import NamedTuple

import numpy as np
import pytest

from consensuslab import dynamics, manet, topology


@pytest.fixture(autouse=True, scope="module")
def _cold_slot_graph_caches():
    """Empty the process-wide slot-graph caches when each test module ends.

    `_dealt_graph` and `_cycle_slot_graphs` outlive a test, so a module that
    warms them would change what a later module observes; the traced
    benchmark smoke test counts graph builds and would see none.  Clearing
    them makes the suite independent of collection order.
    """
    yield
    topology._cycle_slot_graphs.cache_clear()
    topology._dealt_graph.cache_clear()


@pytest.fixture(scope="session")
def c7_batch():
    """c7's 10^4-round, 100-run batch of a MANET scene at c7's seed, as a
    function of the scene's name; each scene runs once per session, for
    the c7 acceptance test and the MANET oracle test alike."""
    return functools.cache(lambda fig: manet.run_manet_batch(
        *manet.scenario_preset(fig), 10_000, 100, seed=20240707))


class C9Run(NamedTuple):
    process: topology.RandomBlockProcess
    gains: dynamics.GainSchedule
    noise: dynamics.NoiseModel
    x1: np.ndarray
    horizon: int
    seed: int
    mc: dynamics.MonteCarloResult


@pytest.fixture(scope="session")
def c9_run() -> C9Run:
    """c9's random-block Monte Carlo (n = 5, K = 3, mu = 0.3, R = 64,
    horizon 30,000) and its inputs, run once per session for the c9
    acceptance test and the random-block oracle test alike."""
    n, horizon, replicas, seed = 5, 30_000, 64, 20240909
    mu, K = 0.3, 3
    proc = topology.RandomBlockProcess(K, mu, 1.0, n, seed=0)
    gains = dynamics.GainSchedule("power", alpha=8.0, t_star=64.0, exponent=1 - mu)
    noise = dynamics.make_noise("iid_gaussian", v=0.01)
    x1 = np.linspace(0, 1, n)
    mc = dynamics.monte_carlo_V(proc, gains, noise, x1, horizon, replicas, seed=seed)
    return C9Run(proc, gains, noise, x1, horizon, seed, mc)
