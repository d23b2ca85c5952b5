"""Fixtures shared by every test module under tests/."""

import pytest

from consensuslab import topology


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
