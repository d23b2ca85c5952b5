"""Simulation laboratory for noisy first-order average consensus under
switching and random network topologies."""

from .analysis import (
    ConsensusStats,
    InequalityCheck,
    ProductBounds,
    RateFit,
    check_step_lower_bound,
    check_window_contraction,
    consensus_stats,
    disagreement,
    fit_rate,
    schedule_product_bounds,
)
from .dynamics import (
    GainSchedule,
    MonteCarloResult,
    NoiseModel,
    SimulationTrace,
    adversarial_exact_moments,
    aggregate_noise_covariance,
    design_gain_schedule,
    exact_second_moment,
    make_noise,
    monte_carlo_V,
    random_block_exact_moments,
    run,
    step,
)
from .graph import (
    WeightedDigraph,
    complete_graph,
    complete_pair_eigenbasis,
    cycle_graph,
    degrees,
    empty_graph,
    from_edges,
    is_balanced,
    is_strongly_connected,
    laplacian,
    pair_graph,
    star_graph,
    union,
)
from .manet import (
    ManetScene,
    RadioParams,
    exact_disagreement,
    reception_probability,
    run_manet,
    run_manet_batch,
    scenario_preset,
    simulate_round,
)
from .topology import (
    AdversarialProcess,
    ConnectivitySchedule,
    ExtensibleBlockProcess,
    FixedProcess,
    PeriodicProcess,
    RandomBlockProcess,
    TopologyProcess,
    cycle_edge_components,
    minimal_delta,
    schedule_times,
    star_rotation_components,
    verify_joint_connectivity,
    window_indices,
)

__version__ = "0.1.0"
