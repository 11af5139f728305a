"""Two-opinion multi-sample voting dynamics on two-community random graphs.

Simulation of sampling voting rules on the stochastic block model G(2n,p,q),
plus the induced two-dimensional mean-field dynamics: fixed points, stability,
phase thresholds, and concentration diagnostics.
"""

from .sbm_graph import (
    Graph,
    DegreeStats,
    generate_sbm,
    degree_stats,
    graph_from_edges,
    save_graph,
    load_graph,
)
from .voting_core import (
    STATUS_CONSENSUS,
    STATUS_TIMEOUT,
    STATUS_STOPPED,
    VotingRule,
    OpinionState,
    Trajectory,
    InitFamily,
    make_rule_bo3,
    make_rule_bo2,
    make_rule_best_of,
    state_from_member,
    to_delta,
    to_alpha,
    step_sampling,
    step_probabilities,
    run_until_consensus,
    make_initial,
    parse_init_family,
    biased_global,
    half_half,
    clustered,
    exact_counts,
    random_density,
    write_trajectory_csv,
)
from .induced_dynamics import (
    InducedMap,
    u_of_r,
    r_of_u,
    iterate,
)
from .fixed_point_analysis import (
    CLASS_CONSENSUS,
    CLASS_MARGINAL,
    CLASS_SADDLE,
    CLASS_SINK,
    CLASS_SOURCE,
    Matrix2,
    FixedPointReport,
    ThresholdResult,
    fixed_point_locations,
    jacobian_analytic,
    analyze,
    eigen_table,
    threshold_r,
    competitive_checks,
)
from .concentration_probe import (
    w_stat,
    goodness_report,
)
from .experiment_harness import (
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    run_trials,
    phase_sweep,
    sink_persistence,
    trajectory_deviation,
    escape_time,
    worst_case_scan,
    write_results_csv,
)

__version__ = "0.1.0"
