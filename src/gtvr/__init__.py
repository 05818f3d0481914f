"""Deterministic simulator for decentralized stochastic finite-sum
optimization with gradient tracking and Bernoulli-triggered variance
reduction, plus the baselines, admissibility theory, and dataset
tooling needed to reproduce the reference logistic-regression
experiments."""

from .algorithms import (
    ALGORITHMS,
    DivergedError,
    RunConfig,
    SwarmState,
    init_swarm,
    run_experiment,
    run_round,
)
from .graph import (
    MixingMatrix,
    Topology,
    build_topology,
    metropolis_weights,
    mix,
)
from .ingest import (
    LibsvmFormatError,
    RawDataset,
    parse_libsvm,
    partition,
    serialize_libsvm,
    to_binary_labels,
)
from .metrics import TraceRow, consensus_gap_D, read_trace, stationarity_metrics, write_trace
from .problem import (
    FiniteSumProblem,
    LogisticProblem,
    QuadraticProblem,
    make_logistic,
    make_quadratic,
)
from .rng import AgentStreams, draw_bernoulli, draw_index, make_agent_streams, make_swarm_streams
from .theory import (
    TheoryReport,
    build_report,
    complexity_estimate,
    epsilon3,
    eta_bar,
    eta_tilde,
    lmi_matrix,
    nonneg_spectral_radius,
    p_lower_bound,
    t_constant,
    verify_contraction,
)

__version__ = "0.1.0"
