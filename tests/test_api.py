"""Pins the public surface of ``import gtvr``.

Adding or removing an exported name should be a deliberate change that
updates this list too.
"""

import types

import gtvr

PUBLIC_NAMES = [
    "ALGORITHMS",
    "AgentStreams",
    "DivergedError",
    "FiniteSumProblem",
    "LibsvmFormatError",
    "LogisticProblem",
    "MixingMatrix",
    "QuadraticProblem",
    "RawDataset",
    "RunConfig",
    "SwarmState",
    "TheoryReport",
    "Topology",
    "TraceRow",
    "build_report",
    "build_topology",
    "complexity_estimate",
    "consensus_gap_D",
    "draw_bernoulli",
    "draw_index",
    "epsilon3",
    "eta_bar",
    "eta_tilde",
    "init_swarm",
    "lmi_matrix",
    "make_agent_streams",
    "make_logistic",
    "make_quadratic",
    "make_swarm_streams",
    "metropolis_weights",
    "mix",
    "nonneg_spectral_radius",
    "p_lower_bound",
    "parse_libsvm",
    "partition",
    "read_trace",
    "run_experiment",
    "run_round",
    "serialize_libsvm",
    "stationarity_metrics",
    "t_constant",
    "to_binary_labels",
    "verify_contraction",
    "write_trace",
]


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they are not
    # part of the pinned list
    exported = sorted(
        name
        for name, value in vars(gtvr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES

