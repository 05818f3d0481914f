"""Pins the public surface of ``import gtvr`` and of its two problem
classes, and runs README's library example against it.

Adding or removing an exported name or a problem method should be a
deliberate change that updates these lists too.
"""

import re
import types
from pathlib import Path

import pytest

import gtvr

PUBLIC_NAMES = [
    "ALGORITHMS",
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
    "epsilon3",
    "eta_bar",
    "eta_tilde",
    "init_swarm",
    "lmi_matrix",
    "make_logistic",
    "make_quadratic",
    "metropolis_weights",
    "mix",
    "nonneg_spectral_radius",
    "p_lower_bound",
    "parse_libsvm",
    "partition",
    "read_trace",
    "run_experiment",
    "run_round",
    "stationarity_metrics",
    "t_constant",
    "to_binary_labels",
    "verify_contraction",
    "write_trace",
]

# the oracles and sizes the engine, the metric pass and the CLI use; the
# sampled oracles have only their unchecked cores, which tests reach with
# 1-based indices through helpers.component_grads and
# helpers.component_grad_diffs; the per-sample and per-agent references
# live in tests/reference_problem.py, the network-average cost and gradient
# in helpers.global_cost_and_grad
PROBLEM_ORACLES = [
    "component_grad_table",
    "lipschitz_estimate",
    "local_costs_and_grads",
    "local_full_grads",
    "total_samples",
]
PROBLEM_SURFACE = {
    "QuadraticProblem": PROBLEM_ORACLES,
    "LogisticProblem": sorted(PROBLEM_ORACLES + ["from_partition"]),
}
# the public data an instance holds: its sizes and the row layout that
# the engine reads for GT-SAGA's table and GT-VR's oracle counts
PROBLEM_DATA = ["d", "layout", "m", "n"]


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they are not
    # part of the pinned list
    exported = sorted(
        name
        for name, value in vars(gtvr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(PROBLEM_SURFACE))
def test_problem_methods_are_pinned(name):
    cls = getattr(gtvr, name)
    assert sorted(attr for attr in dir(cls) if not attr.startswith("_")) == PROBLEM_SURFACE[name]


@pytest.mark.parametrize(
    "instance, extra",
    [(lambda: gtvr.make_quadratic(2, 3, 2), []), (lambda: gtvr.make_logistic(2, 3, 2), ["lam1"])],
    ids=["quadratic", "logistic"],
)
def test_problem_data_is_pinned(instance, extra):
    public = sorted(name for name in vars(instance()) if not name.startswith("_"))
    assert public == sorted(PROBLEM_DATA + extra)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    stat = float(capsys.readouterr().out)
    assert 0.0 <= stat < 1e-4
