"""Pins the public surface of ``import gtvr`` and of its two problem
classes, runs README's library example against it, and pins that scipy
loads only on the first sparse use.

Adding or removing an exported name or a problem method should be a
deliberate change that updates these lists too.
"""

import os
import re
import subprocess
import sys
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

# Run in a fresh interpreter, with a tmp directory as argv[1]: a finder
# that refuses scipy, then everything but the LIBSVM pipeline, then the
# finder removed and the first sparse use
NO_SCIPY_UNTIL_SPARSE = r"""
import io, sys
from pathlib import Path

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} imported before the first sparse use")

blocker = NoScipy()
sys.meta_path.insert(0, blocker)
import numpy as np
import gtvr, gtvr.cli
from gtvr.algorithms import run_experiments

prob = gtvr.make_quadratic(5, 20, 4)
mixing = gtvr.metropolis_weights(gtvr.build_topology("ring", 5))
for algo in gtvr.ALGORITHMS:
    gtvr.run_experiment(prob, mixing, gtvr.RunConfig(algorithm=algo, eta=0.01, rounds=5, cadence=1))
run_experiments(prob, mixing, [gtvr.RunConfig(eta=eta, rounds=5, cadence=1) for eta in (0.01, 0.02)])
tmp = Path(sys.argv[1])
cfg = tmp / "run.cfg"
cfg.write_text("dataset = synthetic:quadratic\nn = 4\ntopology = ring\nrounds = 5\nquad_m = 6\nquad_d = 3\n")
assert gtvr.cli.main(["run", "--config", str(cfg), "--output", str(tmp / "run.csv"), "--no-timing"]) == 0
sweep = ["sweep", "--config", str(cfg), "--eta", "0.01,0.02", "--out-dir", str(tmp / "sweep")]
assert gtvr.cli.main(sweep) == 0
assert gtvr.cli.main(["theory", "--rho", "0.4", "--p", "0.95", "--l", "2.0"]) == 0
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]

sys.meta_path.remove(blocker)
raw = gtvr.parse_libsvm(io.StringIO("1 1:0.5 3:2\n-1 2:1.5\n"))
gtvr.LogisticProblem.from_partition(raw, [np.array([0]), np.array([1])], 1e-3)
assert "scipy.sparse" in sys.modules
print("scipy.sparse loaded at the first sparse use")
"""


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


def test_scipy_loads_on_the_first_sparse_use_only(tmp_path):
    # the engine, the quadratic, ``gtvr sweep`` and ``gtvr theory`` need
    # numpy alone; a fresh interpreter, since this one has scipy loaded
    pkg_root = str(Path(gtvr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_UNTIL_SPARSE, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy.sparse loaded at the first sparse use"
