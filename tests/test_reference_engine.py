"""Differential checks of the round engine and metric pass: against the
reference oracle, and a batch of runs against each run on its own."""

import io

import numpy as np
import pytest

import reference_engine as ref
from gtvr import algorithms, graph, ingest, metrics
from gtvr.algorithms import RunConfig, init_swarm, run_experiment, run_experiments, run_round
from gtvr.problem import LogisticProblem, QuadraticProblem, make_logistic, make_quadratic
from helpers import raw_from_rows, same_bits, scalar_streams


def unequal_logistic():
    """Six agents over 95 LIBSVM-style rows: m_i of 16 and 15 (n does not divide 95)."""
    data = np.random.default_rng(8)
    rows = []
    for _ in range(95):
        idx = np.sort(data.choice(12, size=data.integers(1, 7), replace=False)).astype(np.int32)
        rows.append((idx, data.normal(size=len(idx))))
    raw = raw_from_rows(rows, np.where(data.random(95) < 0.4, 1.0, -1.0), 12)
    return LogisticProblem.from_partition(raw, ingest.partition(raw, 6, seed=4), 1e-3)


def unequal_quadratic():
    """Four agents with m_i of 7, 20, 1 and 13: every stacked row offset differs."""
    data = np.random.default_rng(13)
    sizes = (7, 20, 1, 13)
    return QuadraticProblem(
        [data.normal(size=(m, 5)) for m in sizes], [data.normal(size=m) for m in sizes]
    )


PROBLEMS = {
    "quadratic": lambda: make_quadratic(5, 20, 4, seed=11, noise=0.5),
    "quadratic_unequal": unequal_quadratic,
    "quadratic_n1": lambda: make_quadratic(1, 9, 3, seed=5, noise=0.5),
    "logistic": lambda: make_logistic(6, 30, 12, seed=3, lam1=1e-3, density=0.4),
    "logistic_unequal": unequal_logistic,
    "logistic_n1": lambda: make_logistic(1, 17, 6, seed=8, lam1=1e-3, density=0.4),
}


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def instance(request):
    prob = PROBLEMS[request.param]()
    if prob.n == 1:
        # a lone agent has no graph; its mixing step is the identity
        mixing = graph.MixingMatrix(n=1, w=np.ones((1, 1)), rho=0.0)
    else:
        mixing = graph.metropolis_weights(graph.build_topology("random", prob.n, p_edge=0.6, seed=2))
    return prob, mixing


def dump(rows):
    buf = io.StringIO()
    metrics.write_trace(rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize("seed", [1, 29])
@pytest.mark.parametrize("algo", algorithms.ALGORITHMS)
def test_trace_matches_reference_engine(instance, algo, seed):
    prob, mixing = instance
    cfg = RunConfig(algorithm=algo, eta=0.05, p=0.3, rounds=150, seed=seed, cadence=7, timing=False)
    assert dump(run_experiment(prob, mixing, cfg)) == dump(ref.run_experiment(prob, mixing, cfg))


@pytest.mark.parametrize("seed", [1, 29])
@pytest.mark.parametrize("algo", algorithms.ALGORITHMS)
def test_final_state_matches_reference_engine(instance, algo, seed):
    prob, mixing = instance
    cfg = RunConfig(algorithm=algo, eta=0.05, p=0.3, seed=seed)
    x1 = np.random.default_rng(seed).normal(size=(prob.n, prob.d))
    ref_streams = scalar_streams(seed, prob.n)
    swarm = init_swarm(prob, x1, cfg)
    expected = ref.init_swarm(prob, x1, cfg, ref_streams)
    for _ in range(150):
        run_round(swarm, prob, mixing)
        ref.ROUND_FNS[algo](expected, prob, mixing, cfg, ref_streams)
    assert swarm.k == expected.k == 150
    assert np.array_equal(swarm.x, expected.x)
    if algo == "dsgd":
        assert swarm.y is None and expected.y is None
    else:
        assert np.array_equal(swarm.y, expected.y)
    assert np.array_equal(swarm.grad_evals, expected.grad_evals)
    assert swarm.mix_count == expected.mix_count
    est = swarm.estimator
    if algo == "gtvr":
        assert np.array_equal(est.tau, expected.tau)
        assert np.array_equal(est.g_tau, expected.g_tau)
    elif algo == "gtsaga":
        assert np.array_equal(est.table_mean, expected.table_mean)
        assert all(np.array_equal(a, b) for a, b in zip(est.tables, expected.tables))
    elif algo == "dsgt":
        assert np.array_equal(swarm.v, expected.g_last)


# (eta, p) per replica: equal and differing step-sizes and probabilities
BATCH_POINTS = [(0.05, 0.3), (0.02, 0.3), (0.05, 0.6), (0.02, 0.6)]
BATCH_ROUNDS = 150


@pytest.mark.parametrize("algo", algorithms.ALGORITHMS)
def test_batch_equals_each_run_on_its_own(instance, algo):
    # the traces (timing aside), and the final x, y, v, counters and
    # exchanges of every replica
    prob, mixing = instance
    n = prob.n
    cfgs = [
        RunConfig(algorithm=algo, eta=eta, p=p, rounds=BATCH_ROUNDS, seed=29, cadence=7, timing=False)
        for eta, p in BATCH_POINTS
    ]
    x1 = np.random.default_rng(5).normal(size=(n, prob.d))
    traces = run_experiments(prob, mixing, cfgs, x1)
    assert [dump(rows) for rows in traces] == [dump(run_experiment(prob, mixing, c, x1)) for c in cfgs]

    batch = init_swarm(prob, x1, cfgs)
    for _ in range(BATCH_ROUNDS):
        run_round(batch, prob, mixing)
    for r, cfg in enumerate(cfgs):
        swarm = init_swarm(prob, x1, cfg)
        for _ in range(BATCH_ROUNDS):
            run_round(swarm, prob, mixing)
        rows = slice(r * n, (r + 1) * n)
        assert same_bits(batch.x[rows], swarm.x)
        if algo == "dsgd":
            assert batch.y is batch.v is swarm.y is swarm.v is None
        else:
            assert same_bits(batch.y[rows], swarm.y) and same_bits(batch.v[rows], swarm.v)
        assert np.array_equal(batch.grad_evals[rows], swarm.grad_evals)
        assert (batch.k, batch.mix_count) == (swarm.k, swarm.mix_count)
