import io
import time
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvr import algorithms, graph, metrics
from gtvr.algorithms import (
    DivergedError,
    RunConfig,
    init_swarm,
    run_experiment,
    run_experiments,
    run_round,
)
from gtvr.problem import QuadraticProblem, make_logistic, make_quadratic
from gtvr.rng import SwarmStreams
from helpers import (
    StubSwarmStreams,
    estimate_vr_second_moments,
    exact_stationary_quadratic,
    global_cost_and_grad,
    gtsaga_tables,
    same_bits,
    scalar_streams,
)
from reference_engine import vr_gradient_estimate
from reference_problem import component_grad, local_full_grad
from reference_rng import draw_index


@pytest.fixture(scope="module")
def setup5():
    topo = graph.build_topology("random", 5, p_edge=0.8, seed=2)
    mixing = graph.metropolis_weights(topo)
    prob = make_quadratic(5, 20, 4, seed=11, noise=0.5)
    return prob, mixing


def test_init_gtvr_state(setup5):
    prob, mixing = setup5
    x1 = np.zeros((5, 4))
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=0)
    swarm = init_swarm(prob, x1, cfg)
    est = swarm.estimator
    for i in range(1, 6):
        g = local_full_grad(prob, i, x1[i - 1])
        assert np.array_equal(swarm.y[i - 1], g)
        assert np.array_equal(swarm.v[i - 1], g)
        assert np.array_equal(est.g_tau[i - 1], g)
        assert np.array_equal(est.tau[i - 1], x1[i - 1])
        assert swarm.grad_evals[i - 1] == prob.m[i - 1]
    assert np.array_equal(swarm.y.mean(axis=0), swarm.v.mean(axis=0))
    assert int(swarm.grad_evals.sum()) == prob.total_samples


def test_vr_estimate_hand_example():
    # one agent, two components 0.5 (x - 0.5)^2 and 0.5 (x - 1.5)^2
    prob = QuadraticProblem([np.array([[1.0], [1.0]])], [np.array([0.5, 1.5])])
    x = np.array([1.0])
    tau = np.array([0.0])
    g_tau = local_full_grad(prob, 1, tau)
    assert np.array_equal(g_tau, np.array([-1.0]))
    v = vr_gradient_estimate(prob, 1, 1, x, tau, g_tau)
    # 0.5 - (-0.5) + (-1.0) = 0
    assert np.array_equal(v, np.array([0.0]))


def test_refresh_makes_estimator_exact(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=1)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg)
    # force every anchor refresh (uniform draw 0.0 < p) with real index draws
    swarm.streams = StubSwarmStreams(
        uniforms=[[0.0] * 5], p=cfg.p, indices_from=SwarmStreams(1, prob.m, cfg.p)
    )
    run_round(swarm, prob, mixing)
    assert np.array_equal(swarm.v, swarm.estimator.g_tau)
    assert np.array_equal(swarm.estimator.tau, swarm.x)
    # and every counter moved by m_i + 2
    assert np.array_equal(swarm.grad_evals, np.array(prob.m) + np.array(prob.m) + 2)


def test_skip_branch_costs_two_evals(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=1)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg)
    tau_before = swarm.estimator.tau.copy()
    swarm.streams = StubSwarmStreams(
        uniforms=[[0.999999] * 5], p=cfg.p, indices_from=SwarmStreams(1, prob.m, cfg.p)
    )
    evals_before = swarm.grad_evals.copy()
    run_round(swarm, prob, mixing)
    assert np.array_equal(swarm.estimator.tau, tau_before)
    assert np.array_equal(swarm.grad_evals - evals_before, np.full(5, 2))


def test_anchor_gradient_cache_stays_coherent(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.3, rounds=0, seed=21)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg)
    est = swarm.estimator
    for _ in range(60):
        run_round(swarm, prob, mixing)
        for i in range(1, 6):
            assert np.array_equal(est.g_tau[i - 1], local_full_grad(prob, i, est.tau[i - 1]))


@pytest.mark.parametrize("algo", ["gtvr", "dsgt", "gtsaga"])
def test_mean_state_identity_and_mean_recursion(setup5, algo):
    prob, mixing = setup5
    cfg = RunConfig(algorithm=algo, eta=0.02, p=0.4, rounds=0, seed=3)
    swarm = algorithms.init_swarm(prob, np.zeros((5, 4)), cfg)
    for _ in range(300):
        xbar = swarm.x.mean(axis=0)
        ybar = swarm.y.mean(axis=0)
        run_round(swarm, prob, mixing)
        assert np.abs(swarm.y.mean(axis=0) - swarm.v.mean(axis=0)).max() <= 1e-9
        assert np.abs(swarm.x.mean(axis=0) - (xbar - cfg.eta * ybar)).max() <= 1e-12


def test_dsgd_reduces_to_centralized_gd_on_shared_data():
    # one sample per agent, identical everywhere, consensus start
    a = np.array([[1.0, 2.0]])
    t = np.array([0.5])
    prob = QuadraticProblem([a] * 3, [t] * 3)
    mixing = graph.metropolis_weights(graph.build_topology("complete", 3))
    cfg = RunConfig(algorithm="dsgd", eta=0.05, p=0.5, rounds=0, seed=5)
    swarm = init_swarm(prob, np.zeros((3, 2)), cfg)
    x_manual = np.zeros(2)
    for _ in range(25):
        run_round(swarm, prob, mixing)
        x_manual = x_manual - cfg.eta * component_grad(prob, 1, 1, x_manual)
        assert np.abs(swarm.x - x_manual).max() <= 1e-12


def test_dsgt_with_single_samples_equals_deterministic_tracking(setup5):
    _, mixing = setup5
    rng_data = np.random.default_rng(9)
    feats = [rng_data.normal(size=(1, 3)) for _ in range(5)]
    targets = [rng_data.normal(size=1) for _ in range(5)]
    prob = QuadraticProblem(feats, targets)
    cfg = RunConfig(algorithm="dsgt", eta=0.03, p=0.5, rounds=0, seed=8)
    swarm = init_swarm(prob, np.zeros((5, 3)), cfg)

    x = np.zeros((5, 3))
    g = np.stack([component_grad(prob, i, 1, x[i - 1]) for i in range(1, 6)])
    y = g.copy()
    for _ in range(50):
        run_round(swarm, prob, mixing)
        x_new = graph.mix(mixing, x - cfg.eta * y)
        g_new = np.stack([component_grad(prob, i, 1, x_new[i - 1]) for i in range(1, 6)])
        y = graph.mix(mixing, y + g_new - g)
        x, g = x_new, g_new
        assert np.array_equal(swarm.x, x)
        assert np.array_equal(swarm.y, y)


def test_baseline_accounting_is_exact(setup5):
    prob, mixing = setup5
    for algo, init_cost in (("dsgd", 0), ("dsgt", 1), ("gtsaga", None)):
        cfg = RunConfig(algorithm=algo, eta=0.01, p=0.5, rounds=0, seed=2)
        swarm = init_swarm(prob, np.zeros((5, 4)), cfg)
        if init_cost is None:
            assert np.array_equal(swarm.grad_evals, np.array(prob.m))
        else:
            assert np.array_equal(swarm.grad_evals, np.full(5, init_cost))
        start = swarm.grad_evals.copy()
        for k in range(1, 51):
            run_round(swarm, prob, mixing)
            assert np.array_equal(swarm.grad_evals - start, np.full(5, k))


def test_gtsaga_frozen_table_gives_full_gradient(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtsaga", eta=0.01, p=0.5, rounds=0, seed=4)
    x_star_stack = exact_stationary_quadratic(prob)
    swarm = init_swarm(prob, x_star_stack, cfg)
    # zero trackers make the next iterate equal the stationary stack again
    swarm.y = np.zeros_like(swarm.y)
    run_round(swarm, prob, mixing)
    for i in range(1, 6):
        full = local_full_grad(prob, i, x_star_stack[i - 1])
        assert np.abs(swarm.v[i - 1] - full).max() <= 1e-12


def test_gtsaga_running_mean_matches_table(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtsaga", eta=0.005, p=0.5, rounds=0, seed=6)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg)
    for _ in range(1000):
        run_round(swarm, prob, mixing)
    est = swarm.estimator
    for i, table in enumerate(gtsaga_tables(prob, est)):
        assert np.abs(est.table_mean[i] - table.mean(axis=0)).max() <= 1e-10


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("shape", ["quadratic", "logistic"])
def test_gtsaga_holds_exactly_the_rows_drawn(setup5, logistic5, shape, replicas, monkeypatch):
    # after every round the buffer holds one row per distinct (replica,
    # sample) drawn so far, packed from the front, and the slot map names
    # each held row once; the replicas share their draws, so they hold
    # the same number of rows each; 150 rounds draw every sample
    prob, mixing = setup5 if shape == "quadratic" else logistic5
    cfgs = [RunConfig(algorithm="gtsaga", eta=0.01 * (r + 1), seed=7) for r in range(replicas)]
    swarm = init_swarm(prob, np.zeros((prob.n, prob.d)), cfgs)
    est, drawn = swarm.estimator, set()
    draw_rows = swarm.streams.rows

    def recorded():
        samples = draw_rows()
        drawn.update((est._offset + samples).tolist())
        return samples

    monkeypatch.setattr(swarm.streams, "rows", recorded)
    assert est._held == 0 and (est._slot == -1).all()
    counts = []
    for _ in range(150):
        run_round(swarm, prob, mixing)
        held = np.flatnonzero(est._slot >= 0)
        assert est._held == len(drawn) == len(held) and set(held.tolist()) == drawn
        assert np.array_equal(np.sort(est._slot[held]), np.arange(est._held))
        counts.append(est._held)
    assert all(count % replicas == 0 for count in counts)
    assert 0 < counts[19] < counts[-1] == len(est._buffer) == replicas * prob.total_samples


def test_gtvr_two_exchanges_per_round(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=7)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg)
    for k in range(1, 21):
        run_round(swarm, prob, mixing)
        assert swarm.mix_count == 2 * k
    # the plain stochastic baseline needs only the one x-exchange
    cfg2 = RunConfig(algorithm="dsgd", eta=0.01, p=0.5)
    swarm2 = init_swarm(prob, np.zeros((5, 4)), cfg2)
    for k in range(1, 21):
        run_round(swarm2, prob, mixing)
        assert swarm2.mix_count == k


@pytest.mark.parametrize("p, replicas", [(0.05, 1), (0.5, 1), (0.5, 4), (0.95, 4)])
def test_gtvr_step_makes_two_oracle_calls_per_round(setup5, monkeypatch, p, replicas):
    # one batched refresh and one paired difference, whether no row, some
    # rows or every row refreshes; the single-point oracle is not called.
    # The cores are counted: the public entries check and call them, and
    # the round engine calls them directly. A core called by another (the
    # paired difference runs X and T as one sampled batch) counts with the
    # call that made it
    prob, mixing = setup5
    calls = {name: 0 for name in ("_local_full_grads", "_component_grad_diffs", "_component_grads")}
    depth = [0]
    for name in calls:
        real = getattr(QuadraticProblem, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += not depth[0]
            depth[0] += 1
            try:
                return _real(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(QuadraticProblem, name, counted)
    cfgs = [RunConfig(algorithm="gtvr", eta=0.01 * (r + 1), p=p, seed=3) for r in range(replicas)]
    swarm = init_swarm(prob, np.zeros((5, 4)), cfgs)
    assert calls == {"_local_full_grads": 1, "_component_grad_diffs": 0, "_component_grads": 0}
    refreshed = set()
    for k in range(1, 41):
        before = swarm.grad_evals.copy()
        run_round(swarm, prob, mixing)
        refreshed.add(int(np.count_nonzero(swarm.grad_evals - before > 2)))
        assert calls["_local_full_grads"] == 1 + k and calls["_component_grad_diffs"] == k
    assert calls["_component_grads"] == 0
    # the rounds include refreshing no row (low P) or every row (high P)
    assert 0 in refreshed or replicas * prob.n in refreshed
    assert len(refreshed) > 1


def test_run_experiment_zero_rounds_single_row(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=1)
    rows = run_experiment(prob, mixing, cfg)
    assert len(rows) == 1
    assert rows[0].k == 0
    assert rows[0].grad_evals == prob.total_samples


def test_run_experiment_cadence_and_final_row(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=10, seed=1, cadence=3)
    rows = run_experiment(prob, mixing, cfg)
    assert [r.k for r in rows] == [0, 3, 6, 9, 10]


@pytest.mark.parametrize("algo", algorithms.ALGORITHMS)
def test_trace_deterministic_and_worker_invariant(setup5, algo):
    # the engine has no worker count; C10 checks that `--workers 1` and
    # `--workers 8` give byte-identical traces end to end
    prob, mixing = setup5
    base = dict(algorithm=algo, eta=0.01, p=0.4, rounds=120, seed=13, cadence=40, timing=False)
    rows1 = run_experiment(prob, mixing, RunConfig(**base))
    rows2 = run_experiment(prob, mixing, RunConfig(**base))
    assert trace_text(rows1) == trace_text(rows2)


def trace_text(rows):
    """The CSV a trace writes; as text, DSGD's NaN ``track`` compares equal."""
    buf = io.StringIO()
    metrics.write_trace(rows, buf)
    return buf.getvalue()


def lone_run(prob, mixing, cfg):
    """The CSV text of ``run_experiment``, or the message it raises."""
    try:
        return trace_text(run_experiment(prob, mixing, cfg))
    except DivergedError as err:
        return str(err)


def test_divergence_reports_iteration(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=1e6, p=0.5, rounds=500, seed=1)
    with pytest.raises(DivergedError, match=r"iteration \d+"):
        run_experiment(prob, mixing, cfg)


@pytest.mark.parametrize(
    "field, value",
    [("algorithm", "dsgt"), ("seed", 2), ("rounds", 11), ("cadence", 3), ("timing", False)],
)
def test_batch_rejects_runs_that_differ_beyond_eta_and_p(setup5, field, value):
    prob, mixing = setup5
    base = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=10, seed=1, cadence=5)
    mixed = [base, replace(base, eta=0.02, p=0.3), replace(base, **{field: value})]
    with pytest.raises(ValueError, match=f"differ only in eta and p, got different {field}"):
        run_experiments(prob, mixing, mixed)
    with pytest.raises(ValueError, match="at least one"):
        run_experiments(prob, mixing, [])


def test_batch_divergence_names_the_lowest_diverged_replica(setup5):
    prob, mixing = setup5
    base = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=200, seed=1, cadence=50)
    cfgs = [base, replace(base, eta=1e6), replace(base, eta=2e6), replace(base, eta=0.02)]
    traces, error = run_experiments(prob, mixing, cfgs)
    assert len(traces) == 1
    with pytest.raises(DivergedError) as alone:
        run_experiment(prob, mixing, cfgs[1])
    assert str(error) == str(alone.value)


@pytest.fixture(scope="module")
def logistic5():
    prob = make_logistic(5, 20, 4, seed=3, lam1=1e-3)
    return prob, graph.metropolis_weights(graph.build_topology("ring", 5))


@pytest.mark.parametrize("algorithm", algorithms.ALGORITHMS)
@pytest.mark.parametrize("shape", ["quadratic", "logistic"])
def test_batch_returns_the_runs_before_a_diverged_middle_replica(setup5, logistic5, shape, algorithm):
    # records queued before the divergence hold all four replicas and are
    # evaluated for the two live ones; the shed rows never step again, so
    # no numpy warning is raised
    prob, mixing = setup5 if shape == "quadratic" else logistic5
    base = RunConfig(algorithm=algorithm, p=0.5, rounds=60, seed=3, cadence=1, timing=False)
    cfgs = [replace(base, eta=eta) for eta in (0.01, 0.02, 1e9, 0.03)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces, error = run_experiments(prob, mixing, cfgs)
        lone = [lone_run(prob, mixing, cfg) for cfg in cfgs[:3]]
    assert [trace_text(rows) for rows in traces] == lone[:2]
    assert "diverged at iteration" in lone[2] and str(error) == lone[2]


@pytest.mark.parametrize("algorithm", algorithms.ALGORITHMS)
@pytest.mark.parametrize("shape", ["quadratic", "logistic"])
def test_a_diverged_replica_calls_no_oracle_after_its_round(setup5, logistic5, shape, algorithm, monkeypatch):
    # the setup of the test above: replica 2 of 4 diverges, and every oracle
    # call of a later round sees the two live replicas' rows only. A core
    # called by another (the logistic paired difference runs X and T as one
    # sampled batch) counts with the call that made it
    prob, mixing = setup5 if shape == "quadratic" else logistic5
    n = prob.n
    base = RunConfig(algorithm=algorithm, p=0.5, rounds=60, seed=3, cadence=1, timing=False)
    cfgs = [replace(base, eta=eta) for eta in (0.01, 0.02, 1e9, 0.03)]
    diverged_at = int(lone_run(prob, mixing, cfgs[2]).rsplit(" ", 1)[1])
    rounds, calls, depth = [0], [], [0]

    def counted(name):
        core = getattr(prob, name)

        def call(rows, *points):
            if not depth[0]:
                calls.append((rounds[-1], len(rows)))
            depth[0] += 1
            try:
                return core(rows, *points)
            finally:
                depth[0] -= 1

        return call

    def stepped(swarm, *args):
        rounds.append(swarm.k + 1)
        return run_round(swarm, *args)

    for name in ("_local_full_grads", "_component_grads", "_component_grad_diffs"):
        monkeypatch.setattr(prob, name, counted(name))
    monkeypatch.setattr(algorithms, "run_round", stepped)
    traces, error = run_experiments(prob, mixing, cfgs)
    assert len(traces) == 2 and 1 < diverged_at < 60 and rounds[-1] == 60
    before = [rows for k, rows in calls if 0 < k <= diverged_at]
    after = [rows for k, rows in calls if k > diverged_at]
    assert max(before) == 4 * n and after and max(after) <= 2 * n


@pytest.mark.parametrize("shape", ["quadratic", "logistic"])
def test_a_shed_frees_the_dead_replicas_table_blocks(setup5, logistic5, shape, monkeypatch):
    # the setup above under GT-SAGA: the dead replicas hold only the rows
    # they drew up to their divergence, one per distinct sample, with no
    # table block of their own, and the live replicas' logical tables equal
    # those of their batch run without the dead ones
    prob, mixing = setup5 if shape == "quadratic" else logistic5
    n = prob.n
    base = RunConfig(algorithm="gtsaga", p=0.5, rounds=60, seed=3, cadence=1, timing=False)
    cfgs = [replace(base, eta=eta) for eta in (0.01, 0.02, 1e9, 0.03)]
    diverged_at = int(lone_run(prob, mixing, cfgs[2]).rsplit(" ", 1)[1])
    draws, stepped = [], []
    draw_rows = SwarmStreams.rows

    def recorded(streams):
        draws.append(draw_rows(streams))
        return draws[-1]

    def spied(swarm, *args):
        offset = swarm.estimator._offset
        run_round(swarm, *args)
        stepped.append((swarm, set((offset + draws[-1]).tolist())))
        return swarm

    monkeypatch.setattr(SwarmStreams, "rows", recorded)
    monkeypatch.setattr(algorithms, "run_round", spied)
    traces, error = run_experiments(prob, mixing, cfgs)
    assert len(traces) == 2 and 1 < diverged_at < 60 and len(stepped) == 60
    swarm, drawn = stepped[-1][0], set().union(*(rows for _, rows in stepped))
    est, total = swarm.estimator, prob.total_samples
    dead = {row for row in drawn if row >= 2 * total}
    assert est._held == len(drawn) and len(est._offset) == 2 * n
    assert dead == set().union(*(rows for _, rows in stepped[:diverged_at])) - set(range(2 * total))
    assert len(dead) <= 2 * n * diverged_at
    twin = init_swarm(prob, np.zeros((n, prob.d)), cfgs[:2])
    for _ in range(60):
        run_round(twin, prob, mixing)
    assert all(map(same_bits, gtsaga_tables(prob, est), gtsaga_tables(prob, twin.estimator)))
    assert same_bits(est.table_mean, twin.estimator.table_mean)


def test_a_lower_replica_that_diverges_later_wins():
    # on the four-agent ring eta = 6 diverges at iteration 120 and eta = 1e6
    # at iteration 3: cfgs order decides, as the runs one at a time would
    prob = make_quadratic(4, 20, 4, seed=42)
    mixing = graph.metropolis_weights(graph.build_topology("ring", 4))
    base = RunConfig(algorithm="gtvr", p=0.5, rounds=200, seed=42, timing=False)
    cfgs = [replace(base, eta=eta) for eta in (0.01, 6.0, 1e6)]
    lone = [lone_run(prob, mixing, cfg) for cfg in cfgs]
    assert lone[1:] == ["iterate diverged at iteration 120", "iterate diverged at iteration 3"]
    traces, error = run_experiments(prob, mixing, cfgs)
    assert [trace_text(rows) for rows in traces] == lone[:1] and str(error) == lone[1]


def test_a_batch_whose_first_replica_diverges_stops_at_that_round(setup5, monkeypatch):
    prob, mixing = setup5
    base = RunConfig(algorithm="dsgt", eta=1e6, p=0.5, rounds=500, seed=1)
    message = lone_run(prob, mixing, base)
    k = int(message.rsplit(" ", 1)[1])
    calls = []

    def counted(*args):
        calls.append(args)
        return run_round(*args)

    monkeypatch.setattr(algorithms, "run_round", counted)
    traces, error = run_experiments(prob, mixing, [base, replace(base, eta=0.01)])
    assert k > 1 and (traces, str(error), len(calls)) == ([], message, k)


def test_a_diverged_replica_is_shed_at_its_divergence_round(setup5, monkeypatch):
    # replica 2 diverges early: every round after that one steps replicas 0
    # and 1 only, the estimator's per-row state cut with the swarm's, and the
    # error keeps the iteration of replica 2's own run
    prob, mixing = setup5
    base = RunConfig(algorithm="gtvr", p=0.5, rounds=50, seed=1, cadence=10, timing=False)
    cfgs = [replace(base, eta=eta) for eta in (0.01, 0.02, 1e6)]
    lone = [lone_run(prob, mixing, cfg) for cfg in cfgs]
    diverged_at = int(lone[2].rsplit(" ", 1)[1])
    stepped = []

    def spied(swarm, *args):
        est = swarm.estimator
        state = [swarm.x, swarm.y, swarm.v, swarm.eta, swarm.grad_evals]
        state += [est.tau, est.g_tau, est._slots, est._sizes]
        stepped.append((swarm.k, {len(rows) for rows in state}))
        return run_round(swarm, *args)

    monkeypatch.setattr(algorithms, "run_round", spied)
    traces, error = run_experiments(prob, mixing, cfgs)
    assert [trace_text(rows) for rows in traces] == lone[:2] and str(error) == lone[2]
    assert 1 < diverged_at < 50
    assert stepped == [(k, {(3 if k < diverged_at else 2) * prob.n}) for k in range(50)]


CAP = algorithms.DIVERGENCE_NORM_CAP
# rows that break the guard: every non-finite kind, a finite row whose norm
# passes the cap while each entry stays below it, and entries whose squares
# overflow
BAD_ROWS = {
    "nan": [np.nan, 0.5, 0.0, 1.0],
    "+inf": [0.1, np.inf, 0.0, 0.0],
    "-inf": [-np.inf, 0.1, 0.0, 0.0],
    "long": [9e11, 9e11, 0.0, 0.0],
    "huge": [1e200, -1e200, 0.0, 0.0],
}


def row_by_row_guard(swarm, n):
    """The guard's rule row by row: the message and replica of the lowest
    replica with an iterate row whose norm is not at most the cap, or with a
    non-finite tracker entry; None if there is none."""
    for r in range(len(swarm.x) // n):
        rows = slice(r * n, (r + 1) * n)
        x_bad = not all(np.hypot.reduce(row) <= CAP for row in swarm.x[rows])
        y_bad = swarm.y is not None and not np.isfinite(swarm.y[rows]).all()
        if x_bad or y_bad:
            return f"{'iterate' if x_bad else 'gradient tracker'} diverged at iteration {swarm.k}", r
    return None


def guard_outcome(swarm, n):
    """The message and replica the guard reports for the swarm's rows, or None."""
    found = algorithms._diverged(swarm.x, swarm.y, n, swarm.k)
    return None if found is None else (str(found[1]), found[0])


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_guard_names_what_the_row_by_row_rule_names(case, n=5, replicas=3):
    gen = np.random.default_rng(5)
    # a bad row in x, in y, or in both, in each replica and at either end
    # of its block, with and without a tracker
    placements = [(r, None) for r in range(replicas)] + [(None, r) for r in range(replicas)]
    placements += [(2, 1), (1, 2), (1, 1), (0, 2)]
    for (x_at, y_at), row, tracked in product(placements, (0, n - 1), (True, False)):
        x = gen.normal(size=(replicas * n, 4))
        y = gen.normal(size=(replicas * n, 4)) if tracked else None
        if x_at is not None:
            x[x_at * n + row] = BAD_ROWS[case]
        if y_at is not None and tracked:
            y[y_at * n + row] = BAD_ROWS[case]
        swarm = algorithms.SwarmState(k=7, x=x, grad_evals=np.zeros(len(x), np.int64), y=y)
        want = row_by_row_guard(swarm, n)
        assert guard_outcome(swarm, n) == want
        if x_at is not None:
            assert want is not None


def test_guard_passes_a_row_exactly_at_the_cap(n=5):
    x = np.zeros((2 * n, 4))
    x[3] = [CAP, 0.0, 0.0, 0.0]
    x[n + 1] = [0.0, 0.0, -CAP, 0.0]
    for y in (None, np.ones_like(x)):
        swarm = algorithms.SwarmState(k=1, x=x.copy(), grad_evals=np.zeros(2 * n, np.int64), y=y)
        assert row_by_row_guard(swarm, n) is None
        assert guard_outcome(swarm, n) is None
        swarm.x[n + 1, 2] = -np.nextafter(CAP, np.inf)
        assert guard_outcome(swarm, n) == (
            "iterate diverged at iteration 1",
            1,
        )


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_guard_equals_the_row_by_row_rule_with_no_warning(data):
    # the one-sum-of-squares fast path may pass only what the row-by-row
    # rule passes: healthy swarms at any scale, every bad row kind in x, y
    # or both, rows at the cap or above it by 1e-15 to 1e-6 relative, and
    # healthy swarms whose total is over the fast bound, which the exact
    # check must still pass; no case may raise a numpy warning
    replicas, n, d = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 6)), data.draw(st.integers(1, 130))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from((0.0, 1e-300, 1e-3, 1.0, 1e6, 1e9)))
    x, y = gen.normal(size=(2, replicas * n, d)) * scale
    rows = st.integers(0, replicas * n - 1)
    case = data.draw(st.sampled_from(("healthy", "planted", "near the cap", "over the bound")))
    swarms = [(x, y)]
    if case == "planted":  # each kind in x, in y and in both, at random rows
        swarms = []
        for kind, where in product(sorted(BAD_ROWS), ((0,), (1,), (0, 1))):
            states = x.copy(), y.copy()
            for s in where:
                states[s][data.draw(rows), : min(d, 4)] = BAD_ROWS[kind][:d]
            swarms.append(states)
    elif case == "near the cap":
        rel = data.draw(st.just(0.0) | st.floats(-15, -6).map(lambda e: 10.0**e))
        for row in data.draw(st.lists(rows, min_size=1, max_size=3)):
            if data.draw(st.booleans()):  # along an axis, or in a random direction
                x[row] = 0.0
                x[row, data.draw(st.integers(0, d - 1))] = data.draw(st.sampled_from((CAP, -CAP))) * (1 + rel)
            else:
                u = gen.normal(size=d)
                x[row] = u / np.hypot.reduce(u) * (CAP * (1 + rel))
    elif case == "over the bound":
        u = gen.normal(size=x.shape)
        x[...] = u / np.hypot.reduce(u, axis=1)[:, None] * (CAP * (1 - data.draw(st.floats(1e-6, 0.25))))
    for x, y in swarms:
        for tracker in (y, None):
            swarm = algorithms.SwarmState(k=9, x=x, grad_evals=np.zeros(len(x), np.int64), y=tracker)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, want = guard_outcome(swarm, n), row_by_row_guard(swarm, n)
            assert got == want
            if case == "over the bound":
                assert want is None and np.vdot(x, x) > algorithms._FAST_BOUND


@pytest.mark.parametrize("algorithm", ["dsgd", "dsgt"])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_run_round_diverges_when_the_row_by_row_rule_does(setup5, algorithm, case):
    # the identity keeps an injected row in its replica's block, so the
    # round that follows the injection is the first the guard can fail
    prob, _ = setup5
    n = prob.n
    identity = graph.MixingMatrix(n=n, w=np.eye(n), rho=0.0)
    cfgs = [RunConfig(algorithm=algorithm, eta=0.01 * (r + 1), p=0.5, seed=4) for r in range(3)]
    swarm = init_swarm(prob, np.zeros((n, prob.d)), cfgs)
    for k in range(1, 7):
        if k == 3:
            swarm.x[n + 2] = BAD_ROWS[case]
        with np.errstate(invalid="ignore", over="ignore"):
            run_round(swarm, prob, identity)
        got = guard_outcome(swarm, n)
        assert swarm.k == k and got == row_by_row_guard(swarm, n)
        if got is not None:
            break
    assert got == ("iterate diverged at iteration 3", 1)


def test_batch_records_share_one_clock_reading(setup5):
    # each record reads the clock once, before any replica's metric pass
    prob, mixing = setup5
    base = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=20, seed=1, cadence=5, timing=True)
    (first, second), error = run_experiments(prob, mixing, [base, replace(base, eta=0.02)])
    assert error is None
    assert [r.k for r in first] == [r.k for r in second] == [0, 5, 10, 15, 20]
    assert [r.wall_ms for r in first] == [r.wall_ms for r in second]


def test_wall_ms_is_the_time_spent_outside_metric_passes(setup5, monkeypatch):
    # a metric oracle that naps 50 ms a call: 101 records are evaluated in
    # four passes (32, 32, 32 and 5 records), and no reading counts a nap
    _, mixing = setup5
    prob = make_quadratic(5, 20, 4, seed=11, noise=0.5)
    naps = []

    def napping(x):
        naps.append(len(x))
        time.sleep(0.05)
        return QuadraticProblem.local_costs_and_grads(prob, x)

    monkeypatch.setattr(prob, "local_costs_and_grads", napping)
    cfg = RunConfig(algorithm="dsgt", eta=0.05, p=0.5, rounds=100, seed=1, cadence=1, timing=True)
    walls = [row.wall_ms for row in run_experiment(prob, mixing, cfg)]
    assert naps == [32, 32, 32, 5] and len(walls) == 101
    assert walls == sorted(walls)
    slept_ms = 50.0 * len(naps)
    assert walls[-1] < 0.25 * slept_ms


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(algorithm="nope")
    for eta in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            RunConfig(eta=eta)
    with pytest.raises(ValueError):
        RunConfig(p=1.0)
    with pytest.raises(ValueError):
        RunConfig(rounds=-1)
    # a fractional or boolean count is named, not truncated or read as 1
    for name in ("rounds", "cadence", "seed"):
        for value in (2.5, 1.5, 3.0, np.float64(3.0), True, np.bool_(True), "3"):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                RunConfig(**{name: value})
    # the seed range is the CLI's: what numpy's SeedSequence takes as one word
    for seed in (-1, np.int64(-1), 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            RunConfig(seed=seed)
    cfg = RunConfig(rounds=np.int64(3), cadence=np.int32(2), seed=np.uint64(2**64 - 1))
    assert (cfg.rounds, cfg.cadence, cfg.seed) == (3, 2, 2**64 - 1)
    # nor is a boolean step-size or probability read as 1, and a string is
    # named, not compared
    for name in ("eta", "p"):
        for value in (True, np.bool_(True), "0.1", None, 0.1j):
            with pytest.raises(TypeError, match=f"{name} must be a real number"):
                RunConfig(**{name: value})
    cfg = RunConfig(eta=np.float64(0.25), p=np.float32(0.5))
    assert (cfg.eta, cfg.p) == (0.25, 0.5)
    assert RunConfig(eta=2).eta == 2


@pytest.mark.parametrize("algorithm", algorithms.ALGORITHMS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_start_point_is_rejected(setup5, algorithm, bad, monkeypatch):
    # before any start pass: no oracle is called
    prob, mixing = setup5
    for name in ("_local_full_grads", "_component_grads"):
        monkeypatch.setattr(prob, name, lambda *args: pytest.fail("an oracle ran"))
    cfg = RunConfig(algorithm=algorithm, rounds=5)
    for x1 in (np.full((5, 4), bad), np.where(np.eye(5, 4), bad, 0.0)):
        with pytest.raises(ValueError, match="initial iterate must be finite"):
            run_experiment(prob, mixing, cfg, x1=x1)


def test_init_rejects_bad_shape(setup5):
    prob, _ = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5)
    with pytest.raises(ValueError, match="shape"):
        init_swarm(prob, np.zeros((4, 4)), cfg)


def test_estimator_moment_bounds_monte_carlo():
    """All three stacked second-moment bounds on the anchored estimator."""
    prob = make_logistic(3, 30, 8, seed=41, lam1=1e-3)
    rng_np = np.random.default_rng(12)
    x = rng_np.normal(size=(3, 8))
    tau = rng_np.normal(size=(3, 8))
    xbar = x.mean(axis=0)
    lip = prob.lipschitz_estimate()
    cons = float(np.sum((x - xbar) ** 2))
    anchor = float(np.sum((tau - xbar) ** 2))
    dev, mean_dev, vbar_sq = estimate_vr_second_moments(prob, x, tau, draws=20_000, seed=77)
    assert dev <= 2.0 * lip**2 * (cons + anchor)
    per_agent = sum(
        6.0 * lip**2 * float((x[i] - xbar) @ (x[i] - xbar))
        + 4.0 * lip**2 * float((tau[i] - xbar) @ (tau[i] - xbar))
        for i in range(3)
    ) / 3.0
    assert mean_dev <= per_agent
    _, g = global_cost_and_grad(prob, xbar)
    rhs = float(g @ g) + (2.0 * lip**2 / 3.0) * sum(
        3.0 * float((x[i] - xbar) @ (x[i] - xbar)) + 2.0 * float((tau[i] - xbar) @ (tau[i] - xbar))
        for i in range(3)
    )
    assert 0.5 * vbar_sq <= rhs


def second_moments_by_scalar_draws(problem, x, tau, draws, seed):
    """Loop reference for ``estimate_vr_second_moments``: one scalar index
    draw per agent per round and one estimator evaluation per draw."""
    streams = scalar_streams(seed, problem.n)
    agents = range(1, problem.n + 1)
    xbar = x.mean(axis=0)
    g_x = [local_full_grad(problem, i, x[i - 1]) for i in agents]
    g_tau = [local_full_grad(problem, i, tau[i - 1]) for i in agents]
    g_at_xbar = [local_full_grad(problem, i, xbar) for i in agents]
    total_dev = mean_dev_sq = vbar_sq = 0.0
    for _ in range(draws):
        picks = []
        for i in agents:
            j = draw_index(streams[i - 1].index, problem.m[i - 1])
            picks.append(vr_gradient_estimate(problem, i, j, x[i - 1], tau[i - 1], g_tau[i - 1]))
            total_dev += float(np.sum((picks[-1] - g_x[i - 1]) ** 2))
        mean_err = np.mean([p - g for p, g in zip(picks, g_at_xbar)], axis=0)
        mean_dev_sq += float(mean_err @ mean_err)
        vbar = np.mean(picks, axis=0)
        vbar_sq += float(vbar @ vbar)
    return total_dev / draws, mean_dev_sq / draws, vbar_sq / draws


def test_second_moment_helper_matches_scalar_draw_loop():
    # same draws, sums taken in another order: a few thousand nonnegative
    # float64 terms agree to far better than 1e-12 relative
    prob = make_logistic(3, 11, 5, seed=2, lam1=1e-3)
    data = np.random.default_rng(4)
    x, tau = data.normal(size=(3, 5)), data.normal(size=(3, 5))
    got = estimate_vr_second_moments(prob, x, tau, draws=3000, seed=9)
    want = second_moments_by_scalar_draws(prob, x, tau, draws=3000, seed=9)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
