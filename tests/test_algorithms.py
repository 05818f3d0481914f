import numpy as np
import pytest

from gtvr import algorithms, graph, metrics, rng
from gtvr.algorithms import (
    DivergedError,
    RunConfig,
    init_swarm,
    run_experiment,
    run_round,
)
from gtvr.problem import QuadraticProblem, make_logistic, make_quadratic
from helpers import StubSwarmStreams, estimate_vr_second_moments, exact_stationary_quadratic
from reference_engine import vr_gradient_estimate


@pytest.fixture(scope="module")
def setup5():
    topo = graph.build_topology("random", 5, p_edge=0.8, seed=2)
    mixing = graph.metropolis_weights(topo)
    prob = make_quadratic(5, 20, 4, seed=11, noise=0.5)
    return prob, mixing


def make_streams(seed, n):
    return rng.make_swarm_streams(seed, n)


def test_init_gtvr_state(setup5):
    prob, mixing = setup5
    x1 = np.zeros((5, 4))
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=0)
    swarm = init_swarm(prob, x1, cfg, make_streams(cfg.seed, 5))
    est = swarm.estimator
    for i in range(1, 6):
        g = prob.local_full_grad(i, x1[i - 1])
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
    g_tau = prob.local_full_grad(1, tau)
    assert np.array_equal(g_tau, np.array([-1.0]))
    v = vr_gradient_estimate(prob, 1, 1, x, tau, g_tau)
    # 0.5 - (-0.5) + (-1.0) = 0
    assert np.array_equal(v, np.array([0.0]))


def test_refresh_makes_estimator_exact(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=1)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg, make_streams(cfg.seed, 5))
    # force every anchor refresh (uniform draw 0.0 < p) with real index draws
    stubs = StubSwarmStreams(uniforms=[[0.0] * 5], indices_from=make_streams(1, 5))
    run_round(swarm, prob, mixing, cfg, stubs)
    assert np.array_equal(swarm.v, swarm.estimator.g_tau)
    assert np.array_equal(swarm.estimator.tau, swarm.x)
    # and every counter moved by m_i + 2
    assert np.array_equal(swarm.grad_evals, np.array(prob.m) + np.array(prob.m) + 2)


def test_skip_branch_costs_two_evals(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=1)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg, make_streams(cfg.seed, 5))
    tau_before = swarm.estimator.tau.copy()
    stubs = StubSwarmStreams(uniforms=[[0.999999] * 5], indices_from=make_streams(1, 5))
    evals_before = swarm.grad_evals.copy()
    run_round(swarm, prob, mixing, cfg, stubs)
    assert np.array_equal(swarm.estimator.tau, tau_before)
    assert np.array_equal(swarm.grad_evals - evals_before, np.full(5, 2))


def test_anchor_gradient_cache_stays_coherent(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.3, rounds=0, seed=21)
    streams = make_streams(cfg.seed, 5)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg, streams)
    est = swarm.estimator
    for _ in range(60):
        run_round(swarm, prob, mixing, cfg, streams)
        for i in range(1, 6):
            assert np.array_equal(est.g_tau[i - 1], prob.local_full_grad(i, est.tau[i - 1]))


@pytest.mark.parametrize("algo", ["gtvr", "dsgt", "gtsaga"])
def test_mean_state_identity_and_mean_recursion(setup5, algo):
    prob, mixing = setup5
    cfg = RunConfig(algorithm=algo, eta=0.02, p=0.4, rounds=0, seed=3)
    streams = make_streams(cfg.seed, 5)
    swarm = algorithms.init_swarm(prob, np.zeros((5, 4)), cfg, streams)
    for _ in range(300):
        xbar = swarm.x.mean(axis=0)
        ybar = swarm.y.mean(axis=0)
        run_round(swarm, prob, mixing, cfg, streams)
        assert np.abs(swarm.y.mean(axis=0) - swarm.v.mean(axis=0)).max() <= 1e-9
        assert np.abs(swarm.x.mean(axis=0) - (xbar - cfg.eta * ybar)).max() <= 1e-12


def test_dsgd_reduces_to_centralized_gd_on_shared_data():
    # one sample per agent, identical everywhere, consensus start
    a = np.array([[1.0, 2.0]])
    t = np.array([0.5])
    prob = QuadraticProblem([a] * 3, [t] * 3)
    mixing = graph.metropolis_weights(graph.build_topology("complete", 3))
    cfg = RunConfig(algorithm="dsgd", eta=0.05, p=0.5, rounds=0, seed=5)
    streams = make_streams(cfg.seed, 3)
    swarm = init_swarm(prob, np.zeros((3, 2)), cfg, streams)
    x_manual = np.zeros(2)
    for _ in range(25):
        run_round(swarm, prob, mixing, cfg, streams)
        x_manual = x_manual - cfg.eta * prob.component_grad(1, 1, x_manual)
        assert np.abs(swarm.x - x_manual).max() <= 1e-12


def test_dsgt_with_single_samples_equals_deterministic_tracking(setup5):
    _, mixing = setup5
    rng_data = np.random.default_rng(9)
    feats = [rng_data.normal(size=(1, 3)) for _ in range(5)]
    targets = [rng_data.normal(size=1) for _ in range(5)]
    prob = QuadraticProblem(feats, targets)
    cfg = RunConfig(algorithm="dsgt", eta=0.03, p=0.5, rounds=0, seed=8)
    streams = make_streams(cfg.seed, 5)
    swarm = init_swarm(prob, np.zeros((5, 3)), cfg, streams)

    x = np.zeros((5, 3))
    g = np.stack([prob.component_grad(i, 1, x[i - 1]) for i in range(1, 6)])
    y = g.copy()
    for _ in range(50):
        run_round(swarm, prob, mixing, cfg, streams)
        x_new = graph.mix(mixing, x - cfg.eta * y)
        g_new = np.stack([prob.component_grad(i, 1, x_new[i - 1]) for i in range(1, 6)])
        y = graph.mix(mixing, y + g_new - g)
        x, g = x_new, g_new
        assert np.array_equal(swarm.x, x)
        assert np.array_equal(swarm.y, y)


def test_baseline_accounting_is_exact(setup5):
    prob, mixing = setup5
    for algo, init_cost in (("dsgd", 0), ("dsgt", 1), ("gtsaga", None)):
        cfg = RunConfig(algorithm=algo, eta=0.01, p=0.5, rounds=0, seed=2)
        streams = make_streams(cfg.seed, 5)
        swarm = init_swarm(prob, np.zeros((5, 4)), cfg, streams)
        if init_cost is None:
            assert np.array_equal(swarm.grad_evals, np.array(prob.m))
        else:
            assert np.array_equal(swarm.grad_evals, np.full(5, init_cost))
        start = swarm.grad_evals.copy()
        for k in range(1, 51):
            run_round(swarm, prob, mixing, cfg, streams)
            assert np.array_equal(swarm.grad_evals - start, np.full(5, k))


def test_gtsaga_frozen_table_gives_full_gradient(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtsaga", eta=0.01, p=0.5, rounds=0, seed=4)
    streams = make_streams(cfg.seed, 5)
    x_star_stack = exact_stationary_quadratic(prob)
    swarm = init_swarm(prob, x_star_stack, cfg, streams)
    # zero trackers make the next iterate equal the stationary stack again
    swarm.y = np.zeros_like(swarm.y)
    run_round(swarm, prob, mixing, cfg, streams)
    for i in range(1, 6):
        full = prob.local_full_grad(i, x_star_stack[i - 1])
        assert np.abs(swarm.v[i - 1] - full).max() <= 1e-12


def test_gtsaga_running_mean_matches_table(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtsaga", eta=0.005, p=0.5, rounds=0, seed=6)
    streams = make_streams(cfg.seed, 5)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg, streams)
    for _ in range(1000):
        run_round(swarm, prob, mixing, cfg, streams)
    est = swarm.estimator
    for i in range(5):
        assert np.abs(est.table_mean[i] - est.tables[i].mean(axis=0)).max() <= 1e-10


def test_gtvr_two_exchanges_per_round(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5, rounds=0, seed=7)
    streams = make_streams(cfg.seed, 5)
    swarm = init_swarm(prob, np.zeros((5, 4)), cfg, streams)
    for k in range(1, 21):
        run_round(swarm, prob, mixing, cfg, streams)
        assert swarm.mix_count == 2 * k
    # the plain stochastic baseline needs only the one x-exchange
    cfg2 = RunConfig(algorithm="dsgd", eta=0.01, p=0.5)
    swarm2 = init_swarm(prob, np.zeros((5, 4)), cfg2, streams)
    for k in range(1, 21):
        run_round(swarm2, prob, mixing, cfg2, streams)
        assert swarm2.mix_count == k


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
    import io

    def dump(rows):
        buf = io.StringIO()
        metrics.write_trace(rows, buf)
        return buf.getvalue()

    assert dump(rows1) == dump(rows2)


def test_divergence_reports_iteration(setup5):
    prob, mixing = setup5
    cfg = RunConfig(algorithm="gtvr", eta=1e6, p=0.5, rounds=500, seed=1)
    with pytest.raises(DivergedError, match=r"iteration \d+"):
        run_experiment(prob, mixing, cfg)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(algorithm="nope")
    with pytest.raises(ValueError):
        RunConfig(eta=0.0)
    with pytest.raises(ValueError):
        RunConfig(p=1.0)
    with pytest.raises(ValueError):
        RunConfig(rounds=-1)


def test_init_rejects_bad_shape(setup5):
    prob, _ = setup5
    cfg = RunConfig(algorithm="gtvr", eta=0.01, p=0.5)
    with pytest.raises(ValueError, match="shape"):
        init_swarm(prob, np.zeros((4, 4)), cfg, make_streams(cfg.seed, 4))


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
    _, g = prob.global_cost_and_grad(xbar)
    rhs = float(g @ g) + (2.0 * lip**2 / 3.0) * sum(
        3.0 * float((x[i] - xbar) @ (x[i] - xbar)) + 2.0 * float((tau[i] - xbar) @ (tau[i] - xbar))
        for i in range(3)
    )
    assert 0.5 * vbar_sq <= rhs


def second_moments_by_scalar_draws(problem, x, tau, draws, seed):
    """Loop reference for ``estimate_vr_second_moments``: one scalar index
    draw per agent per round and one estimator evaluation per draw."""
    streams = rng.make_swarm_streams(seed, problem.n)
    agents = range(1, problem.n + 1)
    xbar = x.mean(axis=0)
    g_x = [problem.local_full_grad(i, x[i - 1]) for i in agents]
    g_tau = [problem.local_full_grad(i, tau[i - 1]) for i in agents]
    g_at_xbar = [problem.local_full_grad(i, xbar) for i in agents]
    total_dev = mean_dev_sq = vbar_sq = 0.0
    for _ in range(draws):
        picks = []
        for i in agents:
            j = rng.draw_index(streams[i - 1].index, problem.m[i - 1])
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
