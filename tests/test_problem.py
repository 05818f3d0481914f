import io

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtvr import graph, ingest, metrics
from gtvr.algorithms import ALGORITHMS, RunConfig, init_swarm, run_experiment
from gtvr.problem import (
    LogisticProblem,
    QuadraticProblem,
    _exp_terms,
    _grad_coef,
    _sigmoid_neg,
    make_logistic,
    make_quadratic,
)
from helpers import (
    central_diff_grad,
    component_grad_diffs,
    component_grad_table,
    component_grads,
    global_cost_and_grad,
    gtsaga_tables,
    least_squares_solution,
    raw_from_rows,
    rel_err,
    same_bits,
    same_csr,
)
from reference_logistic import ReferenceLogistic, make_logistic_labels
from reference_logistic import sigmoid_pair as reference_sigmoid_pair
from reference_problem import component_cost, component_grad, local_cost, local_full_grad


def single_logistic(a_row, label, lam1=0.0):
    return LogisticProblem([sp.csr_matrix(np.array([a_row]))], [np.array([label])], lam1)


def full_grads_at(prob, x):
    """Every agent's full local gradient at one point x, stacked (n, d)."""
    return prob.local_full_grads(np.arange(1, prob.n + 1), np.tile(x, (prob.n, 1)))


def test_quadratic_component_grad_zero_at_component_minimizer():
    prob = QuadraticProblem([np.array([[1.0, 0.0]])], [np.array([0.0])])
    assert np.array_equal(component_grad(prob, 1, 1, np.zeros(2)), np.zeros(2))


def test_logistic_grad_at_origin_is_quarter_row():
    # at x = 0 the sigmoid factor is exactly 1/4, so the gradient is -(l/4) a
    a = np.array([2.0, -1.0, 0.5])
    for label in (-1.0, 1.0):
        prob = single_logistic(a, label)
        expected = -(label / 4.0) * a
        assert np.array_equal(component_grad(prob, 1, 1, np.zeros(3)), expected)


def test_logistic_component_grad_with_regularizer():
    a = np.array([1.0, 3.0])
    prob = single_logistic(a, 1.0, lam1=0.01)
    x = np.array([0.4, -0.2])
    got = component_grad(prob, 1, 1, x)
    fd = central_diff_grad(lambda z: component_cost(prob, 1, 1, z), x)
    assert rel_err(got, fd) <= 1e-6


@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
def test_component_grads_match_finite_differences(kind):
    if kind == "logistic":
        prob = make_logistic(3, 8, 10, seed=5, lam1=3e-4)
    else:
        prob = make_quadratic(3, 8, 10, seed=5)
    rng = np.random.default_rng(17)
    for _ in range(100):
        i = int(rng.integers(1, prob.n + 1))
        j = int(rng.integers(1, prob.m[i - 1] + 1))
        x = rng.normal(size=prob.d)
        got = component_grad(prob, i, j, x)
        fd = central_diff_grad(lambda z: component_cost(prob, i, j, z), x)
        assert rel_err(got, fd) <= 1e-6


def test_local_full_grad_is_component_average():
    prob = make_logistic(2, 12, 6, seed=8)
    rng = np.random.default_rng(0)
    for i in (1, 2):
        x = rng.normal(size=prob.d)
        mean = np.mean([component_grad(prob, i, j, x) for j in range(1, prob.m[i - 1] + 1)], axis=0)
        assert np.abs(full_grads_at(prob, x)[i - 1] - mean).max() <= 1e-12


def test_single_sample_agent_local_equals_component():
    prob = QuadraticProblem([np.array([[1.0, 2.0]])], [np.array([0.3])])
    x = np.array([0.1, -0.7])
    assert np.allclose(full_grads_at(prob, x)[0], component_grad(prob, 1, 1, x), atol=1e-15)


def test_symmetric_targets_cancel_at_origin():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    prob = QuadraticProblem([a], [np.array([0.8, -0.8])])
    assert full_grads_at(prob, np.zeros(2))[0, 0] == 0.0


def test_global_reduces_to_local_for_single_agent():
    prob = make_quadratic(1, 10, 4, seed=3)
    x = np.arange(4, dtype=float)
    cost, grad = global_cost_and_grad(prob, x)
    assert cost == pytest.approx(local_cost(prob, 1, x), abs=1e-15)
    assert np.allclose(grad, full_grads_at(prob, x)[0], atol=1e-15)


def test_global_grad_matches_finite_differences():
    prob = make_logistic(4, 6, 8, seed=2, lam1=1e-3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=prob.d)
        _, grad = global_cost_and_grad(prob, x)
        fd = central_diff_grad(lambda z: global_cost_and_grad(prob, z)[0], x)
        assert rel_err(grad, fd) <= 1e-6


def test_global_grad_vanishes_at_normal_equations_solution():
    prob = make_quadratic(4, 15, 5, seed=9, noise=0.7)
    x_star = least_squares_solution(prob)
    _, grad = global_cost_and_grad(prob, x_star)
    assert np.linalg.norm(grad) <= 1e-10


def test_lipschitz_logistic_values():
    a = np.array([2.0, 0.0])
    assert single_logistic(a, 1.0, lam1=0.0).lipschitz_estimate() == pytest.approx(1.0, abs=1e-15)
    with_reg = single_logistic(a, 1.0, lam1=5e-4).lipschitz_estimate()
    assert with_reg - 1.0 == pytest.approx(1e-3, abs=1e-15)
    # a repeated entry stands for its sum: the row is (2, 0), not 1^2 + 1^2
    repeated = sp.csr_matrix((np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 2))
    assert LogisticProblem([repeated], [np.array([1.0])], 0.0).lipschitz_estimate() == 1.0


def test_lipschitz_quadratic_unit_row():
    prob = QuadraticProblem([np.array([[1.0, 0.0]])], [np.array([0.0])])
    assert prob.lipschitz_estimate() == 1.0


@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
def test_component_smoothness_bound(kind):
    if kind == "logistic":
        prob = make_logistic(2, 10, 8, seed=13, lam1=2e-3)
    else:
        prob = make_quadratic(2, 10, 8, seed=13)
    lip = prob.lipschitz_estimate()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        i = int(rng.integers(1, prob.n + 1))
        j = int(rng.integers(1, prob.m[i - 1] + 1))
        x = rng.normal(size=prob.d)
        y = rng.normal(size=prob.d)
        lhs = np.linalg.norm(component_grad(prob, i, j, x) - component_grad(prob, i, j, y))
        assert lhs <= lip * np.linalg.norm(x - y) * (1.0 + 1e-9)


def test_logistic_stable_for_large_iterates():
    prob = make_logistic(2, 6, 5, seed=1, lam1=5e-4)
    x = np.full(prob.d, 1e3 / np.sqrt(prob.d))
    cost = local_cost(prob, 1, x)
    grad = full_grads_at(prob, x)[0]
    assert np.isfinite(cost)
    assert np.isfinite(grad).all()
    # single huge inner product, the worst case for the exp evaluation
    one = single_logistic(np.array([700.0]), -1.0)
    assert np.isfinite(component_cost(one, 1, 1, np.array([1.0])))
    assert np.isfinite(component_grad(one, 1, 1, np.array([1.0]))).all()


def test_component_grad_table_matches_scalar_calls():
    for prob in (make_logistic(2, 7, 6, seed=6, lam1=1e-3), make_quadratic(2, 7, 6, seed=6)):
        x = np.random.default_rng(3).normal(size=prob.d)
        table = component_grad_table(prob, 1, x)
        for j in range(1, prob.m[0] + 1):
            assert np.abs(table[j - 1] - component_grad(prob, 1, j, x)).max() <= 1e-12


def test_index_validation():
    prob = make_quadratic(2, 5, 3, seed=0)
    with pytest.raises(IndexError):
        component_grad(prob, 0, 1, np.zeros(3))
    with pytest.raises(IndexError):
        component_grad(prob, 1, 6, np.zeros(3))
    with pytest.raises(IndexError):
        prob.local_full_grads(np.array([3]), np.zeros((1, 3)))


def test_labels_must_be_plus_minus_one():
    with pytest.raises(ValueError, match="-1"):
        LogisticProblem([sp.csr_matrix(np.eye(2))], [np.array([0.0, 1.0])], 0.0)


def test_logistic_rejects_malformed_agents():
    rows = sp.csr_matrix(np.eye(3))
    with pytest.raises(ValueError, match="non-empty"):
        LogisticProblem([rows, sp.csr_matrix((0, 3))], [np.ones(3), np.ones(0)], 0.0)
    with pytest.raises(ValueError, match="must match"):
        LogisticProblem([rows], [np.ones(2)], 0.0)
    with pytest.raises(ValueError, match="dimension"):
        LogisticProblem([rows, sp.csr_matrix(np.eye(2))], [np.ones(3), np.ones(2)], 0.0)
    for lam1 in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="regularization"):
            LogisticProblem([rows], [np.ones(3)], lam1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LogisticProblem([sp.csr_matrix(np.diag([1.0, bad, 2.0]))], [np.ones(3)], 0.0)
        raw = random_raw(6, 4, seed=1)
        raw.features.data[3] = bad
        with pytest.raises(ValueError, match="finite"):
            LogisticProblem.from_partition(raw, ingest.partition(raw, 2, seed=0), 0.0)


def test_quadratic_rejects_malformed_agents():
    a, t = np.ones((3, 2)), np.zeros(3)
    cases = [
        ([np.ones(3)], [t]),  # 1-D features: no width to read
        ([a, np.ones(3)], [t, t]),
        ([a, np.ones((3, 4))], [t, t]),
        ([a], [np.zeros(2)]),
        ([np.ones((0, 2))], [np.zeros(0)]),
    ]
    for feats, targets in cases:
        with pytest.raises(ValueError, match="inconsistent"):
            QuadraticProblem(feats, targets)
    with pytest.raises(ValueError, match="finite"):
        QuadraticProblem([a], [np.array([0.0, np.nan, 0.0])])


def random_raw(rows, d, seed):
    data = np.random.default_rng(seed)
    out = []
    for _ in range(rows):
        idx = np.sort(data.choice(d, size=data.integers(1, d + 1), replace=False)).astype(np.int32)
        out.append((idx, data.normal(size=len(idx))))
    return raw_from_rows(out, np.where(data.random(rows) < 0.5, 1.0, -1.0), d)


def partitioned_logistic(rows=23, n=4):
    """Agents of unequal size (n does not divide rows) over one stacked CSR."""
    raw = random_raw(rows, 9, seed=rows)
    parts = ingest.partition(raw, n, seed=2)
    return raw, parts, LogisticProblem.from_partition(raw, parts, 2e-3)


def uneven_quadratic(sizes=(7, 3, 11, 1), d=5):
    data = np.random.default_rng(21)
    return QuadraticProblem([data.normal(size=(m, d)) for m in sizes], [data.normal(size=m) for m in sizes])


def uneven_logistic_lists(sizes=(7, 3, 11, 1)):
    data = np.random.default_rng(22)
    feats = [sp.csr_matrix((data.random(size=(m, 6)) < 0.5) * data.normal(size=(m, 6))) for m in sizes]
    labels = [np.where(data.random(m) < 0.5, 1.0, -1.0) for m in sizes]
    return LogisticProblem(feats, labels, 1e-3)


BATCH_CASES = {
    "logistic": lambda: make_logistic(5, 9, 7, seed=4, lam1=1e-3),
    "logistic_partitioned_unequal": lambda: partitioned_logistic()[2],
    "logistic_lists_unequal": uneven_logistic_lists,
    "logistic_n1": lambda: make_logistic(1, 13, 6, seed=2),
    "logistic_partitioned_n1": lambda: partitioned_logistic(rows=5, n=1)[2],
    "quadratic": lambda: make_quadratic(4, 6, 3, seed=7),
    "quadratic_unequal": uneven_quadratic,
    "quadratic_n1": lambda: make_quadratic(1, 10, 4, seed=3),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_local_costs_and_grads_equal_per_agent_oracles(name):
    prob = BATCH_CASES[name]()
    rng = np.random.default_rng(5)
    for x in (np.zeros(prob.d), rng.normal(size=prob.d), 300.0 * rng.normal(size=prob.d)):
        costs, grads = prob.local_costs_and_grads(x)
        assert costs.shape == (prob.n,) and grads.shape == (prob.n, prob.d)
        for i in range(1, prob.n + 1):
            assert costs[i - 1] == local_cost(prob, i, x)
            assert np.array_equal(grads[i - 1], local_full_grad(prob, i, x))


def test_view_backed_agents_match_independent_copies():
    raw, parts, prob = partitioned_logistic()
    assert len(set(prob.m)) == 2
    csr = raw.features
    singles = [LogisticProblem([csr[idx]], [raw.labels[idx]], 2e-3) for idx in parts]
    x = np.random.default_rng(6).normal(size=prob.d)
    for i, single in enumerate(singles, start=1):
        assert single.m[0] == prob.m[i - 1]
        for j in range(1, prob.m[i - 1] + 1):
            assert component_cost(prob, i, j, x) == component_cost(single, 1, j, x)
            assert np.array_equal(component_grad(prob, i, j, x), component_grad(single, 1, j, x))
        assert np.array_equal(component_grad_table(prob, i, x), component_grad_table(single, 1, x))
        assert local_cost(prob, i, x) == local_cost(single, 1, x)
        assert np.array_equal(full_grads_at(prob, x)[i - 1], full_grads_at(single, x)[0])


def test_agents_share_stacked_row_and_feature_major_buffers():
    # unequal m_i and a single agent; every per-agent view shares its
    # stacked array and has m_i rows
    logistic = [partitioned_logistic(rows=40, n=5)[2], uneven_logistic_lists(sizes=(9,))]
    quadratic = [uneven_quadratic(), uneven_quadratic(sizes=(9,))]
    for prob in logistic:
        x = np.ones(prob.d)
        prob.local_costs_and_grads(x)
        full_grads_at(prob, x)
        for i in range(1, prob.n + 1):
            component_grad_table(prob, i, x)
        total = sum(prob.m)
        assert prob._rows.shape == (total, prob.d)
        # agent i's A_i^T is a (d, m_i) view of the same stacked arrays as
        # its rows; only the refresh's feature-major copy is a copy
        assert len(prob._feats) == len(prob._feats_t) == prob.n
        for a, a_t, m in zip(prob._feats, prob._feats_t, prob.m):
            assert a.shape == (m, prob.d)
            for rows in (a, a_t):
                assert np.shares_memory(rows.data, prob._rows.data)
                assert np.shares_memory(rows.indices, prob._rows.indices)
            assert a_t.shape == (prob.d, m) and a_t.nnz == a.nnz
            assert np.array_equal(a_t.toarray(), a.toarray().T)
    for prob in quadratic:
        assert len(prob._feats) == len(prob._targets) == prob.n
        for a, t, m in zip(prob._feats, prob._targets, prob.m):
            assert a.shape == (m, prob.d) and t.shape == (m,)
            assert np.shares_memory(a, prob._rows) and np.shares_memory(t, prob._target_rows)
    for prob in logistic + quadratic:
        est = init_swarm(prob, np.zeros((prob.n, prob.d)), RunConfig(algorithm="gtsaga")).estimator
        tables = gtsaga_tables(prob, est)
        assert len(tables) == prob.n and est._held == 0
        assert [table.shape for table in tables] == [(m, prob.d) for m in prob.m]


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize(
    "prob", [partitioned_logistic()[2], uneven_quadratic()], ids=["logistic", "quadratic"]
)
def test_gtsaga_start_table_equals_component_grad_table_bit_for_bit(prob, replicas):
    # unequal m_i and a nonzero start, so the logistic ridge is nonzero. The
    # start holds no row: the logical table rebuilds every row at x1 with the
    # sampled oracle, all agents' rows in one call, as a round rebuilds its
    # first draws, and a lone row and the per-sample reference give the same
    # bits; the start mean is the full local gradient at x1
    x1 = np.random.default_rng(5).normal(size=(prob.n, prob.d))
    cfgs = [RunConfig(algorithm="gtsaga", eta=0.01 * (r + 1)) for r in range(replicas)]
    est = init_swarm(prob, x1, cfgs).estimator
    tables = gtsaga_tables(prob, est)
    assert len(set(prob.m)) > 1 and len(tables) == replicas * prob.n and est._held == 0
    full = prob.local_full_grads(np.arange(1, prob.n + 1), x1)
    for i, (x, m) in enumerate(zip(x1, prob.m), start=1):
        want = component_grad_table(prob, i, x)
        for j, row in enumerate((prob.layout.base[i - 1] + np.arange(1, m + 1)).tolist()):
            assert same_bits(prob._component_grads(np.array([row]), x[None])[0], want[j])
            assert same_bits(component_grad(prob, i, j + 1, x), want[j])
        for r in range(replicas):
            assert same_bits(tables[r * prob.n + i - 1], want)
            assert same_bits(est.table_mean[r * prob.n + i - 1], full[i - 1])


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize(
    "prob", [partitioned_logistic()[2], uneven_quadratic()], ids=["logistic", "quadratic"]
)
def test_gtsaga_and_gtvr_start_from_the_same_estimate(prob, replicas):
    # both seed estimate and tracker with the full local gradients at x1,
    # so the start's tracking error is exactly zero for either
    x1 = np.random.default_rng(8).normal(size=(prob.n, prob.d))
    swarms = [
        init_swarm(prob, x1, [RunConfig(algorithm=algorithm, eta=0.01 * (r + 1)) for r in range(replicas)])
        for algorithm in ("gtsaga", "gtvr")
    ]
    for name in ("v", "y", "grad_evals"):
        assert same_bits(*(getattr(swarm, name) for swarm in swarms))


def block_gemv_table_mean(prob, i, x):
    """GT-SAGA's earlier start mean of agent i at x: the mean of its table's
    rows, the quadratic's r a with r from one gemv over the agent's block,
    the logistic's ridge plus each row's products added at its positions."""
    if isinstance(prob, QuadraticProblem):
        a, t = prob._feats[i - 1], prob._targets[i - 1]
        return ((a @ x - t)[:, None] * a).mean(axis=0)
    return ReferenceLogistic(prob).component_grad_table(i, x).mean(axis=0)


@pytest.mark.parametrize(
    "prob",
    [
        partitioned_logistic()[2],
        make_logistic(4, 200, 30, seed=2, lam1=1e-3),
        uneven_quadratic(),
        make_quadratic(4, 50, 6, seed=1),
    ],
    ids=["logistic_unequal", "logistic", "quadratic_unequal", "quadratic"],
)
def test_gtsaga_start_mean_equals_the_table_mean_within_rounding(prob):
    # Both forms share the ridge rho_k = 2 lam1 x_k and each sample's
    # coefficient c_j (the quadratic's residual, the logistic's
    # -sigma(z) sigma(-z)), and sum the m terms rho_k + a_jk c_j in another
    # order. Each side's products, its sum of m terms and its division by m
    # put it within gamma_{m+3} (|rho_k| + S_k / m) of the exact mean, with
    # S_k = sum_j |a_jk c_j| and gamma_n = n u / (1 - n u), u = 2**-53, so
    # the two are within twice that
    u = np.finfo(float).eps / 2
    x1 = np.random.default_rng(9).normal(size=(prob.n, prob.d))
    for scale in (1.0, 30.0):
        est = init_swarm(prob, scale * x1, RunConfig(algorithm="gtsaga")).estimator
        for i, (x, m) in enumerate(zip(scale * x1, prob.m), start=1):
            a = prob._feats[i - 1]
            if isinstance(prob, QuadraticProblem):
                ridge, c = np.zeros(prob.d), a @ x - prob._targets[i - 1]
            else:
                ridge, (sig, sig_neg) = 2.0 * prob.lam1 * x, reference_sigmoid_pair(a @ x)
                c = sig * sig_neg
            S = abs(a).T @ np.abs(c)
            gamma = (m + 3) * u / (1 - (m + 3) * u)
            bound = 2 * gamma * (np.abs(ridge) + S / m)
            assert (np.abs(est.table_mean[i - 1] - block_gemv_table_mean(prob, i, x)) <= bound).all()


def shuffled_within_rows(csr, seed):
    """A copy of a CSR matrix whose rows list their entries in random order."""
    gen = np.random.default_rng(seed)
    out = csr.copy()
    for lo, hi in zip(out.indptr[:-1].tolist(), out.indptr[1:].tolist()):
        perm = lo + gen.permutation(hi - lo)
        out.indices[lo:hi] = out.indices[perm]
        out.data[lo:hi] = out.data[perm]
    return out


def csr_arrays(a):
    return [x.copy() for x in (a.data, a.indices, a.indptr)]


def same_arrays(a, saved):
    return all(same_bits(x, y) for x, y in zip((a.data, a.indices, a.indptr), saved))


def one_trace(prob, algorithm):
    if prob.n == 1:
        mixing = graph.MixingMatrix(n=1, w=np.ones((1, 1)), rho=0.0)
    else:
        mixing = graph.metropolis_weights(graph.build_topology("ring", prob.n))
    cfg = RunConfig(algorithm=algorithm, eta=0.2, p=0.3, rounds=150, seed=7, cadence=7, timing=False)
    buf = io.StringIO()
    metrics.write_trace(run_experiment(prob, mixing, cfg), buf)
    return buf.getvalue()


@pytest.mark.parametrize("n", [1, 4])
def test_unsorted_rows_give_the_problem_of_their_sorted_copy(n):
    # rows held in feature order make every oracle, and so every trace,
    # independent of the order in which the caller listed a row's entries
    raw = random_raw(41, 9, seed=31)
    shuffled = shuffled_within_rows(raw.features, seed=n)
    assert not shuffled.has_sorted_indices
    parts = ingest.partition(raw, n, seed=2)
    # at n = 1 the caller's own matrix is the one block that vstack stacks
    rows = [slice(None)] if n == 1 else parts
    blocks = [shuffled] if n == 1 else [shuffled[idx] for idx in parts]
    labels = [raw.labels[idx] for idx in rows]
    saved = [csr_arrays(a) for a in blocks + [shuffled]]
    pairs = [
        (LogisticProblem(blocks, labels, 2e-3), LogisticProblem([raw.features[idx] for idx in rows], labels, 2e-3)),
        (
            LogisticProblem.from_partition(ingest.RawDataset(shuffled, raw.labels), parts, 2e-3),
            LogisticProblem.from_partition(raw, parts, 2e-3),
        ),
    ]
    assert all(same_arrays(a, kept) for a, kept in zip(blocks + [shuffled], saved))
    rng = np.random.default_rng(n)
    for got, want in pairs:
        assert same_csr(got._rows, want._rows) and all(map(same_csr, got._feats_t, want._feats_t))
        assert got.lipschitz_estimate() == want.lipschitz_estimate()
        for x in (np.zeros(raw.d), rng.normal(size=raw.d), 300.0 * rng.normal(size=raw.d)):
            assert all(map(same_bits, got.local_costs_and_grads(x), want.local_costs_and_grads(x)))
            X = np.tile(x, (2 * n, 1))
            agents = np.tile(np.arange(1, n + 1), 2)
            assert same_bits(got.local_full_grads(agents, X), want.local_full_grads(agents, X))
            for i in range(1, n + 1):
                assert local_cost(got, i, x) == local_cost(want, i, x)
                assert same_bits(component_grad_table(got, i, x), component_grad_table(want, i, x))
            for j in range(1, min(want.m) + 1):
                js, Y = np.full(n, j), X[:n]
                assert same_bits(component_grads(got, js, Y), component_grads(want, js, Y))
                assert same_bits(component_grad_diffs(got, js, Y, -Y), component_grad_diffs(want, js, Y, -Y))
        for algorithm in ALGORITHMS:
            assert one_trace(got, algorithm) == one_trace(want, algorithm)


def test_repeated_features_of_a_row_are_summed_by_every_oracle():
    # the row [(0, 1.0), (0, 1.0)] is the row (2, 0) to the sampled, the
    # full-gradient and the metric oracles alike, and the caller's matrix
    # keeps its two entries
    repeated = sp.csr_matrix((np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 2))
    saved = csr_arrays(repeated)
    prob = LogisticProblem([repeated], [np.array([1.0])], 0.0)
    assert same_arrays(repeated, saved) and not repeated.has_canonical_format
    summed = single_logistic(np.array([2.0, 0.0]), 1.0)
    x = np.array([0.3, -0.2])
    for p in (prob, summed):
        grads = [
            component_grads(p, np.array([1]), x[None])[0],
            p.local_full_grads(np.array([1]), x[None])[0],
            p.local_costs_and_grads(x)[1][0],
        ]
        for g in grads:
            assert g[0] == pytest.approx(-0.45757, abs=1e-5) and g[1] == 0.0
            assert np.array_equal(g, grads[0])
    one = np.array([1])
    for call in (lambda p: component_grads(p, one, x[None]), lambda p: p.local_full_grads(one, x[None])):
        assert same_bits(call(prob), call(summed))
    assert all(map(same_bits, prob.local_costs_and_grads(x), summed.local_costs_and_grads(x)))


def test_normalizing_unsorted_rows_equals_normalizing_their_sorted_copy():
    # each row's squares are summed in feature order, whatever order the
    # dataset lists its entries in
    for seed in range(30):
        raw = random_raw(60, 40, seed=seed)
        shuffled = shuffled_within_rows(raw.features, seed=seed)
        assert not shuffled.has_sorted_indices
        saved = csr_arrays(shuffled)
        parts = ingest.partition(raw, 3, seed=seed)
        got = LogisticProblem.from_partition(ingest.RawDataset(shuffled, raw.labels), parts, 1e-3, normalize=True)
        want = LogisticProblem.from_partition(raw, parts, 1e-3, normalize=True)
        assert same_arrays(shuffled, saved)
        assert same_csr(got._rows, want._rows) and all(map(same_csr, got._feats_t, want._feats_t))


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_component_grads_equal_per_agent_oracle(name):
    prob = BATCH_CASES[name]()
    rng = np.random.default_rng(9)
    for scale in (1.0, 300.0):
        for _ in range(25):
            js = np.array([rng.integers(1, m + 1) for m in prob.m])
            x = scale * rng.normal(size=(prob.n, prob.d))
            got = component_grads(prob, js, x)
            assert got.shape == (prob.n, prob.d)
            for i in range(1, prob.n + 1):
                assert np.array_equal(got[i - 1], component_grad(prob, i, int(js[i - 1]), x[i - 1]))


@pytest.mark.parametrize("d", [1, 4, 7, 13, 30, 123])
def test_quadratic_component_grads_bit_identical_across_dimensions(d):
    prob = uneven_quadratic(sizes=(7, 20, 1, 13), d=d)
    rng = np.random.default_rng(d)
    for _ in range(40):
        js = np.array([rng.integers(1, m + 1) for m in prob.m])
        x = rng.normal(size=(prob.n, d))
        got = component_grads(prob, js, x)
        for i in range(1, prob.n + 1):
            assert np.array_equal(got[i - 1], component_grad(prob, i, int(js[i - 1]), x[i - 1]))


# a sample index outside [1, m_i] is rejected as it is drawn, naming its
# agent: test_rng.py's test_swarm_rows_reject_either_bound_at_every_agent


@pytest.mark.parametrize("name", ["quadratic_unequal", "logistic_lists_unequal"])
def test_component_grads_of_stacked_replicas_equal_each_replica_alone(name):
    prob = BATCH_CASES[name]()
    rng = np.random.default_rng(4)
    replicas = 3
    js = np.concatenate([[rng.integers(1, m + 1) for m in prob.m] for _ in range(replicas)])
    x = rng.normal(size=(replicas * prob.n, prob.d))
    got = component_grads(prob, js, x)
    blocks = [slice(r * prob.n, (r + 1) * prob.n) for r in range(replicas)]
    assert np.array_equal(got, np.concatenate([component_grads(prob, js[b], x[b]) for b in blocks]))


def test_quadratic_agents_are_views_of_one_stacked_array():
    prob = uneven_quadratic()
    assert prob._rows.shape == (sum(prob.m), prob.d)
    for a, t, m in zip(prob._feats, prob._targets, prob.m):
        assert a.shape == (m, prob.d) and t.shape == (m,)
        assert np.shares_memory(a, prob._rows)
        assert np.shares_memory(t, prob._target_rows)


# -- the logistic oracles against their earlier form, bit for bit --------

ORACLE_SEED = settings(derandomize=True, max_examples=60, deadline=None, database=None)
# mostly zeros, so rows and columns come out empty; values not only 0/1
FEATURE_VALUES = st.sampled_from([0.0] * 6 + [1.0, -1.0, 2.5]) | st.floats(-4.0, 4.0, width=64)
# exact zeros give z = 0 on a label of +1 and z = -0.0 on -1; the large
# values give |z| > 750, where exp(-|z|) underflows to 0
POINT_VALUES = st.sampled_from([0.0, -0.0, 760.0, -760.0, 1e4, -1e4, 0.5]) | st.floats(-30.0, 30.0)


@st.composite
def logistic_instances(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    feats, labels = [], []
    for m in draw(st.lists(st.integers(1, 40), min_size=n, max_size=n)):
        feats.append(sp.csr_matrix(draw(hnp.arrays(float, (m, d), elements=FEATURE_VALUES))))
        labels.append(np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))))
    prob = LogisticProblem(feats, labels, draw(st.sampled_from([0.0, 1e-3, 0.25])))
    return prob, draw(hnp.arrays(float, d, elements=POINT_VALUES))


def same_value(a, b):
    return same_bits(np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float)))


@ORACLE_SEED
@given(instance=logistic_instances())
def test_logistic_oracles_equal_the_reference_bit_for_bit(instance):
    prob, x = instance
    ref = ReferenceLogistic(prob)
    costs, grads = prob.local_costs_and_grads(x)
    ref_costs, ref_grads = ref.local_costs_and_grads(x)
    assert same_value(costs, ref_costs) and same_value(grads, ref_grads)
    full = full_grads_at(prob, x)
    for i in range(1, prob.n + 1):
        assert same_value(local_cost(prob, i, x), ref.local_cost(i, x))
        assert same_value(full[i - 1], ref.local_full_grad(i, x))
        assert same_value(component_grad_table(prob, i, x), ref.component_grad_table(i, x))
    # each agent's last sample, at the same point
    assert same_value(
        component_grads(prob, np.array(prob.m), np.tile(x, (prob.n, 1))),
        [component_grad(prob, i, m, x) for i, m in enumerate(prob.m, start=1)],
    )


def test_local_oracles_equal_the_reference_at_the_benchmark_shape():
    # a9a's shape at a tenth of its rows: n = 10, d = 123, ~11% binary
    # features, m_i of 301 and 300, over one stacked matrix
    gen = np.random.default_rng(123)
    rows, d, n = 3006, 123, 10
    mask = gen.random((rows, d)) < 0.11
    mask[np.arange(rows), gen.integers(d, size=rows)] = True
    raw = ingest.RawDataset(sp.csr_matrix(mask.astype(float)), np.where(gen.random(rows) < 0.24, 1.0, -1.0))
    prob = LogisticProblem.from_partition(raw, ingest.partition(raw, n, seed=4), 5e-4)
    assert prob.m == (301,) * 6 + (300,) * 4
    ref = ReferenceLogistic(prob)
    # a scale of 400 puts most |z| past 750, where exp(-|z|) underflows
    points = [np.zeros(d), gen.normal(size=d), 400.0 * gen.normal(size=d)]
    assert np.abs(prob._rows @ points[2]).max() > 750.0
    for x in points:
        costs, grads = prob.local_costs_and_grads(x)
        ref_costs, ref_grads = ref.local_costs_and_grads(x)
        assert same_bits(costs, ref_costs) and same_bits(grads, ref_grads)
    # every agent once per replica over R = 2, then a selection with repeats
    for agents in (np.tile(np.arange(1, n + 1), 2), gen.integers(1, n + 1, size=15)):
        X = np.resize([0.0, 1.0, 400.0], len(agents))[:, None] * gen.normal(size=(len(agents), d))
        got = prob.local_full_grads(agents, X)
        assert same_bits(got, np.stack([ref.local_full_grad(i, x) for i, x in zip(agents.tolist(), X)]))


@ORACLE_SEED
@given(z=hnp.arrays(float, st.integers(0, 50), elements=st.floats(allow_nan=False) | POINT_VALUES))
def test_select_free_sigmoid_equals_the_where_pair(z):
    sig, sig_neg = reference_sigmoid_pair(z)
    e, one_e = _exp_terms(z)
    assert same_value(_sigmoid_neg(z, e, one_e), sig_neg)
    assert same_value(_sigmoid_neg(-z, e, one_e), sig)
    # the helper overwrites the exp terms it is given
    for m in (1, 3):
        assert same_value(_grad_coef(e.copy(), one_e.copy(), m), -(sig * sig_neg) / m)


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("density, margin_scale", [(0.3, 2.0), (0.6, 1e3), (0.05, 0.1)])
def test_make_logistic_labels_equal_the_where_pair_labels(seed, density, margin_scale):
    # a margin scale of 1e3 puts many margins past |z| = 745, where exp(-|z|) underflows
    prob = make_logistic(3, 40, 9, seed=seed, density=density, margin_scale=margin_scale)
    want = make_logistic_labels(3, 40, 9, seed, density, margin_scale)
    assert same_bits(prob._label_rows, want)


# a row that lists feature 0 twice, which every oracle reads as (2, 0, 0)
REPEATED = sp.csr_matrix((np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 3))
# three rows, the last of them empty
THREE_ROWS = sp.csr_matrix(np.array([[0.0, 2.0, -1.0], [1.5, 0.0, 0.0], [0.0, 0.0, 0.0]]))


@ORACLE_SEED
@given(instance=logistic_instances())
@example(instance=(LogisticProblem([REPEATED], [np.array([-1.0])], 0.0), np.array([0.3, -0.2, -5.0])))
@example(
    instance=(
        LogisticProblem([REPEATED, THREE_ROWS], [np.array([1.0]), np.array([1.0, -1.0, 1.0])], 1e-3),
        np.array([0.7, -0.4, 2.0]),
    )
)
def test_sampled_gradients_equal_their_table_rows_bit_for_bit(instance):
    prob, x = instance
    # replica r draws sample r mod m_i + 1 of agent i, so every sample is drawn
    replicas = max(prob.m)
    js = np.array([[r % m + 1 for m in prob.m] for r in range(replicas)]).ravel()
    grads = component_grads(prob, js, np.tile(x, (replicas * prob.n, 1)))
    ref = ReferenceLogistic(prob)
    for i, m in enumerate(prob.m, start=1):
        table = ref.component_grad_table(i, x)
        for r in range(replicas):
            assert same_bits(grads[r * prob.n + i - 1], table[r % m])


@pytest.mark.parametrize(
    "prob",
    [make_logistic(10, 300, 123, seed=5, density=0.11), partitioned_logistic(rows=120, n=6)[2]],
    ids=["a9a_shape", "partitioned"],
)
def test_sampled_gradients_equal_the_per_row_loop_within_rounding(prob):
    # The batched oracle adds a row's w products in entry order, the loop it
    # replaced with a BLAS dot, so their margins differ by at most w eps S,
    # S = sum_k |a_k x_k|: each sum is within gamma_w S of the exact one. The
    # coefficient -sigma(z) sigma(-z) has slope at most 1 / (6 sqrt 3) < 0.1,
    # and each side rounds it, its exp included (numpy's against libm's),
    # within 3 eps; the product with a_k and the sum with the ridge add at
    # most eps |g_k|. Features a row lacks are the ridge on both sides.
    eps = np.finfo(float).eps
    ref = ReferenceLogistic(prob)
    gen = np.random.default_rng(17)
    for scale in (1.0, 30.0, 400.0):
        for replicas in (1, 2):
            for _ in range(40):
                js = np.concatenate([gen.integers(1, prob.layout.sizes + 1) for _ in range(replicas)])
                X = scale * gen.normal(size=(len(js), prob.d))
                got, want = component_grads(prob, js, X), ref.component_grads(js, X)
                rows = np.tile(prob.layout.base, replicas) + js
                a, w = np.abs(ref.rows[rows].toarray()), np.diff(ref.rows.indptr)[rows][:, None]
                bound = (0.1 * w * eps * (a * np.abs(X)).sum(axis=1, keepdims=True) + 3 * eps) * a
                bound += eps * np.abs(want)
                assert np.all(np.abs(got - want) <= bound)
                assert np.array_equal(got[a == 0.0], want[a == 0.0])


def test_constructors_leave_the_callers_matrices_alone(monkeypatch):
    # a problem holds each row multiplied by its label, negated in place, but
    # only in a matrix it made itself; the caller's arrays keep their values
    raw, parts, _ = partitioned_logistic()
    assert raw.features.has_canonical_format and (raw.labels < 0).any()
    blocks = [raw.features[idx] for idx in parts]
    saved = [csr_arrays(a) for a in [raw.features] + blocks]
    built = [
        LogisticProblem(blocks, [raw.labels[idx] for idx in parts], 2e-3),
        LogisticProblem.from_partition(raw, parts, 2e-3),
        LogisticProblem.from_partition(raw, parts, 2e-3, normalize=True),
    ]
    # a scipy whose vstack hands a lone block back as it is
    monkeypatch.setattr(sp, "vstack", lambda blocks, format: blocks[0])
    built.append(LogisticProblem([raw.features], [raw.labels], 2e-3))
    assert all(same_arrays(a, kept) for a, kept in zip([raw.features] + blocks, saved))
    signed = raw.labels[:, None] * raw.features.toarray()
    assert np.array_equal(built[-1]._rows.toarray(), signed)
    order = np.concatenate(parts)
    assert np.array_equal(built[1]._rows.toarray(), signed[order])


def test_feature_major_copy_holds_each_agents_canonical_signed_rows(monkeypatch):
    # GT-VR's refresh reads its own (m_i, d) CSC copy of each agent's rows,
    # made after they are put in canonical form and negated: its dense form
    # and entry count are those of the agent's held rows, whatever order and
    # repeats the caller's rows list, and it shares no memory with them
    raw, parts, _ = partitioned_logistic(rows=40, n=5)
    shuffled = shuffled_within_rows(raw.features, seed=3)
    # every row lists its first entry's feature a second time
    rows = [
        (np.append(shuffled.indices[lo:hi], shuffled.indices[lo]), np.append(shuffled.data[lo:hi], 0.25))
        for lo, hi in zip(shuffled.indptr[:-1], shuffled.indptr[1:])
    ]
    messy = raw_from_rows(rows, raw.labels, raw.features.shape[1])
    assert not messy.features.has_sorted_indices and (raw.labels < 0).any()
    blocks = [messy.features[idx] for idx in parts]
    built = [
        LogisticProblem(blocks, [raw.labels[idx] for idx in parts], 2e-3),
        LogisticProblem.from_partition(messy, parts, 2e-3),
        LogisticProblem.from_partition(messy, parts, 2e-3, normalize=True),
        LogisticProblem.from_partition(raw, parts, 2e-3, normalize=True),
    ]
    # with a scipy whose vstack hands a lone block back as it is, the
    # caller's canonical matrix itself reaches the problem
    monkeypatch.setattr(sp, "vstack", lambda blocks, format: blocks[0])
    built.append(LogisticProblem([raw.features], [raw.labels], 2e-3))
    given = [messy.features, raw.features] + blocks
    for prob in built:
        assert len(prob._feature_major) == prob.n
        for rows, (a, a_t), m in zip(prob._feats, prob._feature_major, prob.m):
            assert isinstance(a, sp.csc_matrix) and isinstance(a_t, sp.csr_matrix)
            assert a.shape == (m, prob.d) and a_t.shape == (prob.d, m)
            assert a.nnz == rows.nnz and np.array_equal(a.toarray(), rows.toarray())
            assert all(np.shares_memory(getattr(a, k), getattr(a_t, k)) for k in ("data", "indices", "indptr"))
            for other in [prob._rows] + given:
                for k in ("data", "indices", "indptr"):
                    assert not np.shares_memory(getattr(a, k), getattr(other, k))


# -- the two oracles of GT-VR's step: batched refresh, paired difference --

REFRESH_SEED = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def refresh_batches(draw):
    """A problem with one m_i or unequal m_i (some of them 1) and a refresh
    batch over R replicas: any subset of the R*n rows, so agents repeat for
    R > 1, from none of them to all of them."""
    d = draw(st.sampled_from([1, 4, 7, 13, 30, 123]))
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 5, 20, 33]), min_size=1, max_size=5))
    if draw(st.booleans()):
        sizes = [sizes[0]] * len(sizes)
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed)
    if draw(st.booleans()):
        prob = QuadraticProblem([data.normal(size=(m, d)) for m in sizes], [data.normal(size=m) for m in sizes])
    else:
        feats = [sp.csr_matrix((data.random(size=(m, d)) < 0.4) * data.normal(size=(m, d))) for m in sizes]
        labels = [np.where(data.random(m) < 0.5, 1.0, -1.0) for m in sizes]
        prob = LogisticProblem(feats, labels, 1e-3)
    replicas = draw(st.integers(1, 3))
    rows = np.flatnonzero(draw(st.lists(st.booleans(), min_size=replicas * prob.n, max_size=replicas * prob.n)))
    scale = draw(st.sampled_from([1.0, 300.0]))
    return prob, rows % prob.n + 1, scale * data.normal(size=(len(rows), d))


@REFRESH_SEED
@given(batch=refresh_batches())
def test_local_full_grads_equal_the_per_agent_oracle_bit_for_bit(batch):
    prob, agents, X = batch
    got = prob.local_full_grads(agents, X)
    assert got.shape == (len(agents), prob.d)
    for row, (i, x) in enumerate(zip(agents.tolist(), X)):
        assert same_bits(got[row], local_full_grad(prob, i, x))


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_local_full_grads_of_none_and_of_every_agent(name):
    prob = BATCH_CASES[name]()
    x = np.random.default_rng(8).normal(size=(prob.n, prob.d))
    assert prob.local_full_grads(np.arange(0), x[:0]).shape == (0, prob.d)
    everyone = prob.local_full_grads(np.arange(1, prob.n + 1), x)
    assert same_bits(everyone, np.stack([local_full_grad(prob, i, x[i - 1]) for i in range(1, prob.n + 1)]))


@pytest.mark.parametrize("name", ["quadratic", "quadratic_unequal", "logistic_lists_unequal"])
def test_local_full_grads_validate_agents_and_shapes(name):
    prob = BATCH_CASES[name]()
    x = np.zeros((2, prob.d))
    for bad in (0, prob.n + 1, -1):
        with pytest.raises(IndexError):
            prob.local_full_grads(np.array([1, bad]), x)
    with pytest.raises(ValueError):
        prob.local_full_grads(np.array([1, 2]), x[:1])
    with pytest.raises(ValueError):
        prob.local_full_grads(np.array([1, 2]), x[:, :-1])
    with pytest.raises(ValueError):
        prob.local_full_grads(np.array([[1, 2]]), x)


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_component_grad_diffs_equal_the_difference_of_two_calls(name):
    prob = BATCH_CASES[name]()
    rng = np.random.default_rng(10)
    for replicas in (1, 3):
        for scale in (1.0, 300.0):
            for _ in range(10):
                js = np.concatenate([[rng.integers(1, m + 1) for m in prob.m] for _ in range(replicas)])
                x, t = scale * rng.normal(size=(2, replicas * prob.n, prob.d))
                want = component_grads(prob, js, x) - component_grads(prob, js, t)
                assert same_bits(component_grad_diffs(prob, js, x, t), want)


# -- the metric oracle at a stack of points ------------------------------

STACK_SEED = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def point_stacks(draw):
    """A problem with one agent or several, of one m_i or unequal m_i, and
    K points stacked (K, d), the last of them large enough to put a
    logistic margin past |z| = 750, where exp(-|z|) underflows."""
    d = draw(st.sampled_from([1, 4, 7, 30, 123]))
    sizes = draw(st.lists(st.sampled_from([1, 2, 5, 20, 33]), min_size=1, max_size=5))
    if draw(st.booleans()):
        sizes = [sizes[0]] * len(sizes)
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        prob = QuadraticProblem([data.normal(size=(m, d)) for m in sizes], [data.normal(size=m) for m in sizes])
    else:
        feats = [sp.csr_matrix((data.random(size=(m, d)) < 0.4) * data.normal(size=(m, d))) for m in sizes]
        labels = [np.where(data.random(m) < 0.5, 1.0, -1.0) for m in sizes]
        prob = LogisticProblem(feats, labels, 1e-3)
    k = draw(st.sampled_from([1, 2, 5, 33]))
    X = draw(st.sampled_from([1.0, 300.0])) * data.normal(size=(k, d))
    X[-1] *= 1e6
    return prob, X


@STACK_SEED
@given(stack=point_stacks())
def test_local_costs_and_grads_of_a_stack_equal_each_point_alone(stack):
    prob, X = stack
    if isinstance(prob, LogisticProblem) and prob._rows.nnz:
        assert np.abs(prob._rows @ X[-1]).max() > 750.0
    costs, grads = prob.local_costs_and_grads(X)
    assert costs.shape == (len(X), prob.n) and grads.shape == (len(X), prob.n, prob.d)
    for k, x in enumerate(X):
        alone_costs, alone_grads = prob.local_costs_and_grads(x)
        assert same_bits(costs[k], alone_costs) and same_bits(grads[k], alone_grads)
        for i in range(1, prob.n + 1):
            assert same_value(costs[k, i - 1], local_cost(prob, i, x))
            assert same_bits(grads[k, i - 1], local_full_grad(prob, i, x))


@pytest.mark.parametrize("name", ["quadratic_unequal", "logistic_lists_unequal"])
def test_local_costs_and_grads_reject_a_point_of_the_wrong_shape(name):
    prob = BATCH_CASES[name]()
    for bad in (np.zeros(prob.d + 1), np.zeros((2, prob.d - 1)), np.zeros((2, 2, prob.d))):
        with pytest.raises(ValueError, match="stack of points"):
            prob.local_costs_and_grads(bad)


@pytest.mark.parametrize("name", ["quadratic_unequal", "logistic_lists_unequal"])
def test_checked_entries_reject_non_integer_agents(name):
    # an id inside the range but of a float or bool dtype is named as such,
    # not left to fail inside the core
    prob = BATCH_CASES[name]()
    X = np.zeros((2, prob.d))
    for agents in (np.array([1.0, 2.5]), np.array([1.0, 2.0]), np.array([True, True])):
        with pytest.raises(TypeError, match="agents must be an integer array"):
            prob.local_full_grads(agents, X)
    for ids in (np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.uint8)):
        assert prob.local_full_grads(ids, X).shape == (2, prob.d)
