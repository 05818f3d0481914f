import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvr import ingest
from gtvr.problem import (
    LogisticProblem,
    QuadraticProblem,
    _exp_terms,
    _sigmoid_neg,
    _sigmoid_product,
    make_logistic,
    make_quadratic,
)
from helpers import central_diff_grad, least_squares_solution, raw_from_rows, rel_err, same_bits, same_csr
from reference_logistic import ReferenceLogistic
from reference_logistic import sigmoid_pair as reference_sigmoid_pair


def single_logistic(a_row, label, lam1=0.0):
    return LogisticProblem([sp.csr_matrix(np.array([a_row]))], [np.array([label])], lam1)


def test_quadratic_component_grad_zero_at_component_minimizer():
    prob = QuadraticProblem([np.array([[1.0, 0.0]])], [np.array([0.0])])
    assert np.array_equal(prob.component_grad(1, 1, np.zeros(2)), np.zeros(2))


def test_logistic_grad_at_origin_is_quarter_row():
    # at x = 0 the sigmoid factor is exactly 1/4, so the gradient is -(l/4) a
    a = np.array([2.0, -1.0, 0.5])
    for label in (-1.0, 1.0):
        prob = single_logistic(a, label)
        expected = -(label / 4.0) * a
        assert np.array_equal(prob.component_grad(1, 1, np.zeros(3)), expected)


def test_logistic_component_grad_with_regularizer():
    a = np.array([1.0, 3.0])
    prob = single_logistic(a, 1.0, lam1=0.01)
    x = np.array([0.4, -0.2])
    got = prob.component_grad(1, 1, x)
    fd = central_diff_grad(lambda z: prob.component_cost(1, 1, z), x)
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
        got = prob.component_grad(i, j, x)
        fd = central_diff_grad(lambda z: prob.component_cost(i, j, z), x)
        assert rel_err(got, fd) <= 1e-6


def test_local_full_grad_is_component_average():
    prob = make_logistic(2, 12, 6, seed=8)
    rng = np.random.default_rng(0)
    for i in (1, 2):
        x = rng.normal(size=prob.d)
        mean = np.mean([prob.component_grad(i, j, x) for j in range(1, prob.m[i - 1] + 1)], axis=0)
        assert np.abs(prob.local_full_grad(i, x) - mean).max() <= 1e-12


def test_single_sample_agent_local_equals_component():
    prob = QuadraticProblem([np.array([[1.0, 2.0]])], [np.array([0.3])])
    x = np.array([0.1, -0.7])
    assert np.allclose(prob.local_full_grad(1, x), prob.component_grad(1, 1, x), atol=1e-15)


def test_symmetric_targets_cancel_at_origin():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    prob = QuadraticProblem([a], [np.array([0.8, -0.8])])
    assert prob.local_full_grad(1, np.zeros(2))[0] == 0.0


def test_global_reduces_to_local_for_single_agent():
    prob = make_quadratic(1, 10, 4, seed=3)
    x = np.arange(4, dtype=float)
    cost, grad = prob.global_cost_and_grad(x)
    assert cost == pytest.approx(prob.local_cost(1, x), abs=1e-15)
    assert np.allclose(grad, prob.local_full_grad(1, x), atol=1e-15)


def test_global_grad_matches_finite_differences():
    prob = make_logistic(4, 6, 8, seed=2, lam1=1e-3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=prob.d)
        _, grad = prob.global_cost_and_grad(x)
        fd = central_diff_grad(lambda z: prob.global_cost_and_grad(z)[0], x)
        assert rel_err(grad, fd) <= 1e-6


def test_global_grad_vanishes_at_normal_equations_solution():
    prob = make_quadratic(4, 15, 5, seed=9, noise=0.7)
    x_star = least_squares_solution(prob)
    _, grad = prob.global_cost_and_grad(x_star)
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
        lhs = np.linalg.norm(prob.component_grad(i, j, x) - prob.component_grad(i, j, y))
        assert lhs <= lip * np.linalg.norm(x - y) * (1.0 + 1e-9)


def test_logistic_stable_for_large_iterates():
    prob = make_logistic(2, 6, 5, seed=1, lam1=5e-4)
    x = np.full(prob.d, 1e3 / np.sqrt(prob.d))
    cost = prob.local_cost(1, x)
    grad = prob.local_full_grad(1, x)
    assert np.isfinite(cost)
    assert np.isfinite(grad).all()
    # single huge inner product, the worst case for the exp evaluation
    one = single_logistic(np.array([700.0]), -1.0)
    assert np.isfinite(one.component_cost(1, 1, np.array([1.0])))
    assert np.isfinite(one.component_grad(1, 1, np.array([1.0]))).all()


def test_component_grad_table_matches_scalar_calls():
    for prob in (make_logistic(2, 7, 6, seed=6, lam1=1e-3), make_quadratic(2, 7, 6, seed=6)):
        x = np.random.default_rng(3).normal(size=prob.d)
        table = prob.component_grad_table(1, x)
        for j in range(1, prob.m[0] + 1):
            assert np.abs(table[j - 1] - prob.component_grad(1, j, x)).max() <= 1e-12


def test_index_validation():
    prob = make_quadratic(2, 5, 3, seed=0)
    with pytest.raises(IndexError):
        prob.component_grad(0, 1, np.zeros(3))
    with pytest.raises(IndexError):
        prob.component_grad(1, 6, np.zeros(3))
    with pytest.raises(IndexError):
        prob.local_full_grad(3, np.zeros(3))


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
    with pytest.raises(ValueError, match="regularization"):
        LogisticProblem([rows], [np.ones(3)], -1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LogisticProblem([sp.csr_matrix(np.diag([1.0, bad, 2.0]))], [np.ones(3)], 0.0)
        raw = random_raw(6, 4, seed=1)
        raw.features.data[3] = bad
        with pytest.raises(ValueError, match="finite"):
            LogisticProblem.from_partition(raw, ingest.partition(raw, 2, seed=0), 0.0)


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
            assert costs[i - 1] == prob.local_cost(i, x)
            assert np.array_equal(grads[i - 1], prob.local_full_grad(i, x))


def test_view_backed_agents_match_independent_copies():
    raw, parts, prob = partitioned_logistic()
    assert len(set(prob.m)) == 2
    csr = raw.features
    singles = [LogisticProblem([csr[idx]], [raw.labels[idx]], 2e-3) for idx in parts]
    x = np.random.default_rng(6).normal(size=prob.d)
    for i, single in enumerate(singles, start=1):
        assert single.m[0] == prob.m[i - 1]
        for j in range(1, prob.m[i - 1] + 1):
            assert prob.component_cost(i, j, x) == single.component_cost(1, j, x)
            assert np.array_equal(prob.component_grad(i, j, x), single.component_grad(1, j, x))
        assert np.array_equal(prob.component_grad_table(i, x), single.component_grad_table(1, x))
        assert prob.local_cost(i, x) == single.local_cost(1, x)
        assert np.array_equal(prob.local_full_grad(i, x), single.local_full_grad(1, x))


def test_agents_share_stacked_row_and_feature_major_buffers():
    _, _, prob = partitioned_logistic(rows=40, n=5)
    x = np.ones(prob.d)
    prob.local_costs_and_grads(x)
    for i in range(1, prob.n + 1):
        prob.local_full_grad(i, x)
        prob.component_grad_table(i, x)
    assert prob._rows.shape == (40, prob.d)
    # the feature-major copy is one buffer of nnz entries, apart from the rows
    data_buf, index_buf = prob._feats_t[0].data.base, prob._feats_t[0].indices.base
    assert data_buf.size == index_buf.size == prob._rows.nnz
    assert not np.shares_memory(data_buf, prob._rows.data)
    for a, a_t, labels, m in zip(prob._feats, prob._feats_t, prob._labels, prob.m):
        assert np.shares_memory(labels, prob._label_rows)
        assert np.shares_memory(a.data, prob._rows.data)
        assert np.shares_memory(a.indices, prob._rows.indices)
        assert isinstance(a_t, sp.csr_matrix) and a_t.shape == (prob.d, m)
        assert a_t.data.base is data_buf and a_t.indices.base is index_buf
        assert same_csr(a_t, sp.csr_matrix(a.T))


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_component_grads_equal_per_agent_oracle(name):
    prob = BATCH_CASES[name]()
    rng = np.random.default_rng(9)
    for scale in (1.0, 300.0):
        for _ in range(25):
            js = np.array([rng.integers(1, m + 1) for m in prob.m])
            x = scale * rng.normal(size=(prob.n, prob.d))
            got = prob.component_grads(js, x)
            assert got.shape == (prob.n, prob.d)
            for i in range(1, prob.n + 1):
                assert np.array_equal(got[i - 1], prob.component_grad(i, int(js[i - 1]), x[i - 1]))


@pytest.mark.parametrize("d", [1, 4, 7, 13, 30, 123])
def test_quadratic_component_grads_bit_identical_across_dimensions(d):
    prob = uneven_quadratic(sizes=(7, 20, 1, 13), d=d)
    rng = np.random.default_rng(d)
    for _ in range(40):
        js = np.array([rng.integers(1, m + 1) for m in prob.m])
        x = rng.normal(size=(prob.n, d))
        got = prob.component_grads(js, x)
        for i in range(1, prob.n + 1):
            assert np.array_equal(got[i - 1], prob.component_grad(i, int(js[i - 1]), x[i - 1]))


@pytest.mark.parametrize("name", ["quadratic_unequal", "logistic_lists_unequal"])
def test_component_grads_validate_indices_and_shapes(name):
    prob = BATCH_CASES[name]()
    x = np.zeros((prob.n, prob.d))
    ones = np.ones(prob.n, dtype=np.int64)
    for agent in range(prob.n):
        for j in (0, prob.m[agent] + 1):
            js = ones.copy()
            js[agent] = j
            with pytest.raises(IndexError):
                prob.component_grads(js, x)
    with pytest.raises(ValueError):
        prob.component_grads(ones[:-1], x)
    with pytest.raises(ValueError):
        prob.component_grads(ones, x[:, :-1])


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
    for i in range(1, prob.n + 1):
        assert same_value(prob.local_cost(i, x), ref.local_cost(i, x))
        assert same_value(prob.local_full_grad(i, x), ref.local_full_grad(i, x))
        assert same_value(prob.component_grad_table(i, x), ref.component_grad_table(i, x))
    # each agent's last sample, at the same point
    assert same_value(
        prob.component_grads(np.array(prob.m), np.tile(x, (prob.n, 1))),
        [prob.component_grad(i, m, x) for i, m in enumerate(prob.m, start=1)],
    )


@ORACLE_SEED
@given(z=hnp.arrays(float, st.integers(0, 50), elements=st.floats(allow_nan=False) | POINT_VALUES))
def test_select_free_sigmoid_equals_the_where_pair(z):
    sig, sig_neg = reference_sigmoid_pair(z)
    e, one_e = _exp_terms(z)
    assert same_value(_sigmoid_neg(z, e, one_e), sig_neg)
    assert same_value(_sigmoid_product(e, one_e), sig * sig_neg)
