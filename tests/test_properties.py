"""Property tests over random small instances, with fixed hypothesis seeds.

Round engine, after every round: the tracker mean equals the estimate
mean, the mean iterate follows x̄⁺ = x̄ − ηȳ (DSGD: x̄⁺ = x̄ − η·mean of
its sampled gradients), the oracle counters move by the paper's
accounting (GT-VR: m_i + 2 on a refresh round and 2 otherwise, with the
coins replayed from each agent's Philox stream; 1 per agent for the
baselines), and the exchange count is 2 per round (1 for DSGD). A batch
cut with ``keep`` at any round steps its first replicas exactly as the
uncut batch does. GT-SAGA's lazily filled table, over R replicas with an
optional cut, steps as the eager per-agent reference engine bit for bit.

Mixing: Metropolis weights on a random connected graph are symmetric,
doubly stochastic and contract deviations from the mean by ρ < 1, and
mixing R replicas stacked replica-major equals mixing each on its own,
bit for bit, and so does the consensus gap D of K stacked snapshots.

Problem: the quadratic metric pass over K stacked points, with equal and
unequal m_i, equals the per-point loop bit for bit.

Ingest: serializing a dataset to LIBSVM text and parsing it back gives
the same CSR arrays, labels and dimension, bit for bit.

Theory: inside the admissible region (rho^2 < 1/3, P above its lower
bound, eta up to eta_bar) the contraction certificate holds, d(C) is at
most 3 rho^2, and the complexity cap eta_tilde does not exceed eta_bar.
"""

import io
import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gtvr import algorithms, graph, ingest, metrics, theory
from gtvr.algorithms import RunConfig, init_swarm, run_round
from gtvr.problem import LogisticProblem, QuadraticProblem
import reference_engine as ref
from helpers import (
    dense_deviation_norm,
    gtsaga_tables,
    raw_from_rows,
    same_bits,
    same_csr,
    scalar_streams,
    serialize_libsvm,
)
from reference_problem import component_grad, local_costs_and_grads
from reference_rng import draw_bernoulli, draw_index

ROUNDS = 12

FIXED_SEED = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["quadratic", "logistic"]))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed)
    if kind == "quadratic":
        feats = [data.normal(size=(m_i, d)) for m_i in m]
        feats = [a / np.linalg.norm(a, axis=1, keepdims=True) for a in feats]
        prob = QuadraticProblem(feats, [data.normal(size=m_i) for m_i in m])
    else:
        feats = []
        for m_i in m:
            mask = data.random(size=(m_i, d)) < 0.5
            mask[np.arange(m_i), data.integers(d, size=m_i)] = True
            feats.append(sp.csr_matrix(mask.astype(float)))
        labels = [np.where(data.random(size=m_i) < 0.5, 1.0, -1.0) for m_i in m]
        prob = LogisticProblem(feats, labels, lam1=1e-3)
    mixing = graph.metropolis_weights(graph.build_topology("random", n, p_edge=0.5, seed=seed))
    cfg = RunConfig(
        algorithm=draw(st.sampled_from(algorithms.ALGORITHMS)),
        eta=draw(st.floats(0.01, 0.2)),
        p=draw(st.floats(0.05, 0.95)),
        seed=seed,
    )
    x1 = data.normal(size=(n, d))
    return prob, mixing, cfg, x1


@FIXED_SEED
@given(instances())
def test_round_invariants(instance):
    prob, mixing, cfg, x1 = instance
    n, m = prob.n, np.array(prob.m)
    tracked = cfg.algorithm != "dsgd"
    swarm = init_swarm(prob, x1, cfg)
    init_evals = {"gtvr": m, "dsgd": 0, "dsgt": 1, "gtsaga": m}[cfg.algorithm]
    assert np.array_equal(swarm.grad_evals, np.broadcast_to(init_evals, n))
    # GT-VR's coins and DSGD's sampled indices, replayed one draw at a time
    replay = scalar_streams(cfg.seed, n)

    for k in range(1, ROUNDS + 1):
        xbar = swarm.x.mean(axis=0)
        before = swarm.grad_evals.copy()
        if tracked:
            step = swarm.y.mean(axis=0)
        else:
            step = np.mean(
                [
                    component_grad(prob, i, draw_index(replay[i - 1].index, prob.m[i - 1]), swarm.x[i - 1])
                    for i in range(1, n + 1)
                ],
                axis=0,
            )
        run_round(swarm, prob, mixing)

        scale = 1.0 + float(np.abs(swarm.x).max())
        assert np.abs(swarm.x.mean(axis=0) - (xbar - cfg.eta * step)).max() <= 1e-12 * scale
        if tracked:
            assert np.abs(swarm.y.mean(axis=0) - swarm.v.mean(axis=0)).max() <= 1e-9
        if cfg.algorithm == "gtvr":
            refreshed = np.array([draw_bernoulli(s.bernoulli, cfg.p) for s in replay])
            expected = 2 + refreshed * m
        else:
            expected = np.ones(n, dtype=np.int64)
        assert np.array_equal(swarm.grad_evals - before, expected)
        assert swarm.mix_count == (2 * k if tracked else k)
        assert swarm.k == k


# the per-row state that ``SwarmState.keep`` cuts, the swarm's and each estimator's
SWARM_ROWS = ("x", "y", "v", "eta", "grad_evals")
ESTIMATOR_ROWS = {
    "gtvr": ("tau", "g_tau", "_slots", "_sizes"),
    "dsgd": (),
    "dsgt": (),
    "gtsaga": ("table_mean", "_offset", "_m_column"),
}


def same_first_rows(kept, full, rows):
    """Whether a cut per-row array, or list of per-row views, is the first
    ``rows`` rows of its uncut twin's, bit for bit."""
    if kept is None or full is None:
        return kept is full
    if isinstance(kept, list):
        return len(kept) == rows and all(map(same_bits, kept, full[:rows]))
    return same_bits(kept, full[:rows])


@FIXED_SEED
@given(instances(), st.data())
def test_a_cut_batch_steps_its_first_replicas_as_the_uncut_batch(instance, data):
    prob, mixing, cfg, x1 = instance
    replicas = data.draw(st.integers(2, 4))
    live = data.draw(st.integers(1, replicas - 1))
    cut_at = data.draw(st.integers(0, ROUNDS))
    others = st.tuples(st.floats(0.01, 0.2), st.floats(0.05, 0.95))
    others = data.draw(st.lists(others, min_size=replicas - 1, max_size=replicas - 1))
    cfgs = [cfg] + [replace(cfg, eta=eta, p=p) for eta, p in others]
    rows = live * prob.n
    cut, twin = init_swarm(prob, x1, cfgs), init_swarm(prob, x1, cfgs)
    for k in range(ROUNDS + 1):
        if k == cut_at:
            cut.keep(rows)
        if k < ROUNDS:
            run_round(cut, prob, mixing)
            run_round(twin, prob, mixing)
    assert cut.k == twin.k == ROUNDS and cut.mix_count == twin.mix_count
    for name in SWARM_ROWS:
        assert same_first_rows(getattr(cut, name), getattr(twin, name), rows), name
    for name in ESTIMATOR_ROWS[cfg.algorithm]:
        assert same_first_rows(getattr(cut.estimator, name), getattr(twin.estimator, name), rows), name
    if cfg.algorithm == "gtsaga":
        # the buffers pack their rows apart once the cut stops drawing, the
        # logical tables do not
        tables = gtsaga_tables(prob, cut.estimator), gtsaga_tables(prob, twin.estimator)
        assert same_first_rows(*tables, rows)


@FIXED_SEED
@given(instances(), st.data())
def test_gtsaga_steps_as_the_reference_engine(instance, data):
    # R replicas of the lazy table, each against its own run of the eager
    # per-agent reference, with an optional cut to the first replicas at a
    # random round: every round the live replicas' x, y, v and running
    # means, and at the end their logical tables, equal it bit for bit
    prob, mixing, cfg, x1 = instance
    n = prob.n
    replicas = data.draw(st.integers(1, 3))
    etas = data.draw(st.lists(st.floats(0.01, 0.2), min_size=replicas - 1, max_size=replicas - 1))
    cfgs = [replace(cfg, algorithm="gtsaga")]
    cfgs += [replace(cfgs[0], eta=eta) for eta in etas]
    live = data.draw(st.integers(1, replicas))
    cut_at = data.draw(st.integers(1, ROUNDS))
    swarm = init_swarm(prob, x1, cfgs)
    streams = [scalar_streams(cfg.seed, n) for _ in cfgs]
    refs = [ref.init_swarm(prob, x1, c, s) for c, s in zip(cfgs, streams)]
    for k in range(1, ROUNDS + 1):
        run_round(swarm, prob, mixing)
        for c, s, expected in zip(cfgs, streams, refs):
            ref.gt_saga_round(expected, prob, mixing, c, s)
        if k == cut_at and live < replicas:
            swarm.keep(live * n)
            refs = refs[:live]
        est = swarm.estimator
        for name, got in (("x", swarm.x), ("y", swarm.y), ("v", swarm.v), ("table_mean", est.table_mean)):
            want = np.concatenate([getattr(expected, name) for expected in refs])
            assert same_bits(got, want), (k, name)
    tables = gtsaga_tables(prob, swarm.estimator)
    assert len(tables) == len(refs) * n
    assert all(map(same_bits, tables, (t for expected in refs for t in expected.tables)))


@st.composite
def connected_topologies(draw):
    n = draw(st.integers(2, 12))
    # a random spanning tree keeps the graph connected; extra edges vary the degrees
    edges = {(draw(st.integers(1, j - 1)), j) for j in range(2, n + 1)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return graph.Topology(n=n, edges=frozenset(edges))


@FIXED_SEED
@given(connected_topologies(), st.integers(0, 2**32 - 1))
def test_metropolis_weights_doubly_stochastic_and_contracting(topo, seed):
    mixing = graph.metropolis_weights(topo)
    w = mixing.w
    assert np.array_equal(w, w.T)
    assert (w >= 0.0).all() and (np.diag(w) > 0.0).all()
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
    assert 0.0 <= mixing.rho < 1.0
    assert abs(mixing.rho - dense_deviation_norm(w)) <= 1e-9
    x = np.random.default_rng(seed).normal(size=(topo.n, 3))
    xbar = x.mean(axis=0)
    mixed = graph.mix(mixing, x)
    assert np.abs(mixed.mean(axis=0) - xbar).max() <= 1e-12 * (1.0 + np.abs(x).max())
    dev = np.linalg.norm(x - xbar)
    assert np.linalg.norm(mixed - xbar) <= (mixing.rho + 1e-9) * dev + 1e-12


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@FIXED_SEED
@given(connected_topologies(), st.integers(1, 8), st.integers(1, 129), st.integers(0, 2**32 - 1))
def test_mix_of_stacked_replicas_equals_each_replica_mixed_alone(topo, replicas, d, seed):
    mixing = graph.metropolis_weights(topo)
    blocks = np.random.default_rng(seed).normal(size=(replicas, topo.n, d))
    mixed = graph.mix(mixing, blocks.reshape(replicas * topo.n, d))
    assert same_bits(mixed, np.concatenate([mixing.w @ block for block in blocks]))


@FIXED_SEED
@given(connected_topologies(), st.integers(1, 40), st.integers(1, 129), st.integers(0, 2**32 - 1))
def test_consensus_gap_of_stacked_snapshots_equals_each_snapshot_alone(topo, snapshots, d, seed):
    mixing = graph.metropolis_weights(topo)
    x = np.random.default_rng(seed).normal(size=(snapshots, topo.n, d))
    got = metrics.consensus_gap_D(mixing, x)
    assert got.shape == (snapshots,)
    assert same_bits(got, np.array([metrics.consensus_gap_D(mixing, state) for state in x]))


@FIXED_SEED
@given(st.data(), st.integers(1, 6), st.integers(1, 130), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_quadratic_metric_pass_equals_the_per_point_loop(data, n, d, points, seed):
    # one m_i runs the stacked (n, m, d) products, unequal m_i the agent
    # loop stacked over the K points; both equal the loop over points
    if data.draw(st.booleans()):
        sizes = [data.draw(st.integers(1, 30))] * n
    else:
        sizes = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    gen = np.random.default_rng(seed)
    prob = QuadraticProblem([gen.normal(size=(m, d)) for m in sizes], [gen.normal(size=m) for m in sizes])
    assert (prob._blocks is not None) == (len(set(sizes)) == 1)
    X = gen.normal(size=(points, d)) * 10.0 ** data.draw(st.integers(-3, 3))
    got, want = prob.local_costs_and_grads(X), local_costs_and_grads(prob, X)
    assert got[0].shape == (points, n) and got[1].shape == (points, n, d)
    assert all(map(same_bits, got, want))


@st.composite
def libsvm_datasets(draw):
    d = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        idx = sorted(draw(st.lists(st.integers(0, d - 1), unique=True, max_size=min(d, 8))))
        vals = draw(st.lists(_FINITE, min_size=len(idx), max_size=len(idx)))
        rows.append((np.array(idx, dtype=np.int32), np.array(vals, dtype=float)))
    labels = np.array(draw(st.lists(_FINITE, min_size=len(rows), max_size=len(rows))), dtype=float)
    return raw_from_rows(rows, labels, d)


@FIXED_SEED
@given(libsvm_datasets())
def test_libsvm_round_trip(raw):
    buf = io.StringIO()
    serialize_libsvm(raw, buf)
    back = ingest.parse_libsvm(io.StringIO(buf.getvalue()), declared_d=raw.d)
    assert back.d == raw.d
    assert same_bits(back.labels, raw.labels)
    assert same_csr(back.features, raw.features)


@st.composite
def admissible_parameters(draw):
    """(rho, P, L, eta) inside the region the certificate is proven for.

    The window (p_lower(rho), 1) is about 13.5 rho^3 wide, so rho starts
    at 1e-4, where the window still holds many doubles; eta starts at
    1e-6 eta_bar and reaches eta_bar itself.
    """
    rho = draw(st.floats(1e-4, 1.0 / math.sqrt(3.0), exclude_max=True))
    assume(rho**2 < 1.0 / 3.0)
    p_low = theory.p_lower_bound(rho)
    p = p_low + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (1.0 - p_low)
    assume(p_low < p < 1.0)
    lip = draw(st.floats(1e-3, 1e3))
    eta = draw(st.floats(1e-6, 1.0)) * theory.eta_bar(lip, rho, p)
    return rho, p, lip, eta


@FIXED_SEED
@given(admissible_parameters())
def test_contraction_certificate_holds_in_admissible_region(params):
    rho, p, lip, eta = params
    c, _, _ = theory.lmi_matrix(eta, rho, p, lip)
    ok, d_c = theory.verify_contraction(c, rho, theory.epsilon3(rho, p), eta)
    assert ok, params
    assert d_c <= 3.0 * rho**2 + 1e-12, params
    assert theory.eta_tilde(lip, rho, p) <= theory.eta_bar(lip, rho, p)
