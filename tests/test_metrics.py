import io
import json
import math

import numpy as np
import pytest

from gtvr import algorithms, graph, metrics
from gtvr.problem import make_quadratic
from helpers import brute_force_consensus_gap, exact_stationary_quadratic
from reference_problem import local_full_grad


@pytest.fixture(scope="module")
def ring5():
    return graph.metropolis_weights(graph.build_topology("ring", 5))


def test_consensus_gap_zero_at_consensus(ring5):
    x = np.tile(np.array([1.0, -2.0]), (5, 1))
    assert metrics.consensus_gap_D(ring5, x) == pytest.approx(0.0, abs=1e-15)


def test_consensus_gap_two_agent_hand_value():
    w = graph.MixingMatrix(n=2, w=np.array([[0.5, 0.5], [0.5, 0.5]]), rho=0.0)
    x = np.array([[1.0], [0.0]])
    # brute force: 1 * 0.5 * (1 - 0) + 0 * 0.5 * (0 - 1) = 0.5
    assert brute_force_consensus_gap(w.w, x) == pytest.approx(0.5, abs=1e-15)
    assert metrics.consensus_gap_D(w, x) == pytest.approx(0.5, abs=1e-15)


def test_consensus_gap_matches_brute_force():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 8):
        mixing = graph.metropolis_weights(graph.build_topology("random", n, 0.6, seed=n))
        for _ in range(20):
            x = rng.normal(size=(n, 3))
            got = metrics.consensus_gap_D(mixing, x)
            assert got == pytest.approx(brute_force_consensus_gap(mixing.w, x), abs=1e-10)
            assert got >= -1e-12


def test_consensus_gap_shift_invariant(ring5):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 4))
    shift = rng.normal(size=4)
    assert abs(
        metrics.consensus_gap_D(ring5, x) - metrics.consensus_gap_D(ring5, x + shift)
    ) <= 1e-9


def test_consensus_gap_laplacian_bound():
    rng = np.random.default_rng(11)
    for n in (3, 5, 8):
        mixing = graph.metropolis_weights(graph.build_topology("random", n, 0.5, seed=2 * n))
        lap = np.eye(n) - mixing.w
        lam_max = float(np.linalg.eigvalsh(lap).max())
        for _ in range(20):
            x = rng.normal(size=(n, 2))
            cons = float(np.sum((x - x.mean(axis=0)) ** 2))
            assert metrics.consensus_gap_D(mixing, x) <= 2.0 * lam_max * cons + 1e-12


def test_consensus_gap_positive_off_consensus(ring5):
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.normal(size=(5, 3))
        if np.ptp(x, axis=0).max() > 1e-9:
            assert metrics.consensus_gap_D(ring5, x) > 0.0


def test_epoch_column_non_decreasing(ring5):
    prob = make_quadratic(5, 10, 3, seed=2)
    cfg = algorithms.RunConfig(algorithm="gtvr", eta=0.01, p=0.4, rounds=60, seed=3, cadence=7)
    rows = algorithms.run_experiment(prob, ring5, cfg)
    epochs = [r.epoch for r in rows]
    assert all(a <= b for a, b in zip(epochs, epochs[1:]))


def test_consensus_gap_shape_check(ring5):
    with pytest.raises(ValueError):
        metrics.consensus_gap_D(ring5, np.zeros((4, 2)))


def test_stationarity_metrics_at_stationary_point(ring5):
    prob = make_quadratic(5, 12, 3, seed=4, noise=0.4)
    x = exact_stationary_quadratic(prob)
    y = np.stack([local_full_grad(prob, i, x[i - 1]) for i in range(1, 6)])
    swarm = algorithms.SwarmState(k=0, x=x, y=y, grad_evals=np.zeros(5, np.int64))
    cost, stat, cons, track = metrics.stationarity_metrics(prob, swarm.x, swarm.y)
    assert stat <= 1e-20
    assert cons <= 1e-30  # averaging identical rows can leave 1-ulp dust
    assert track <= 1e-20  # trackers hold the exact local gradients at xbar


def test_stationarity_metrics_single_agent():
    prob = make_quadratic(1, 8, 3, seed=6)
    x = np.array([[0.3, -0.4, 1.0]])
    y = np.array([[1.0, 2.0, 3.0]])
    swarm = algorithms.SwarmState(k=0, x=x, y=y, grad_evals=np.zeros(1, np.int64))
    _, _, cons, track = metrics.stationarity_metrics(prob, swarm.x, swarm.y)
    assert cons == 0.0
    diff = y[0] - local_full_grad(prob, 1, x[0])
    assert track == pytest.approx(float(diff @ diff), abs=1e-15)


def test_stationarity_metrics_read_only(ring5):
    prob = make_quadratic(5, 10, 3, seed=7)
    rng = np.random.default_rng(8)
    swarm = algorithms.SwarmState(
        k=0,
        x=rng.normal(size=(5, 3)),
        y=rng.normal(size=(5, 3)),
        grad_evals=np.zeros(5, np.int64),
    )
    before = (swarm.x.tobytes(), swarm.y.tobytes())
    metrics.stationarity_metrics(prob, swarm.x, swarm.y)
    assert (swarm.x.tobytes(), swarm.y.tobytes()) == before


def rows_fixture():
    return [
        metrics.TraceRow(k, 0.1 * k, 1e-3 / (k + 1), 0.2, float("nan") if k == 1 else 0.3,
                         0.4, 10 * k, 0.5 * k, 1.25 * k)
        for k in range(3)
    ]


def test_trace_roundtrip_bit_exact():
    rng = np.random.default_rng(21)
    rows = [
        metrics.TraceRow(
            k=k,
            cost=float(rng.normal() * 10 ** int(rng.integers(-8, 8))),
            stat=float(abs(rng.normal())),
            cons=float(abs(rng.normal())),
            track=float(abs(rng.normal())),
            dbar=float(abs(rng.normal())),
            grad_evals=int(rng.integers(0, 10**9)),
            epoch=float(abs(rng.normal())),
            wall_ms=float(abs(rng.normal())),
        )
        for k in range(50)
    ]
    buf = io.StringIO()
    metrics.write_trace(rows, buf)
    back = metrics.read_trace(io.StringIO(buf.getvalue()))
    assert back == rows
    buf2 = io.StringIO()
    metrics.write_trace(back, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_trace_header_and_line_counts():
    assert metrics.TRACE_HEADER == "k,cost,stat,cons,track,dbar,grad_evals,epoch,wall_ms"
    buf = io.StringIO()
    metrics.write_trace([], buf)
    assert buf.getvalue() == metrics.TRACE_HEADER + "\n"
    buf = io.StringIO()
    metrics.write_trace(rows_fixture(), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    # ints as str, floats to 17 significant digits
    assert lines[2] == (
        "1,0.10000000000000001,0.00050000000000000001,0.20000000000000001,nan,"
        "0.40000000000000002,10,0.5,1.25"
    )


def test_trace_nan_track_roundtrip():
    buf = io.StringIO()
    metrics.write_trace(rows_fixture(), buf)
    back = metrics.read_trace(io.StringIO(buf.getvalue()))
    assert math.isnan(back[1].track)


def test_trace_rejects_unordered_rows():
    rows = rows_fixture()[::-1]
    with pytest.raises(ValueError, match="ordered"):
        metrics.write_trace(rows, io.StringIO())


def test_trace_jsonl_mirror():
    rows = rows_fixture()[:1] + rows_fixture()[2:]  # keep finite rows only
    csv_buf, jsonl_buf = io.StringIO(), io.StringIO()
    metrics.write_trace(rows, csv_buf, jsonl_sink=jsonl_buf)
    lines = jsonl_buf.getvalue().strip().splitlines()
    assert len(lines) == len(rows)
    first = json.loads(lines[0])
    assert set(first) == set(metrics.TRACE_HEADER.split(","))
    assert first["cost"] == rows[0].cost


def test_read_trace_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        metrics.read_trace(io.StringIO("a,b,c\n"))


def test_read_trace_rejects_a_line_of_the_wrong_width():
    for cells in ("1,2,3", "0,0,0,0,0,0,0,0,0,0"):
        with pytest.raises(ValueError, match="malformed"):
            metrics.read_trace(io.StringIO(metrics.TRACE_HEADER + "\n" + cells + "\n"))
