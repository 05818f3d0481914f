"""One SHA-256 over timing-free traces, final swarm states and theory reports.

A change that must not alter what a run computes (its coins, indices,
oracle arithmetic, mixing or metric passes) prints the same hash as its
parent. Run it from each checkout and compare the lines:

    python3 tools/trace_fingerprint.py

It imports ``gtvr`` from the ``src/`` next to this script, so each
checkout hashes its own code. Covered, for the four algorithms on each
instance and seeds 1 and 7:

- the CSV trace of a 150-round run from zero, metrics every 7 rounds;
- x, y, v, ``grad_evals`` and ``mix_count`` after 60 rounds from a
  seeded random start;

on a quadratic (n=5, m=20, d=4), a quadratic with m = (7, 20, 1, 13), a
logistic (n=6, m=30, d=12) and a normalized 7-agent LIBSVM-style
partition of 203 rows; plus the text and JSON of ``build_report`` on
five fixed inputs.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from gtvr import algorithms, graph, ingest, metrics, problem, theory  # noqa: E402

SEEDS = (1, 7)
TRACE_ROUNDS = 150
STATE_ROUNDS = 60
CADENCE = 7

REPORTS = [
    dict(rho=0.4, lipschitz=2.0, p=0.95, n=6, total_samples=600),
    dict(rho=0.5, lipschitz=3.5, p=0.3, n=10, total_samples=32561, eta=0.1),
    dict(rho=0.0, lipschitz=1.0, p=0.5, n=4, total_samples=100),
    dict(rho=0.9, lipschitz=1.0, p=0.5, n=4, total_samples=100),
    dict(
        rho=0.3, lipschitz=2.0, p=0.8, n=5, total_samples=100, eta=0.01,
        neighbor_counts=[2] * 5, epsilon=1e-3, f_gap=1.0, r0=0.5,
    ),
]


def unequal_quadratic() -> problem.QuadraticProblem:
    gen = np.random.default_rng(11)
    sizes = (7, 20, 1, 13)
    return problem.QuadraticProblem(
        [gen.normal(size=(m, 4)) / 2.0 for m in sizes], [gen.normal(size=m) for m in sizes]
    )


def partitioned_logistic() -> problem.LogisticProblem:
    gen = np.random.default_rng(5)
    rows, d = 203, 15
    mask = gen.random((rows, d)) < 0.3
    mask[np.arange(rows), gen.integers(d, size=rows)] = True
    features = sp.csr_matrix(np.where(mask, gen.normal(size=(rows, d)), 0.0))
    raw = ingest.RawDataset(features, np.where(gen.random(rows) < 0.5, 1.0, -1.0))
    return problem.LogisticProblem.from_partition(raw, ingest.partition(raw, 7, seed=3), 1e-3, normalize=True)


def instances():
    yield "quadratic", problem.make_quadratic(5, 20, 4, seed=2), 0.05
    yield "quadratic-unequal", unequal_quadratic(), 0.02
    yield "logistic", problem.make_logistic(6, 30, 12, seed=3), 0.2
    yield "partition", partitioned_logistic(), 0.2


def arrays(*values) -> bytes:
    return b"".join(b"-" if v is None else np.ascontiguousarray(v).tobytes() for v in values)


def fingerprint() -> str:
    digest = hashlib.sha256()
    for name, prob, eta in instances():
        mixing = graph.metropolis_weights(graph.build_topology("ring", prob.n))
        for algorithm in algorithms.ALGORITHMS:
            for seed in SEEDS:
                digest.update(f"{name}/{algorithm}/{seed}\n".encode())
                cfg = algorithms.RunConfig(
                    algorithm=algorithm, eta=eta, p=0.3, rounds=TRACE_ROUNDS,
                    seed=seed, cadence=CADENCE, timing=False,
                )
                buf = io.StringIO()
                metrics.write_trace(algorithms.run_experiment(prob, mixing, cfg), buf)
                digest.update(buf.getvalue().encode())
                x1 = np.random.default_rng(seed).normal(size=(prob.n, prob.d))
                swarm = algorithms.init_swarm(prob, x1, cfg)
                for _ in range(STATE_ROUNDS):
                    algorithms.run_round(swarm, prob, mixing, cfg)
                digest.update(arrays(swarm.x, swarm.y, swarm.v, swarm.grad_evals))
                digest.update(f"{swarm.k} {swarm.mix_count}\n".encode())
    for kwargs in REPORTS:
        report = theory.build_report(**kwargs)
        digest.update((report.to_text() + "\n" + report.to_json() + "\n").encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
