"""Microseconds per round and per metric record, for each algorithm.

Times the rounds that ``run_experiments`` runs (``run_round`` and the
divergence guard it applies after each one) and the metric records it
makes (``stationarity_metrics`` and ``consensus_gap_D``) at two fixed
shapes:

- ``quad5``: the acceptance suite's five-agent quadratic (n=5, m=20, d=4)
  on its random graph;
- ``logistic``: ``make_logistic(10, 3256, 123, density=0.11)``, an
  a9a-shaped synthetic problem, on a ring.

Each repetition starts a fresh swarm at zero and times ``--rounds``
guarded rounds, what a run pays per round. It then runs ``RECORD_WIDTH``
more rounds and times a record the way the engine makes one: a single
``stationarity_metrics`` call over the queue of those rounds' states plus
one ``consensus_gap_D`` per state, divided by the queue's length. It
also times ``max(1, rounds // 20)`` records of one state each, a queue of
one. The table gives the minimum over ``--repeats`` repetitions, the
reading least disturbed by other work on the machine.

Below the table it prints the logistic shape's set-up time: building its
``LogisticProblem`` again with ``from_partition`` from a ``RawDataset``
of its rows, what a run pays between parsing and its first round, again
the minimum over ``--repeats`` builds. It checks nothing and never fails
on a timing:

    python3 tools/round_costs.py [--rounds 1000] [--repeats 5]

It imports ``gtvr`` from the ``src/`` next to this script and prints a
Markdown table.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from gtvr import algorithms, graph, ingest, metrics, problem  # noqa: E402

P = 0.3  # GT-VR's refresh probability


def shapes():
    """(name, problem, mixing, eta) for each timed shape."""
    quad = problem.make_quadratic(5, 20, 4, seed=11, noise=0.5)
    quad_mixing = graph.metropolis_weights(graph.build_topology("random", 5, p_edge=0.8, seed=2))
    yield "quad5", quad, quad_mixing, 0.05
    logistic = problem.make_logistic(10, 3256, 123, density=0.11)
    yield "logistic", logistic, graph.metropolis_weights(graph.build_topology("ring", 10)), 0.1


def record(prob, mixing, x, y):
    """The metric records of the states stacked (K, n, d), as the engine
    evaluates a queue of K records."""
    metrics.stationarity_metrics(prob, x, y)
    for state in x:
        metrics.consensus_gap_D(mixing, state)


def repetition(prob, mixing, cfg, rounds):
    """Seconds per round, per record of a full queue and per record of a
    queue of one, over one fresh run."""
    swarm = algorithms.init_swarm(prob, np.zeros((prob.n, prob.d)), cfg)
    start = time.perf_counter()
    for _ in range(rounds):
        algorithms.run_round(swarm, prob, mixing)
        algorithms._diverged(swarm.x, swarm.y, prob.n, swarm.k)
    per_round = (time.perf_counter() - start) / rounds
    states = []
    for _ in range(algorithms.RECORD_WIDTH):
        algorithms.run_round(swarm, prob, mixing)
        states.append((swarm.x, swarm.y))
    xs, ys = zip(*states)
    x, y = np.stack(xs), None if swarm.y is None else np.stack(ys)
    start = time.perf_counter()
    record(prob, mixing, x, y)
    per_queued = (time.perf_counter() - start) / len(x)
    records = max(1, rounds // 20)
    start = time.perf_counter()
    for _ in range(records):
        record(prob, mixing, x[-1:], None if y is None else y[-1:])
    return per_round, per_queued, (time.perf_counter() - start) / records


def setup_seconds(prob, repeats):
    """Seconds to build the logistic ``prob`` from a RawDataset of its rows,
    one agent's rows per part, the minimum over ``repeats`` builds."""
    raw = ingest.RawDataset(prob._rows, prob._label_rows)
    offsets = prob.layout.offsets
    parts = [np.arange(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        problem.LogisticProblem.from_partition(raw, parts, prob.lam1)
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=1000, help="rounds per repetition")
    parser.add_argument("--repeats", type=int, default=5, help="repetitions; the minimum is kept")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be >= 1")
    print(
        f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"{os.cpu_count()} CPUs; minimum of {args.repeats} x {args.rounds} rounds"
    )
    print()
    width = algorithms.RECORD_WIDTH
    print(f"| shape | algorithm | us/round | us/record, queue of {width} | us/record, alone |")
    print("|---|---|---:|---:|---:|")
    logistic = None
    for name, prob, mixing, eta in shapes():
        if isinstance(prob, problem.LogisticProblem):
            logistic = prob
        for algorithm in algorithms.ALGORITHMS:
            cfg = algorithms.RunConfig(algorithm=algorithm, eta=eta, p=P, seed=1)
            runs = [repetition(prob, mixing, cfg, args.rounds) for _ in range(args.repeats)]
            per_round, per_queued, per_record = (min(column) * 1e6 for column in zip(*runs))
            print(
                f"| {name} | {algorithm} | {per_round:.1f} | {per_queued:.1f} | {per_record:.1f} |",
                flush=True,
            )
    print()
    print(
        f"logistic set-up, `LogisticProblem.from_partition` of {logistic.n} x {logistic.m[0]} rows, "
        f"d = {logistic.d}: {setup_seconds(logistic, args.repeats) * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
