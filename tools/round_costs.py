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
``stationarity_metrics`` call and a single ``consensus_gap_D`` call over
the queue of those rounds' states, divided by the queue's length. It
also times ``max(1, rounds // 20)`` records of one state each, a queue of
one. The table gives the minimum over ``--repeats`` repetitions, the
reading least disturbed by other work on the machine.

Below the table it prints the divergence guard ``_diverged`` by itself,
in microseconds per call at each shape's n x d, untracked and tracked:
once on a healthy swarm, which its one sum of squares per state passes,
and once on a swarm whose every row stays under the cap but whose sum of
squares is over the fast bound, which takes the exact per-row check; the
minimum over ``--repeats`` repetitions of ``--rounds`` calls. Next comes
the logistic shape's set-up time: building its
``LogisticProblem`` again with ``from_partition`` from a ``RawDataset``
of its rows, what a run pays between parsing and its first round, again
the minimum over ``--repeats`` builds, and GT-SAGA's start, ``init_swarm`` at
zero, which computes every agent's full local gradient there as the
table mean, the minimum over ``--repeats`` starts. Its memory follows, from fresh
interpreters, the minimum over ``--repeats``: the growth of the
process's peak RSS (VmHWM) over that start and over the first 100
rounds after it, and the rows its table holds then, one per distinct
sample drawn. Then come its two sampled-gradient
oracles, timed by themselves at R = 1 and R = 2 replicas: the cores
``_component_grads`` (one call per DSGD, DSGT and GT-SAGA round) and
``_component_grad_diffs`` (GT-VR's paired difference, one call per round),
in microseconds per call, the minimum over ``--repeats`` repetitions of
``--rounds`` calls at fixed random draws, and GT-VR's anchor refresh, the
core ``_local_full_grads`` over 1 and over 3 agents at fixed random
points, timed the same way. Then the logistic shape's batch with
diverging replicas: 50 rounds at cadence 1 of ``run_experiments`` over
eta 0.1 and three etas of 1e9, which diverge at once and are shed, next to
the eta 0.1 run alone, for gtvr, dsgt and gtsaga, in seconds per run, the
minimum over ``--repeats`` runs of each. Last, the start-up cost
over ``--repeats`` fresh interpreters: the milliseconds and peak RSS of
``import gtvr, gtvr.cli`` and whether ``scipy.sparse`` is loaded after it,
then the same figures after a two-row ``parse_libsvm``, the first sparse
use, which loads scipy; the minimum of each. The peak is Linux's VmHWM,
not ``ru_maxrss``, which keeps the peak of the process that started the
interpreter. It checks nothing and never fails on a timing:

    python3 tools/round_costs.py [--rounds 1000] [--repeats 5]

It imports ``gtvr`` from the ``src/`` next to this script and prints a
Markdown table.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from gtvr import algorithms, graph, ingest, metrics, problem  # noqa: E402

P = 0.3  # GT-VR's refresh probability
# the live run first, then three that diverge in the first rounds
SHED_ETAS = (0.1, 1e9, 1e9, 1e9)
# run by a fresh interpreter: milliseconds, peak RSS in MB and whether
# scipy.sparse is loaded, after the import and after the first parse
STARTUP = r"""
import io, sys, time

def figures(start):
    ms = (time.perf_counter() - start) * 1e3
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(ms, kb / 1024, "scipy.sparse" in sys.modules)

start = time.perf_counter()
import gtvr, gtvr.cli
figures(start)
start = time.perf_counter()
gtvr.parse_libsvm(io.StringIO("1 1:0.5 3:2\n-1 2:1.5\n"))
figures(start)
"""
# run by a fresh interpreter: the VmHWM growth in MB over GT-SAGA's start
# and over its first 100 rounds at the logistic shape, the rows its table
# holds after each, and the rows it could hold
GTSAGA_MEMORY = r"""
import numpy as np
from gtvr import algorithms, graph, problem

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024

prob = problem.make_logistic(10, 3256, 123, density=0.11)
mixing = graph.metropolis_weights(graph.build_topology("ring", 10))
cfg = algorithms.RunConfig(algorithm="gtsaga", eta=0.1, seed=1)
before = peak()
swarm = algorithms.init_swarm(prob, np.zeros((prob.n, prob.d)), cfg)
started, held = peak(), swarm.estimator._held
for _ in range(100):
    algorithms.run_round(swarm, prob, mixing)
print(started - before, peak() - started, held, swarm.estimator._held, prob.total_samples)
"""


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
    metrics.consensus_gap_D(mixing, x)


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


def guard_us(n, d, calls, repeats):
    """Microseconds per ``_diverged`` call on n rows of d entries: untracked
    and tracked, each on a healthy swarm (the fast path) and on one whose
    rows sit at 0.9 times the cap (the exact check); every call passes."""
    gen = np.random.default_rng(n * d)
    healthy, tracker, rows = gen.normal(size=(3, n, d))
    over = rows / np.hypot.reduce(rows, axis=1)[:, None] * (0.9 * algorithms.DIVERGENCE_NORM_CAP)
    states = ((healthy, None), (over, None), (healthy, tracker), (over, tracker))
    return [us_per_call(lambda: algorithms._diverged(x, y, n, 1), calls, repeats) for x, y in states]


def setup_seconds(prob, repeats):
    """Seconds to build the logistic ``prob`` from a RawDataset of its rows,
    one agent's rows per part, the minimum over ``repeats`` builds."""
    # the problem holds each row times its label; a second multiply gives the data back
    rows = prob._rows.copy()
    rows.data *= np.repeat(prob._label_rows, np.diff(rows.indptr))
    raw = ingest.RawDataset(rows, prob._label_rows)
    offsets = prob.layout.offsets
    parts = [np.arange(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        problem.LogisticProblem.from_partition(raw, parts, prob.lam1)
        times.append(time.perf_counter() - start)
    return min(times)


def gtsaga_start_ms(prob, repeats):
    """Milliseconds of a GT-SAGA ``init_swarm`` at zero on ``prob``, the
    minimum over ``repeats`` starts."""
    x1 = np.zeros((prob.n, prob.d))
    cfg = algorithms.RunConfig(algorithm="gtsaga", eta=0.1, seed=1)
    return us_per_call(lambda: algorithms.init_swarm(prob, x1, cfg), 1, repeats) / 1e3


def fresh_runs(script, repeats):
    """The whitespace-split output lines of ``script``, once per each of
    ``repeats`` fresh interpreters that import ``gtvr`` from ``SRC``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    runs = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        ).stdout
        runs.append([line.split() for line in out.splitlines()])
    return runs


def startup(repeats):
    """For ``import gtvr, gtvr.cli`` and then a first ``parse_libsvm``:
    milliseconds and peak RSS in MB, each the minimum over ``repeats``
    fresh interpreters, and whether scipy.sparse was loaded after it."""
    runs = fresh_runs(STARTUP, repeats)
    return [
        (min(float(r[step][0]) for r in runs), min(float(r[step][1]) for r in runs), runs[0][step][2])
        for step in range(2)
    ]


def us_per_call(call, calls, repeats):
    """Microseconds per ``call()``, the minimum over ``repeats`` repetitions
    of ``calls`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        times.append((time.perf_counter() - start) / calls)
    return min(times) * 1e6


def sampled_oracle_us(prob, replicas, calls, repeats):
    """Microseconds per ``_component_grads`` and per ``_component_grad_diffs``
    call of ``prob`` over ``replicas`` replicas."""
    gen = np.random.default_rng(replicas)
    js = np.concatenate([gen.integers(1, prob.layout.sizes + 1) for _ in range(replicas)])
    rows = np.tile(prob.layout.base, replicas) + js
    X, T = gen.normal(size=(2, replicas * prob.n, prob.d))
    return [
        us_per_call(lambda: prob._component_grads(rows, X), calls, repeats),
        us_per_call(lambda: prob._component_grad_diffs(rows, X, T), calls, repeats),
    ]


def refresh_us(prob, agents, calls, repeats):
    """Microseconds per ``_local_full_grads`` call of ``prob`` over its first
    ``agents`` agent slots, at fixed random points."""
    slots = np.arange(agents)
    X = np.random.default_rng(agents).normal(size=(agents, prob.d))
    return us_per_call(lambda: prob._local_full_grads(slots, X), calls, repeats)


def timed_run(prob, mixing, cfgs):
    """Seconds for ``run_experiments`` of ``cfgs``, and the error it returns."""
    start = time.perf_counter()
    _, error = algorithms.run_experiments(prob, mixing, cfgs)
    return time.perf_counter() - start, error


def shed_seconds(prob, mixing, algorithm, repeats):
    """Seconds per 50-round run at cadence 1 of the ``SHED_ETAS`` batch and
    of its first run alone, each the minimum over ``repeats`` alternating
    runs, and the error the batch returns."""
    base = algorithms.RunConfig(algorithm=algorithm, p=P, rounds=50, seed=1)
    cfgs = [dataclasses.replace(base, eta=eta) for eta in SHED_ETAS]
    runs = [(timed_run(prob, mixing, cfgs), timed_run(prob, mixing, cfgs[:1])) for _ in range(repeats)]
    batch, alone = zip(*runs)
    return min(t for t, _ in batch), min(t for t, _ in alone), batch[0][1]


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
    logistic, guards = None, {}
    for name, prob, mixing, eta in shapes():
        guards[f"{name} ({prob.n} x {prob.d})"] = guard_us(prob.n, prob.d, args.rounds, args.repeats)
        if isinstance(prob, problem.LogisticProblem):
            logistic, logistic_mixing = prob, mixing
        for algorithm in algorithms.ALGORITHMS:
            cfg = algorithms.RunConfig(algorithm=algorithm, eta=eta, p=P, seed=1)
            runs = [repetition(prob, mixing, cfg, args.rounds) for _ in range(args.repeats)]
            per_round, per_queued, per_record = (min(column) * 1e6 for column in zip(*runs))
            print(
                f"| {name} | {algorithm} | {per_round:.1f} | {per_queued:.1f} | {per_record:.1f} |",
                flush=True,
            )
    print()
    states = ("untracked, healthy", "untracked, over the bound", "tracked, healthy", "tracked, over the bound")
    print("| `_diverged`, us/call | " + " | ".join(states) + " |")
    print("|---|---:|---:|---:|---:|")
    for name, timed in guards.items():
        print(f"| {name} | " + " | ".join(f"{us:.2f}" for us in timed) + " |")
    print()
    print(
        f"logistic set-up, `LogisticProblem.from_partition` of {logistic.n} x {logistic.m[0]} rows, "
        f"d = {logistic.d}: {setup_seconds(logistic, args.repeats) * 1e3:.2f} ms"
    )
    print()
    print(f"logistic GT-SAGA start, `init_swarm` at zero: {gtsaga_start_ms(logistic, args.repeats):.2f} ms")
    print()
    runs = [[float(v) for v in run[0]] for run in fresh_runs(GTSAGA_MEMORY, args.repeats)]
    start_mb, rounds_mb, started, held, total = (min(column) for column in zip(*runs))
    print("| logistic GT-SAGA, fresh interpreters | VmHWM growth, MB | table rows held |")
    print("|---|---:|---:|")
    print(f"| `init_swarm` at zero | {start_mb:.1f} | {started:.0f} of {total:.0f} |")
    print(f"| its first 100 rounds | {rounds_mb:.1f} | {held:.0f} of {total:.0f} |")
    print()
    timed = {r: sampled_oracle_us(logistic, r, args.rounds, args.repeats) for r in (1, 2)}
    print("| logistic sampled oracle, us/call | R = 1 | R = 2 |")
    print("|---|---:|---:|")
    for column, name in enumerate(("_component_grads", "_component_grad_diffs")):
        print(f"| `{name}` | {timed[1][column]:.1f} | {timed[2][column]:.1f} |")
    print()
    refresh = {k: refresh_us(logistic, k, args.rounds, args.repeats) for k in (1, 3)}
    print("| logistic anchor refresh, us/call | 1 agent | 3 agents |")
    print("|---|---:|---:|")
    print(f"| `_local_full_grads` | {refresh[1]:.1f} | {refresh[3]:.1f} |")
    print()
    etas = " + ".join(f"{eta:g}" for eta in SHED_ETAS)
    print(
        f"| logistic batch of eta {etas}, 50 rounds at cadence 1 | batch, s "
        f"| eta {SHED_ETAS[0]:g} alone, s | batch error |"
    )
    print("|---|---:|---:|---|")
    for algorithm in ("gtvr", "dsgt", "gtsaga"):
        batch, alone, error = shed_seconds(logistic, logistic_mixing, algorithm, args.repeats)
        print(f"| {algorithm} | {batch:.3f} | {alone:.3f} | {error} |", flush=True)
    print()
    print("| start-up, fresh interpreters | ms | peak RSS, MB | `scipy.sparse` loaded |")
    print("|---|---:|---:|---|")
    steps = ("`import gtvr, gtvr.cli`", "then a first `parse_libsvm`")
    for step, (ms, mb, loaded) in zip(steps, startup(args.repeats)):
        print(f"| {step} | {ms:.1f} | {mb:.1f} | {loaded} |")


if __name__ == "__main__":
    main()
