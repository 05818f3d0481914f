"""Reference oracle: the per-agent round engine as four init/round pairs.

This is the engine ``gtvr.algorithms`` replaced with one round skeleton
and pluggable local estimators, kept verbatim apart from the per-round
thread pool (agents are updated in order). Differential tests run both
engines on the same seeds and require identical traces and state.
The metric pass is the per-agent one that batched
``local_costs_and_grads`` replaced, also kept verbatim. The per-sample
gradient and the per-agent cost and gradient come from
``reference_problem`` and the scalar draws from ``reference_rng``. Only
the shared primitives (mixing, the trace row and the consensus gap) come
from the package under test. Each agent's streams are its own generators
from ``helpers.scalar_streams``, built from the documented spawn keys, so
the reference shares no stream object with the engine it checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gtvr.algorithms import DIVERGENCE_NORM_CAP, DivergedError, RunConfig
from gtvr.graph import MixingMatrix, mix
from gtvr.metrics import TraceRow, consensus_gap_D
from gtvr.problem import FiniteSumProblem
from helpers import ScalarStreams, scalar_streams
from reference_problem import component_grad, local_cost, local_full_grad
from reference_rng import draw_bernoulli, draw_index


@dataclass
class SwarmState:
    """Stacked per-agent state; row i-1 belongs to agent i.

    ``tables``/``table_mean`` exist only for GT-SAGA and ``g_last`` only
    for DSGT.
    """

    k: int
    x: np.ndarray
    grad_evals: np.ndarray
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    tau: np.ndarray | None = None
    g_tau: np.ndarray | None = None
    g_last: np.ndarray | None = None
    tables: list[np.ndarray] | None = None
    table_mean: np.ndarray | None = None
    mix_count: int = 0


def _as_stacked(problem: FiniteSumProblem, x1: np.ndarray) -> np.ndarray:
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (problem.n, problem.d):
        raise ValueError(
            f"initial iterate must have shape ({problem.n}, {problem.d}), got {x1.shape}"
        )
    return x1.copy()


def _check_finite(swarm: SwarmState, k: int) -> None:
    x = swarm.x
    if not np.isfinite(x).all() or (np.linalg.norm(x, axis=1) > DIVERGENCE_NORM_CAP).any():
        raise DivergedError(f"iterate diverged at iteration {k}")
    if swarm.y is not None and not np.isfinite(swarm.y).all():
        raise DivergedError(f"gradient tracker diverged at iteration {k}")


def global_cost_and_grad(problem: FiniteSumProblem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Cost and gradient of the network average f at a single point x."""
    x = np.asarray(x, dtype=float)
    cost = 0.0
    grad = np.zeros(problem.d)
    for i in range(1, problem.n + 1):
        cost += local_cost(problem, i, x)
        grad += local_full_grad(problem, i, x)
    return cost / problem.n, grad / problem.n


def stationarity_metrics(
    problem: FiniteSumProblem,
    swarm: SwarmState,
) -> tuple[float, float, float, float]:
    """(cost, stat, cons, track) at the current mean iterate.

    ``track`` compares each tracker y_i to the local gradient at xbar,
    i.e. to the stacked gradient the tracking analysis bounds; it is NaN
    for algorithms that carry no tracker. Read-only on the swarm.
    """
    xbar = swarm.x.mean(axis=0)
    cost, grad = global_cost_and_grad(problem, xbar)
    stat = float(grad @ grad)
    dev = swarm.x - xbar
    cons = float(np.sum(dev * dev))
    if swarm.y is None:
        track = float("nan")
    else:
        track = 0.0
        for i in range(1, problem.n + 1):
            diff = swarm.y[i - 1] - local_full_grad(problem, i, xbar)
            track += float(diff @ diff)
    return cost, stat, cons, track


def _map_agents(fn, n: int) -> list:
    return [fn(i) for i in range(1, n + 1)]


def vr_gradient_estimate(
    problem: FiniteSumProblem,
    i: int,
    j: int,
    x_i: np.ndarray,
    tau_i: np.ndarray,
    g_tau_i: np.ndarray,
) -> np.ndarray:
    """Anchored stochastic gradient of agent i at sample j (two evals)."""
    return component_grad(problem, i, j, x_i) - component_grad(problem, i, j, tau_i) + g_tau_i


def init_gtvr(problem: FiniteSumProblem, x1: np.ndarray, cfg: RunConfig) -> SwarmState:
    """Anchor at the start point; tracker and estimator hold the full
    local gradients there, which costs one pass over every sample."""
    x = _as_stacked(problem, x1)
    g = np.stack([local_full_grad(problem, i, x[i - 1]) for i in range(1, problem.n + 1)])
    return SwarmState(
        k=0,
        x=x,
        y=g.copy(),
        v=g.copy(),
        tau=x.copy(),
        g_tau=g.copy(),
        grad_evals=np.array(problem.m, dtype=np.int64),
    )


def gtvr_round(
    swarm: SwarmState,
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfg: RunConfig,
    streams: Sequence[ScalarStreams],
) -> SwarmState:
    """One synchronous iteration of the tracked variance-reduced method."""
    x_new = mix(mixing, swarm.x - cfg.eta * swarm.y)

    def update(i: int) -> tuple:
        idx = i - 1
        x_i = x_new[idx]
        m_i = problem.m[idx]
        if draw_bernoulli(streams[idx].bernoulli, cfg.p):
            tau_i = x_i.copy()
            g_tau_i = local_full_grad(problem, i, x_i)
            evals = m_i + 2
        else:
            tau_i = swarm.tau[idx]
            g_tau_i = swarm.g_tau[idx]
            evals = 2
        j = draw_index(streams[idx].index, m_i)
        v_i = vr_gradient_estimate(problem, i, j, x_i, tau_i, g_tau_i)
        return tau_i, g_tau_i, v_i, evals

    results = _map_agents(update, problem.n)
    tau_new = np.stack([r[0] for r in results])
    g_tau_new = np.stack([r[1] for r in results])
    v_new = np.stack([r[2] for r in results])
    y_new = mix(mixing, swarm.y + v_new - swarm.v)

    swarm.x, swarm.y, swarm.v = x_new, y_new, v_new
    swarm.tau, swarm.g_tau = tau_new, g_tau_new
    swarm.grad_evals += np.array([r[3] for r in results], dtype=np.int64)
    swarm.k += 1
    swarm.mix_count += 2
    _check_finite(swarm, swarm.k)
    return swarm


def init_dsgd(problem: FiniteSumProblem, x1: np.ndarray, cfg: RunConfig) -> SwarmState:
    return SwarmState(k=0, x=_as_stacked(problem, x1), grad_evals=np.zeros(problem.n, np.int64))


def dsgd_round(
    swarm: SwarmState,
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfg: RunConfig,
    streams: Sequence[ScalarStreams],
) -> SwarmState:
    """Adapt-then-combine stochastic gradient step, one eval per agent."""

    def update(i: int) -> tuple:
        idx = i - 1
        j = draw_index(streams[idx].index, problem.m[idx])
        return (component_grad(problem, i, j, swarm.x[idx]),)

    grads = np.stack([r[0] for r in _map_agents(update, problem.n)])
    swarm.x = mix(mixing, swarm.x - cfg.eta * grads)
    swarm.grad_evals += 1
    swarm.k += 1
    swarm.mix_count += 1
    _check_finite(swarm, swarm.k)
    return swarm


def init_dsgt(
    problem: FiniteSumProblem,
    x1: np.ndarray,
    cfg: RunConfig,
    streams: Sequence[ScalarStreams],
) -> SwarmState:
    """Tracker seeded with one stochastic gradient per agent, so every
    iteration including the first costs exactly one evaluation."""
    x = _as_stacked(problem, x1)
    g = np.stack(
        [
            component_grad(problem, i, draw_index(streams[i - 1].index, problem.m[i - 1]), x[i - 1])
            for i in range(1, problem.n + 1)
        ]
    )
    return SwarmState(
        k=0,
        x=x,
        y=g.copy(),
        g_last=g,
        grad_evals=np.ones(problem.n, dtype=np.int64),
    )


def dsgt_round(
    swarm: SwarmState,
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfg: RunConfig,
    streams: Sequence[ScalarStreams],
) -> SwarmState:
    """Stochastic gradient tracking without variance reduction."""
    x_new = mix(mixing, swarm.x - cfg.eta * swarm.y)

    def update(i: int) -> tuple:
        idx = i - 1
        j = draw_index(streams[idx].index, problem.m[idx])
        return (component_grad(problem, i, j, x_new[idx]),)

    g_new = np.stack([r[0] for r in _map_agents(update, problem.n)])
    swarm.y = mix(mixing, swarm.y + g_new - swarm.g_last)
    swarm.x, swarm.g_last = x_new, g_new
    swarm.grad_evals += 1
    swarm.k += 1
    swarm.mix_count += 2
    _check_finite(swarm, swarm.k)
    return swarm


def init_gtsaga(problem: FiniteSumProblem, x1: np.ndarray, cfg: RunConfig) -> SwarmState:
    """Gradient table filled at the start point (m_i evals per agent): each
    row the sample's gradient at x1, and their mean the full local gradient.

    The table is the storage cost the anchored estimator avoids: GT-SAGA
    keeps m_i * d reals per agent where GT-VR keeps d.
    """
    x = _as_stacked(problem, x1)
    agents = range(1, problem.n + 1)
    tables = [
        np.stack([component_grad(problem, i, j, x[i - 1]) for j in range(1, problem.m[i - 1] + 1)])
        for i in agents
    ]
    v = np.stack([local_full_grad(problem, i, x[i - 1]) for i in agents])
    return SwarmState(
        k=0,
        x=x,
        y=v.copy(),
        v=v.copy(),
        tables=tables,
        table_mean=v.copy(),
        grad_evals=np.array(problem.m, dtype=np.int64),
    )


def gt_saga_round(
    swarm: SwarmState,
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfg: RunConfig,
    streams: Sequence[ScalarStreams],
) -> SwarmState:
    """Table-based variance reduction with gradient tracking."""
    x_new = mix(mixing, swarm.x - cfg.eta * swarm.y)

    def update(i: int) -> tuple:
        idx = i - 1
        j = draw_index(streams[idx].index, problem.m[idx])
        fresh = component_grad(problem, i, j, x_new[idx])
        table = swarm.tables[idx]
        old = table[j - 1].copy()
        v_i = fresh - old + swarm.table_mean[idx]
        # running average maintained in O(d); stays within rounding of the
        # recomputed table mean
        swarm.table_mean[idx] += (fresh - old) / problem.m[idx]
        table[j - 1] = fresh
        return (v_i,)

    v_new = np.stack([r[0] for r in _map_agents(update, problem.n)])
    swarm.y = mix(mixing, swarm.y + v_new - swarm.v)
    swarm.x, swarm.v = x_new, v_new
    swarm.grad_evals += 1
    swarm.k += 1
    swarm.mix_count += 2
    _check_finite(swarm, swarm.k)
    return swarm


ROUND_FNS = {
    "gtvr": gtvr_round,
    "dsgd": dsgd_round,
    "dsgt": dsgt_round,
    "gtsaga": gt_saga_round,
}


def init_swarm(
    problem: FiniteSumProblem,
    x1: np.ndarray,
    cfg: RunConfig,
    streams: Sequence[ScalarStreams],
) -> SwarmState:
    if cfg.algorithm == "gtvr":
        return init_gtvr(problem, x1, cfg)
    if cfg.algorithm == "dsgd":
        return init_dsgd(problem, x1, cfg)
    if cfg.algorithm == "dsgt":
        return init_dsgt(problem, x1, cfg, streams)
    return init_gtsaga(problem, x1, cfg)


def run_experiment(
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfg: RunConfig,
    x1: np.ndarray | None = None,
) -> list[TraceRow]:
    """Init plus cfg.rounds iterations, recording metrics at the cadence."""
    if mixing.n != problem.n:
        raise ValueError(f"mixing matrix is for {mixing.n} agents, problem has {problem.n}")
    if x1 is None:
        x1 = np.zeros((problem.n, problem.d))
    streams = scalar_streams(cfg.seed, problem.n)
    swarm = init_swarm(problem, x1, cfg, streams)
    round_fn = ROUND_FNS[cfg.algorithm]

    start = time.perf_counter()

    def record() -> TraceRow:
        cost, stat, cons, track = stationarity_metrics(problem, swarm)
        wall = (time.perf_counter() - start) * 1e3 if cfg.timing else 0.0
        evals = int(swarm.grad_evals.sum())
        return TraceRow(
            k=swarm.k,
            cost=cost,
            stat=stat,
            cons=cons,
            track=track,
            dbar=consensus_gap_D(mixing, swarm.x),
            grad_evals=evals,
            epoch=evals / problem.total_samples,
            wall_ms=wall,
        )

    rows = [record()]
    for k in range(1, cfg.rounds + 1):
        round_fn(swarm, problem, mixing, cfg, streams)
        if k % cfg.cadence == 0 or k == cfg.rounds:
            rows.append(record())
    return rows
