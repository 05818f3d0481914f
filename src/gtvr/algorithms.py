"""Round engine for GT-VR and the DSGD / DSGT / GT-SAGA baselines.

Every algorithm advances in bulk-synchronous rounds of one skeleton: the
tracked methods run x+ = W(x - eta y) and y+ = W(y + v+ - v) and differ
only in the local estimator that forms v+; DSGD is the same step with
tracking switched off. GT-VR's estimator is the anchored difference

    v_i = grad f_is(x_i) - grad f_is(tau_i) + grad f_i(tau_i),

where the anchor tau_i is refreshed to the current iterate by a
Bernoulli(P) coin each round, so a full local gradient pass costs
P * m_i per round in expectation and the per-round oracle budget is
P * m_i + 2 component evaluations per agent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import MixingMatrix, mix
from .metrics import TraceRow, consensus_gap_D, stationarity_metrics
from .problem import FiniteSumProblem
from .rng import SwarmStreams, make_swarm_streams

ALGORITHMS = ("gtvr", "dsgd", "dsgt", "gtsaga")

DIVERGENCE_NORM_CAP = 1e12


class DivergedError(RuntimeError):
    """An iterate became non-finite or exceeded the norm guard."""


@dataclass
class RunConfig:
    """Tunables of one experiment run."""

    algorithm: str = "gtvr"
    eta: float = 0.1
    p: float = 0.3
    rounds: int = 0
    seed: int = 0
    cadence: int = 1
    timing: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if not self.eta > 0:
            raise ValueError(f"step-size must be positive, got {self.eta}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"refresh probability must lie in (0, 1), got {self.p}")
        if self.rounds < 0:
            raise ValueError(f"round budget must be >= 0, got {self.rounds}")
        if self.cadence < 1:
            raise ValueError(f"metric cadence must be >= 1, got {self.cadence}")


@dataclass
class SwarmState:
    """Stacked per-agent state; row i-1 belongs to agent i.

    Rounds read ``x``/``y``/``v`` as the start-of-round snapshot and swap
    in fresh arrays at the barrier. ``y``/``v`` are None for the
    untracked DSGD. The estimator owns whatever else the local gradient
    estimate needs (GT-VR's anchors, GT-SAGA's tables).
    """

    k: int
    x: np.ndarray
    grad_evals: np.ndarray
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    mix_count: int = 0
    estimator: object = None


def _as_stacked(problem: FiniteSumProblem, x1: np.ndarray) -> np.ndarray:
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (problem.n, problem.d):
        raise ValueError(
            f"initial iterate must have shape ({problem.n}, {problem.d}), got {x1.shape}"
        )
    return x1.copy()


def _check_finite(swarm: SwarmState, k: int) -> None:
    x = swarm.x
    # a NaN or infinite entry makes its row norm NaN or infinite, so one
    # comparison covers both guards
    if not (np.sqrt((x * x).sum(axis=1)) <= DIVERGENCE_NORM_CAP).all():
        raise DivergedError(f"iterate diverged at iteration {k}")
    if swarm.y is not None and not np.isfinite(swarm.y).all():
        raise DivergedError(f"gradient tracker diverged at iteration {k}")


# Local estimators. ``start(problem, x, streams)`` builds the estimator's
# state at x1 and returns the first stacked estimate with its per-agent
# oracle counts; ``step(problem, x, cfg, streams)`` returns the next
# estimate at x and the counts it spent. Each step takes the round's
# coins and indices for all agents at once and calls the batched oracle.


class _StochasticGradient:
    """One sampled component gradient per agent (DSGD untracked, DSGT tracked).

    DSGT seeds its tracker with one draw per agent, so every iteration
    including the first costs exactly one evaluation.
    """

    def start(self, problem, x, streams):
        return self.step(problem, x, None, streams)

    def step(self, problem, x, cfg, streams):
        return problem.component_grads(streams.indices(problem.m), x), 1


class _AnchoredGradient:
    """GT-VR's loopless-SVRG estimator around the anchor ``tau``.

    Starts anchored at x1 with ``g_tau`` the full local gradients there,
    which costs one pass over every sample; afterwards a Bernoulli(P)
    coin moves agent i's anchor to its current iterate (m_i evals).
    """

    def start(self, problem, x, streams):
        self.tau = x.copy()
        self.g_tau = np.stack([problem.local_full_grad(i, x[i - 1]) for i in range(1, problem.n + 1)])
        self._m = np.array(problem.m)
        return self.g_tau.copy(), self._m.copy()

    def step(self, problem, x, cfg, streams):
        refresh = streams.coins(cfg.p)
        # refreshes stay per agent: a batched pass measured no faster
        for idx in refresh.nonzero()[0].tolist():
            self.tau[idx] = x[idx]
            self.g_tau[idx] = problem.local_full_grad(idx + 1, x[idx])
        js = streams.indices(problem.m)
        v = problem.component_grads(js, x) - problem.component_grads(js, self.tau) + self.g_tau
        return v, 2 + refresh * self._m


class _GradientTable:
    """GT-SAGA's estimator: the last gradient of every sample, filled at x1.

    The table is the storage cost the anchored estimator avoids: GT-SAGA
    keeps m_i * d reals per agent where GT-VR keeps d.
    """

    def start(self, problem, x, streams):
        m = np.array(problem.m)
        ends = np.cumsum(m)
        # one stacked (sum m_i, d) table, filled agent by agent so only one
        # agent's table is ever held twice; agent i's rows are ``tables[i - 1]``
        self._table = np.empty((int(ends[-1]), problem.d))
        self.tables = np.split(self._table, ends[:-1])
        for i, table in enumerate(self.tables, start=1):
            table[...] = problem.component_grad_table(i, x[i - 1])
        self.table_mean = np.stack([t.mean(axis=0) for t in self.tables])
        # stacked row of agent i's sample j is _row_base[i - 1] + j
        self._row_base = ends - m - 1
        self._m_column = m[:, None]
        return self.table_mean.copy(), m

    def step(self, problem, x, cfg, streams):
        js = streams.indices(problem.m)
        rows = self._row_base + js
        fresh = problem.component_grads(js, x)
        delta = fresh - self._table.take(rows, axis=0)
        v = delta + self.table_mean
        # running average maintained in O(d); stays within rounding of
        # the recomputed table mean
        self.table_mean += delta / self._m_column
        self._table[rows] = fresh
        return v, 1


_ESTIMATORS = {
    "gtvr": _AnchoredGradient,
    "dsgd": _StochasticGradient,
    "dsgt": _StochasticGradient,
    "gtsaga": _GradientTable,
}


def init_swarm(
    problem: FiniteSumProblem,
    x1: np.ndarray,
    cfg: RunConfig,
    streams: SwarmStreams,
) -> SwarmState:
    """Start state at x1. Tracked algorithms seed tracker and estimate
    with the estimator's first value; DSGD starts with neither."""
    x = _as_stacked(problem, x1)
    estimator = _ESTIMATORS[cfg.algorithm]()
    swarm = SwarmState(k=0, x=x, grad_evals=np.zeros(problem.n, np.int64), estimator=estimator)
    if cfg.algorithm != "dsgd":
        v, evals = estimator.start(problem, x, streams)
        swarm.y, swarm.v = v.copy(), v
        swarm.grad_evals += evals
    return swarm


def run_round(
    swarm: SwarmState,
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfg: RunConfig,
    streams: SwarmStreams,
) -> SwarmState:
    """One synchronous iteration, all agents in one stacked step.

    Tracked: x+ = W(x - eta y), then each agent forms v+ at x+ and
    y+ = W(y + v+ - v), two exchanges. Untracked (DSGD): the estimate at
    x gives x+ = W(x - eta v), one exchange.
    """
    if swarm.y is None:
        v, evals = swarm.estimator.step(problem, swarm.x, cfg, streams)
        swarm.x = mix(mixing, swarm.x - cfg.eta * v)
        swarm.mix_count += 1
    else:
        x_new = mix(mixing, swarm.x - cfg.eta * swarm.y)
        v, evals = swarm.estimator.step(problem, x_new, cfg, streams)
        swarm.y = mix(mixing, swarm.y + v - swarm.v)
        swarm.x, swarm.v = x_new, v
        swarm.mix_count += 2
    swarm.grad_evals += evals
    swarm.k += 1
    _check_finite(swarm, swarm.k)
    return swarm


def run_experiment(
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfg: RunConfig,
    x1: np.ndarray | None = None,
) -> list[TraceRow]:
    """Init plus cfg.rounds iterations, recording metrics at the cadence.

    Deterministic for a fixed seed: every agent draws from its own
    streams. Metric passes evaluate full gradients but never touch the
    oracle counters.
    """
    if mixing.n != problem.n:
        raise ValueError(f"mixing matrix is for {mixing.n} agents, problem has {problem.n}")
    if x1 is None:
        x1 = np.zeros((problem.n, problem.d))
    streams = make_swarm_streams(cfg.seed, problem.n)
    swarm = init_swarm(problem, x1, cfg, streams)

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
        run_round(swarm, problem, mixing, cfg, streams)
        if k % cfg.cadence == 0 or k == cfg.rounds:
            rows.append(record())
    return rows
