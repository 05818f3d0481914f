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

Runs of one problem and graph that differ only in eta and P advance as
one batch of R replicas (``run_experiments``): the stacked state gains a
leading replica axis, every replica draws the coins and indices its own
run would, and one round of the skeleton moves them all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .graph import MixingMatrix, mix
from .metrics import TraceRow, consensus_gap_D, stationarity_metrics
from .problem import FiniteSumProblem
from .rng import SwarmStreams

DIVERGENCE_NORM_CAP = 1e12


class DivergedError(RuntimeError):
    """An iterate became non-finite or exceeded the norm guard.

    ``replica`` is the lowest replica of the batch that diverged at that
    iteration; a single run is replica 0.
    """

    def __init__(self, message: str, replica: int = 0) -> None:
        super().__init__(message)
        self.replica = replica


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
        if not 0 < self.eta < np.inf:
            raise ValueError(f"step-size must be positive and finite, got {self.eta}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"refresh probability must lie in (0, 1), got {self.p}")
        if self.rounds < 0:
            raise ValueError(f"round budget must be >= 0, got {self.rounds}")
        if self.cadence < 1:
            raise ValueError(f"metric cadence must be >= 1, got {self.cadence}")


@dataclass
class SwarmState:
    """Stacked per-agent state of R replicas, replica-major: row r*n + i - 1
    belongs to replica r's agent i (a single run is R = 1).

    Rounds read ``x``/``y``/``v`` as the start-of-round snapshot and swap
    in fresh arrays at the barrier. ``y``/``v`` are None for the
    untracked DSGD. ``eta`` is the column of each row's step-size. The
    estimator owns whatever else the local gradient estimate needs
    (GT-VR's anchors, GT-SAGA's tables); ``streams`` hands it the round's
    coins and indices.
    """

    k: int
    x: np.ndarray
    grad_evals: np.ndarray
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    mix_count: int = 0
    eta: np.ndarray | None = None
    estimator: object = None
    streams: SwarmStreams | None = None


def _as_stacked(problem: FiniteSumProblem, x1: np.ndarray, replicas: int) -> np.ndarray:
    """x1, checked, as a fresh array with one copy per replica."""
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (problem.n, problem.d):
        raise ValueError(
            f"initial iterate must have shape ({problem.n}, {problem.d}), got {x1.shape}"
        )
    return np.tile(x1, (replicas, 1))


def _check_finite(swarm: SwarmState, k: int, n: int) -> None:
    # a NaN or infinite entry makes its row norm NaN or infinite, so one
    # comparison covers both guards; hypot forms the norm without squaring,
    # so an entry too large to square reads as diverged, with no warning
    x_ok = np.hypot.reduce(swarm.x, axis=1) <= DIVERGENCE_NORM_CAP
    if x_ok.all() and (swarm.y is None or np.isfinite(swarm.y).all()):
        return
    # the lowest replica with a bad row, with the message its own run raises
    x_bad = ~x_ok.reshape(-1, n).all(axis=1)
    y_bad = x_bad if swarm.y is None else ~np.isfinite(swarm.y.reshape(len(x_bad), -1)).all(axis=1)
    replica = int((x_bad | y_bad).argmax())
    state = "iterate" if x_bad[replica] else "gradient tracker"
    raise DivergedError(f"{state} diverged at iteration {k}", replica)


# Local estimators. ``start(problem, x, streams)`` builds the estimator's
# state at x, which is x1 once per replica, and returns the first stacked
# estimate with its per-row oracle counts; ``step(problem, x, streams)``
# returns the next estimate at x and the counts it spent. Each step takes
# the round's coins and indices for all rows at once and calls the
# batched oracle.


def _per_replica(values: np.ndarray, replicas: int) -> np.ndarray:
    """Per-agent ``values``, stacked once for each replica."""
    return np.tile(values, (replicas,) + (1,) * (values.ndim - 1))


class _StochasticGradient:
    """One sampled component gradient per agent (DSGD untracked, DSGT tracked).

    DSGT seeds its tracker with one draw per agent, so every iteration
    including the first costs exactly one evaluation.
    """

    def start(self, problem, x, streams):
        return self.step(problem, x, streams)

    def step(self, problem, x, streams):
        return problem.component_grads(streams.indices(), x), 1


class _AnchoredGradient:
    """GT-VR's loopless-SVRG estimator around the anchor ``tau``.

    Starts anchored at x1 with ``g_tau`` the full local gradients there,
    which costs one pass over every sample (made once and shared by the
    replicas); afterwards a Bernoulli(P) coin moves each row's anchor to
    its current iterate (m_i evals).
    """

    def start(self, problem, x, streams):
        replicas = len(x) // problem.n
        agents = np.arange(1, problem.n + 1)
        self.tau = x.copy()
        self.g_tau = _per_replica(problem.local_full_grads(agents, x[: problem.n]), replicas)
        self._agents = _per_replica(agents, replicas)
        self._sizes = _per_replica(problem.layout.sizes, replicas)
        return self.g_tau.copy(), self._sizes

    def step(self, problem, x, streams):
        # one oracle call for every coin-selected row, then one for the
        # paired difference, however many rows refresh
        refresh = streams.coins()
        rows = refresh.nonzero()[0]
        fresh = x[rows]
        self.tau[rows] = fresh
        self.g_tau[rows] = problem.local_full_grads(self._agents[rows], fresh)
        v = problem.component_grad_diffs(streams.indices(), x, self.tau) + self.g_tau
        return v, 2 + refresh * self._sizes


class _GradientTable:
    """GT-SAGA's estimator: the last gradient of every sample, filled at x1.

    The table is the storage cost the anchored estimator avoids: GT-SAGA
    keeps m_i * d reals per agent where GT-VR keeps d.
    """

    def start(self, problem, x, streams):
        # one (sum m_i, d) block per replica in the problem's row layout;
        # the first is filled agent by agent, so only one agent's table is
        # ever held twice, and copied into the others. Row r*n + i - 1 of
        # the state owns ``tables[r*n + i - 1]``
        replicas, total = len(x) // problem.n, problem.total_samples
        self._table = np.empty((replicas * total, problem.d))
        starts = range(0, len(self._table), total)
        blocks = [self._table[lo : lo + total] for lo in starts]
        self.tables = [table for block in blocks for table in problem.layout.views(block)]
        for i, table in enumerate(self.tables[: problem.n], start=1):
            table[...] = problem.component_grad_table(i, x[i - 1])
        for block in blocks[1:]:
            block[...] = blocks[0]
        mean = np.stack([t.mean(axis=0) for t in self.tables[: problem.n]])
        self.table_mean = _per_replica(mean, replicas)
        self._base = (np.array(starts)[:, None] + problem.layout.base).ravel()
        sizes = _per_replica(problem.layout.sizes, replicas)
        self._m_column = sizes[:, None]
        return self.table_mean.copy(), sizes

    def step(self, problem, x, streams):
        js = streams.indices()
        rows = self._base + js
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
ALGORITHMS = tuple(_ESTIMATORS)


def _batch(cfg: RunConfig | Sequence[RunConfig]) -> list[RunConfig]:
    """The configs of a batch, checked to differ in nothing but eta and p."""
    cfgs = [cfg] if isinstance(cfg, RunConfig) else list(cfg)
    if not cfgs:
        raise ValueError("a batch needs at least one run config")
    shared = [f.name for f in fields(RunConfig) if f.name not in ("eta", "p")]
    for other in cfgs[1:]:
        differ = [name for name in shared if getattr(other, name) != getattr(cfgs[0], name)]
        if differ:
            raise ValueError(
                f"the runs of a batch may differ only in eta and p, got different {', '.join(differ)}"
            )
    return cfgs


def init_swarm(
    problem: FiniteSumProblem, x1: np.ndarray, cfg: RunConfig | Sequence[RunConfig]
) -> SwarmState:
    """Start state at x1 for one run, or for a batch of R runs (replica r
    from ``cfg[r]``) that differ only in eta and p, with each row's eta
    and the streams built from the seed, the m_i and the values of p.
    Tracked algorithms seed tracker and estimate with the estimator's
    first value; DSGD starts with neither."""
    cfgs = _batch(cfg)
    cfg = cfgs[0]
    x = _as_stacked(problem, x1, len(cfgs))
    estimator = _ESTIMATORS[cfg.algorithm]()
    streams = SwarmStreams(cfg.seed, problem.m, [c.p for c in cfgs])
    eta = np.repeat([c.eta for c in cfgs], problem.n)[:, None]
    swarm = SwarmState(
        k=0, x=x, grad_evals=np.zeros(len(x), np.int64), eta=eta, estimator=estimator, streams=streams
    )
    if cfg.algorithm != "dsgd":
        v, evals = estimator.start(problem, x, streams)
        swarm.y, swarm.v = v.copy(), v
        swarm.grad_evals += evals
    return swarm


def run_round(swarm: SwarmState, problem: FiniteSumProblem, mixing: MixingMatrix) -> SwarmState:
    """One synchronous iteration, all replicas' agents in one stacked step,
    each row with its step-size ``swarm.eta``.

    Tracked: x+ = W(x - eta y), then each agent forms v+ at x+ and
    y+ = W(y + v+ - v), two exchanges. Untracked (DSGD): the estimate at
    x gives x+ = W(x - eta v), one exchange.
    """
    if swarm.y is None:
        v, evals = swarm.estimator.step(problem, swarm.x, swarm.streams)
        swarm.x = mix(mixing, swarm.x - swarm.eta * v)
        swarm.mix_count += 1
    else:
        x_new = mix(mixing, swarm.x - swarm.eta * swarm.y)
        v, evals = swarm.estimator.step(problem, x_new, swarm.streams)
        swarm.y = mix(mixing, swarm.y + v - swarm.v)
        swarm.x, swarm.v = x_new, v
        swarm.mix_count += 2
    swarm.grad_evals += evals
    swarm.k += 1
    _check_finite(swarm, swarm.k, problem.n)
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
    return run_experiments(problem, mixing, [cfg], x1)[0]


def run_experiments(
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfgs: Sequence[RunConfig],
    x1: np.ndarray | None = None,
) -> list[list[TraceRow]]:
    """``run_experiment`` for runs that differ only in eta and p, as one batch.

    The R runs share one seed, hence their draws, and advance in one
    stacked round per iteration. Trace r equals run_experiment(problem,
    mixing, cfgs[r], x1), except that ``wall_ms`` counts from the start of
    the batch, read once per record for every replica. A divergence raises
    for the lowest replica that diverged in that iteration, with the
    message its own run would raise, and names it in
    ``DivergedError.replica``.
    """
    if mixing.n != problem.n:
        raise ValueError(f"mixing matrix is for {mixing.n} agents, problem has {problem.n}")
    if x1 is None:
        x1 = np.zeros((problem.n, problem.d))
    swarm = init_swarm(problem, x1, cfgs)
    cfg = cfgs[0]
    n = problem.n
    blocks = [slice(lo, lo + n) for lo in range(0, len(swarm.x), n)]
    traces: list[list[TraceRow]] = [[] for _ in blocks]

    start = time.perf_counter()

    def record() -> None:
        # one clock reading per record, shared by every replica
        wall = (time.perf_counter() - start) * 1e3 if cfg.timing else 0.0
        for block, rows in zip(blocks, traces):
            x = swarm.x[block]
            cost, stat, cons, track = stationarity_metrics(
                problem, x, None if swarm.y is None else swarm.y[block]
            )
            evals = int(swarm.grad_evals[block].sum())
            rows.append(
                TraceRow(
                    k=swarm.k,
                    cost=cost,
                    stat=stat,
                    cons=cons,
                    track=track,
                    dbar=consensus_gap_D(mixing, x),
                    grad_evals=evals,
                    epoch=evals / problem.total_samples,
                    wall_ms=wall,
                )
            )

    record()
    for k in range(1, cfg.rounds + 1):
        run_round(swarm, problem, mixing)
        if k % cfg.cadence == 0 or k == cfg.rounds:
            record()
    return traces
