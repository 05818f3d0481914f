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

import numbers
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .graph import MixingMatrix, mix
from .metrics import TraceRow, consensus_gap_D, stationarity_metrics
from .problem import FiniteSumProblem
from .rng import SwarmStreams

DIVERGENCE_NORM_CAP = 1e12
# the divergence guard's fast bound on a whole state's sum of squares
_FAST_BOUND = DIVERGENCE_NORM_CAP**2 * (1 - 1e-6)
# replica-columns of queued metric records that one metric pass evaluates
RECORD_WIDTH = 32


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
        for name in ("eta", "p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
        if not 0 < self.eta < np.inf:
            raise ValueError(f"step-size must be positive and finite, got {self.eta}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"refresh probability must lie in (0, 1), got {self.p}")
        for name in ("rounds", "cadence", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if self.rounds < 0:
            raise ValueError(f"round budget must be >= 0, got {self.rounds}")
        if self.cadence < 1:
            raise ValueError(f"metric cadence must be >= 1, got {self.cadence}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class SwarmState:
    """Stacked per-agent state of R replicas, replica-major: row r*n + i - 1
    belongs to replica r's agent i (a single run is R = 1).

    Rounds read ``x``/``y``/``v`` as the start-of-round snapshot and swap
    in fresh arrays at the barrier. ``y``/``v`` are None for the
    untracked DSGD. ``eta`` is the column of each row's step-size. The
    estimator owns whatever else the local gradient estimate needs
    (GT-VR's anchors, GT-SAGA's table); ``streams`` hands it the round's
    coins and sample rows.
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

    _per_row = ("x", "y", "v", "eta", "grad_evals")

    def keep(self, rows: int) -> None:
        """Cut the swarm, its estimator and its streams to the first ``rows``
        state rows, the first rows / n replicas: the rest never step again.
        The swarm and each estimator name their per-row arrays in ``_per_row``."""
        for owner in (self, self.estimator):
            for name in owner._per_row:
                if getattr(owner, name) is not None:
                    setattr(owner, name, getattr(owner, name)[:rows])
        self.streams.keep(rows)


def _as_stacked(problem: FiniteSumProblem, x1: np.ndarray, replicas: int) -> np.ndarray:
    """x1, checked, as a fresh array with one copy per replica."""
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (problem.n, problem.d):
        raise ValueError(
            f"initial iterate must have shape ({problem.n}, {problem.d}), got {x1.shape}"
        )
    if not np.isfinite(x1).all():
        raise ValueError("initial iterate must be finite")
    return np.tile(x1, (replicas, 1))


def _diverged(x: np.ndarray, y: np.ndarray | None, n: int, k: int) -> tuple | None:
    """The lowest replica with a row that fails the guard and the error its
    own run raises at iteration k, or None if every row passes."""
    # Fast path: one sum of squares per state. Each row's squared norm is at
    # most the true total, and the computed dot of N entries is within
    # N * 2**-53 of it, relative, which stays far below the 1e-6 margin for
    # any swarm under 1e8 entries; so when the dot passes, every row's norm,
    # which hypot computes to within d ulps, is at most the cap. A NaN or
    # inf entry, a square that overflows or a total over the bound fails
    # the comparisons and falls through to the exact check. np.vdot, unlike
    # np.dot, @ and np.inner, raises no overflow warning and does not copy
    # a C-contiguous state, and an errstate would cost more than it saves.
    if np.vdot(x, x) <= _FAST_BOUND and (y is None or np.vdot(y, y) < np.inf):
        return None
    # Exact check, row by row: a NaN or infinite entry makes its row norm
    # NaN or infinite, and the max of the norms is NaN if any is, so one
    # comparison covers both guards for every row; hypot forms the norm
    # without squaring, so an entry too large to square reads as diverged,
    # with no warning
    norms = np.hypot.reduce(x, axis=1)
    if norms.max() <= DIVERGENCE_NORM_CAP and (y is None or np.isfinite(y).all()):
        return None
    x_bad = ~(norms <= DIVERGENCE_NORM_CAP).reshape(-1, n).all(axis=1)
    y_bad = x_bad if y is None else ~np.isfinite(y.reshape(len(x_bad), -1)).all(axis=1)
    replica = int((x_bad | y_bad).argmax())
    state = "iterate" if x_bad[replica] else "gradient tracker"
    return replica, DivergedError(f"{state} diverged at iteration {k}")


# Local estimators. ``start(problem, x, streams)`` builds the estimator's
# state at x, which is x1 once per replica, and returns the first stacked
# estimate with its per-row oracle counts; ``step(problem, x, streams)``
# returns the next estimate at x and the counts it spent. Each step takes
# the round's coins and sample rows for all state rows at once and calls
# the problem's unchecked oracle cores: the streams checked the rows as
# they drew them, and the estimators make the points and agent slots.


def _per_replica(values: np.ndarray, replicas: int) -> np.ndarray:
    """Per-agent ``values``, stacked once for each replica."""
    return np.tile(values, (replicas,) + (1,) * (values.ndim - 1))


class _StochasticGradient:
    """One sampled component gradient per agent (DSGD untracked, DSGT tracked).

    DSGT seeds its tracker with one draw per agent, so every iteration
    including the first costs exactly one evaluation.
    """

    _per_row = ()

    def start(self, problem, x, streams):
        return self.step(problem, x, streams)

    def step(self, problem, x, streams):
        return problem._component_grads(streams.rows(), x), 1


class _AnchoredGradient:
    """GT-VR's loopless-SVRG estimator around the anchor ``tau``.

    Starts anchored at x1 with ``g_tau`` the full local gradients there,
    which costs one pass over every sample (made once and shared by the
    replicas); afterwards a Bernoulli(P) coin moves each row's anchor to
    its current iterate (m_i evals).
    """

    _per_row = ("tau", "g_tau", "_slots", "_sizes")

    def start(self, problem, x, streams):
        replicas = len(x) // problem.n
        agents = np.arange(1, problem.n + 1)
        self.tau = x.copy()
        self.g_tau = _per_replica(problem.local_full_grads(agents, x[: problem.n]), replicas)
        self._slots = _per_replica(agents - 1, replicas)
        self._sizes = _per_replica(problem.layout.sizes, replicas)
        return self.g_tau.copy(), self._sizes

    def step(self, problem, x, streams):
        # one oracle call for every coin-selected row, then one for the
        # paired difference, however many rows refresh
        refresh = streams.coins()
        chosen = refresh.nonzero()[0]
        fresh = x[chosen]
        self.tau[chosen] = fresh
        self.g_tau[chosen] = problem._local_full_grads(self._slots[chosen], fresh)
        v = problem._component_grad_diffs(streams.rows(), x, self.tau) + self.g_tau
        return v, 2 + refresh * self._sizes


class _GradientTable:
    """GT-SAGA's estimator: the last gradient of every sample, at x1 until
    the sample is first drawn.

    The table is the storage cost the anchored estimator avoids: GT-SAGA
    keeps at most m_i * d reals per agent where GT-VR keeps d, reached once
    every sample has been drawn. Its mean starts as the full local
    gradients at x1, GT-VR's start anchor gradients, made once and shared
    by the replicas. A row at x1 is the sampled oracle's gradient there,
    so a row is held only from its first draw, packed in first-draw
    order: numpy asks for huge pages on large arrays, and rows written at
    their own positions would make the whole buffer resident.
    """

    _per_row = ("table_mean", "_offset", "_m_column")

    def start(self, problem, x, streams):
        # sample row s of replica r is table row r*sum(m_i) + s, whose row
        # in ``_buffer`` is ``_slot`` of it, -1 until it is first drawn
        n, total = problem.n, problem.total_samples
        replicas = len(x) // n
        self._x1 = x[:n].copy()
        self.table_mean = _per_replica(problem.local_full_grads(np.arange(1, n + 1), self._x1), replicas)
        self._offset = np.repeat(range(0, replicas * total, total), n)
        self._slot = np.full(replicas * total, -1)
        # rows are written from the front, so pages past them stay unused
        self._buffer = np.empty((replicas * total, problem.d))
        self._held = 0
        sizes = _per_replica(problem.layout.sizes, replicas)
        self._m_column = sizes[:, None]
        return self.table_mean.copy(), sizes

    def _first_draws(self, problem, samples, rows, slots):
        """``slots`` with each table row drawn for the first time given the
        next buffer row, where its gradient at x1 is rebuilt."""
        new = (slots < 0).nonzero()[0]
        if len(new):
            held = self._held + len(new)
            slots[new] = self._slot[rows[new]] = np.arange(self._held, held)
            x1 = self._x1[new % len(self._x1)]
            self._buffer[self._held : held] = problem._component_grads(samples[new], x1)
            self._held = held
        return slots

    def step(self, problem, x, streams):
        samples = streams.rows()
        rows = self._offset + samples
        slots = self._slot.take(rows)
        # a shed replica's undrawn rows stay at -1, so a cut batch keeps checking
        if self._held < len(self._slot):
            slots = self._first_draws(problem, samples, rows, slots)
        fresh = problem._component_grads(samples, x)
        delta = fresh - self._buffer.take(slots, axis=0)
        v = delta + self.table_mean
        # running average maintained in O(d); stays within rounding of
        # the recomputed table mean
        self.table_mean += delta / self._m_column
        self._buffer[slots] = fresh
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
    x gives x+ = W(x - eta v), one exchange. The new state is unguarded.
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
    oracle counters. A divergence raises its ``DivergedError``.
    """
    traces, error = run_experiments(problem, mixing, [cfg], x1)
    if error is not None:
        raise error
    return traces[0]


def run_experiments(
    problem: FiniteSumProblem,
    mixing: MixingMatrix,
    cfgs: Sequence[RunConfig],
    x1: np.ndarray | None = None,
) -> tuple[list[list[TraceRow]], DivergedError | None]:
    """``run_experiment`` for runs that differ only in eta and p, as one batch.

    The R runs share one seed, hence their draws, and advance in one
    stacked round per iteration. Returns the traces of the runs before the
    first in ``cfgs`` order that diverges, and the error that run raises
    alone (None if none does). Trace r equals run_experiment(problem,
    mixing, cfgs[r], x1), except that ``wall_ms`` counts from the start of
    the batch, read once per record for every replica. At a divergence
    the swarm is cut with ``SwarmState.keep`` to the live prefix, the
    replicas below the lowest that has diverged, so no dead row steps,
    draws or calls an oracle again; the guard checks what is left.

    Records are queued and evaluated together once they hold
    ``RECORD_WIDTH`` live replica-columns, and at the end: one metric pass
    over the stacked snapshots, whose rows equal per-record evaluation bit
    for bit. ``wall_ms`` is the time spent outside those passes.
    """
    if mixing.n != problem.n:
        raise ValueError(f"mixing matrix is for {mixing.n} agents, problem has {problem.n}")
    if x1 is None:
        x1 = np.zeros((problem.n, problem.d))
    swarm = init_swarm(problem, x1, cfgs)
    cfg = cfgs[0]
    n, live, error = problem.n, len(cfgs), None
    traces: list[list[TraceRow]] = [[] for _ in cfgs]
    # (k, wall_ms, x, y, grad_evals) per queued record: a round swaps in
    # fresh x and y, so only the counters, updated in place, are copied
    queue: list[tuple] = []
    start = time.perf_counter()
    metric_s = 0.0  # time spent in metric passes, kept out of wall_ms

    def flush() -> None:
        nonlocal metric_s
        t0 = time.perf_counter()
        x = np.concatenate([q[2][: live * n] for q in queue]).reshape(-1, n, problem.d)
        y = None if swarm.y is None else np.concatenate([q[3][: live * n] for q in queue])
        columns = zip(*(v.tolist() for v in stationarity_metrics(problem, x, y)))
        evals = np.concatenate([q[4][: live * n] for q in queue]).reshape(-1, n).sum(axis=1).tolist()
        dbars = consensus_gap_D(mixing, x).tolist()
        for c, (cost, stat, cons, track) in enumerate(columns):
            k, wall = queue[c // live][:2]
            traces[c % live].append(
                TraceRow(
                    k=k,
                    cost=cost,
                    stat=stat,
                    cons=cons,
                    track=track,
                    dbar=dbars[c],
                    grad_evals=evals[c],
                    epoch=evals[c] / problem.total_samples,
                    wall_ms=wall,
                )
            )
        queue.clear()
        metric_s += time.perf_counter() - t0

    def record() -> None:
        # one clock reading per record, shared by every replica
        wall = (time.perf_counter() - start - metric_s) * 1e3 if cfg.timing else 0.0
        queue.append((swarm.k, wall, swarm.x, swarm.y, swarm.grad_evals.copy()))
        if len(queue) * live >= RECORD_WIDTH:
            flush()

    record()
    for k in range(1, cfg.rounds + 1):
        run_round(swarm, problem, mixing)
        diverged = _diverged(swarm.x, swarm.y, n, k)
        if diverged is not None:
            live, error = diverged
            if not live:
                return [], error
            swarm.keep(live * n)
        if k % cfg.cadence == 0 or k == cfg.rounds:
            record()
    if queue:
        flush()
    return traces[:live], error
