"""Run metrics: cost, stationarity, consensus, tracking error, traces.

All quantities are evaluated at the across-agent mean iterate xbar:
``stat`` is ||grad f(xbar)||^2, ``cons`` the stacked squared deviation
||x - xbar||^2, ``track`` the stacked tracker error against the local
gradients at xbar, and ``dbar`` the Laplacian quadratic form
D(x) = sum_i x_i' sum_j w_ij (x_i - x_j) whose decay certifies consensus.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Sequence

import numpy as np

from .graph import MixingMatrix
from .problem import FiniteSumProblem, agent_average

if TYPE_CHECKING:
    from .algorithms import SwarmState

TRACE_HEADER = "k,cost,stat,cons,track,dbar,grad_evals,epoch,wall_ms"


@dataclass
class TraceRow:
    k: int
    cost: float
    stat: float
    cons: float
    track: float
    dbar: float
    grad_evals: int
    epoch: float
    wall_ms: float


def consensus_gap_D(mixing: MixingMatrix, stacked: np.ndarray) -> float:  # noqa: N802
    """D(x) = sum_i x_i' sum_j w_ij (x_i - x_j).

    Equals the quadratic form of the weighted Laplacian I - W, hence is
    non-negative for symmetric W and zero exactly at consensus.
    """
    stacked = np.asarray(stacked, dtype=float)
    if stacked.ndim != 2 or stacked.shape[0] != mixing.n:
        raise ValueError(
            f"expected a stacked ({mixing.n}, d) matrix, got shape {stacked.shape}"
        )
    return float(np.sum(stacked * (stacked - mixing.w @ stacked)))


def stationarity_metrics(
    problem: FiniteSumProblem,
    swarm: "SwarmState",
) -> tuple[float, float, float, float]:
    """(cost, stat, cons, track) at the current mean iterate.

    ``track`` compares each tracker y_i to the local gradient at xbar,
    i.e. to the stacked gradient the tracking analysis bounds; it is NaN
    for algorithms that carry no tracker. Read-only on the swarm.
    """
    xbar = swarm.x.mean(axis=0)
    costs, grads = problem.local_costs_and_grads(xbar)
    cost, grad = agent_average(costs, grads)
    stat = float(grad @ grad)
    dev = swarm.x - xbar
    cons = float(np.sum(dev * dev))
    if swarm.y is None:
        track = float("nan")
    else:
        diff = swarm.y - grads
        # stacked (1, d) @ (d, 1) products equal each row's diff @ diff bit
        # for bit; the agents are then summed in order
        track = 0.0
        for sq in (diff[:, None, :] @ diff[:, :, None]).ravel().tolist():
            track += sq
    return cost, stat, cons, track


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(rows: Sequence[TraceRow], fh: IO[str]) -> None:
    fh.write(TRACE_HEADER + "\n")
    for r in rows:
        fh.write(
            f"{r.k},{_fmt(r.cost)},{_fmt(r.stat)},{_fmt(r.cons)},{_fmt(r.track)},"
            f"{_fmt(r.dbar)},{r.grad_evals},{_fmt(r.epoch)},{_fmt(r.wall_ms)}\n"
        )


def _write_jsonl(rows: Sequence[TraceRow], fh: IO[str]) -> None:
    for r in rows:
        fh.write(json.dumps(asdict(r)) + "\n")


def write_trace(
    rows: Sequence[TraceRow],
    sink: str | Path | IO[str],
    jsonl_sink: str | Path | IO[str] | None = None,
) -> None:
    """Write rows as CSV (17 significant digits, bit round-trippable).

    An optional JSON-lines mirror carries one object per row with the
    same keys as the CSV header.
    """
    ks = [row.k for row in rows]
    if ks != sorted(ks):
        raise ValueError("trace rows must be ordered by iteration")
    if isinstance(sink, (str, Path)):
        with open(sink, "w") as fh:
            _write_csv(rows, fh)
    else:
        _write_csv(rows, sink)
    if jsonl_sink is not None:
        if isinstance(jsonl_sink, (str, Path)):
            with open(jsonl_sink, "w") as fh:
                _write_jsonl(rows, fh)
        else:
            _write_jsonl(rows, jsonl_sink)


def read_trace(source: str | Path | IO[str]) -> list[TraceRow]:
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            return read_trace(fh)
    header = source.readline().strip()
    if header != TRACE_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    rows = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        f = line.split(",")
        if len(f) != 9:
            raise ValueError(f"malformed trace line: {line!r}")
        rows.append(
            TraceRow(
                k=int(f[0]),
                cost=float(f[1]),
                stat=float(f[2]),
                cons=float(f[3]),
                track=float(f[4]),
                dbar=float(f[5]),
                grad_evals=int(f[6]),
                epoch=float(f[7]),
                wall_ms=float(f[8]),
            )
        )
    return rows
