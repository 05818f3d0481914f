"""Run metrics: cost, stationarity, consensus, tracking error, traces.

All quantities are evaluated at the across-agent mean iterate xbar:
``stat`` is ||grad f(xbar)||^2, ``cons`` the stacked squared deviation
||x - xbar||^2, ``track`` the stacked tracker error against the local
gradients at xbar, and ``dbar`` the Laplacian quadratic form
D(x) = sum_i x_i' sum_j w_ij (x_i - x_j) whose decay certifies consensus.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, Sequence

import numpy as np

# bound here, so that tracing graph.mix counts only the engine's exchanges
from .graph import MixingMatrix, mix
from .problem import FiniteSumProblem


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
    return float(np.sum(stacked * (stacked - mix(mixing, stacked))))


def agent_average(costs: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of per-agent costs and stacked gradients, summed in agent order."""
    cost = 0.0
    grad = np.zeros(grads.shape[1])
    for c, g in zip(costs, grads):
        cost += float(c)
        grad += g
    return cost / len(costs), grad / len(costs)


def stationarity_metrics(
    problem: FiniteSumProblem,
    x: np.ndarray,
    y: np.ndarray | None,
) -> tuple[float, float, float, float]:
    """(cost, stat, cons, track) at the mean of the stacked iterates x.

    ``track`` compares each tracker y_i to the local gradient at xbar,
    i.e. to the stacked gradient the tracking analysis bounds; it is NaN
    when y is None (DSGD carries no tracker). Reads x and y only.
    """
    xbar = x.mean(axis=0)
    costs, grads = problem.local_costs_and_grads(xbar)
    cost, grad = agent_average(costs, grads)
    stat = float(grad @ grad)
    dev = x - xbar
    cons = float(np.sum(dev * dev))
    if y is None:
        track = float("nan")
    else:
        diff = y - grads
        # stacked (1, d) @ (d, 1) products equal each row's diff @ diff bit
        # for bit; the agents are then summed in order
        track = 0.0
        for sq in (diff[:, None, :] @ diff[:, :, None]).ravel().tolist():
            track += sq
    return cost, stat, cons, track


# (name, parser) per trace column, in TraceRow's field order
_COLUMNS = [(f.name, int if f.type in (int, "int") else float) for f in fields(TraceRow)]
TRACE_HEADER = ",".join(name for name, _ in _COLUMNS)
# a row's CSV line, with the TraceRow as format argument 0: ints as str,
# floats to 17 significant digits
_ROW_FORMAT = ",".join(
    f"{{0.{name}}}" if parse is int else f"{{0.{name}:.17g}}" for name, parse in _COLUMNS
) + "\n"


def _write_csv(rows: Sequence[TraceRow], fh: IO[str]) -> None:
    fh.write(TRACE_HEADER + "\n")
    for r in rows:
        fh.write(_ROW_FORMAT.format(r))


def _write_jsonl(rows: Sequence[TraceRow], fh: IO[str]) -> None:
    # JSON has no NaN or infinity: a non-finite value (DSGD's track) is null
    for r in rows:
        row = {k: v if not isinstance(v, float) or math.isfinite(v) else None for k, v in asdict(r).items()}
        fh.write(json.dumps(row, allow_nan=False) + "\n")


def _write_to(sink: str | Path | IO[str], write, rows: Sequence[TraceRow]) -> None:
    """``write(rows, fh)`` to an open stream, or to a new file at a path."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w") as fh:
            write(rows, fh)
    else:
        write(rows, sink)


def write_trace(
    rows: Sequence[TraceRow],
    sink: str | Path | IO[str],
    jsonl_sink: str | Path | IO[str] | None = None,
) -> None:
    """Write rows as CSV (17 significant digits, bit round-trippable).

    An optional JSON-lines mirror carries one object per row with the
    same keys as the CSV header, and null for a non-finite value.
    """
    ks = [row.k for row in rows]
    if ks != sorted(ks):
        raise ValueError("trace rows must be ordered by iteration")
    _write_to(sink, _write_csv, rows)
    if jsonl_sink is not None:
        _write_to(jsonl_sink, _write_jsonl, rows)


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
        if len(f) != len(_COLUMNS):
            raise ValueError(f"malformed trace line: {line!r}")
        rows.append(TraceRow(*(parse(cell) for (_, parse), cell in zip(_COLUMNS, f))))
    return rows
