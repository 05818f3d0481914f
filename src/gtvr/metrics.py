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


def consensus_gap_D(mixing: MixingMatrix, stacked: np.ndarray) -> float | np.ndarray:  # noqa: N802
    """D(x) = sum_i x_i' sum_j w_ij (x_i - x_j) of the iterates x (n, d), or
    for each of K snapshots stacked (K, n, d) as a (K,) array.

    Equals the quadratic form of the weighted Laplacian I - W, hence is
    non-negative for symmetric W and zero exactly at consensus. The
    snapshots share one ``mix``, and each one's value equals that of a
    call on it alone bit for bit.
    """
    stacked = np.asarray(stacked, dtype=float)
    if stacked.ndim != 3:
        return float(np.sum(stacked * (stacked - mix(mixing, stacked))))
    if stacked.shape[1] != mixing.n:
        raise ValueError(f"expected (K, {mixing.n}, d) snapshots, got shape {stacked.shape}")
    flat = stacked.reshape(-1, stacked.shape[2])
    products = flat * (flat - mix(mixing, flat))
    # each snapshot's products summed as one contiguous row, as a lone
    # (n, d) array's are
    return products.reshape(len(stacked), -1).sum(axis=1)


def agent_average(costs: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of per-agent costs (..., n) and stacked gradients (..., n, d),
    summed in agent order."""
    n = costs.shape[-1]
    cost = np.zeros(costs.shape[:-1])
    grad = np.zeros(grads.shape[:-2] + grads.shape[-1:])
    for i in range(n):
        cost += costs[..., i]
        grad += grads[..., i, :]
    # a single point's cost as a scalar
    return (cost / n)[()], grad / n


def stationarity_metrics(
    problem: FiniteSumProblem,
    x: np.ndarray,
    y: np.ndarray | None,
) -> tuple:
    """(cost, stat, cons, track) at the mean of the stacked iterates x (n, d),
    or for each of K snapshots stacked (K, n, d) as four (K,) arrays.

    ``track`` compares each tracker y_i to the local gradient at xbar,
    i.e. to the stacked gradient the tracking analysis bounds; it is NaN
    when y is None (DSGD carries no tracker). The snapshots' means go to
    one ``local_costs_and_grads`` call, and each snapshot's values equal
    those of a call on it alone bit for bit. Reads x and y only.
    """
    xs = x.reshape(-1, problem.n, problem.d)
    xbar = xs.mean(axis=1)
    costs, grads = problem.local_costs_and_grads(xbar)
    cost, grad = agent_average(costs, grads)
    # stacked (1, d) @ (d, 1) products equal each row's dot with itself bit
    # for bit
    stat = (grad[:, None, :] @ grad[:, :, None]).ravel()
    dev = xs - xbar[:, None, :]
    # each snapshot's squares summed as one contiguous row, as a lone (n, d)
    # array's are
    cons = (dev * dev).reshape(len(xs), -1).sum(axis=1)
    if y is None:
        track = np.full(len(xs), np.nan)
    else:
        diff = y.reshape(xs.shape) - grads
        # each agent's squared error, then the agents summed in order
        track = np.zeros(len(xs))
        for sq in (diff[..., None, :] @ diff[..., :, None])[..., 0, 0].T:
            track += sq
    # a single snapshot's values as scalars
    return tuple(v.reshape(x.shape[:-2])[()] for v in (cost, stat, cons, track))


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
