"""Output checks: trace files against the paper's oracle accounting and
against goldens recorded from the reference implementation.

Each check returns a list of error strings; an empty list is a pass.
The expected gradient-evaluation counts are derived here, independently
of gtvr: GT-VR's refresh coins are replayed from the documented Philox
stream of each agent (spawn key ``(agent, 1)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRACE_HEADER = "k,cost,stat,cons,track,dbar,grad_evals,epoch,wall_ms"
GOLDEN_COLUMNS = ("k", "cost", "stat", "cons", "track", "dbar", "grad_evals", "epoch")
# Float columns may drift in the last digits when a rewrite reorders sums;
# anything beyond this is a behaviour change.
GOLDEN_RTOL = 1e-8
GOLDEN_ATOL = 1e-13
BERNOULLI_PURPOSE = 1


def balanced_sizes(total: int, n: int) -> tuple[int, ...]:
    """Per-agent sample counts of a balanced split, larger shares first."""
    base, extra = divmod(total, n)
    return (base + 1,) * extra + (base,) * (n - extra)


def record_ks(rounds: int, cadence: int) -> list[int]:
    ks = list(range(0, rounds + 1, cadence))
    if ks[-1] != rounds:
        ks.append(rounds)
    return ks


def refresh_coins(seed: int, n: int, p: float, rounds: int) -> np.ndarray:
    """(n, rounds) GT-VR anchor-refresh outcomes for a master seed."""
    return np.stack(
        [
            np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i, BERNOULLI_PURPOSE)))
            ).random(rounds)
            < p
            for i in range(1, n + 1)
        ]
    )


def expected_grad_evals(algo: str, m: tuple[int, ...], p: float, seed: int, ks: list[int]) -> list[int]:
    """Cumulative oracle calls at each recorded round, per the paper's accounting."""
    n, total = len(m), sum(m)
    if algo == "dsgd":
        return [n * k for k in ks]
    if algo == "dsgt":
        return [n * (k + 1) for k in ks]
    if algo == "gtsaga":
        return [total + n * k for k in ks]
    coins = refresh_coins(seed, n, p, ks[-1])
    per_round = 2 * n + (coins * np.asarray(m)[:, None]).sum(axis=0)
    cum = np.concatenate([[total], total + np.cumsum(per_round)])
    return [int(cum[k]) for k in ks]


@dataclass(frozen=True)
class Expect:
    algo: str
    m: tuple[int, ...]
    p: float
    seed: int
    rounds: int
    cadence: int
    logistic: bool


def read_trace_file(path: Path) -> tuple[str, list[list[float]]]:
    """Header and numeric rows of a CSV trace (NaN kept as NaN)."""
    lines = path.read_text().splitlines()
    if not lines:
        return "", []
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:] if line]


def check_trace(path: Path, ex: Expect) -> tuple[list[str], list[list[float]]]:
    """Header, rounds, exact oracle counts and float sanity of one trace."""
    if not path.is_file():
        return [f"{path.name}: missing"], []
    header, rows = read_trace_file(path)
    if header != TRACE_HEADER:
        return [f"{path.name}: header {header!r}"], rows
    errors: list[str] = []
    ks = record_ks(ex.rounds, ex.cadence)
    if [int(r[0]) for r in rows] != ks:
        return [f"{path.name}: recorded rounds differ from {ks[:3]}..{ks[-1]}"], rows
    want = expected_grad_evals(ex.algo, ex.m, ex.p, ex.seed, ks)
    got = [int(r[6]) for r in rows]
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        errors.append(f"{path.name}: grad_evals {got[bad]} != {want[bad]} at k={ks[bad]}")
    total = sum(ex.m)
    for r in rows:
        k, cost, stat, cons, track, dbar, evals, epoch = r[:8]
        if not all(math.isfinite(v) for v in (cost, stat, cons, dbar, epoch)):
            errors.append(f"{path.name}: non-finite metric at k={int(k)}")
        elif stat < 0 or cons < 0 or dbar < -1e-12 * max(1.0, cons):
            errors.append(f"{path.name}: negative norm at k={int(k)}")
        if math.isnan(track) != (ex.algo == "dsgd"):
            errors.append(f"{path.name}: tracking error present iff a tracker exists, k={int(k)}")
        if not math.isclose(epoch, evals / total, rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"{path.name}: epoch {epoch} != grad_evals / M at k={int(k)}")
    first, last = rows[0], rows[-1]
    if first[3] != 0.0 or first[5] != 0.0:
        errors.append(f"{path.name}: start point is not in consensus")
    if ex.logistic and not math.isclose(first[1], 0.5, rel_tol=1e-12):
        errors.append(f"{path.name}: sigmoid loss at the origin is {first[1]}, expected 0.5")
    if not last[1] < first[1]:
        errors.append(f"{path.name}: cost did not decrease ({first[1]} -> {last[1]})")
    return errors, rows


def golden_rows(rows: list[list[float]]) -> list[list[float | None]]:
    """Rows as stored in goldens.json: wall time dropped, NaN as null."""
    return [[None if math.isnan(v) else v for v in r[: len(GOLDEN_COLUMNS)]] for r in rows]


def compare_golden(label: str, rows: list[list[float]], golden: list[list[float | None]]) -> list[str]:
    got = golden_rows(rows)
    if len(got) != len(golden):
        return [f"{label}: {len(got)} rows, golden has {len(golden)}"]
    for row, ref in zip(got, golden):
        for col, a, b in zip(GOLDEN_COLUMNS, row, ref):
            if a is None or b is None:
                ok = a is b
            elif col in ("k", "grad_evals"):
                ok = a == b
            else:
                ok = math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL)
            if not ok:
                return [f"{label}: {col} = {a} at k={row[0]}, golden {b}"]
    return []
