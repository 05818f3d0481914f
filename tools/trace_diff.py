"""By how much two checkouts' traces and final swarm states differ.

A change that may move what a run computes, within a tolerance it states,
shows the size of the move with

    python3 tools/trace_diff.py BASE [--head HEAD]

BASE and HEAD are checkouts, directories that hold ``src/gtvr``; HEAD
defaults to the checkout of this script. Each side runs the corpus of
``tools/trace_fingerprint.py`` (the copy next to this script) with its own
``gtvr``, in a subprocess. The script prints a Markdown table with one row
per instance, algorithm and compared quantity, taken over both seeds:

- for each trace column, the largest absolute and relative deviation and
  the first round k at which the two traces differ;
- for the final swarm's ``x``, ``y``, ``v`` and ``grad_evals``, the same,
  with the first agent that differs in place of the round, and its ``k``
  and ``mix_count``.

The relative deviation of a and b is |a - b| / max(|a|, |b|), 0 where both
are 0. Values count as different when their bits do: 0.0 and -0.0 differ
with a deviation of 0, and two NaNs are equal. A non-finite value against
a different one deviates by inf. The last line gives the largest
deviations over everything. The script reports and gates nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

STATES = ("x", "y", "v", "grad_evals", "k", "mix_count")


def dump(src: str) -> None:
    """Print the corpus as run by the ``gtvr`` under ``src`` as one JSON
    object: for each "instance/algorithm/seed", the trace's columns and the
    final swarm's states."""
    # gtvr is imported from src first, so the corpus, which puts the src/
    # beside it on the path when imported, runs this package
    sys.path.insert(0, str(Path(src).resolve()))
    import gtvr  # noqa: F401
    import trace_fingerprint as corpus

    out = {}
    for name, prob, eta in corpus.instances():
        for algorithm, seed, trace, swarm in corpus.instance_runs(prob, eta):
            header, *rows = csv.reader(io.StringIO(trace))
            final = {}
            for state in STATES:
                value = getattr(swarm, state)
                final[state] = None if value is None else np.asarray(value, dtype=float).tolist()
            out[f"{name}/{algorithm}/{seed}"] = {
                "trace": {col: [float(row[c]) for row in rows] for c, col in enumerate(header)},
                "final": final,
            }
    json.dump(out, sys.stdout)


def run_corpus(checkout: Path) -> dict:
    src = checkout / "src"
    if not (src / "gtvr" / "__init__.py").is_file():
        sys.exit(f"error: no gtvr sources under {src}")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--dump", str(src)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        sys.exit(f"error: the corpus failed to run in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def deviations(a, b) -> tuple[float, float, int | None]:
    """Largest absolute and relative deviation of two arrays, and the first
    index along axis 0 whose bits differ (None if none)."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return np.inf, np.inf, 0
    same = (np.isnan(a) & np.isnan(b)) | ((a == b) & (np.signbit(a) == np.signbit(b)))
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.where((a == b) | same, 0.0, np.abs(a - b))
        gap[np.isnan(gap)] = np.inf
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(gap == 0.0, 0.0, gap / np.where(scale == 0.0, 1.0, scale))
    rel[np.isnan(rel)] = np.inf
    differs = ~same.reshape(len(a), -1).all(axis=1)
    first = int(np.argmax(differs)) if differs.any() else None
    return float(gap.max(initial=0.0)), float(rel.max(initial=0.0)), first


def compare(base: dict, head: dict) -> list[tuple[str, str, str, float, float, str]]:
    """(instance, algorithm, quantity, max abs, max rel, first difference)
    for each instance, algorithm and quantity, over the seeds."""
    worst = {}
    for key, run in head.items():
        name, algorithm, _ = key.split("/")
        other = base.get(key, {"trace": {}, "final": {}})
        quantities = [("trace", col) for col in run["trace"]] + [("final", state) for state in STATES]
        for part, col in quantities:
            got, want = run[part].get(col), other[part].get(col)
            if got is None and want is None:
                continue
            if got is None or want is None:
                gap, rel, first = np.inf, np.inf, 0
            else:
                gap, rel, first = deviations(want, got)
            if first is not None and part == "trace":
                first = int(run["trace"]["k"][first])  # the round, not the row
            label = col if part == "trace" else f"final {col}"
            old_gap, old_rel, old_first = worst.get((name, algorithm, label), (0.0, 0.0, None))
            first = min((f for f in (old_first, first) if f is not None), default=None)
            worst[(name, algorithm, label)] = (max(old_gap, gap), max(old_rel, rel), first)
    rows = []
    for (name, algorithm, label), (gap, rel, first) in worst.items():
        if first is None:
            where = "-"
        elif label in ("final k", "final mix_count"):
            where = "differs"
        else:
            where = f"agent {first + 1}" if label.startswith("final") else f"k={first}"
        rows.append((name, algorithm, label, gap, rel, where))
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", type=Path, help="the checkout to compare against")
    parser.add_argument("--head", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--dump", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return
    if args.base is None:
        parser.error("need the base checkout")
    table = compare(run_corpus(args.base), run_corpus(args.head))
    print("| instance | algorithm | quantity | max abs | max rel | first difference |")
    print("|---|---|---|---:|---:|---|")
    for name, algorithm, col, gap, rel, first in table:
        print(f"| {name} | {algorithm} | {col} | {gap:.3g} | {rel:.3g} | {first} |")
    worst_abs = max(table, key=lambda row: row[3])
    worst_rel = max(table, key=lambda row: row[4])
    differing = sum(row[5] != "-" for row in table)
    print()
    print(
        f"{differing} of {len(table)} rows differ; largest absolute deviation {worst_abs[3]:.3g} "
        f"({'/'.join(worst_abs[:3])}), largest relative {worst_rel[4]:.3g} ({'/'.join(worst_rel[:3])})"
    )


if __name__ == "__main__":
    main()
