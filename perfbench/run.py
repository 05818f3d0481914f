"""gtvr benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload quad5 --seed 1 --seconds 55 --trace 0

Run from the repository root; gtvr is imported from ``src/``. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, which
alternates untraced and traced passes of the same work. Generated inputs
live in ``.perfbench_tmp/`` and are removed on exit; a result file with
provenance (and, when traced, the span list) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 3
RECORDED_PASSES = 3  # bounds the spans held in memory on the smallest workload
SEED_SRC_LINES = 2242  # lines under src/ at the commit that defined this benchmark
CALIBRATION_LOOP = 200_000
CALIBRATION_REPS = 5


def _prepare_imports() -> None:
    """Import gtvr from this checkout only, with single-threaded BLAS."""
    if not (ROOT / "src" / "gtvr" / "__init__.py").is_file():
        sys.exit(f"error: no gtvr sources under {ROOT / 'src'}; run from a full checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def git_revision() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop that touches no gtvr code.

    Timed at both ends of every run, it gives the host's speed for this
    process, so a later reader can tell host drift from a code change.
    """
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def provenance(args: argparse.Namespace, calibration: dict[str, float]) -> dict:
    import numpy
    import scipy

    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_lines_net_vs_benchmark_commit": lines - SEED_SRC_LINES,
        "calibration_loop_ms": calibration,
    }


class Tally:
    """Operations attempted and failed, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors += outcome.errors[: max(0, 20 - len(self.errors))]


def check_goldens(name: str, tmp: Path, tally: Tally) -> None:
    """Run the workload's golden case and compare every trace with goldens.json."""
    import checks
    import workloads

    goldens = json.loads((Path(__file__).parent / "goldens.json").read_text())[name]
    golden = workloads.Workload(workloads.GOLDEN_SPECS[name], workloads.GOLDEN_SEED, tmp / "golden")
    for outcome in golden.run_pass():
        mismatched = 0
        for label, rows in outcome.traces.items():
            errors = checks.compare_golden(f"golden {name} {label}", rows, goldens[label])
            mismatched += bool(errors)
            outcome.errors += errors
        # each trace belongs to one operation: an algorithm run or a sweep point
        outcome.failed = max(outcome.failed, min(outcome.attempted, mismatched))
        tally.add(outcome)


def throughput(outcomes) -> float:
    """Units over wall time, summed over every successful operation."""
    good = [o for o in outcomes if not o.failed]
    wall = sum(o.wall for o in good)
    return sum(o.units for o in good) / wall if wall else 0.0


def measure_untraced(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Cycle through every operation until ``seconds`` pass (three cycles
    at least), so each metric samples the whole window of the run.

    Host contention comes in episodes of seconds that slow everything
    alike, so rates are total work over total time in the window, which
    moves less from run to run than the median of a few samples.
    """
    import workloads

    ops: dict[str, list] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        for _ in range(wl.spec.setup_batch):
            outcome, prob, mixing = wl.timed_setup()
            ops["setup_s"].append(outcome)
        for algo in workloads.ALGORITHMS:
            ops[f"rounds_per_s.{algo}"].append(wl.run_algorithm(algo, prob, mixing))
        del prob, mixing  # the sweep builds its own problem; free this one first
        ops["sweep_points_per_s"].append(wl.run_sweep())
        cycles += 1
    for outcomes in ops.values():
        for outcome in outcomes:
            tally.add(outcome)
    metrics = {"setup_s": (statistics.median(o.wall for o in ops["setup_s"]), "s")}
    for algo in workloads.ALGORITHMS:
        metrics[f"rounds_per_s.{algo}"] = (throughput(ops[f"rounds_per_s.{algo}"]), "rounds/s")
    metrics["sweep_points_per_s"] = (throughput(ops["sweep_points_per_s"]), "points/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    samples = {name: [[o.units, o.wall] for o in outcomes] for name, outcomes in ops.items()}
    return metrics, {"cycles": cycles, "units_and_wall_s": samples}


def measure_traced(wl, seconds: float, tally: Tally, out_prefix: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes of the same work until
    ``seconds`` pass. Spans are kept for the first RECORDED_PASSES traced
    passes; later ones only time the tracer's overhead."""
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer(wl.row_bytes)
    pairs: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start + sum(pairs[-1]) < seconds:
        wl.tracer = None
        plain = wl.run_pass()
        wl.tracer = tracer if len(pairs) < RECORDED_PASSES else tracing.Tracer(wl.row_bytes)
        with wl.tracer.active():
            traced = wl.run_pass()
        if wl.tracer is tracer:
            recorded = traced
        wl.tracer = None
        for outcome in plain + traced:
            tally.add(outcome)
        pairs.append((sum(o.wall for o in plain), sum(o.wall for o in traced)))
    metrics = tracer.layer_metrics()
    spec = wl.spec
    for algo, outcome in zip(workloads.ALGORITHMS, recorded[1:]):
        rows, counts = outcome.traces.get(algo), outcome.counts
        evals = (rows[-1][6] - rows[0][6]) / spec.rounds if rows else 0.0
        metrics[f"algorithms.grad_evals_per_round.{algo}"] = (evals, "evals/round")
        metrics[f"algorithms.mix_per_round.{algo}"] = (counts.get("mix", 0) / spec.rounds, "calls/round")
        if algo == "gtvr":
            coins = counts.get("coins", 0)
            metrics["algorithms.refresh_ratio"] = (
                counts["refreshes"] / coins if coins else 0.0,
                "ratio",
            )
    metrics["trace.overhead_ratio"] = (
        statistics.median(t for _, t in pairs) / statistics.median(u for u, _ in pairs),
        "ratio",
    )
    stats = tracer.span_stats()
    extra = {
        "pairs_untraced_traced_s": pairs,
        "absent": sorted(tracer.absent),
        "largest_spans_s_per_pass": sorted(
            (
                (name, s["incl_ns"] / 1e9 / tracer.passes)
                for name, s in stats.items()
                if not name.startswith("bench.")
            ),
            key=lambda item: -item[1],
        )[:10],
        "accounting": {
            "p": workloads.P,
            "refresh_ratio": metrics["algorithms.refresh_ratio"][0],
            "gtvr_budget_per_round": workloads.P * sum(wl.m) + 2 * spec.n,
            "gtvr_grad_evals_per_round": metrics["algorithms.grad_evals_per_round.gtvr"][0],
        },
    }
    tracer.write_spans(out_prefix.with_suffix(".spans.csv"))
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("quad5", "a9a-run"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")
    _prepare_imports()
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_prefix = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    calibration = {"start": calibration_ms()}
    try:
        check_goldens(args.workload, tmp, tally)
        wl = workloads.Workload(workloads.SPECS[args.workload], args.seed, tmp / "run")
        if args.trace:
            metrics, extra = measure_traced(wl, args.seconds, tally, out_prefix)
        else:
            metrics, extra = measure_untraced(wl, args.seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calibration["end"] = calibration_ms()
    result = {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "provenance": provenance(args, calibration),
        "result": result,
        "errors": tally.errors,
        "detail": extra,
    }
    out_prefix.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
