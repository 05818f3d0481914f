"""The benchmark's workloads: seeded inputs, set-up, timed operations, checks.

Every workload runs the same kinds of operation, so each reports every
end-to-end metric; the shapes decide which module dominates:

- ``quad5``: five agents, 20 samples, d = 4, on the acceptance suite's
  random graph, metrics only at the start and end of a run. Arithmetic
  is tiny, so the per-agent Python loop, scalar RNG draws and ``mix``
  dominate.
- ``a9a-run``: a9a-shaped LIBSVM file, metrics every round (the CLI
  default for runs of at most 10^4 rounds). The metric pass over the
  sparse oracles dominates the runs; parsing shows in set-up and
  dominates the sweep, which records metrics only at the start and end,
  re-parses the file for each of its two grid points and runs the
  per-round thread pool with two workers.
"""

from __future__ import annotations

import io
import shutil
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import gtvr.algorithms
import gtvr.cli
import gtvr.graph
import gtvr.ingest
import gtvr.metrics
import gtvr.problem

import checks
import datagen

ALGORITHMS = ("gtvr", "dsgd", "dsgt", "gtsaga")
GOLDEN_SEED = 2106
LAMBDA1 = 5e-4
P = 0.3  # GT-VR's anchor-refresh probability in the timed runs
P_EDGE = 0.8
TOPOLOGY_SEED = 2  # the acceptance suite's random graph; the ring ignores it
QUAD_M, QUAD_D, QUAD_NOISE = 20, 4, 0.5


@dataclass(frozen=True)
class Spec:
    name: str
    shape: datagen.Shape | None  # None: the least-squares instance
    n: int
    topology: str
    eta: float
    rounds: int  # per algorithm run
    cadence: int
    sweep_workers: int
    sweep_etas: tuple[float, ...]
    sweep_ps: tuple[float, ...]
    sweep_rounds: int
    sweep_cadence: int
    setup_batch: int  # set-ups timed per measurement cycle


SPECS = {
    "quad5": Spec(
        "quad5", None, n=5, topology="random",
        eta=0.05, rounds=1000, cadence=1000,
        sweep_etas=(0.02, 0.05), sweep_ps=(0.3, 0.5), sweep_rounds=400, sweep_cadence=400,
        sweep_workers=1, setup_batch=20,
    ),
    "a9a-run": Spec(
        "a9a-run", datagen.A9A, n=10, topology="ring",
        eta=0.1, rounds=100, cadence=1,
        sweep_etas=(0.1,), sweep_ps=(0.2, 0.3), sweep_rounds=100, sweep_cadence=100,
        sweep_workers=2, setup_batch=1,
    ),
}

# Goldens run each workload's code path on a fixed seed at a reduced size.
GOLDEN_SPECS = {
    "quad5": replace(SPECS["quad5"], rounds=200, cadence=20, sweep_rounds=100, sweep_cadence=25),
    "a9a-run": replace(
        SPECS["a9a-run"], shape=replace(datagen.A9A, rows=2000), rounds=20,
        sweep_rounds=10, sweep_cadence=10,
    ),
}


@dataclass
class Outcome:
    """One timed operation: ``units`` rounds or sweep points in ``wall`` s."""

    wall: float
    units: int
    attempted: int
    failed: int
    errors: list[str]
    traces: dict[str, list[list[float]]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)  # traced layer counts


class Workload:
    """Inputs for one (spec, seed); ``tracer`` adds the benchmark's own spans."""

    def __init__(self, spec: Spec, seed: int, tmp: Path) -> None:
        self.spec, self.seed, self.tmp = spec, seed, tmp
        self.tracer = None
        tmp.mkdir(parents=True, exist_ok=True)
        if spec.shape is None:
            self.data = None
            self.m = (QUAD_M,) * spec.n
            dataset, self.token = "synthetic:quadratic", "quadratic"
        else:
            self.data = datagen.write_libsvm(spec.shape, seed, tmp / f"{spec.name}.libsvm")
            self.m = checks.balanced_sizes(spec.shape.rows, spec.n)
            dataset, self.token = str(self.data.path), self.data.path.stem
        self.config = tmp / f"{spec.name}.cfg"
        self.config.write_text(
            f"dataset = {dataset}\nn = {spec.n}\ntopology = {spec.topology}\np_edge = {P_EDGE}\n"
            f"algorithm = gtvr\neta = {spec.eta}\np = {P}\nrounds = {spec.sweep_rounds}\n"
            f"cadence = {spec.sweep_cadence}\nseed = {seed}\nworkers = {spec.sweep_workers}\n"
            f"lambda1 = {LAMBDA1}\nscheme = shuffled\n"
            f"quad_m = {QUAD_M}\nquad_d = {QUAD_D}\nquad_noise = {QUAD_NOISE}\n"
        )

    @property
    def row_bytes(self) -> float:
        """Bytes one sample row costs a full local gradient."""
        if self.data is None:
            return 8.0 * QUAD_D + 8.0
        return 12.0 * self.data.nnz / self.data.rows + 16.0

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def _counts(self) -> dict[str, float]:
        """Tracer counts that one algorithm run is charged with."""
        t = self.tracer
        if t is None:
            return {}
        return {
            "mix": t.calls["graph.mix"],
            "coins": t.calls["rng.draw_bernoulli"],
            "refreshes": t.counters["bernoulli_ones"],
        }

    def setup(self):
        """Inputs to a ready problem and mixing matrix (what ``setup_s`` times)."""
        s = self.spec
        if self.data is None:
            prob = gtvr.problem.make_quadratic(s.n, QUAD_M, QUAD_D, seed=self.seed, noise=QUAD_NOISE)
        else:
            raw = gtvr.ingest.parse_libsvm(self.data.path)
            raw = gtvr.ingest.to_binary_labels(raw)
            parts = gtvr.ingest.partition(raw, s.n, "shuffled", seed=self.seed)
            prob = gtvr.problem.LogisticProblem.from_partition(raw, parts, LAMBDA1)
        topo = gtvr.graph.build_topology(s.topology, s.n, p_edge=P_EDGE, seed=TOPOLOGY_SEED)
        return prob, gtvr.graph.metropolis_weights(topo)

    def timed_setup(self) -> tuple[Outcome, object, object]:
        with self._span("bench.setup"):
            t0 = time.perf_counter()
            prob, mixing = self.setup()
            wall = time.perf_counter() - t0
        errors = []
        if self.data is not None and (prob.total_samples, prob.d) != (self.data.rows, self.data.d):
            errors.append(
                f"parsed {prob.total_samples} rows x {prob.d} features, "
                f"generated {self.data.rows} x {self.data.d}"
            )
        if tuple(prob.m) != self.m:
            errors.append(f"agent sample counts {tuple(prob.m)} != {self.m}")
        return Outcome(wall, 1, 0, 0, errors), prob, mixing

    def _expect(self, algo: str, p: float, rounds: int, cadence: int) -> checks.Expect:
        return checks.Expect(algo, self.m, p, self.seed, rounds, cadence, logistic=self.data is not None)

    def run_algorithm(self, algo: str, prob, mixing) -> Outcome:
        """``run_experiment`` plus ``write_trace``, as ``gtvr run`` does them."""
        s = self.spec
        cfg = gtvr.algorithms.RunConfig(
            algorithm=algo, eta=s.eta, p=P, rounds=s.rounds, seed=self.seed,
            cadence=s.cadence,
        )
        out = self.tmp / f"{algo}.csv"
        before = self._counts()
        try:
            with self._span(f"bench.{algo}"):
                t0 = time.perf_counter()
                rows = gtvr.algorithms.run_experiment(prob, mixing, cfg)
                gtvr.metrics.write_trace(rows, out)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a raising run is a failed operation, not a crash
            return Outcome(0.0, s.rounds, 1, 1, [f"{algo}: {exc!r}"])
        counts = {k: v - before[k] for k, v in self._counts().items()}
        errors, parsed = checks.check_trace(out, self._expect(algo, P, s.rounds, s.cadence))
        return Outcome(wall, s.rounds, 1, int(bool(errors)), errors, {algo: parsed}, counts)

    def run_sweep(self) -> Outcome:
        """``gtvr sweep`` over the eta x P grid; one operation per grid point."""
        s = self.spec
        out_dir = self.tmp / "sweep"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [
            "sweep", "--config", str(self.config),
            "--eta", ",".join(map(str, s.sweep_etas)),
            "--p", ",".join(map(str, s.sweep_ps)),
            "--out-dir", str(out_dir),
        ]
        try:
            with self._span("bench.sweep"), redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = gtvr.cli.main(argv)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a raising sweep fails its points, checked below
            code, wall = repr(exc), 0.0
        errors = [] if code == 0 else [f"sweep exited with {code}"]
        traces, failed = {}, 0
        for eta in s.sweep_etas:
            for p in s.sweep_ps:
                name = f"gtvr_{self.token}_eta{eta:g}_p{p:g}_{self.seed}.csv"
                errs, parsed = checks.check_trace(
                    out_dir / name, self._expect("gtvr", p, s.sweep_rounds, s.sweep_cadence)
                )
                errors += errs
                failed += int(bool(errs))
                traces[f"sweep/eta{eta:g}_p{p:g}"] = parsed
        points = len(s.sweep_etas) * len(s.sweep_ps)
        return Outcome(wall, points, points, points if code != 0 else failed, errors, traces)

    def run_pass(self) -> list[Outcome]:
        """Set-up once, then every operation once."""
        setup, prob, mixing = self.timed_setup()
        outcomes = [setup]
        outcomes += [self.run_algorithm(algo, prob, mixing) for algo in ALGORITHMS]
        outcomes.append(self.run_sweep())
        return outcomes
