"""In-memory span tracer that wraps gtvr's public functions from outside.

Each wrapped name is patched where its caller looks it up, e.g. both
``gtvr.algorithms.mix`` (the engine's import) and ``gtvr.graph.mix``.
A span is ``(id, parent id, name, start ns, end ns)``; spans stay in a
list until the benchmark ends. A name that a refactor removed is
reported as absent (zero calls) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# span name -> lookup sites, as "module:attribute" or "module:Class.method"
SITES: dict[str, tuple[str, ...]] = {
    "algorithms.run_experiment": ("gtvr.algorithms:run_experiment",),
    "algorithms.init_swarm": ("gtvr.algorithms:init_swarm",),
    "problem.component_grad": (
        "gtvr.problem:LogisticProblem.component_grad",
        "gtvr.problem:QuadraticProblem.component_grad",
    ),
    "problem.local_full_grad": (
        "gtvr.problem:LogisticProblem.local_full_grad",
        "gtvr.problem:QuadraticProblem.local_full_grad",
    ),
    "problem.local_cost": (
        "gtvr.problem:LogisticProblem.local_cost",
        "gtvr.problem:QuadraticProblem.local_cost",
    ),
    "problem.component_grad_table": (
        "gtvr.problem:LogisticProblem.component_grad_table",
        "gtvr.problem:QuadraticProblem.component_grad_table",
    ),
    "problem.from_partition": ("gtvr.problem:LogisticProblem.from_partition",),
    "problem.make_quadratic": ("gtvr.problem:make_quadratic",),
    "rng.make_swarm_streams": ("gtvr.algorithms:make_swarm_streams",),
    "rng.draw_index": ("gtvr.algorithms:draw_index", "gtvr.rng:draw_index"),
    "rng.draw_bernoulli": ("gtvr.algorithms:draw_bernoulli", "gtvr.rng:draw_bernoulli"),
    "graph.mix": ("gtvr.algorithms:mix", "gtvr.graph:mix"),
    "graph.build_topology": ("gtvr.graph:build_topology",),
    "graph.metropolis_weights": ("gtvr.graph:metropolis_weights",),
    "metrics.stationarity_metrics": (
        "gtvr.algorithms:stationarity_metrics",
        "gtvr.metrics:stationarity_metrics",
    ),
    "metrics.consensus_gap_D": ("gtvr.algorithms:consensus_gap_D", "gtvr.metrics:consensus_gap_D"),
    "metrics.write_trace": ("gtvr.metrics:write_trace",),
    "ingest.parse_libsvm": ("gtvr.ingest:parse_libsvm",),
    "ingest.to_binary_labels": ("gtvr.ingest:to_binary_labels",),
    "ingest.partition": ("gtvr.ingest:partition",),
    "theory.build_report": ("gtvr.theory:build_report",),
    "cli.main": ("gtvr.cli:main",),
    "cli.prepare_problem": ("gtvr.cli:prepare_problem",),
}
MODULES = ("algorithms", "problem", "rng", "graph", "metrics", "ingest", "theory", "cli")


def _merged_length(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _minus(t0: int, t1: int, cuts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``[t0, t1)`` minus the union of ``cuts``, as disjoint intervals."""
    out, cur = [], t0
    for lo, hi in sorted(cuts):
        if hi <= cur or lo >= t1:
            continue
        if lo > cur:
            out.append((cur, lo))
        cur = max(cur, hi)
    if cur < t1:
        out.append((cur, t1))
    return out


class Tracer:
    """Patches SITES while active and records spans and layer counters.

    ``row_bytes`` models the bytes one sample row costs a full local
    gradient (values, indices, label, row pointer), so the local-gradient
    span can report computed bytes moved.
    """

    def __init__(self, row_bytes: float) -> None:
        self.row_bytes = row_bytes
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.passes = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.parse_sources: dict[int, tuple[int, str]] = {}  # span id -> (pass, path)
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> tuple[list[int], int]:
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
            return stack, stack[-1] if stack else -1
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        # a pool worker's outermost span belongs to the span the main
        # thread is blocked in
        main = self._main_stack
        return stack, main[-1] if main else -1

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        spans, calls, clock = self.spans, self.calls, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            stack, parent = self._stack()
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
                calls[name] += 1
            if hook is not None:
                hook(sid, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        stack, parent = self._stack()
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((sid, parent, name, t0, time.perf_counter_ns()))

    def _on_rng_draw_bernoulli(self, sid, args, result) -> None:
        self.counters["bernoulli_ones"] += result

    def _on_rng_draw_index(self, sid, args, result) -> None:
        m = args[1]
        self.counters["index_accept"] += m / (1 << (m - 1).bit_length())

    def _on_problem_local_full_grad(self, sid, args, result) -> None:
        prob, i = args[0], args[1]
        self.counters["local_full_grad_bytes"] += self.row_bytes * prob.m[i - 1] + 24 * prob.d

    def _on_ingest_parse_libsvm(self, sid, args, result) -> None:
        if isinstance(args[0], (str, Path)):
            self.parse_sources[sid] = (self.passes, str(args[0]))
            self.counters["parse_bytes"] += os.path.getsize(args[0])
            self.counters["parse_rows"] += result.num_rows

    def _on_metrics_write_trace(self, sid, args, result) -> None:
        if isinstance(args[1], (str, Path)):
            self.counters["write_bytes"] += os.path.getsize(args[1])

    # -- patching ------------------------------------------------------

    @contextmanager
    def active(self):
        """Patch every site for the duration of one traced pass."""
        undo = []
        for name, sites in SITES.items():
            found = False
            for site in sites:
                mod_name, _, attr_path = site.partition(":")
                try:
                    owner = importlib.import_module(mod_name)
                except ImportError:
                    continue
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    continue
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    wrapped = classmethod(self._wrap(name, static.__func__))
                else:
                    wrapped = self._wrap(name, static)
                # an inherited method is shadowed on the subclass, then deleted
                own = not isinstance(owner, type) or attr in owner.__dict__
                undo.append((owner, attr, static, own))
                setattr(owner, attr, wrapped)
                found = True
            if not found:
                self.absent.add(name)
        self.passes += 1
        try:
            yield
        finally:
            for owner, attr, static, own in reversed(undo):
                if own:
                    setattr(owner, attr, static)
                else:
                    delattr(owner, attr)

    # -- analysis ------------------------------------------------------

    def _self_intervals(self):
        """Per span: ``(span, own)``, where ``own`` is the span's interval
        minus the union of its children's, so overlapping pool-worker
        children are not cut twice."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        for span in self.spans:
            yield span, _minus(span[3], span[4], children.get(span[0], []))

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per name: outermost calls, their inclusive ns, and self ns.

        Self ns sums the own intervals of every span of the name, so spans
        that ran at once in pool workers each count. Only the outermost of
        nested same-name spans (a function that re-enters itself through
        its module global) counts as a call.
        """
        by_id = {s[0]: s for s in self.spans}
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0}
        )
        for (sid, parent, name, t0, t1), own in self._self_intervals():
            entry = stats[name]
            entry["self_ns"] += sum(hi - lo for lo, hi in own)
            if not self._inside(by_id, parent, name):
                entry["calls"] += 1
                entry["incl_ns"] += t1 - t0
        return stats

    def module_wall_ns(self) -> dict[str, int]:
        """Per module: wall ns in which some thread ran the module's own
        code, the union of its spans' own intervals over every thread."""
        owned: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for span, own in self._self_intervals():
            owned[span[2].split(".", 1)[0]] += own
        return {module: _merged_length(owned[module]) for module in MODULES}

    @staticmethod
    def _inside(by_id: dict, parent: int, name: str) -> bool:
        """Whether a span with this parent has an ancestor called ``name``."""
        while parent != -1:
            if by_id[parent][2] == name:
                return True
            parent = by_id[parent][1]
        return False

    def _parse_reuse(self) -> tuple[float, str]:
        """Distinct datasets per pass over parses, counting parses made by the CLI."""
        by_id = {s[0]: s for s in self.spans}
        cli_parses = [
            source
            for sid, source in self.parse_sources.items()
            if self._inside(by_id, by_id[sid][1], "cli.main")
        ]
        return (len(set(cli_parses)) / len(cli_parses) if cli_parses else 0.0), "ratio"

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Span-derived per-layer metrics; counts are per traced pass."""
        st = self.span_stats()
        passes = max(self.passes, 1)

        def calls(name: str) -> float:
            return st[name]["calls"] / passes

        def per_call(name: str, ns_per_unit: float) -> float:
            n = st[name]["calls"]
            return st[name]["incl_ns"] / n / ns_per_unit if n else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        run = st["algorithms.run_experiment"]
        parse = st["ingest.parse_libsvm"]
        parse_s = parse["incl_ns"] / 1e9
        c = self.counters
        out = {
            "algorithms.run_experiment.self_ms": (ratio(run["self_ns"], run["calls"]) / 1e6, "ms"),
            "algorithms.init_swarm.ms": (per_call("algorithms.init_swarm", 1e6), "ms"),
            "problem.component_grad.calls": (calls("problem.component_grad"), "count"),
            "problem.component_grad.us_per_call": (per_call("problem.component_grad", 1e3), "us"),
            "problem.local_full_grad.calls": (calls("problem.local_full_grad"), "count"),
            "problem.local_full_grad.us_per_call": (per_call("problem.local_full_grad", 1e3), "us"),
            "problem.local_full_grad.bytes_computed": (c["local_full_grad_bytes"] / passes, "bytes"),
            "problem.local_cost.calls": (calls("problem.local_cost"), "count"),
            "problem.local_cost.us_per_call": (per_call("problem.local_cost", 1e3), "us"),
            "problem.component_grad_table.ms": (per_call("problem.component_grad_table", 1e6), "ms"),
            "problem.from_partition.ms": (per_call("problem.from_partition", 1e6), "ms"),
            "rng.draw_index.calls": (calls("rng.draw_index"), "count"),
            "rng.draw_index.us_per_call": (per_call("rng.draw_index", 1e3), "us"),
            "rng.draw_bernoulli.calls": (calls("rng.draw_bernoulli"), "count"),
            "rng.draw_bernoulli.us_per_call": (per_call("rng.draw_bernoulli", 1e3), "us"),
            "rng.index_accept_ratio": (
                ratio(c["index_accept"], st["rng.draw_index"]["calls"]),
                "ratio",
            ),
            "graph.mix.calls": (calls("graph.mix"), "count"),
            "graph.mix.us_per_call": (per_call("graph.mix", 1e3), "us"),
            "graph.metropolis_weights.ms": (per_call("graph.metropolis_weights", 1e6), "ms"),
            "metrics.stationarity_metrics.calls": (calls("metrics.stationarity_metrics"), "count"),
            "metrics.stationarity_metrics.ms_per_call": (
                per_call("metrics.stationarity_metrics", 1e6),
                "ms",
            ),
            "metrics.consensus_gap_D.us_per_call": (per_call("metrics.consensus_gap_D", 1e3), "us"),
            "metrics.write_trace.ms": (per_call("metrics.write_trace", 1e6), "ms"),
            "metrics.write_trace.bytes": (
                ratio(c["write_bytes"], st["metrics.write_trace"]["calls"]),
                "bytes",
            ),
            "ingest.parse_libsvm.s": (per_call("ingest.parse_libsvm", 1e9), "s"),
            "ingest.parse_libsvm.mb_per_s": (ratio(c["parse_bytes"] / 1e6, parse_s), "MB/s"),
            "ingest.parse_libsvm.rows_per_s": (ratio(c["parse_rows"], parse_s), "rows/s"),
            "ingest.to_binary_labels.ms": (per_call("ingest.to_binary_labels", 1e6), "ms"),
            "ingest.partition.ms": (per_call("ingest.partition", 1e6), "ms"),
            "theory.build_report.ms": (per_call("theory.build_report", 1e6), "ms"),
            "cli.prepare_problem.calls": (calls("cli.prepare_problem"), "count"),
            "cli.prepare_problem.s": (per_call("cli.prepare_problem", 1e9), "s"),
            "cli.parse_reuse_ratio": self._parse_reuse(),
        }
        # the benchmark's own spans are the roots; checks run outside them
        wall = sum(t1 - t0 for _, parent, _, t0, t1 in self.spans if parent == -1)
        for module, own in self.module_wall_ns().items():
            out[f"{module}.self_share"] = (ratio(own, wall), "ratio")
        return out
