"""Configuration-driven command line: run, sweep, theory, ingest.

Configs are flat ``key=value`` text files with ``#`` comments; flags
override file keys and the ``GTVR_SEED`` environment variable supplies a
fallback master seed. Step-size and probability advisories from the
admissibility machinery are warnings, never blockers: reference
experiment settings themselves sit outside the proven region.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

from . import algorithms, graph, ingest, metrics, problem, theory

log = logging.getLogger("gtvr")

SYNTHETIC_QUADRATIC = "synthetic:quadratic"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass
class ExperimentConfig:
    """Validated run settings; field names double as config keys."""

    dataset: str
    rounds: int
    n: int = 10
    topology: str = "ring"
    p_edge: float = 0.5
    algorithm: str = "gtvr"
    eta: float = 0.1
    p: float = 0.3
    seed: int = 0
    lambda1: float = 5e-4
    cadence: int = 0
    output: str = ""
    max_samples: int = 0
    workers: int = 1  # validated only: the engine updates agents serially
    scheme: str = "shuffled"
    declared_d: int = 0
    normalize: bool = False
    quad_m: int = 20
    quad_d: int = 4
    quad_noise: float = 0.5

    def effective_cadence(self) -> int:
        if self.cadence > 0:
            return self.cadence
        # full-gradient metric passes cost a whole data sweep, so long
        # runs default to a sparser cadence
        return 1 if self.rounds <= 10_000 else 10

    def run_config(self, timing: bool = True) -> algorithms.RunConfig:
        return algorithms.RunConfig(
            algorithm=self.algorithm,
            eta=self.eta,
            p=self.p,
            rounds=self.rounds,
            seed=self.seed,
            cadence=self.effective_cadence(),
            timing=timing,
        )

    def dataset_token(self) -> str:
        if self.dataset == SYNTHETIC_QUADRATIC:
            return "quadratic"
        return Path(self.dataset).stem

    def output_path(self) -> Path:
        if self.output:
            return Path(self.output)
        return Path(f"{self.algorithm}_{self.dataset_token()}_{self.seed}.csv")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    first: dict[str, int] = {}  # key -> the line that set it
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{source}: line {ln}: expected key=value, got {line!r}")
        key = key.strip()
        if key in first:
            raise ValueError(
                f"{source}: line {ln}: duplicate config key {key!r} (first on line {first[key]})"
            )
        first[key], pairs[key] = ln, value.strip()
    return pairs


def build_experiment_config(
    pairs: dict[str, str],
    overrides: dict[str, object] | None = None,
    source: str = "<config>",
) -> ExperimentConfig:
    spec = {f.name: f.type for f in fields(ExperimentConfig)}
    values: dict[str, object] = {}
    for key, raw in pairs.items():
        if key not in spec:
            raise ValueError(f"{source}: unknown config key {key!r}")
        values[key] = _coerce(key, raw, spec[key], source)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    if "seed" not in values:
        env = os.environ.get("GTVR_SEED")
        if env is not None:
            values["seed"] = _coerce("seed", env, "int", "GTVR_SEED")
    missing = [k for k in ("dataset", "rounds") if k not in values]
    if missing:
        raise ValueError(f"{source}: missing required config key(s): {', '.join(missing)}")
    cfg = ExperimentConfig(**values)
    _validate_config(cfg, source)
    return cfg


def _coerce(key: str, raw: str, kind: str, source: str) -> object:
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ValueError(f"{source}: key {key!r}: cannot parse {raw!r} as {kind}") from exc


def _validate_config(cfg: ExperimentConfig, source: str) -> None:
    try:
        cfg.run_config()
        graph.check_topology(cfg.topology, cfg.n, cfg.p_edge)
        if cfg.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {cfg.workers}")
        if cfg.scheme not in ingest.PARTITION_SCHEMES:
            raise ValueError(
                f"unknown partition scheme {cfg.scheme!r}, expected one of {ingest.PARTITION_SCHEMES}"
            )
        if not 0 <= cfg.lambda1 < math.inf:
            raise ValueError(f"lambda1 must be finite and >= 0, got {cfg.lambda1}")
        for key in ("cadence", "max_samples", "declared_d"):
            if getattr(cfg, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(cfg, key)}")
        for key in ("quad_m", "quad_d"):
            if getattr(cfg, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(cfg, key)}")
        if not 0 <= cfg.quad_noise < math.inf:
            raise ValueError(f"quad_noise must be finite and >= 0, got {cfg.quad_noise}")
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def load_experiment_config(path: str | Path, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise OSError(f"config file not found: {path}")
    return build_experiment_config(parse_config_text(path.read_text(), str(path)), overrides, str(path))


def load_dataset(cfg: ExperimentConfig) -> ingest.RawDataset:
    """The LIBSVM file of ``cfg``, parsed, with ±1 labels and at most
    ``max_samples`` rows: what no seed changes."""
    path = Path(cfg.dataset)
    if not path.is_file():
        raise OSError(f"dataset file not found: {path}")
    raw = ingest.parse_libsvm(path, cfg.declared_d or None)
    raw = ingest.to_binary_labels(raw)
    if cfg.max_samples:
        raw = ingest.take_head(raw, cfg.max_samples)
    return raw


def prepare_problem(cfg: ExperimentConfig, raw: ingest.RawDataset | None = None) -> problem.FiniteSumProblem:
    """The problem of ``cfg``. A LIBSVM dataset is partitioned by ``cfg.seed``
    from ``raw``, the result of ``load_dataset(cfg)``, loaded here if not given."""
    if cfg.dataset == SYNTHETIC_QUADRATIC:
        return problem.make_quadratic(
            cfg.n, cfg.quad_m, cfg.quad_d, seed=cfg.seed, noise=cfg.quad_noise
        )
    if raw is None:
        raw = load_dataset(cfg)
    parts = ingest.partition(raw, cfg.n, cfg.scheme, seed=cfg.seed)
    return problem.LogisticProblem.from_partition(raw, parts, cfg.lambda1, normalize=cfg.normalize)


def build_mixing(cfg: ExperimentConfig) -> graph.MixingMatrix:
    topo = graph.build_topology(cfg.topology, cfg.n, p_edge=cfg.p_edge, seed=cfg.seed)
    return graph.metropolis_weights(topo)


def warn_outside_theory(
    cfg: ExperimentConfig, mixing: graph.MixingMatrix, lipschitz: float, total_samples: int
) -> None:
    report = theory.build_report(mixing.rho, lipschitz, cfg.p, cfg.n, total_samples, eta=cfg.eta)
    if report.p_lower is not None and cfg.p <= report.p_lower:
        log.warning(
            "refresh probability %g is below the admissible bound %.6g (advisory only)",
            cfg.p,
            report.p_lower,
        )
    if report.eta_bar is not None and cfg.eta > report.eta_bar:
        log.warning(
            "step-size %g exceeds the guaranteed range bound %.6g (advisory only)",
            cfg.eta,
            report.eta_bar,
        )
    for note in report.notes:
        log.info("theory: %s", note)


def cmd_run(ns: argparse.Namespace) -> int:
    overrides: dict[str, object] = {"seed": ns.seed, "workers": ns.workers, "output": ns.output}
    cfg = load_experiment_config(ns.config, overrides)
    prob = prepare_problem(cfg)
    mixing = build_mixing(cfg)
    warn_outside_theory(cfg, mixing, prob.lipschitz_estimate(), prob.total_samples)
    rows = algorithms.run_experiment(prob, mixing, cfg.run_config(timing=not ns.no_timing))
    out = cfg.output_path()
    metrics.write_trace(rows, out, jsonl_sink=ns.jsonl)
    last = rows[-1]
    print(
        f"{cfg.algorithm} on {cfg.dataset_token()}: {cfg.rounds} rounds, "
        f"cost {last.cost:.6g}, stationarity {last.stat:.3e}, consensus {last.dbar:.3e} "
        f"-> {out}"
    )
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    source = str(Path(ns.config))
    base = load_experiment_config(source)
    etas = ns.eta or [base.eta]
    ps = ns.p or [base.p]
    seeds = ns.seeds or [base.seed]
    out_dir = Path(ns.out_dir)
    # trace file -> validated config of its grid point, in grid order; built
    # before any point runs so that no point fails or overwrites another late
    points: dict[str, ExperimentConfig] = {}
    for seed, eta, p in itertools.product(seeds, etas, ps):
        name = f"{base.algorithm}_{base.dataset_token()}_eta{eta:g}_p{p:g}_{seed}.csv"
        if name in points:
            first = points[name]
            raise ValueError(
                f"sweep points eta={first.eta!r} p={first.p!r} seed={first.seed} and "
                f"eta={eta!r} p={p!r} seed={seed} would both write {name}"
            )
        points[name] = replace(base, eta=eta, p=p, seed=seed, output=str(out_dir / name))
        _validate_config(points[name], source)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a dataset file is read once; its partition and the graph depend on the
    # seed, and nothing depends on eta or p
    raw = None if base.dataset == SYNTHETIC_QUADRATIC else load_dataset(base)
    for _, group in itertools.groupby(points.values(), key=lambda c: c.seed):
        group = list(group)
        prob = prepare_problem(group[0], raw)
        mixing = build_mixing(group[0])
        lipschitz = prob.lipschitz_estimate()
        traces, error = algorithms.run_experiments(prob, mixing, [c.run_config() for c in group])
        for cfg, rows in zip(group, traces):
            warn_outside_theory(cfg, mixing, lipschitz, prob.total_samples)
            metrics.write_trace(rows, cfg.output_path())
            print(
                f"eta={cfg.eta:g} p={cfg.p:g} seed={cfg.seed}: cost {rows[-1].cost:.6g}, "
                f"stationarity {rows[-1].stat:.3e} -> {cfg.output_path()}"
            )
        if error is not None:
            warn_outside_theory(group[len(traces)], mixing, lipschitz, prob.total_samples)
            raise error
    return 0


def cmd_theory(ns: argparse.Namespace) -> int:
    report = theory.build_report(
        ns.rho,
        ns.l,
        ns.p,
        n=ns.n,
        total_samples=ns.samples,
        eta=ns.eta,
        neighbor_counts=ns.neighbors,
        epsilon=ns.epsilon,
        f_gap=ns.f_gap,
        r0=ns.r0,
    )
    print(report.to_json() if ns.json else report.to_text())
    return 0


def cmd_ingest(ns: argparse.Namespace) -> int:
    raw = ingest.parse_libsvm(ns.input, ns.declared_d)
    mapped = ingest.to_binary_labels(raw)
    parts = ingest.partition(mapped, ns.agents, ns.scheme, seed=ns.seed)
    sizes = [len(part) for part in parts]
    pos = int((mapped.labels > 0).sum())
    print(f"rows={mapped.num_rows} features={mapped.d} positive={pos} negative={mapped.num_rows - pos}")
    print(f"agents={ns.agents} scheme={ns.scheme} sizes={sizes}")
    return 0


def _comma_list(kind: type) -> Callable[[str], list]:
    """An argparse type: one or more comma-separated values, each parsed
    by ``kind``; argparse names the flag when one does not parse."""

    def parse(text: str) -> list:
        if not text.strip():
            raise argparse.ArgumentTypeError("expected at least one comma-separated value, got none")
        values = []
        for item in text.split(","):
            try:
                values.append(kind(item))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"cannot parse {item!r} in {text!r} as {kind.__name__}"
                ) from None
        return values

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtvr",
        description="Decentralized stochastic optimization simulator with gradient "
        "tracking and Bernoulli-triggered variance reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--workers", type=int, default=None, help="worker count, >= 1 (agents run serially)")
    run.add_argument("--output", default=None, help="override the trace output path")
    run.add_argument("--jsonl", default=None, help="also write a JSON-lines mirror here")
    run.add_argument("--no-timing", action="store_true", help="zero the wall_ms column")
    run.set_defaults(fn=cmd_run)

    sweep = sub.add_parser("sweep", help="grid over step-sizes, probabilities, seeds")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--eta", type=_comma_list(float), help="comma-separated step-sizes")
    sweep.add_argument("--p", type=_comma_list(float), help="comma-separated refresh probabilities")
    sweep.add_argument("--seeds", type=_comma_list(int), help="comma-separated seeds")
    sweep.add_argument("--out-dir", default=".", help="directory for trace files")
    sweep.set_defaults(fn=cmd_sweep)

    theo = sub.add_parser("theory", help="print the admissibility report")
    theo.add_argument("--rho", type=float, required=True)
    theo.add_argument("--p", type=float, required=True)
    theo.add_argument("--l", type=float, required=True, help="smoothness constant")
    theo.add_argument("--eta", type=float, default=None)
    theo.add_argument("--n", type=int, default=1)
    theo.add_argument("--samples", type=int, default=1, help="total sample count M")
    theo.add_argument("--neighbors", type=_comma_list(int), help="comma-separated neighbor counts")
    theo.add_argument("--epsilon", type=float, default=None, help="target stationarity")
    theo.add_argument("--f-gap", dest="f_gap", type=float, default=None)
    theo.add_argument("--r0", type=float, default=None)
    theo.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    theo.set_defaults(fn=cmd_theory)

    ing = sub.add_parser("ingest", help="parse, validate, and partition a dataset")
    ing.add_argument("--input", required=True)
    ing.add_argument("--declared-d", dest="declared_d", type=int, default=None)
    ing.add_argument("--agents", type=int, required=True)
    ing.add_argument("--scheme", default="shuffled", choices=ingest.PARTITION_SCHEMES)
    ing.add_argument("--seed", type=int, default=0)
    ing.set_defaults(fn=cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    ns = _build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except algorithms.DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
