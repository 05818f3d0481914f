import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gtvr import cli, ingest, metrics, theory


QUAD_CONFIG = """\
# five-agent synthetic least-squares run
dataset = synthetic:quadratic
n = 5
topology = random
p_edge = 0.8
algorithm = gtvr
eta = 0.01
p = 0.5
rounds = {rounds}
seed = 42
cadence = 10
quad_m = 20
quad_d = 4
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_quadratic_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=50))
    out = tmp_path / "trace.csv"
    code = cli.main(["run", "--config", str(cfg), "--output", str(out), "--no-timing"])
    assert code == 0
    rows = metrics.read_trace(out)
    assert rows[0].k == 0 and rows[-1].k == 50
    assert "gtvr" in capsys.readouterr().out


def test_run_zero_rounds_writes_init_row(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=0))
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    rows = metrics.read_trace(out)
    assert [r.k for r in rows] == [0]


def test_missing_dataset_path_fails_with_path_in_message(tmp_path, capsys):
    text = "dataset = /nowhere/a9a\nrounds = 1\n"
    cfg = write_config(tmp_path, text)
    code = cli.main(["run", "--config", str(cfg)])
    assert code != 0
    assert "/nowhere/a9a" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=1) + "typo_key = 3\n")
    assert cli.main(["run", "--config", str(cfg)]) != 0
    assert "typo_key" in capsys.readouterr().err


def test_bad_value_type_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:quadratic\nrounds = soon\n")
    assert cli.main(["run", "--config", str(cfg)]) != 0
    assert "rounds" in capsys.readouterr().err


def test_invalid_parameter_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=1).replace("p = 0.5", "p = 1.5"))
    assert cli.main(["run", "--config", str(cfg)]) != 0
    assert "(0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("lambda1", "nan"), ("lambda1", "inf"), ("eta", "inf")])
def test_non_finite_parameter_rejected_as_bad_config(tmp_path, capsys, key, value):
    data = make_libsvm_file(tmp_path, rows=4, d=3)
    params = {"eta": "0.05", "lambda1": "5e-4", key: value}
    text = f"dataset = {data}\nn = 2\nrounds = 5\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    cfg = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "diverged" not in err
    assert ("step-size" if key == "eta" else key) in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("quad_noise", "nan"),
        ("quad_noise", "inf"),
        ("quad_noise", "-1"),
        ("quad_m", "0"),
        ("quad_d", "-2"),
        # QUAD_CONFIG's topology is random
        ("p_edge", "nan"),
        ("p_edge", "0"),
        ("p_edge", "1.5"),
    ],
)
def test_bad_quadratic_parameter_rejected_as_bad_config(tmp_path, capsys, key, value):
    # a key given twice takes its last value
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=5) + f"{key} = {value}\n")
    assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert key in err and str(cfg) in err
    assert not (tmp_path / "t.csv").exists()


def test_zero_workers_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=1) + "workers = 0\n")
    assert cli.main(["run", "--config", str(cfg)]) != 0
    assert "worker count" in capsys.readouterr().err
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=1), name="flag.cfg")
    assert cli.main(["run", "--config", str(cfg), "--workers", "0"]) != 0
    assert "worker count" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=30))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert cli.main(["run", "--config", str(cfg), "--output", str(out_a), "--no-timing"]) == 0
    assert cli.main(
        ["run", "--config", str(cfg), "--seed", "7", "--output", str(out_b), "--no-timing"]
    ) == 0
    assert cli.main(
        ["run", "--config", str(cfg), "--seed", "42", "--output", str(out_c), "--no-timing"]
    ) == 0
    assert out_a.read_bytes() == out_c.read_bytes()
    assert out_a.read_bytes() != out_b.read_bytes()


def test_env_seed_fallback(tmp_path, monkeypatch):
    body = QUAD_CONFIG.format(rounds=25).replace("seed = 42\n", "")
    cfg = write_config(tmp_path, body)
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("GTVR_SEED", "1234")
    assert cli.main(["run", "--config", str(cfg), "--output", str(out_env), "--no-timing"]) == 0
    monkeypatch.delenv("GTVR_SEED")
    assert cli.main(
        ["run", "--config", str(cfg), "--seed", "1234", "--output", str(out_flag), "--no-timing"]
    ) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_default_output_naming(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=5))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--no-timing"]) == 0
    assert (tmp_path / "gtvr_quadratic_42.csv").is_file()


def test_jsonl_mirror(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=20))
    out = tmp_path / "t.csv"
    mirror = tmp_path / "t.jsonl"
    assert cli.main(
        ["run", "--config", str(cfg), "--output", str(out), "--jsonl", str(mirror), "--no-timing"]
    ) == 0
    rows = metrics.read_trace(out)
    lines = [json.loads(l) for l in mirror.read_text().splitlines()]
    assert len(lines) == len(rows)
    assert lines[-1]["k"] == rows[-1].k
    assert lines[-1]["cost"] == rows[-1].cost


def test_jsonl_mirror_of_an_untracked_run_is_strict_json(tmp_path):
    dsgd = QUAD_CONFIG.format(rounds=20).replace("algorithm = gtvr", "algorithm = dsgd")
    cfg = write_config(tmp_path, dsgd)
    out = tmp_path / "t.csv"
    mirror = tmp_path / "t.jsonl"
    assert cli.main(
        ["run", "--config", str(cfg), "--output", str(out), "--jsonl", str(mirror), "--no-timing"]
    ) == 0

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    lines = [json.loads(l, parse_constant=reject) for l in mirror.read_text().splitlines()]
    assert len(lines) == len(metrics.read_trace(out))
    assert all(line["track"] is None for line in lines)
    assert ",nan," in out.read_text()


def make_libsvm_file(tmp_path, rows=40, d=12, seed=3):
    rng = np.random.default_rng(seed)
    lines = []
    for r in range(rows):
        label = "+1" if rng.random() < 0.5 else "-1"
        nnz = int(rng.integers(1, 5))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)) + 1
        feats = " ".join(f"{i}:{rng.normal():.6g}" for i in idx)
        lines.append(f"{label} {feats}")
    path = tmp_path / "tiny.libsvm"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_run_libsvm_dataset_with_cap_and_normalization(tmp_path):
    data = make_libsvm_file(tmp_path)
    cfg = write_config(
        tmp_path,
        f"dataset = {data}\n"
        "n = 4\n"
        "topology = ring\n"
        "algorithm = gtvr\n"
        "eta = 0.05\n"
        "p = 0.3\n"
        "rounds = 40\n"
        "seed = 11\n"
        "declared_d = 12\n"
        "max_samples = 20\n"
        "normalize = true\n"
        "lambda1 = 5e-4\n",
        name="logi.cfg",
    )
    out = tmp_path / "logi.csv"
    assert cli.main(["run", "--config", str(cfg), "--output", str(out), "--no-timing"]) == 0
    rows = metrics.read_trace(out)
    # 20 samples over 4 agents: the init pass costs one eval per sample
    assert rows[0].grad_evals == 20
    assert rows[-1].cost < rows[0].cost


def test_theory_subcommand_text_and_json(capsys):
    assert cli.main(["theory", "--rho", "0.4", "--p", "0.95", "--l", "2.0"]) == 0
    text = capsys.readouterr().out
    assert "eta_bar" in text and "p_lower" in text
    assert cli.main(["theory", "--rho", "0.4", "--p", "0.95", "--l", "2.0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p_lower"] == pytest.approx(theory.p_lower_bound(0.4), rel=1e-15)
    assert data["contraction_ok"] is True


def test_theory_subcommand_complexity_block(capsys):
    code = cli.main(
        [
            "theory", "--rho", "0.4", "--p", "0.95", "--l", "2.0", "--json",
            "--n", "5", "--samples", "100", "--neighbors", "2,2,2,2,2",
            "--epsilon", "1e-3", "--f-gap", "1.0", "--r0", "0.5",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["iterations"] > 0
    assert data["communications"] == pytest.approx(data["iterations"] * 10, rel=1e-12)


@pytest.mark.parametrize(
    "args, name",
    [
        (["--rho", "0.4", "--p", "1.5", "--l", "1"], "P"),
        (["--rho", "0.4", "--p", "1.0", "--l", "1"], "P"),
        (["--rho", "0.4", "--p", "nan", "--l", "1"], "P"),
        (["--rho", "-0.5", "--p", "0.95", "--l", "1"], "rho"),
        (["--rho", "0.4", "--p", "0.95", "--l", "1", "--n", "0"], "n"),
        (["--rho", "0.4", "--p", "0.95", "--l", "1", "--samples", "-5"], "M"),
    ],
)
def test_theory_rejects_an_invalid_input(args, name, capsys):
    assert cli.main(["theory", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f" {name} must" in captured.err


def test_theory_above_step_cap_prints_a_note_not_a_warning(tmp_path):
    # run as a user would, with warnings shown, so a warning that escapes
    # to stderr (and prints a source path and line) fails the check
    pkg_root = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "gtvr", "theory", "--rho", "0.3", "--p", "0.8", "--l", "2",
            "--eta", "0.01", "--n", "5", "--samples", "100", "--neighbors", "2,2,2,2,2",
            "--epsilon", "1e-3", "--f-gap", "1", "--r0", "0.5",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert ".py:" not in proc.stderr
    assert (
        "note: step-size 0.01 exceeds the complexity-range cap 0.00788757; "
        "estimates are extrapolations"
    ) in proc.stdout.splitlines()


def test_ingest_subcommand(tmp_path, capsys):
    sample = tmp_path / "toy.libsvm"
    sample.write_text("+1 1:1 3:2\n-1 2:0.5\n+1 1:0.25\n-1 3:1\n")
    code = cli.main(
        ["ingest", "--input", str(sample), "--agents", "2", "--scheme", "contiguous"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rows=4" in out and "features=3" in out and "sizes=[2, 2]" in out


def test_ingest_subcommand_bad_file(tmp_path, capsys):
    sample = tmp_path / "bad.libsvm"
    sample.write_text("+1 3:1 2:1\n")
    assert cli.main(["ingest", "--input", str(sample), "--agents", "1"]) != 0
    assert "not increasing" in capsys.readouterr().err
    sample.write_text("+1 1:1 3:nan\n-1 2:1\n")
    assert cli.main(["ingest", "--input", str(sample), "--agents", "1"]) == 2
    assert "line 1, column 8: non-finite feature value 'nan'" in capsys.readouterr().err
    sample.write_text("+1 3000000000:1\n-1 2:1\n")
    assert cli.main(["ingest", "--input", str(sample), "--agents", "1"]) == 2
    assert "line 1, column 4: feature index 3000000000 exceeds 2147483647" in capsys.readouterr().err
    sample.write_text("+1 1:1\n-1 2:1\n")
    argv = ["ingest", "--input", str(sample), "--agents", "1", "--declared-d", "3000000000"]
    assert cli.main(argv) == 2
    assert "declared dimension 3000000000 exceeds 2147483647" in capsys.readouterr().err


def test_run_rejects_non_finite_data_naming_the_token(tmp_path, capsys):
    data = tmp_path / "nan.libsvm"
    data.write_text("+1 3:nan\n-1 1:1\n+1 2:1\n-1 1:2\n")
    cfg = write_config(tmp_path, f"dataset = {data}\nn = 2\nrounds = 5\n")
    assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "line 1, column 4: non-finite feature value 'nan'" in err
    assert "diverged" not in err


def test_run_on_a_196_agent_ring(tmp_path):
    cfg = write_config(
        tmp_path, "dataset = synthetic:quadratic\nn = 196\ntopology = ring\nrounds = 2\nquad_m = 2\n"
    )
    out = tmp_path / "ring.csv"
    assert cli.main(["run", "--config", str(cfg), "--output", str(out), "--no-timing"]) == 0
    assert metrics.read_trace(out)[-1].k == 2


def test_sweep_writes_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=10))
    out_dir = tmp_path / "sweep"
    code = cli.main(
        [
            "sweep", "--config", str(cfg), "--eta", "0.01,0.005", "--p", "0.4,0.6",
            "--seeds", "1,2", "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    files = sorted(p.name for p in out_dir.glob("*.csv"))
    assert len(files) == 8
    assert any("eta0.005" in f and "p0.6" in f and "_2" in f for f in files)


@pytest.mark.parametrize(
    "flag, values, clash",
    [
        ("--eta", "0.1,0.1000001", "eta=0.1 p=0.5 seed=42 and eta=0.1000001 p=0.5"),
        ("--eta", "0.02,0.01,0.02", "eta=0.02 p=0.5 seed=42 and eta=0.02 p=0.5"),
        ("--p", "0.3,0.3000001", "eta=0.01 p=0.3 seed=42 and eta=0.01 p=0.3000001"),
    ],
)
def test_sweep_rejects_grid_points_that_share_a_trace_file(tmp_path, capsys, flag, values, clash):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=5))
    out_dir = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(cfg), flag, values, "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert clash in err
    # no grid point ran
    assert not list(out_dir.glob("*.csv"))


def test_sweep_validates_every_grid_point_before_running_any(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=5))
    out_dir = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(cfg), "--p", "0.3,1.5", "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert "(0, 1)" in err and str(cfg) in err
    assert not list(out_dir.glob("*.csv"))


def write_toy_libsvm(path, rows=23, d=6, seed=3):
    data = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for _ in range(rows):
            feats = [f"{j + 1}:{data.normal():.6f}" for j in range(d) if j == 0 or data.random() < 0.6]
            fh.write(f"{data.choice(['+1', '-1'])} {' '.join(feats)}\n")


@pytest.mark.parametrize("dataset", ["quadratic", "libsvm"])
def test_sweep_builds_problem_once_per_seed(tmp_path, monkeypatch, dataset):
    text = QUAD_CONFIG.format(rounds=12)
    token = "quadratic"
    if dataset == "libsvm":
        write_toy_libsvm(tmp_path / "toy.libsvm")
        text = text.replace("synthetic:quadratic", str(tmp_path / "toy.libsvm"))
        token = "toy"
    cfg = write_config(tmp_path, text)
    built = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(c):
            built.append((name, c.seed))
            return real(c)

        return wrapper

    for name in ("prepare_problem", "build_mixing"):
        monkeypatch.setattr(cli, name, counted(name))
    out_dir = tmp_path / "sweep"
    code = cli.main(
        [
            "sweep", "--config", str(cfg), "--eta", "0.01,0.005", "--p", "0.4,0.6",
            "--seeds", "1,2", "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert sorted(built) == [
        ("build_mixing", 1), ("build_mixing", 2), ("prepare_problem", 1), ("prepare_problem", 2),
    ]
    # every grid point's trace equals a stand-alone run of that point, timing aside
    for eta in (0.01, 0.005):
        for p in (0.4, 0.6):
            for seed in (1, 2):
                point_text = text.replace("eta = 0.01", f"eta = {eta}").replace("p = 0.5", f"p = {p}")
                point = write_config(tmp_path, point_text, "point.cfg")
                alone = tmp_path / "alone.csv"
                argv = ["run", "--config", str(point), "--seed", str(seed), "--output", str(alone)]
                assert cli.main(argv) == 0
                swept = metrics.read_trace(out_dir / f"gtvr_{token}_eta{eta:g}_p{p:g}_{seed}.csv")
                expected = metrics.read_trace(alone)
                assert [replace(r, wall_ms=0.0) for r in swept] == [
                    replace(r, wall_ms=0.0) for r in expected
                ]


def test_divergence_exits_nonzero(tmp_path, capsys):
    cfg = write_config(
        tmp_path, QUAD_CONFIG.format(rounds=500).replace("eta = 0.01", "eta = 1000000.0")
    )
    code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "d.csv")])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
