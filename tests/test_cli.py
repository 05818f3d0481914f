import json
import os
import re
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
        ("declared_d", "-5"),
        ("cadence", "-3"),
        # QUAD_CONFIG's topology is random
        ("p_edge", "nan"),
        ("p_edge", "0"),
        ("p_edge", "1.5"),
        ("n", "1"),
        ("topology", "star"),
    ],
)
def test_bad_quadratic_parameter_rejected_as_bad_config(tmp_path, capsys, key, value):
    # the key's own line, if QUAD_CONFIG has one, gives way to the bad value
    lines = QUAD_CONFIG.format(rounds=5).splitlines(keepends=True)
    text = "".join(line for line in lines if line.partition("=")[0].strip() != key)
    cfg = write_config(tmp_path, text + f"{key} = {value}\n")
    assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert key in err and str(cfg) in err and "duplicate" not in err
    assert not (tmp_path / "t.csv").exists()


def test_a_repeated_config_key_is_rejected_naming_both_lines(tmp_path, capsys):
    text = "dataset = synthetic:quadratic\nrounds = 20\n# five rounds\n  rounds=5\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}: line 4: duplicate config key 'rounds' (first on line 2)"
    ]
    assert not (tmp_path / "t.csv").exists()
    # a flag still overrides the key it repeats
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=5), name="flag.cfg")
    assert cli.main(["run", "--config", str(cfg), "--seed", "7", "--output", str(tmp_path / "t.csv")]) == 0


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
        (["--rho", "0.4", "--p", "0.95", "--l", "2", "--eta", "nan"], "eta"),
        (["--rho", "0.4", "--p", "0.95", "--l", "2", "--eta", "inf"], "eta"),
        (["--rho", "0.4", "--p", "0.95", "--l", "2", "--eta", "0"], "eta"),
        (["--rho", "0.4", "--p", "0.95", "--l", "2", "--eta", "-1"], "eta"),
        (["--rho", "0.4", "--p", "0.95", "--l", "inf"], "L"),
        (["--rho", "0.4", "--p", "0.95", "--l", "nan"], "L"),
        (["--rho", "0.4", "--p", "0.95", "--l", "0"], "L"),
        (["--rho", "0.4", "--p", "0.95", "--l", "-3"], "L"),
        (
            ["--rho", "0.4", "--p", "0.95", "--l", "2", "--epsilon", "0.1", "--f-gap", "nan",
             "--r0", "1", "--n", "4", "--neighbors", "2,2,2,2"],
            "f_gap",
        ),
        (
            ["--rho", "0.4", "--p", "0.95", "--l", "2", "--epsilon", "0.1", "--f-gap", "1",
             "--r0", "nan", "--n", "4", "--neighbors", "2,2,2,2"],
            "r0",
        ),
        (
            ["--rho", "0.4", "--p", "0.95", "--l", "2", "--epsilon", "nan", "--f-gap", "1",
             "--r0", "1", "--n", "4", "--neighbors", "2,2,2,2"],
            "epsilon",
        ),
        (
            ["--rho", "0.4", "--p", "0.95", "--l", "2", "--epsilon", "0.1", "--f-gap", "1",
             "--r0", "1", "--n", "2", "--neighbors=-1,-1"],
            "neighbor counts",
        ),
        (
            ["--rho", "0.4", "--p", "0.95", "--l", "2", "--epsilon", "0.1", "--f-gap", "1",
             "--r0", "1", "--n", "2", "--neighbors", "0,0"],
            "neighbor counts",
        ),
    ],
)
def test_theory_rejects_an_invalid_input(args, name, capsys):
    assert cli.main(["theory", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f" {name} must" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["--l", "1e150"],
        ["--l", "1e100"],
        ["--l", "1e-200"],
        ["--l", "1e200"],
        ["--l", "1.7e308", "--eta", "1e-308"],
        ["--l", "1e154", "--eta", "1e-155"],
        ["--l", "2", "--eta", "1e-170"],
        ["--l", "2", "--eta", "1e300"],
        ["--l", "2", "--eta", "5e-324", "--epsilon", "5e-324", "--f-gap", "1e308",
         "--r0", "1e308", "--n", "2", "--neighbors", "1,1"],
        ["--l", "1e-300", "--eta", "1e-10", "--epsilon", "1e-300", "--f-gap", "1",
         "--r0", "1", "--n", "2", "--neighbors", "1,1"],
        ["--l", "2", "--rho", "1e300"],
        ["--l", "2", "--eta", "1e-10", "--epsilon", "1e-10", "--f-gap", "1", "--r0", "1e308",
         "--n", "2", "--neighbors", "1,1"],
    ],
)
def test_theory_extreme_finite_inputs_never_raise(args, capsys):
    # a finite input either names what is wrong (exit 2) or prints the
    # report with a note, such as one saying a bound left double precision
    full = ["theory", "--p", "0.95", *args]
    if "--rho" not in args:
        full += ["--rho", "0.4"]
    code = cli.main(full)
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert re.search(r" (eta|L|rho|P|n|M|epsilon|f_gap|r0) must", captured.err)
    else:
        assert "\nnote: " in captured.out


def run_with_warnings_shown(tmp_path, *args):
    """``python -m gtvr *args`` as a user would run it, with warnings
    shown, so a warning that escapes to stderr prints a source path."""
    pkg_root = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gtvr", *args], capture_output=True, text=True, cwd=tmp_path, env=env
    )


def test_divergence_prints_its_error_and_no_numpy_warning(tmp_path):
    # an overflow in the divergence check surfaces as the error, not as a warning
    cfg = write_config(
        tmp_path, "dataset = synthetic:quadratic\nrounds = 5\nn = 4\nalgorithm = dsgd\neta = 1e200\n"
    )
    proc = run_with_warnings_shown(tmp_path, "run", "--config", str(cfg), "--output", "t.csv")
    assert proc.returncode == 1, proc.stderr
    assert "error: iterate diverged at iteration 1" in proc.stderr.splitlines()
    assert ".py:" not in proc.stderr


def test_theory_above_step_cap_prints_a_note_not_a_warning(tmp_path):
    proc = run_with_warnings_shown(
        tmp_path,
        "theory", "--rho", "0.3", "--p", "0.8", "--l", "2", "--eta", "0.01", "--n", "5",
        "--samples", "100", "--neighbors", "2,2,2,2,2", "--epsilon", "1e-3", "--f-gap", "1",
        "--r0", "0.5",
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


RING4_CONFIG = (
    "dataset = synthetic:quadratic\nn = 4\ntopology = ring\nalgorithm = gtvr\n"
    "p = 0.5\nrounds = 200\nseed = 42\n"
)


def test_sweep_stops_at_the_first_diverged_point_in_grid_order(tmp_path):
    # the points before the diverged one are written and reported, the
    # diverged point prints its advisories and its error, and no later
    # point runs
    cfg = write_config(tmp_path, RING4_CONFIG)
    proc = run_with_warnings_shown(
        tmp_path, "sweep", "--config", str(cfg), "--eta", "0.01,1000000,0.02", "--out-dir", "out"
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "eta=0.01 p=0.5 seed=42: cost 0.360211, stationarity 1.025e-01 "
        "-> out/gtvr_quadratic_eta0.01_p0.5_42.csv"
    ]
    below = "WARNING refresh probability 0.5 is below the admissible bound 0.85 (advisory only)"
    reference_p = (
        "INFO theory: P = 0.5 is not above the admissible bound 0.85; "
        "step-size bounds computed at reference P = 0.925"
    )
    assert proc.stderr.splitlines() == [
        below,
        reference_p,
        below,
        "WARNING step-size 1e+06 exceeds the guaranteed range bound 0.0387097 (advisory only)",
        reference_p,
        "INFO theory: eta * L = 1e+06 > 1/6: contraction matrix undefined",
        "error: iterate diverged at iteration 3",
    ]
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == ["gtvr_quadratic_eta0.01_p0.5_42.csv"]


def test_sweep_stops_at_a_point_that_diverges_later_than_a_point_after_it(tmp_path, capsys):
    # eta=6 diverges at iteration 120 and eta=1e6 at iteration 3; grid
    # order decides, so the sweep stops with eta=6's error
    cfg = write_config(tmp_path, RING4_CONFIG)
    out_dir = tmp_path / "out"
    code = cli.main(["sweep", "--config", str(cfg), "--eta", "0.01,6,1000000", "--out-dir", str(out_dir)])
    assert code == 1
    captured = capsys.readouterr()
    first = out_dir / "gtvr_quadratic_eta0.01_p0.5_42.csv"
    assert captured.out.splitlines() == [
        f"eta=0.01 p=0.5 seed=42: cost 0.360211, stationarity 1.025e-01 -> {first}"
    ]
    assert captured.err.splitlines() == ["error: iterate diverged at iteration 120"]
    assert list(out_dir.iterdir()) == [first]


def test_divergence_exits_nonzero(tmp_path, capsys):
    cfg = write_config(
        tmp_path, QUAD_CONFIG.format(rounds=500).replace("eta = 0.01", "eta = 1000000.0")
    )
    code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "d.csv")])
    assert code == 1
    assert "diverged" in capsys.readouterr().err


def test_sweep_estimates_the_smoothness_constant_once_per_seed(tmp_path, monkeypatch, capsys):
    estimates = []
    real = cli.problem.QuadraticProblem.lipschitz_estimate

    def counted(self):
        estimates.append(self)
        return real(self)

    monkeypatch.setattr(cli.problem.QuadraticProblem, "lipschitz_estimate", counted)
    cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=10))
    argv = ["sweep", "--config", str(cfg), "--eta", "0.01,0.005", "--p", "0.4,0.6", "--seeds", "1,2,3"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "sweep")]) == 0
    assert len(estimates) == 3 and len({id(prob) for prob in estimates}) == 3
    assert len(capsys.readouterr().out.splitlines()) == 12


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("sweep", "--eta", "0.1,abc", "cannot parse 'abc' in '0.1,abc' as float"),
        ("sweep", "--p", "0.3,,0.5", "cannot parse '' in '0.3,,0.5' as float"),
        ("sweep", "--seeds", "1,x", "cannot parse 'x' in '1,x' as int"),
        ("sweep", "--eta", "", "expected at least one comma-separated value, got none"),
        ("sweep", "--p", " ", "expected at least one comma-separated value, got none"),
        ("sweep", "--seeds", "", "expected at least one comma-separated value, got none"),
        ("theory", "--neighbors", "1,x", "cannot parse 'x' in '1,x' as int"),
        ("theory", "--neighbors", "", "expected at least one comma-separated value, got none"),
    ],
)
def test_a_bad_list_value_names_its_flag(tmp_path, command, flag, value, message):
    if command == "sweep":
        cfg = write_config(tmp_path, QUAD_CONFIG.format(rounds=5))
        args = ["sweep", "--config", str(cfg), "--out-dir", "out"]
    else:
        args = ["theory", "--rho", "0.4", "--p", "0.95", "--l", "2", "--n", "2"]
    proc = run_with_warnings_shown(tmp_path, *args, f"{flag}={value}")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"gtvr {command}: error: argument {flag}: {message}" in proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
