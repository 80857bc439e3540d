import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcre
from vcre import ScenarioConfig, generate, write_dataset
from vcre.cli import main

SRC = str(Path(vcre.__file__).resolve().parent.parent)


@pytest.fixture()
def demo_csv(tmp_path):
    ds = generate(ScenarioConfig(seed=4, m=30), 0)
    path = tmp_path / "demo.csv"
    write_dataset(ds, str(path))
    return path


def run_cli(args):
    return main([str(a) for a in args])


def test_fit_happy_path(tmp_path, demo_csv, capsys):
    out = tmp_path / "out"
    code = run_cli(["fit", "--data", demo_csv, "--bandwidth", "0.2",
                    "--out-dir", out])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert "sigma2" in summary
    for name in ("curve.csv", "variance_components.json", "effects.csv",
                 "diagnostics.json", "run_manifest.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "variance_components.json").read_text())
    assert set(report) == {"sigma2", "sigma_raw", "sigma_psd", "correlation",
                           "excluded_clusters"}
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"mu", "b", "B1", "B2", "gamma_hat", "c1", "c2",
                         "bias_sigma2", "se_sigma2", "bias_Sigma", "se_Sigma"}
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["input_hashes"]


def test_fit_requires_bandwidth(tmp_path, demo_csv, capsys):
    code = run_cli(["fit", "--data", demo_csv, "--out-dir", tmp_path])
    assert code == 2
    assert "bandwidth" in capsys.readouterr().err


def test_fit_missing_data_flag(capsys):
    code = run_cli(["fit", "--bandwidth", "0.2"])
    assert code == 2


def test_fit_bandwidth_rule(tmp_path, demo_csv, capsys):
    code = run_cli(["fit", "--data", demo_csv, "--bandwidth-rule", "1.0",
                    "--out-dir", tmp_path / "o"])
    assert code == 0


def test_fit_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("cluster,u,y,x1,z1\na,0.1,NA,1.0,1.0\n")
    code = run_cli(["fit", "--data", bad, "--bandwidth", "0.2",
                    "--out-dir", tmp_path])
    assert code == 2
    assert "row 2" in capsys.readouterr().err


def test_fit_strict_validation_exit_code(tmp_path, capsys):
    lines = ["cluster,u,y,x1,z1,z2"]
    lines.append("tiny,0.5,1.0,1.0,1.0,0.3")  # n_i = 1 <= q = 2
    rng = np.random.default_rng(0)
    for i in range(8):
        for j in range(7):
            lines.append(
                f"c{i},{rng.uniform(0, 1)},{rng.normal()},{rng.normal()},"
                f"{rng.normal()},{rng.normal()}"
            )
    data = tmp_path / "d.csv"
    data.write_text("\n".join(lines) + "\n")
    code = run_cli(["fit", "--data", data, "--bandwidth", "0.4", "--strict",
                    "--out-dir", tmp_path])
    assert code == 3
    assert "tiny" in capsys.readouterr().err


def clusters_csv(path, sizes):
    """Write a q = 2 dataset with one cluster c<i> of each given size."""
    rng = np.random.default_rng(0)
    lines = ["cluster,u,y,x1,z1,z2"]
    for i, size in enumerate(sizes):
        for _ in range(size):
            lines.append(f"c{i},{rng.uniform(0, 1)},{rng.normal()},{rng.normal()},"
                         f"{rng.normal()},{rng.normal()}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_reports_each_infeasible_cluster_once(tmp_path):
    # a fresh process, so that Python's own warning display is what a user sees
    data = clusters_csv(tmp_path / "d.csv", [2] + [7] * 8)  # c0: n_i = 2 <= q = 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "vcre.cli", "fit", "--data", str(data), "--bandwidth", "0.4",
         "--skip-diagnostics", "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == ["warning: cluster c0: n_le_q"]


@pytest.mark.parametrize("sizes, message", [
    ([2] * 30, "no cluster is eligible"),
    ([7] + [2] * 30, "need at least 2"),
])
def test_fit_too_few_eligible_clusters_exit_code(tmp_path, capsys, sizes, message):
    data = clusters_csv(tmp_path / "d.csv", sizes)
    code = run_cli(["fit", "--data", data, "--bandwidth", "0.4", "--out-dir", tmp_path])
    assert code == 3
    assert message in capsys.readouterr().err


def test_fit_grid_eval_mode(tmp_path, demo_csv):
    code = run_cli(["fit", "--data", demo_csv, "--bandwidth", "0.2",
                    "--eval-mode", "grid", "--grid-size", "101",
                    "--skip-diagnostics", "--out-dir", tmp_path / "g"])
    assert code == 0
    curve = (tmp_path / "g" / "curve.csv").read_text().splitlines()
    assert len(curve) == 102  # header + grid rows


def test_simulate_requires_seed(tmp_path, capsys):
    code = run_cli(["simulate", "--scenario", "gaussian", "--reps", "2",
                    "--out-dir", tmp_path])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_unknown_scenario(tmp_path, capsys):
    code = run_cli(["simulate", "--scenario", "bogus", "--seed", "1",
                    "--out-dir", tmp_path])
    assert code == 2


def test_simulate_gaussian_outputs_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run_cli(["simulate", "--scenario", "gaussian", "--reps", "3",
                        "--m", "20", "--seed", "9", "--out-dir", out])
        assert code == 0
    t1 = (out1 / "mse_table.csv").read_bytes()
    t2 = (out2 / "mse_table.csv").read_bytes()
    assert t1 == t2
    rows = t1.decode().splitlines()
    assert rows[0].startswith("estimand,")
    assert len(rows) == 5  # header + 4 estimands
    # thread count must not change the bytes
    out3 = tmp_path / "c"
    code = run_cli(["simulate", "--scenario", "gaussian", "--reps", "3",
                    "--m", "20", "--seed", "9", "--threads", "3",
                    "--out-dir", out3])
    assert code == 0
    assert (out3 / "mse_table.csv").read_bytes() == t1


def test_simulate_imp_table_shape(tmp_path, capsys):
    code = run_cli(["simulate", "--scenario", "imp", "--reps", "2", "--m", "20",
                    "--knots", "7:9", "--seed", "3", "--out-dir", tmp_path])
    assert code == 0
    rows = (tmp_path / "imp_table.csv").read_text().splitlines()
    assert rows[0] == "knots,imp_a1,imp_a2"
    assert len(rows) == 4  # header + 3 knot counts


def test_bench_reml_guard(tmp_path, capsys):
    code = run_cli(["bench-reml", "--q", "4", "--seed", "1",
                    "--out-dir", tmp_path])
    assert code == 2
    assert "q=4" in capsys.readouterr().err


def test_bench_reml_small_run(tmp_path, capsys):
    code = run_cli(["bench-reml", "--knots", "4", "--reps", "2", "--m", "15",
                    "--seed", "2", "--out-dir", tmp_path])
    assert code == 0
    rows = (tmp_path / "bench_reml.csv").read_text().splitlines()
    assert rows[0] == "estimand,reml_k4,closed_form"
    assert len(rows) == 5
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert "reml_converged" in manifest["config"]


def test_moments_command(capsys):
    code = run_cli(["moments", "--kernel", "epanechnikov"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mu2"] == pytest.approx(0.2)
    assert out["mu0"] == 1.0


def test_config_file_defaults_and_flag_override(tmp_path, demo_csv, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bandwidth=0.2\nskip_diagnostics=true\n")
    out = tmp_path / "o"
    code = run_cli(["fit", "--data", demo_csv, "--config", cfg,
                    "--out-dir", out])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["bandwidth"] == 0.2
    # explicit flag wins over the config file
    out2 = tmp_path / "o2"
    code = run_cli(["fit", "--data", demo_csv, "--config", cfg,
                    "--bandwidth", "0.3", "--skip-diagnostics",
                    "--out-dir", out2])
    assert code == 0
    manifest2 = json.loads((out2 / "run_manifest.json").read_text())
    assert manifest2["config"]["bandwidth"] == 0.3


def test_manifest_replay_reproduces_outputs(tmp_path):
    out1 = tmp_path / "r1"
    assert run_cli(["simulate", "--scenario", "uniform", "--reps", "2",
                    "--m", "15", "--seed", "21", "--out-dir", out1]) == 0
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    cfg = manifest["config"]
    out2 = tmp_path / "r2"
    assert run_cli(["simulate", "--scenario", cfg["scenario"],
                    "--reps", cfg["reps"], "--m", cfg["m"],
                    "--bandwidth", cfg["bandwidth"],
                    "--seed", manifest["seed"], "--out-dir", out2]) == 0
    assert (out1 / "mse_table.csv").read_bytes() == (out2 / "mse_table.csv").read_bytes()


def test_malformed_knots_exit_code(tmp_path, capsys):
    code = run_cli(["simulate", "--scenario", "imp", "--knots", "a:b", "--seed", "1",
                    "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "'a:b'" in err


def test_malformed_config_value_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("reps=abc\n")
    code = run_cli(["simulate", "--scenario", "gaussian", "--config", cfg,
                    "--seed", "1", "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "reps" in err and "'abc'" in err


def one_error_line(capsys):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    return err


def test_config_unknown_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("rep=3\n")
    code = run_cli(["simulate", "--scenario", "gaussian", "--config", cfg,
                    "--seed", "1", "--out-dir", tmp_path])
    assert code == 2
    assert "'rep'" in one_error_line(capsys)
    assert not (tmp_path / "mse_table.csv").exists()


def test_config_missing_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    code = run_cli(["simulate", "--scenario", "gaussian", "--config", cfg,
                    "--seed", "1", "--out-dir", tmp_path])
    assert code == 2
    assert str(cfg) in one_error_line(capsys)


@pytest.mark.parametrize("key, value", [("ridge", "ture"), ("kernel", "gauss")])
def test_config_value_outside_choices_exit_code(tmp_path, demo_csv, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}={value}\n")
    code = run_cli(["fit", "--data", demo_csv, "--bandwidth", "0.2", "--config", cfg,
                    "--out-dir", tmp_path / "o"])
    assert code == 2
    err = one_error_line(capsys)
    assert key in err and repr(value) in err
    assert not (tmp_path / "o" / "curve.csv").exists()
