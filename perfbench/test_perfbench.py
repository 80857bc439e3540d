"""Self-test of the benchmark: one op per workload, metric names and units,
a tampered reference counted as a failed op, and a refusal to run without
the program's sources.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def assert_metrics(out: dict, declared: list, stdout: str) -> None:
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        assert f"{m['name']} " in stdout and f" {m['unit']} (ops=" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", 0, "--seconds", 0.01, "--trace", 0)
    out = result(proc)
    assert out["attempted"] == 1 and out["failed"] == 0 and out["correct"]
    assert_metrics(out, SPEC["end_to_end"], proc.stdout)
    assert out["metrics"]["ok_frac"]["value"] == 1.0
    assert "checked against reference: 1" in proc.stdout
    assert "failed_frac 0.000000 ratio (ops=1)" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_op_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", 0, "--seconds", 0.01, "--trace", 1)
    out = result(proc)
    assert out["attempted"] == 1 and out["correct"]
    assert_metrics(out, SPEC["per_layer"], proc.stdout)
    # every layer that runs in every workload
    for name in ("smoother.fit_curve_s", "varcomp.projections_s", "cli.write_s"):
        assert out["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_fails_the_op(workload, tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    entry = ref["ops"][workload]["0"]  # workload seed 0, op 0
    key = sorted(entry["values"])[0]
    entry["values"][key][0] *= 1.0 + 1e-6
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(ref))
    proc = bench("--workload", workload, "--seed", 0, "--seconds", 0.01, "--trace", 0,
                 "--reference", tampered)
    out = result(proc)
    assert out["attempted"] == 1 and out["failed"] == 1 and not out["correct"]
    assert out["metrics"]["ok_frac"]["value"] == 0.0
    assert "failed_frac 1.000000 ratio (ops=1)" in proc.stdout
    assert f"{key}:" in proc.stdout


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", 0, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
