"""The four benchmark workloads: op inputs, CLI arguments and output checks.

One op is one in-process ``vcre.cli.main([...])`` call.  Op ``k`` of a run
with workload seed ``s`` uses the op seed ``s * 1000 + k``, so no two ops
of a run share an input and the same workload seed always gives the same
inputs.

Every op's outputs are read back from the files the CLI wrote and checked:
against the stored reference values when ``reference.json`` holds the op
seed, otherwise for finiteness, shape, zero failed replications and REML
convergence.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from vcre import ScenarioConfig, cli, generate, write_dataset
from vcre.simulate import ESTIMANDS

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

IMP_KNOTS = tuple(range(7, 16))
MANIFEST = "run_manifest.json"

# |value - reference| <= atol + rtol * |reference|, per value kind.
# "closed": the closed-form estimates and everything derived from them
# (fit outputs, MSE/IMP tables, the closed-form column of bench-reml).
# "reml": REML columns.  The simplex stops once its vertex values of
# -2 log L_R spread by less than 1e-8; near the optimum the Hessian in the
# log-Cholesky parameters is O(n) ~ 1e2..1e3, so parameters are pinned only
# to sqrt(2e-8 / 1e2) ~ 1e-5, and a squared error (est - truth)^2 moves by
# about 2 * 1e-5 / |est - truth| of itself.  rtol 2e-3 covers errors
# down to |est - truth| ~ 1e-2; atol covers the rest.
TOLERANCES = {
    "closed": {"rtol": 1e-8, "atol": 1e-12},
    "reml": {"rtol": 2e-3, "atol": 1e-6},
}


# reference.json holds ops 0 .. REFERENCE_OPS - 1 of every workload seed in
# REFERENCE_SEEDS.  At the recorded commit a run makes 8 to 16 ops, so the
# reference still covers every op of a run once the program is 3x faster;
# run.py names any op past it.
REFERENCE_SEEDS = range(0, 11)
REFERENCE_OPS = 48


def op_seed(workload_seed: int, op_index: int) -> int:
    return workload_seed * 1000 + op_index


def _fit_inputs(seed: int, op_dir: Path) -> Path:
    path = op_dir / "data.csv"
    write_dataset(generate(ScenarioConfig(m=400, seed=seed), rep_index=0), str(path))
    return path


def _no_inputs(seed: int, op_dir: Path) -> None:
    return None


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path: Path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _flat(value) -> list:
    if isinstance(value, list):
        return [x for v in value for x in _flat(v)]
    return [float(value)]


def _extract_fit(out: Path) -> dict:
    vc = _read_json(out / "variance_components.json")
    diag = _read_json(out / "diagnostics.json")
    return {
        "sigma2": _flat(vc["sigma2"]),
        "sigma_raw": _flat(vc["sigma_raw"]),
        "sigma_psd": _flat(vc["sigma_psd"]),
        "se_sigma2": _flat(diag["se_sigma2"]),
        "se_Sigma": _flat(diag["se_Sigma"]),
        "bias_sigma2": _flat(diag["bias_sigma2"]),
        "bias_Sigma": _flat(diag["bias_Sigma"]),
    }


def _table_values(path: Path, key_col: str) -> dict:
    values = {}
    for row in _read_rows(path):
        key = row.pop(key_col)
        for col, raw in row.items():
            values[f"{col}:{key}"] = [float(raw)]
    return values


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    reps: int  # replications per op; every REML fit among them must converge
    cli_args: Callable[[int, Optional[Path], Path], list]
    build_inputs: Callable[[int, Path], Optional[Path]]
    extract: Callable[[Path], dict]
    expected: dict  # output value name -> number of entries, in output order


def _manifest_counts(out: Path) -> tuple:
    """(failed replications, converged REML fits or None) from the manifest."""
    config = _read_json(out / MANIFEST)["config"]
    converged = config.get("reml_converged")
    return int(config.get("failures", 0)), (
        None if converged is None else sum(converged.values())
    )


def _table_keys(cols, rows) -> dict:
    return {f"{c}:{r}": 1 for r in rows for c in cols}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-m400",
            why="single-dataset user path: vcre fit with diagnostics at m=400; "
            "curvature and fit_curve dominate, so smoother and asymptotics gains show",
            threads=1,
            reps=0,
            cli_args=lambda s, data, out: [
                "fit", "--data", str(data), "--bandwidth", "0.15", "--out-dir", str(out),
            ],
            build_inputs=_fit_inputs,
            extract=_extract_fit,
            expected={"sigma2": 1, "sigma_raw": 4, "sigma_psd": 4, "se_sigma2": 1,
                      "se_Sigma": 3, "bias_sigma2": 1, "bias_Sigma": 3},
        ),
        Workload(
            name="mc-mse",
            why="reference-table path: many small degree-1 fits and the only "
            "replication fan-out, kept at threads=2 although slower than serial",
            threads=2,
            reps=20,
            cli_args=lambda s, data, out: [
                "simulate", "--scenario", "gaussian", "--reps", "20", "--threads", "2",
                "--seed", str(s), "--out-dir", str(out),
            ],
            build_inputs=_no_inputs,
            extract=lambda out: _table_values(out / "mse_table.csv", "estimand"),
            expected=_table_keys(("mse_closed_form", "se_closed_form"), ESTIMANDS),
        ),
        Workload(
            name="mc-imp",
            why="B-spline path: per-cluster design building and WI/WLS solves "
            "over 9 knot counts; the smoother does under 10% of it",
            threads=1,
            reps=2,
            cli_args=lambda s, data, out: [
                "simulate", "--scenario", "imp", "--knots", "7:15", "--reps", "2",
                "--threads", "1", "--seed", str(s), "--out-dir", str(out),
            ],
            build_inputs=_no_inputs,
            extract=lambda out: _table_values(out / "imp_table.csv", "knots"),
            expected=_table_keys(("imp_a1", "imp_a2"), IMP_KNOTS),
        ),
        Workload(
            name="reml",
            why="REML baseline: hundreds of likelihood evaluations at one fixed "
            "design; shares GLS weighting with mc-imp",
            threads=1,
            reps=2,
            cli_args=lambda s, data, out: [
                "bench-reml", "--knots", "8", "--reps", "2", "--threads", "1",
                "--seed", str(s), "--out-dir", str(out),
            ],
            build_inputs=_no_inputs,
            extract=lambda out: _table_values(out / "bench_reml.csv", "estimand"),
            expected=_table_keys(("reml_k8", "closed_form"), ESTIMANDS),
        ),
    )
}


@dataclass
class OpRun:
    seed: int
    out: Path
    rc: int
    wall_s: float
    build_s: float
    stderr: str


def run_cli_op(w: Workload, seed: int, op_dir: Path) -> OpRun:
    """Build the op's inputs (timed apart), then time one ``cli.main`` call."""
    op_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    data = w.build_inputs(seed, op_dir)
    build_s = time.perf_counter() - t0
    out = op_dir / "out"
    argv = w.cli_args(seed, data, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - t0
    return OpRun(seed=seed, out=out, rc=rc, wall_s=wall_s, build_s=build_s,
                 stderr=stderr.getvalue())


def fingerprint(out: Path) -> str:
    """sha256 over the bytes of every output file except the manifest.

    The CLI writes floats with repr, so equal fingerprints mean no output
    number moved in any digit.
    """
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name == MANIFEST or not path.is_file():
            continue
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    if not path.exists():
        return {}
    return _read_json(path)["ops"]


def tolerance_kind(key: str) -> str:
    return "reml" if key.startswith("reml_") else "closed"


@dataclass
class CheckResult:
    ok: bool
    mode: str  # "reference" | "structural"
    detail: str
    values: dict
    converged: Optional[int]
    fingerprint: str


def check_outputs(w: Workload, seed: int, out: Path, reference: dict) -> CheckResult:
    """Check one op's outputs; never raises for a wrong number, reports it."""
    values = w.extract(out)
    failures, converged = _manifest_counts(out)
    problems = []
    shape = {key: len(vals) for key, vals in values.items()}
    if list(shape.items()) != list(w.expected.items()):
        problems.append(f"output shape {shape} != {w.expected}")
    for key, vals in values.items():
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"{key} not finite: {vals}")
    if failures:
        problems.append(f"{failures} failed replications")
    if converged is not None and converged != w.reps:
        problems.append(f"REML converged in {converged} of {w.reps} fits")
    ref = reference.get(w.name, {}).get(str(seed))
    mode = "structural"
    if ref is not None:
        mode = "reference"
        for key, ref_vals in ref["values"].items():
            tol = TOLERANCES[tolerance_kind(key)]
            got = values.get(key)
            if got is None or len(got) != len(ref_vals):
                problems.append(f"{key}: shape differs from reference")
                continue
            for g, r in zip(got, ref_vals):
                if not abs(g - r) <= tol["atol"] + tol["rtol"] * abs(r):
                    problems.append(f"{key}: {g!r} vs reference {r!r}")
        if ref.get("converged") != converged:
            problems.append(f"converged {converged} vs reference {ref.get('converged')}")
    return CheckResult(
        ok=not problems,
        mode=mode,
        detail="; ".join(problems),
        values=values,
        converged=converged,
        fingerprint=fingerprint(out),
    )
