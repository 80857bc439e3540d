"""vcre benchmark: one workload as a closed loop with a single client.

    python3 perfbench/run.py --workload fit-m400 --seed 1 --seconds 20 --trace 0

Each op is one in-process ``vcre.cli.main([...])`` call on inputs made
from ``--seed`` (see ``workloads.py``).  Ops run back to back until their
summed wall time reaches ``--seconds``; every op's outputs are checked.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``setup_s`` (median time to import vcre afresh, over twenty imports, plus
the median time to build one op's inputs, in seconds at the fixed machine
speed ``PROBE_REF_S``), ``op_cost_p50`` and ``ops_per_probe``
(op wall time in units of the machine-speed probe, see ``_probe``),
``peak_rss_mb`` of this process and ``ok_frac``
(1 - failed/attempted).  The raw wall-time figures ``op_s_p50`` and
``ops_per_s`` are printed above the result.

``--trace 1`` runs each op untraced through the CLI, then replays it
through the public stage functions twice, tracer off and tracer on (see
``replay.py``); both replays must reproduce the CLI's output files byte
for byte before any per-layer metric is reported.  Per-layer metrics are
medians over ops; ``trace.overhead_frac`` compares the two replays, which
run in alternating order, each divided by the probes on either side.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
op count, the machine block and the output fingerprint.  A run report and
the recorded spans go to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: mc-mse's two replication
# threads would otherwise oversubscribe a two-core machine.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("fit-m400", "mc-mse", "mc-imp", "reml")
END_TO_END = {
    "setup_s": "s",
    "op_cost_p50": "probe",
    "ops_per_probe": "1/probe",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# vcre is imported afresh this many times (its modules dropped from
# sys.modules first), with numpy and scipy left loaded: their import takes
# 0.65 to 1.15 s in a fresh process, ten times vcre's own, and its spread
# would hide any change to the program's own import.
IMPORTS = 20
# setup_s is in seconds at a fixed machine speed: each sample's wall time is
# divided by the mean of the probes on either side and multiplied by
# PROBE_REF_S, the probe's median wall time in the baseline runs.  Raw
# set-up seconds drift with the machine like op times do.
PROBE_REF_S = 0.13


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, replay mismatch)."""


def _import_vcre() -> float:
    """Import vcre from this checkout's ``src``; returns the import time."""
    if not (SRC / "vcre" / "__init__.py").is_file():
        raise BenchError(f"no vcre sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import vcre

    elapsed = time.perf_counter() - t0
    if Path(vcre.__file__).resolve().parent != (SRC / "vcre").resolve():
        raise BenchError(f"imported vcre from {vcre.__file__}, not from {SRC}")
    return elapsed


def _reimport_s() -> float:
    """Time to import vcre afresh, with its dependencies already loaded."""
    for name in [m for m in sys.modules if m == "vcre" or m.startswith("vcre.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("vcre")
    return time.perf_counter() - t0


def _import_costs() -> list:
    """Import times of vcre, each in probe units."""
    costs = []
    before = _probe()
    for _ in range(IMPORTS):
        wall = _reimport_s()
        after = _probe()
        costs.append(2.0 * wall / (before + after))
        before = after
    return costs


def _machine() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pin": BLAS_PIN,
        "platform": platform.platform(),
    }


def _median(xs) -> float:
    return float(statistics.median(xs))


def _probe() -> float:
    """Wall time of a fixed, program-independent machine-speed probe (~0.1 s).

    This machine's speed drifts by up to 1.7x over minutes (other tenants),
    and an op's CPU time drifts with it, so raw op times of two runs are not
    comparable.  The probe mixes interpreter-bound looping with small numpy
    calls, like the program, and runs between imports and between ops; a
    timing's cost is its wall time over the mean of the probes on either
    side.  The probe imports nothing from vcre, so a change to the program
    cannot move it.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(64.0).reshape(8, 8) / 64.0 + 8.0 * np.eye(8)
    acc = 0.0
    for i in range(6000):
        acc += float(np.linalg.solve(a, a[:, i % 8])[0])
    x = 0
    for i in range(600000):
        x += i * i % 7
    return time.perf_counter() - t0


class Run:
    """One benchmark run: ops, their checks, and the metrics derived from them."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 reference: Path):
        import replay
        import workloads

        self.replay = replay
        self.workloads = workloads
        self.w = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.reference = workloads.load_reference(reference)
        self.dir = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.ops: list = []
        self.tracer = replay.Tracer(enabled=True) if trace else None
        self.layer_rows: list = []

    def _op(self, k: int) -> dict:
        seed = self.workloads.op_seed(self.seed, k)
        op_dir = self.dir / f"op{k}"
        rec = {"index": k, "seed": seed, "ok": False}
        try:
            run = self.workloads.run_cli_op(self.w, seed, op_dir)
        except Exception:  # the op raised instead of exiting: a failed op
            rec.update(wall_s=None, detail=traceback.format_exc(limit=3))
            return rec
        rec.update(wall_s=run.wall_s, build_s=run.build_s, rc=run.rc)
        if run.rc != 0:
            rec["detail"] = f"exit code {run.rc}: {run.stderr.strip()[-400:]}"
            return rec
        try:
            res = self.workloads.check_outputs(self.w, seed, run.out, self.reference)
        except (OSError, ValueError, KeyError) as e:
            rec["detail"] = f"unreadable outputs: {e!r}"
            return rec
        ref = self.reference.get(self.w.name, {}).get(str(seed)) or {}
        rec.update(ok=res.ok, check=res.mode, detail=res.detail,
                   fingerprint=res.fingerprint,
                   same_bytes_as_reference=ref.get("fingerprint") == res.fingerprint)
        if self.trace and res.ok:
            rec.update(self._traced(k, seed, op_dir, run, res))
        return rec

    def _traced(self, k, seed, op_dir, run, res) -> dict:
        data = op_dir / "data.csv" if (op_dir / "data.csv").exists() else None
        tracers = {"off": self.replay.Tracer(enabled=False), "on": self.tracer}
        # Alternate which replay goes first and divide each by the probes on
        # either side, so that machine-speed drift does not read as overhead.
        order = ("off", "on") if k % 2 == 0 else ("on", "off")
        walls, costs = {}, {}
        probes = [_probe()]
        for label in order:
            out = op_dir / f"replay-{label}"
            walls[label] = self.replay.run_replay(tracers[label], self.w.name, k, seed,
                                                  data, out)
            probes.append(_probe())
            costs[label] = 2.0 * walls[label] / (probes[-2] + probes[-1])
            got = self.workloads.check_outputs(self.w, seed, out, {})
            if got.fingerprint != res.fingerprint or got.converged != res.converged:
                raise BenchError(
                    f"{self.w.name} op {k}: traced replay ({label}) does not reproduce "
                    "the CLI outputs; no per-layer metric is reported"
                )
        row = self.replay.op_metrics(self.tracer, k, self.w.threads, run.wall_s)
        row["trace.overhead_frac"] = (costs["on"] - costs["off"]) / costs["off"]
        self.layer_rows.append(row)
        return {"replay_off_s": walls["off"], "replay_on_s": walls["on"],
                "replay_order": order, "replay_probes_s": probes}

    def execute(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        timed = 0.0
        k = 0
        probe = None if self.trace else _probe()
        while k == 0 or timed < self.seconds:
            rec = self._op(k)
            timed += sum(rec.get(key) or 0.0 for key in ("wall_s", "replay_off_s",
                                                         "replay_on_s"))
            if probe is not None:
                after = _probe()
                rec.update(probe_before_s=probe, probe_after_s=after)
                probe = after
            self.ops.append(rec)
            if rec["ok"]:
                shutil.rmtree(self.dir / f"op{k}")
            k += 1

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.ops)

    def _in_probes(self, key: str) -> list:
        return [2.0 * r[key] / (r["probe_before_s"] + r["probe_after_s"])
                for r in self.ops if r.get(key) is not None]

    def end_to_end(self, import_costs) -> dict:
        costs = self._in_probes("wall_s")
        ok = sum(r["ok"] for r in self.ops)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": PROBE_REF_S * (_median(import_costs)
                                      + _median(self._in_probes("build_s"))),
            "op_cost_p50": _median(costs),
            "ops_per_probe": ok / sum(costs),
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_frac": 1.0 - self.failed / len(self.ops),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        units = self.replay.LAYER_METRICS
        return {
            name: {"value": _median(row[name] for row in self.layer_rows),
                   "unit": units[name]}
            for name in units
        }

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for r in self.ops:
            digest.update(r.get("fingerprint", "missing").encode())
        return digest.hexdigest()


def _percentile_line(walls) -> str:
    n = len(walls)
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            value = statistics.quantiles(walls, n=1000)[round(q * 1000) - 1]
            return f"op_s_p{q * 100:g} {value:.6f} s (ops={n})"
    return f"op_s_p90 n/a: needs >= 100 ops with 10 beyond it, have {n}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vcre benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="stored reference outputs to check ops against")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        in_process_import_s = _import_vcre()
        import_costs = [] if args.trace else _import_costs()
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.reference)
        run.execute()
    except (BenchError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    machine = _machine()
    walls = [r["wall_s"] for r in run.ops if r.get("wall_s") is not None]
    checks = {mode: sum(r.get("check") == mode for r in run.ops)
              for mode in ("reference", "structural")}
    same = sum(bool(r.get("same_bytes_as_reference")) for r in run.ops)
    if not walls or (args.trace and not run.layer_rows):
        print(f"perfbench: no op {'passed' if args.trace else 'returned'}, nothing to "
              f"measure; first: {run.ops[0].get('detail')}", file=sys.stderr)
        return 2
    metrics = run.per_layer() if args.trace else run.end_to_end(import_costs)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "in_process_import_s": in_process_import_s, "import_costs_probe": import_costs,
        "ops": run.ops, "metrics": metrics, "fingerprint": run.fingerprint(),
    }
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{run.dir.name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if run.tracer is not None:
        spans = json.dumps(run.tracer.to_json())
        (OUT_ROOT / f"{run.dir.name}-spans.json").write_text(spans + "\n")
    if not any(run.dir.iterdir()):
        run.dir.rmdir()

    print(f"workload {args.workload} seed {args.seed}: {len(run.ops)} ops attempted, "
          f"{run.failed} failed; checked against reference: {checks['reference']}, "
          f"structurally only (no stored reference): {checks['structural']}")
    past = sum(r["index"] >= run.workloads.REFERENCE_OPS for r in run.ops)
    if past:
        print(f"{past} ops are past the {run.workloads.REFERENCE_OPS} ops per seed that "
              "reference.json holds; raise REFERENCE_OPS in workloads.py and rerun "
              "record_reference.py to check them against the reference")
    for r in run.ops:
        if not r["ok"]:
            print(f"failed op {r['index']} (seed {r['seed']}): {r.get('detail')}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"fingerprint {run.fingerprint()} (ops byte-identical to reference: "
          f"{same}/{len(run.ops)})")
    if not args.trace:
        print(f"failed_frac {run.failed / len(run.ops):.6f} ratio (ops={len(run.ops)})")
        print(f"op_s_p50 {_median(walls):.6g} s, raw wall (ops={len(walls)})")
        print(f"ops_per_s {sum(r['ok'] for r in run.ops) / sum(walls):.6g} 1/s, "
              f"raw wall (ops={len(walls)})")
        print(_percentile_line(walls))
        print(f"probe_s_p50 {_median(r['probe_after_s'] for r in run.ops):.6g} s "
              f"(probes={len(run.ops) + 1})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} (ops={len(walls)})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
