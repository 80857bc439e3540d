"""Record the reference outputs that ``run.py`` checks every op against.

    python3 perfbench/record_reference.py

Runs ops 0 .. REFERENCE_OPS - 1 of every workload seed in REFERENCE_SEEDS
(see ``workloads.py``) through ``vcre.cli.main``, two workloads at a time,
and writes each op's output values, REML convergence count and
fingerprint to ``perfbench/reference.json``, with the commit checked out.
Run it only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name: str) -> dict:
    w = workloads.WORKLOADS[name]
    entries = {}
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for s in workloads.REFERENCE_SEEDS:
            for k in range(workloads.REFERENCE_OPS):
                seed = workloads.op_seed(s, k)
                run = workloads.run_cli_op(w, seed, Path(tmp) / str(seed))
                if run.rc != 0:
                    raise SystemExit(f"{name} seed {seed}: exit {run.rc}: {run.stderr}")
                res = workloads.check_outputs(w, seed, run.out, {})
                if not res.ok:
                    raise SystemExit(f"{name} seed {seed}: {res.detail}")
                entries[str(seed)] = {
                    "values": res.values,
                    "converged": res.converged,
                    "fingerprint": res.fingerprint,
                }
                shutil.rmtree(Path(tmp) / str(seed))
            print(f"{name}: workload seed {s} recorded", file=sys.stderr, flush=True)
    return entries


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    names = sorted(workloads.WORKLOADS)
    with ProcessPoolExecutor(max_workers=2) as pool:
        ops = dict(zip(names, pool.map(record, names)))
    doc = {"commit": commit, "tolerances": workloads.TOLERANCES, "ops": ops}
    workloads.REFERENCE_PATH.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
