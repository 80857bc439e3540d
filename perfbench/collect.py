"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 1:10 --out perfbench/baseline.json
    python3 perfbench/collect.py --workloads reml --seeds 1:5 --trace 1

For every workload and metric it records the values of all runs, their
median, quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median; likewise for the raw wall-time
figures that ``--trace 0`` prints above its result.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_range(text: str) -> list:
    lo, hi = text.split(":")
    return list(range(int(lo), int(hi) + 1))


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=_seed_range, default=_seed_range("1:10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["raw_wall"] = {ln.split()[0]: float(ln.split()[1])
                               for ln in lines if ", raw wall (ops=" in ln}
            machine = next(ln for ln in lines if ln.startswith("machine "))
            summary["machine"] = json.loads(machine[len("machine "):])
            runs.append(res)
            print(f"{name} seed {seed}: attempted {res['attempted']} failed "
                  f"{res['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  file=sys.stderr)
        metrics = {
            key: {"unit": runs[0]["metrics"][key]["unit"],
                  **summarize([r["metrics"][key]["value"] for r in runs])}
            for key in runs[0]["metrics"]
        }
        summary["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
            "raw_wall": {key: summarize([r["raw_wall"][key] for r in runs])
                         for key in runs[0]["raw_wall"]},
        }
        for key, m in metrics.items():
            print(f"{name} {key}: median {m['median']:.5g} {m['unit']} "
                  f"spread {m['spread']:.4f}", file=sys.stderr)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
