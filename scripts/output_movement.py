#!/usr/bin/env python3
"""Report how far each closed-form output moves between two source trees.

Usage: python3 scripts/output_movement.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `vcre` package, such as the
`src` folder of two checkouts.  Each tree runs in one fresh Python process
that fits a fixed set of cases with `fit_pipeline` and `compute_diagnostics`:
the three simulation scenarios at q = 1, 2 and 3 (m = 100, h = 0.15), each
with one extra cluster of n_i = q rows that is excluded from variance
estimation.  For every output field the script prints its largest movement
over the cases, max |new - old| / max |old| within a case (absolute where the
old field is all zero).  It exits 1 if any field moves by more than 1e-12,
changes shape or changes where it is NaN, and 0 otherwise.
"""

import json
import os
import subprocess
import sys

import numpy as np

BOUND = 1e-12

CASES = r"""
import json, warnings
import numpy as np
from vcre import (Cluster, LongitudinalDataset, ScenarioConfig, compute_diagnostics,
                  fit_pipeline, generate)

out = {}
for scenario in ("gaussian", "uniform_noise", "misspecified"):
    for q in (1, 2, 3):
        cfg = ScenarioConfig(scenario=scenario, m=100, seed=20 + q,
                             Sigma=0.5 * (np.eye(q) + np.ones((q, q))))
        ds = generate(cfg, 0)
        rng = np.random.default_rng(q)
        tiny = Cluster(id="tiny", u=rng.random(q), y=rng.normal(size=q),
                       X=rng.normal(size=(q, 2)), Z=rng.normal(size=(q, q)))
        ds = LongitudinalDataset(clusters=ds.clusters + (tiny,), p=2, q=q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_pipeline(ds, cfg.kernel)
        diag = compute_diagnostics(ds, cfg.kernel, fit)
        vc = fit.variance
        fields = {
            "curve.values": fit.curve.values,
            "residuals": fit.residuals.stacked(),
            "sigma2": vc.sigma2,
            "sigma_raw": vc.sigma_raw.entries,
            "sigma_psd": vc.sigma_psd.entries,
            "correlation": vc.correlation,
            "effects": fit.effects.effects,
            "Gamma_hat": diag.Gamma_hat,
        }
        for key, value in diag.to_report().items():
            if key != "mu":
                fields[key] = value
        out[f"{scenario}/q={q}"] = {
            k: np.asarray(v, dtype=float).tolist() for k, v in fields.items()
        }
print(json.dumps(out))
"""


def run_tree(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CASES], env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"{src}: the cases failed\n{done.stderr}")
    return json.loads(done.stdout)


def movement(old, new) -> float:
    old = np.asarray(old, dtype=float)
    new = np.asarray(new, dtype=float)
    if old.shape != new.shape or not np.array_equal(np.isnan(old), np.isnan(new)):
        return np.inf
    diff = np.nan_to_num(np.abs(new - old))
    scale = np.nan_to_num(np.abs(old))
    if diff.size == 0 or diff.max() == 0.0:
        return 0.0
    return float(diff.max() / scale.max()) if scale.max() > 0.0 else float(diff.max())


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (run_tree(src) for src in argv)
    worst = {}
    for case, fields in old.items():
        for field, value in fields.items():
            move = movement(value, new[case].get(field))
            if field not in worst or move > worst[field][0]:
                worst[field] = (move, case if move > 0.0 else "")
    print(f"{'field':<14} {'max movement':>12}  case")
    for field, (move, case) in worst.items():
        print(f"{field:<14} {move:12.1e}  {case}")
    moved = [field for field, (move, _) in worst.items() if move > BOUND]
    if moved:
        print(f"moved by more than {BOUND:g}: {', '.join(moved)}", file=sys.stderr)
        return 1
    print(f"every field moved by at most {BOUND:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
