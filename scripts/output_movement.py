#!/usr/bin/env python3
"""Report how far each closed-form and spline output moves between two trees.

Usage: python3 scripts/output_movement.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `vcre` package, such as the
`src` folder of two checkouts.  Each tree runs in one fresh Python process
that generates one dataset for each of the three simulation scenarios at
q = 1, 2 and 3 (m = 100), whose stacked u, y, X and Z are the data.* fields.
It then fits each with `fit_pipeline` and `compute_diagnostics` (h = 0.15),
with one extra cluster of n_i = q rows that is excluded from variance
estimation.  Each case also fits the WI and WLS splines (9 interior knots,
WLS weighted by the case's variance components), and at each q one
`run_imp_study` (gaussian, m = 100, 2 replications, knots 7-15) gives the
imp, mise_wi and mise_wls fields.  For every output field the script prints
its largest movement over the cases, max |new - old| / max |old| within a
case (absolute where the old field is all zero).  It exits 1 if any field
moves by more than 1e-12, changes shape or changes where it is NaN, and 0
otherwise.
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
from vcre import (Cluster, LongitudinalDataset, ScenarioConfig, SplineSpec,
                  compute_diagnostics, fit_pipeline, fit_wi, fit_wls, generate,
                  run_imp_study)

def as_lists(fields):
    return {k: np.asarray(v, dtype=float).tolist() for k, v in fields.items()}

spec = SplineSpec(n_interior_knots=9, interval=(0.0, 1.0))

out = {}
for scenario in ("gaussian", "uniform_noise", "misspecified"):
    for q in (1, 2, 3):
        cfg = ScenarioConfig(scenario=scenario, m=100, seed=20 + q,
                             Sigma=0.5 * (np.eye(q) + np.ones((q, q))))
        ds = generate(cfg, 0)
        data = {"data.u": ds.u_all, "data.y": ds.y_all, "data.X": ds.X_all, "data.Z": ds.Z_all}
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
            **data,
            "wi": fit_wi(ds, spec).coefficients,
            "wls": fit_wls(ds, spec, vc).coefficients,
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
        out[f"{scenario}/q={q}"] = as_lists(fields)
for q in (1, 2, 3):
    cfg = ScenarioConfig(scenario="gaussian", m=100, seed=20 + q,
                         Sigma=0.5 * (np.eye(q) + np.ones((q, q))))
    table = run_imp_study(cfg, range(7, 16), replications=2)
    out[f"imp/q={q}"] = as_lists(
        {"imp": table.imp, "mise_wi": table.mise_wi, "mise_wls": table.mise_wls}
    )
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
