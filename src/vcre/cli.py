"""Command-line surface: fit, simulate, bench-reml, moments.

Every successful command writes a run manifest (command, config snapshot,
seed, input hashes, outputs, wall time) sufficient to reproduce the run.
All randomness flows from --seed; simulation commands refuse to run without
one.  stdout carries machine-readable JSON; diagnostics go to stderr.

Exit codes: 0 success, 2 flag/parse error, 3 data validation error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import compute_diagnostics
from .data import CsvSchema, _write_csv, load_dataset, validate
from .errors import (
    CsvParseError,
    DataValidationError,
    NumericalError,
    SchemaError,
    VcreError,
)
from .kernels import KernelSpec, bandwidth_rule, kernel_moments
from .smoother import write_curve_csv
from .varcomp import fit_pipeline, write_effects_csv

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

_SCENARIO_ALIASES = {
    "gaussian": "gaussian",
    "uniform": "uniform_noise",
    "uniform_noise": "uniform_noise",
    "misspecified": "misspecified",
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed, inputs, outputs, wall):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "input_hashes": inputs,
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall,
        "version": __version__,
    }
    return _write_json(out_dir / "run_manifest.json", manifest)


def _write_json(path: Path, obj) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_table(path: Path, fieldnames, rows):
    _write_csv(path, fieldnames, ([_fmt(row[k]) for k in fieldnames] for row in rows))


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _parse_knots(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        for sep in (":", ".."):
            if sep in text:
                lo, hi = text.split(sep, 1)
                return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise SchemaError(
            f"--knots: expected LO:HI, LO..HI or comma-separated integers, got {text!r}"
        ) from None


# spellings of a switch's value in a config file
_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"config file {path}: {e.strerror}") from None
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"config file: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vcre",
        description="Covariance estimation for random-effect varying-coefficient models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    fit = sub.add_parser("fit", help="fit a dataset and write curve/variance artifacts")
    fit.add_argument("--data", required=True, help="input CSV path")
    fit.add_argument("--bandwidth", type=float, default=None)
    fit.add_argument("--bandwidth-rule", type=float, default=None, metavar="C",
                     help="use bandwidth C * n^(-1/8) instead of --bandwidth")
    fit.add_argument("--kernel", default="epanechnikov",
                     choices=["epanechnikov", "uniform", "triangular"])
    fit.add_argument("--eval-mode", default="exact", choices=["exact", "grid"])
    fit.add_argument("--grid-size", type=int, default=401)
    fit.add_argument("--ridge", action="store_true",
                     help="enable ridge fallback for singular smoothing windows")
    fit.add_argument("--strict", action="store_true",
                     help="fail on clusters infeasible for variance estimation")
    fit.add_argument("--skip-diagnostics", action="store_true")
    fit.add_argument("--cluster-col", default="cluster")
    fit.add_argument("--u-col", default="u")
    fit.add_argument("--y-col", default="y")
    fit.add_argument("--x-cols", default=None, help="comma-separated column names")
    fit.add_argument("--z-cols", default=None, help="comma-separated column names")
    fit.add_argument("--out-dir", default=".")
    fit.add_argument("--config", default=None)

    sim = sub.add_parser("simulate", help="run a replication study")
    sim.add_argument("--scenario", required=True,
                     choices=["gaussian", "uniform", "uniform_noise", "misspecified", "imp"])
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--m", type=int, default=100)
    sim.add_argument("--sigma2", type=float, default=1.0)
    sim.add_argument("--bandwidth", type=float, default=0.15)
    sim.add_argument("--knots", default="7:15", help="knot range for the imp scenario")
    sim.add_argument("--grid-size", type=int, default=401)
    sim.add_argument("--degree", type=int, default=3)
    sim.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; replications run serially")
    sim.add_argument("--out-dir", default=".")
    sim.add_argument("--config", default=None)

    bench = sub.add_parser("bench-reml", help="closed form vs REML comparison table")
    bench.add_argument("--knots", default="6:10")
    bench.add_argument("--reps", type=int, default=100)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--m", type=int, default=100)
    bench.add_argument("--q", type=int, default=2)
    bench.add_argument("--sigma2", type=float, default=1.0)
    bench.add_argument("--bandwidth", type=float, default=0.15)
    bench.add_argument("--degree", type=int, default=3)
    bench.add_argument("--force", action="store_true",
                       help="allow q > 3 despite optimization fragility")
    bench.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; replications run serially")
    bench.add_argument("--out-dir", default=".")
    bench.add_argument("--config", default=None)

    mom = sub.add_parser("moments", help="print kernel moments")
    mom.add_argument("--kernel", default="epanechnikov",
                     choices=["epanechnikov", "uniform", "triangular"])
    subparsers.update({"fit": fit, "simulate": sim, "bench-reml": bench, "moments": mom})
    return parser, subparsers


def _apply_config_file(parser, subparsers, argv):
    # flags override config-file values: load the file, install as defaults, re-parse
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    args = parser.parse_args(argv)
    if getattr(known, "config", None) and args.command in subparsers:
        file_values = _load_config_file(known.config)
        sub_parser = subparsers[args.command]
        actions = {a.dest: a for a in sub_parser._actions}
        defaults = {}
        for key, raw in file_values.items():
            action = actions.get(key)
            # --config itself, --help and required flags come from the command line only
            if action is None or action.required or key in ("config", "help"):
                raise SchemaError(f"config file: unknown key {key!r} for {args.command} "
                                  "(required flags go on the command line)")
            if action.type is not None:
                try:
                    value = action.type(raw)
                except ValueError:
                    raise SchemaError(
                        f"config file: {key}={raw!r} is not a valid {action.type.__name__}"
                    ) from None
            elif isinstance(action.default, bool):
                value = _CONFIG_BOOLS.get(raw.lower())
                if value is None:
                    raise SchemaError(f"config file: {key}={raw!r} is not one of "
                                      f"{', '.join(_CONFIG_BOOLS)}")
            else:
                value = raw
            if action.choices is not None and value not in action.choices:
                raise SchemaError(f"config file: {key}={raw!r} is not one of "
                                  f"{', '.join(map(str, action.choices))}")
            defaults[key] = value
        sub_parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def _cmd_fit(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    if (args.bandwidth is None) == (args.bandwidth_rule is None):
        print("error: exactly one of --bandwidth / --bandwidth-rule is required",
              file=sys.stderr)
        return EXIT_FLAG
    schema = CsvSchema(
        cluster=args.cluster_col,
        u=args.u_col,
        y=args.y_col,
        x_cols=tuple(args.x_cols.split(",")) if args.x_cols else None,
        z_cols=tuple(args.z_cols.split(",")) if args.z_cols else None,
    )
    ds = load_dataset(args.data, schema)
    report = validate(ds)
    for check in report.flagged:
        msg = f"cluster {check.cluster_id}: {', '.join(check.flags)}"
        if args.strict:
            raise DataValidationError(msg)
        print(f"warning: {msg}", file=sys.stderr)
    h = args.bandwidth if args.bandwidth is not None else bandwidth_rule(ds.n, args.bandwidth_rule)
    kernel = KernelSpec(bandwidth=h, kind=args.kernel)
    grid = None
    if args.eval_mode == "grid":
        grid = np.linspace(float(ds.u_all.min()), float(ds.u_all.max()), args.grid_size)
    with warnings.catch_warnings():
        # the warning lines above already name every cluster left out here
        warnings.filterwarnings("ignore", "cluster .* excluded from variance estimation")
        fit = fit_pipeline(ds, kernel, eval_points=grid, ridge=args.ridge,
                           interpolate=grid is not None)

    outputs = []
    curve_path = out_dir / "curve.csv"
    write_curve_csv(fit.curve, curve_path)
    outputs.append(curve_path)
    outputs.append(_write_json(out_dir / "variance_components.json", fit.variance.to_report()))
    effects_path = out_dir / "effects.csv"
    write_effects_csv(fit.effects, effects_path)
    outputs.append(effects_path)
    summary = {"sigma2": fit.variance.sigma2}
    if not args.skip_diagnostics:
        diag = compute_diagnostics(ds, kernel, fit)
        outputs.append(_write_json(out_dir / "diagnostics.json", diag.to_report()))
        summary["se_sigma2"] = diag.se_sigma2
    config = {
        "data": str(args.data),
        "bandwidth": h,
        "kernel": args.kernel,
        "eval_mode": args.eval_mode,
        "grid_size": args.grid_size,
        "ridge": args.ridge,
        "strict": args.strict,
    }
    manifest = _write_manifest(
        out_dir, "fit", config, None, {str(args.data): _sha256(Path(args.data))},
        outputs, time.time() - start,
    )
    outputs.append(manifest)
    print(json.dumps({"outputs": [str(p) for p in outputs], **summary}, sort_keys=True))
    return EXIT_OK


def _require_seed(args) -> bool:
    if args.seed is None:
        print("error: --seed is required for simulation commands "
              "(wall-clock seeding would break reproducibility)", file=sys.stderr)
        return False
    return True


def _cmd_simulate(args) -> int:
    from .simulate import ScenarioConfig, run_imp_study, run_mse_study

    if not _require_seed(args):
        return EXIT_FLAG
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    outputs = []
    config = {
        "scenario": args.scenario,
        "reps": args.reps,
        "m": args.m,
        "sigma2": args.sigma2,
        "bandwidth": args.bandwidth,
        "knots": args.knots,
        "grid_size": args.grid_size,
        "degree": args.degree,
        "threads": args.threads,
    }
    if args.scenario == "imp":
        cfg = ScenarioConfig(
            scenario="gaussian", m=args.m, sigma2=args.sigma2,
            bandwidth=args.bandwidth, seed=args.seed, replications=args.reps,
        )
        table = run_imp_study(
            cfg, _parse_knots(args.knots), grid_size=args.grid_size,
            spline_degree=args.degree, threads=args.threads,
        )
        rows = table.to_rows()
        path = out_dir / "imp_table.csv"
        _write_table(path, list(rows[0].keys()), rows)
        outputs.append(path)
        extra = {"failures": table.failures}
    else:
        cfg = ScenarioConfig(
            scenario=_SCENARIO_ALIASES[args.scenario], m=args.m, sigma2=args.sigma2,
            bandwidth=args.bandwidth, seed=args.seed, replications=args.reps,
        )
        table = run_mse_study(cfg, methods=("closed_form",), threads=args.threads)
        rows = table.to_rows()
        path = out_dir / "mse_table.csv"
        _write_table(path, list(rows[0].keys()), rows)
        outputs.append(path)
        extra = {"failures": table.failures}
    config.update(extra)
    manifest = _write_manifest(
        out_dir, f"simulate {args.scenario}", config, args.seed, {}, outputs,
        time.time() - start,
    )
    outputs.append(manifest)
    print(json.dumps({"outputs": [str(p) for p in outputs], **extra}, sort_keys=True))
    return EXIT_OK


def _cmd_bench_reml(args) -> int:
    from .simulate import ScenarioConfig, default_effect_cov, run_mse_study

    if not _require_seed(args):
        return EXIT_FLAG
    if args.q > 3 and not args.force:
        print(
            f"error: q={args.q} > 3: simplex optimization of the restricted "
            "likelihood frequently fails to converge at this dimension; "
            "pass --force to run anyway",
            file=sys.stderr,
        )
        return EXIT_FLAG
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    Sigma = default_effect_cov(args.q) if args.q != 2 else None
    kwargs = {} if Sigma is None else {"Sigma": Sigma}
    cfg = ScenarioConfig(
        scenario="gaussian", m=args.m, sigma2=args.sigma2,
        bandwidth=args.bandwidth, seed=args.seed, replications=args.reps, **kwargs,
    )
    knots = _parse_knots(args.knots)
    table = run_mse_study(
        cfg, methods=("closed_form", "reml"), reml_knots=knots,
        spline_degree=args.degree, threads=args.threads,
    )
    # REML columns per knot count, closed form last
    ordered = [m for m in table.methods if m != "closed_form"] + ["closed_form"]
    rows = []
    for i, est in enumerate(table.estimands):
        row = {"estimand": est}
        for meth in ordered:
            j = table.methods.index(meth)
            row[meth] = float(table.mse[i, j])
        rows.append(row)
    path = out_dir / "bench_reml.csv"
    _write_table(path, ["estimand"] + ordered, rows)
    config = {
        "knots": args.knots, "reps": args.reps, "m": args.m, "q": args.q,
        "sigma2": args.sigma2, "bandwidth": args.bandwidth, "degree": args.degree,
        "reml_converged": table.reml_converged, "failures": table.failures,
    }
    manifest = _write_manifest(
        out_dir, "bench-reml", config, args.seed, {}, [path], time.time() - start
    )
    print(json.dumps(
        {"outputs": [str(path), str(manifest)], "reml_converged": table.reml_converged},
        sort_keys=True,
    ))
    return EXIT_OK


def _cmd_moments(args) -> int:
    moments = kernel_moments(KernelSpec(bandwidth=1.0, kind=args.kernel))
    print(json.dumps(
        {"kernel": args.kernel, "mu0": moments.mu0, "mu1": moments.mu1,
         "mu2": moments.mu2, "mu3": moments.mu3},
        sort_keys=True,
    ))
    return EXIT_OK


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = _apply_config_file(
            parser, subparsers, argv if argv is not None else sys.argv[1:]
        )
    except SystemExit as e:  # argparse reports usage errors with code 2
        return int(e.code) if e.code is not None else EXIT_FLAG
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FLAG
    handlers = {
        "fit": _cmd_fit,
        "simulate": _cmd_simulate,
        "bench-reml": _cmd_bench_reml,
        "moments": _cmd_moments,
    }
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return handlers[args.command](args)
    except (SchemaError, CsvParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FLAG
    except DataValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, VcreError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FLAG


if __name__ == "__main__":
    sys.exit(main())
