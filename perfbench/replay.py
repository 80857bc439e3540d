"""Traced replay of the benchmark ops through the public stage functions.

Each replay calls the same public ``vcre`` functions, in the same order
and with the same arguments, as the CLI command the op runs, and writes
the same output files.  Spans (name, start, end, parent, op) are recorded
in memory around every call into a module, from this file only; nothing
inside ``vcre`` is changed.  Counters are taken at the same boundaries.

A span's self time is its duration minus its children's.  Per-layer
metrics are per-op sums of self times (``<span>_s``) and of counters.
The root span of an op is ``cli.op``; its self time is the glue outside
every traced stage and is reported as ``cli.self_s``.  Counters that the
benchmark computes itself (window sizes, design rows) run inside
``trace.bookkeeping`` spans, which are excluded from every layer and so
show up only in ``trace.overhead_frac``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import vcre
import vcre.reml
from vcre import (
    AsymptoticDiagnostics,
    CsvSchema,
    KernelSpec,
    PipelineFit,
    ScenarioConfig,
    SplineSpec,
    bias_terms,
    cluster_projections,
    coefficient_values,
    curvature_curve,
    effect_cov_inference,
    estimate_effect_covariance,
    estimate_effects,
    estimate_noise_variance,
    fit_curve,
    fit_reml,
    fit_wi,
    fit_wls,
    generate,
    imp,
    kernel_moments,
    leverage_constants,
    load_dataset,
    mise,
    noise_variance_inference,
    residuals,
    squared_noise_variance,
    validate,
    write_curve_csv,
    write_effects_csv,
)
from vcre.simulate import ESTIMANDS

ROOT_SPAN = "cli.op"
BOOKKEEPING = "trace.bookkeeping"

# Every per-layer metric: name -> unit.  A layer that does no work in a
# workload reports 0 for its metrics there.
LAYER_METRICS = {
    "data.load_s": "s",
    "data.validate_s": "s",
    "data.rows": "count",
    "simulate.generate_s": "s",
    "simulate.parallel_eff": "ratio",
    "varcomp.projections_s": "s",
    "varcomp.noise_variance_s": "s",
    "varcomp.effects_s": "s",
    "varcomp.eligible_frac": "ratio",
    "smoother.fit_curve_s": "s",
    "smoother.residuals_s": "s",
    "smoother.eval_points": "count",
    "smoother.window_obs": "count",
    "smoother.ridged_points": "count",
    "asymptotics.curvature_s": "s",
    "asymptotics.curvature_window_obs": "count",
    "asymptotics.bias_terms_s": "s",
    "asymptotics.leverage_s": "s",
    "asymptotics.sq_noise_var_s": "s",
    "asymptotics.cov_se_s": "s",
    "splines.fit_wi_s": "s",
    "splines.fit_wls_s": "s",
    "splines.evaluate_s": "s",
    "splines.mise_s": "s",
    "splines.design_rows": "count",
    "splines.jittered_clusters": "count",
    "reml.fit_s": "s",
    "reml.negloglik_s": "s",
    "reml.evaluations": "count",
    "reml.iterations": "count",
    "reml.iter_s": "s",
    "reml.converged_frac": "ratio",
    "cli.write_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder; with ``enabled=False`` every call is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []  # [op, name, start, end, parent index]
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [self.op, name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[self.op][name] += value

    def self_times(self, op) -> dict:
        """Self seconds per span name for one op."""
        child = defaultdict(float)
        for op_, _, start, end, parent in self.spans:
            if op_ == op and parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (op_, name, start, end, _) in enumerate(self.spans):
            if op_ == op:
                out[name] += end - start - child[i]
        return out

    def stage_sum(self, op) -> float:
        """Summed duration of the root's direct children, bookkeeping excluded."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == op and s[4] is None}
        return sum(
            s[3] - s[2] for s in self.spans
            if s[0] == op and s[4] in roots and s[1] != BOOKKEEPING
        )

    def to_json(self) -> list:
        return [
            {"op": op, "name": name, "start": start, "end": end, "parent": parent}
            for op, name, start, end, parent in self.spans
        ]


def _window_obs(u_all: np.ndarray, points: np.ndarray, h: float) -> int:
    # same window rule as the smoother: [u - h, u + h], both ends included
    u = np.sort(u_all)
    lo = np.searchsorted(u, points - h, side="left")
    hi = np.searchsorted(u, points + h, side="right")
    return int(np.sum(hi - lo))


def _pipeline(tr: Tracer, ds, kernel: KernelSpec) -> PipelineFit:
    # mirrors vcre.varcomp.fit_pipeline (exact mode, no ridge)
    with tr.span("varcomp.projections"):
        proj = cluster_projections(ds, skip_infeasible=True)
    with tr.span("smoother.fit_curve"):
        curve = fit_curve(ds, kernel, None, False)
    with tr.span("smoother.residuals"):
        res = residuals(ds, curve, False)
    with tr.span("varcomp.noise_variance"):
        sigma2 = estimate_noise_variance(res, proj)
    with tr.span("varcomp.effects"):
        eff = estimate_effects(res, proj)
        vc = estimate_effect_covariance(eff, sigma2, proj)
    if tr.enabled:
        with tr.span(BOOKKEEPING):
            tr.count("varcomp.fits", 1)
            tr.count("varcomp.eligible", proj.m / ds.m)
            tr.count("smoother.eval_points", curve.points.size)
            tr.count("smoother.ridged_points", len(curve.ridged_points))
            tr.count("smoother.window_obs",
                     _window_obs(ds.u_all, curve.points, kernel.bandwidth))
    return PipelineFit(curve=curve, residuals=res, projections=proj, effects=eff,
                       variance=vc)


def _diagnostics(tr: Tracer, ds, kernel: KernelSpec, fit: PipelineFit):
    # mirrors vcre.asymptotics.compute_diagnostics(with_cov_se=True)
    moments = kernel_moments(kernel)
    with tr.span("asymptotics.curvature"):
        curvature = curvature_curve(ds, kernel)
    with tr.span("asymptotics.bias_terms"):
        b, B1, B2 = bias_terms(ds, fit.projections, curvature)
    with tr.span("asymptotics.leverage"):
        consts = leverage_constants(fit.projections)
    with tr.span("asymptotics.sq_noise_var"):
        var_eps_sq = squared_noise_variance(fit.residuals, fit.projections)
    with tr.span("asymptotics.cov_se"):
        bias_s2, se_s2 = noise_variance_inference(
            fit.variance, moments, kernel.bandwidth, b, consts, var_eps_sq
        )
        bias_S, se_S = effect_cov_inference(
            fit.variance, fit.effects, fit.projections, moments, kernel.bandwidth,
            b, B1, B2, consts, var_eps_sq,
        )
    if tr.enabled:
        with tr.span(BOOKKEEPING):
            tr.count("asymptotics.curvature_window_obs",
                     _window_obs(ds.u_all, np.unique(ds.u_all), 2.0 * kernel.bandwidth))
    return AsymptoticDiagnostics(
        moments=moments, b=b, B1=B1, B2=B2, gamma_hat=consts.gamma_hat,
        c1=consts.c1, c2=consts.c2, Gamma_hat=consts.Gamma_hat,
        bias_sigma2=bias_s2, se_sigma2=se_s2, bias_Sigma=bias_S, se_Sigma=se_S,
    )


def _dump_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, fieldnames, rows) -> None:
    # the CLI's table format: csv.DictWriter with floats written by repr
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


def _write_manifest(out: Path, command: str, config: dict, seed, inputs) -> None:
    _dump_json({"command": command, "config": config, "seed": seed,
                "input_hashes": inputs, "version": vcre.__version__},
               out / "run_manifest.json")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def replay_fit(tr: Tracer, seed: int, data: Path, out: Path) -> None:
    """``vcre fit --data <data> --bandwidth 0.15`` with diagnostics."""
    out.mkdir(parents=True, exist_ok=True)
    with tr.span("data.load"):
        ds = load_dataset(str(data), CsvSchema())
    with tr.span("data.validate"):
        report = validate(ds)
    if report.flagged:
        raise RuntimeError(f"generated dataset has infeasible clusters: {report.flagged}")
    tr.count("data.rows", ds.n)
    kernel = KernelSpec(bandwidth=0.15, kind="epanechnikov")
    fit = _pipeline(tr, ds, kernel)
    with tr.span("cli.write"):
        write_curve_csv(fit.curve, out / "curve.csv")
        _dump_json(fit.variance.to_report(), out / "variance_components.json")
        write_effects_csv(fit.effects, out / "effects.csv")
    diag = _diagnostics(tr, ds, kernel, fit)
    with tr.span("cli.write"):
        _dump_json(diag.to_report(), out / "diagnostics.json")
        _write_manifest(out, "fit", {"data": str(data), "bandwidth": 0.15}, None,
                        {str(data): _sha256(data)})


def _scenario(seed: int, reps: int) -> ScenarioConfig:
    return ScenarioConfig(scenario="gaussian", m=100, sigma2=1.0, bandwidth=0.15,
                          seed=seed, replications=reps)


def _sq_errors(values: dict, truth: dict) -> np.ndarray:
    return np.array([(values[k] - truth[k]) ** 2 for k in ESTIMANDS])


def _closed_form_values(vc) -> dict:
    S = vc.sigma_raw.entries
    return {"sigma11": float(S[0, 0]), "sigma12": float(S[0, 1]),
            "sigma22": float(S[1, 1]), "sigma2": float(vc.sigma2)}


def _mse(per_rep: np.ndarray):
    # vcre.simulate.run_mse_study's reduction over replications
    with np.errstate(invalid="ignore"):
        mse = np.nanmean(per_rep, axis=0)
        counts = np.sum(~np.isnan(per_rep), axis=0)
        mc_se = np.nanstd(per_rep, axis=0, ddof=1) / np.sqrt(np.maximum(counts, 1))
    return mse, mc_se


def replay_mse(tr: Tracer, seed: int, data, out: Path) -> None:
    """``vcre simulate --scenario gaussian --reps 20``, replications run serially."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = _scenario(seed, 20)
    truth = cfg.truth()
    per_rep = []
    for rep in range(cfg.replications):
        with tr.span("simulate.generate"):
            ds = generate(cfg, rep)
        fit = _pipeline(tr, ds, cfg.kernel)
        per_rep.append(_sq_errors(_closed_form_values(fit.variance), truth)[:, None])
    mse, mc_se = _mse(np.stack(per_rep))
    rows = [{"estimand": est, "mse_closed_form": float(mse[i, 0]),
             "se_closed_form": float(mc_se[i, 0])} for i, est in enumerate(ESTIMANDS)]
    with tr.span("cli.write"):
        _write_table(out / "mse_table.csv", list(rows[0]), rows)
        _write_manifest(out, "simulate gaussian", {"failures": 0}, seed, {})


def replay_imp(tr: Tracer, seed: int, data, out: Path) -> None:
    """``vcre simulate --scenario imp --knots 7:15 --reps 2``."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = _scenario(seed, 2)
    knots = tuple(range(7, 16))
    grid = np.linspace(0.0, 1.0, 401)
    truth_vals = coefficient_values(grid)
    p = truth_vals.shape[1]
    wi_all, wls_all = [], []
    for rep in range(cfg.replications):
        with tr.span("simulate.generate"):
            ds = generate(cfg, rep)
        vc = _pipeline(tr, ds, cfg.kernel).variance
        wi_out = np.full((len(knots), p), np.nan)
        wls_out = np.full((len(knots), p), np.nan)
        for i, k in enumerate(knots):
            spec = SplineSpec(n_interior_knots=k, interval=(0.0, 1.0), degree=3)
            with tr.span("splines.fit_wi"):
                wi = fit_wi(ds, spec)
            with tr.span("splines.evaluate"):
                wi_vals = wi.evaluate(grid)
            with tr.span("splines.fit_wls"):
                wls = fit_wls(ds, spec, vc)
            with tr.span("splines.evaluate"):
                wls_vals = wls.evaluate(grid)
            with tr.span("splines.mise"):
                for j in range(p):
                    wi_out[i, j] = mise(wi_vals[:, j], truth_vals[:, j], grid)
                    wls_out[i, j] = mise(wls_vals[:, j], truth_vals[:, j], grid)
            tr.count("splines.design_rows", 2 * ds.n + 2 * grid.size)
            tr.count("splines.jittered_clusters", len(wls.jittered_clusters))
        wi_all.append(wi_out)
        wls_all.append(wls_out)
    with np.errstate(invalid="ignore"):
        wi_avg = np.nanmean(np.stack(wi_all), axis=0)
        wls_avg = np.nanmean(np.stack(wls_all), axis=0)
    rows = []
    for i, k in enumerate(knots):
        row = {"knots": k}
        for j in range(p):
            row[f"imp_a{j + 1}"] = float(imp(float(wi_avg[i, j]), float(wls_avg[i, j])))
        rows.append(row)
    with tr.span("cli.write"):
        _write_table(out / "imp_table.csv", list(rows[0]), rows)
        _write_manifest(out, "simulate imp", {"failures": 0}, seed, {})


@contextlib.contextmanager
def _traced_likelihood(tr: Tracer):
    """Span every restricted-likelihood evaluation made inside ``fit_reml``.

    ``fit_reml`` offers no public hook per evaluation, so its module-level
    evaluator is wrapped for the duration of the replay and restored after.
    """
    inner = getattr(vcre.reml, "_negloglik", None)
    if not tr.enabled or inner is None:
        yield
        return

    def wrapped(*args, **kwargs):
        tr.count("reml.evaluations", 1)
        with tr.span("reml.negloglik"):
            return inner(*args, **kwargs)

    vcre.reml._negloglik = wrapped
    try:
        yield
    finally:
        vcre.reml._negloglik = inner


def replay_reml(tr: Tracer, seed: int, data, out: Path) -> None:
    """``vcre bench-reml --knots 8 --reps 2``."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = _scenario(seed, 2)
    truth = cfg.truth()
    spec = SplineSpec(n_interior_knots=8, interval=(0.0, 1.0), degree=3)
    per_rep = []
    converged = 0
    for rep in range(cfg.replications):
        with tr.span("simulate.generate"):
            ds = generate(cfg, rep)
        vc = _pipeline(tr, ds, cfg.kernel).variance
        with tr.span("reml.fit"), _traced_likelihood(tr):
            rf = fit_reml(ds, spec, init=vc)
        values = {"sigma11": float(rf.Sigma.entries[0, 0]),
                  "sigma12": float(rf.Sigma.entries[0, 1]),
                  "sigma22": float(rf.Sigma.entries[1, 1]), "sigma2": rf.sigma2}
        per_rep.append(np.column_stack([_sq_errors(_closed_form_values(vc), truth),
                                        _sq_errors(values, truth)]))
        converged += int(rf.converged)
        tr.count("reml.fits", 1)
        tr.count("reml.converged", int(rf.converged))
        tr.count("reml.iterations", rf.iterations)
        tr.count("splines.design_rows", ds.n)
    mse, _ = _mse(np.stack(per_rep))
    rows = [{"estimand": est, "reml_k8": float(mse[i, 1]), "closed_form": float(mse[i, 0])}
            for i, est in enumerate(ESTIMANDS)]
    with tr.span("cli.write"):
        _write_table(out / "bench_reml.csv", ["estimand", "reml_k8", "closed_form"], rows)
        _write_manifest(out, "bench-reml",
                        {"failures": 0, "reml_converged": {"reml_k8": converged}}, seed, {})


REPLAYS = {
    "fit-m400": replay_fit,
    "mc-mse": replay_mse,
    "mc-imp": replay_imp,
    "reml": replay_reml,
}


def run_replay(tr: Tracer, workload: str, op, seed: int, data, out: Path) -> float:
    """Replay one op under ``tr``; returns its wall time."""
    tr.op = op
    t0 = time.perf_counter()
    with tr.span(ROOT_SPAN):
        REPLAYS[workload](tr, seed, data, out)
    return time.perf_counter() - t0


def op_metrics(tr: Tracer, op, threads: int, cli_wall: float) -> dict:
    """Per-layer metrics of one traced op (overhead is added by the caller)."""
    selfs = tr.self_times(op)
    c = tr.counters[op]
    m = {name: 0.0 for name in LAYER_METRICS}
    for name, secs in selfs.items():
        if name == ROOT_SPAN:
            m["cli.self_s"] = secs
        elif name != BOOKKEEPING:
            m[f"{name}_s"] = secs
    for name in ("data.rows", "smoother.eval_points", "smoother.window_obs",
                 "smoother.ridged_points", "asymptotics.curvature_window_obs",
                 "splines.design_rows", "splines.jittered_clusters",
                 "reml.evaluations", "reml.iterations"):
        m[name] = c.get(name, 0.0)
    if c.get("varcomp.fits"):
        m["varcomp.eligible_frac"] = c["varcomp.eligible"] / c["varcomp.fits"]
    if c.get("reml.fits"):
        m["reml.converged_frac"] = c["reml.converged"] / c["reml.fits"]
    if m["reml.iterations"]:
        m["reml.iter_s"] = (m["reml.fit_s"] + m["reml.negloglik_s"]) / m["reml.iterations"]
    if m["simulate.generate_s"]:
        m["simulate.parallel_eff"] = tr.stage_sum(op) / (threads * cli_wall)
    unknown = set(m) - set(LAYER_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    return m
