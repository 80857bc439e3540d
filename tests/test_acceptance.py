"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
Every tolerance is pinned here; the Monte-Carlo criteria use the recorded
seeds below.
"""

import numpy as np
import pytest
from scipy.stats import spearmanr

from vcre import (
    KernelSpec,
    ScenarioConfig,
    SplineSpec,
    bias_terms,
    coefficient_curvature,
    cluster_projections,
    fit_pipeline,
    fit_wi,
    fit_wls,
    generate,
    kernel_moments,
    run_imp_study,
    run_mse_study,
)
from vcre.cli import main as cli_main
from vcre.reml import RemlParams, _Workspace, _negloglik, reml_negloglik
from vcre.smoother import local_linear_fit
from vcre.splines import basis_matrix
from vcre.symmat import SymMatrix, _vech_pairs, vech
from vcre.varcomp import VarianceComponents

from helpers import dataset_from_arrays, dense_hats, random_dataset

SEED_GAUSSIAN = 110
SEED_BENCH = 120
SEED_IMP = 130
SEED_UNIFORM = 140
SEED_MISSPEC = 141
SEED_BIAS = 150
SEED_TREND = 180

BENCH_CLOSED_FORM = {"sigma11": 0.0967, "sigma12": 0.0760, "sigma22": 0.0887, "sigma2": 0.0081}
BENCH_REML_K8 = {"sigma11": 0.0997, "sigma12": 0.0791, "sigma22": 0.0889, "sigma2": 0.0242}
UNIFORM_TARGETS = {"sigma11": 0.090, "sigma12": 0.066, "sigma22": 0.091, "sigma2": 0.006}
MISSPEC_TARGETS = {"sigma11": 0.104, "sigma12": 0.076, "sigma22": 0.098, "sigma2": 0.006}


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} :: {detail}")
    return ok


def factor_band(got, target, lo=0.5, hi=2.0):
    return lo * target <= got <= hi * target


def table_as_dict(table, method):
    j = table.methods.index(method)
    return {est: float(table.mse[i, j]) for i, est in enumerate(table.estimands)}


# ---------------------------------------------------------------------------
# criterion 1: closed-form MSE benchmark reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_benchmark():
    cfg = ScenarioConfig(scenario="gaussian", seed=SEED_GAUSSIAN, replications=100)
    table = run_mse_study(cfg)
    got = table_as_dict(table, "closed_form")
    checks = {k: factor_band(got[k], BENCH_CLOSED_FORM[k]) for k in got}
    detail = ", ".join(
        f"{k}={got[k]:.4f} (target {BENCH_CLOSED_FORM[k]}, ratio {got[k] / BENCH_CLOSED_FORM[k]:.2f})"
        for k in got
    )
    ok = report(1, "closed-form MSE benchmark", all(checks.values()), detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 2: REML benchmark comparability at knots=8
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_2_reml_benchmark():
    cfg = ScenarioConfig(scenario="gaussian", seed=SEED_BENCH, replications=100)
    table = run_mse_study(cfg, methods=("closed_form", "reml"), reml_knots=(8,))
    got = table_as_dict(table, "reml_k8")
    converged = table.reml_converged.get("reml_k8", 0)
    checks = {k: factor_band(got[k], BENCH_REML_K8[k]) for k in got}
    checks["convergence"] = converged >= 90
    detail = ", ".join(
        f"{k}={got[k]:.4f} (target {BENCH_REML_K8[k]}, ratio {got[k] / BENCH_REML_K8[k]:.2f})"
        for k in BENCH_REML_K8
    ) + f", converged {converged}/100"
    ok = report(2, "REML benchmark knots=8", all(checks.values()), detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: weighted-fit improvement profile
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_3_improvement_profile():
    cfg = ScenarioConfig(scenario="gaussian", seed=SEED_IMP, replications=100)
    table = run_imp_study(cfg, knot_range=range(7, 16))
    positive = bool(np.all(table.imp > 0.0))
    rho = float(spearmanr(table.knots, table.imp[:, 1]).statistic)
    trend = rho > 0.8
    idx9 = [i for i, k in enumerate(table.knots) if k >= 9]
    a1_band = bool(np.all((table.imp[idx9, 0] >= 1.0) & (table.imp[idx9, 0] <= 6.0)))
    detail = (
        f"imp_a1={np.round(table.imp[:, 0], 2).tolist()}, "
        f"imp_a2={np.round(table.imp[:, 1], 2).tolist()}, "
        f"spearman_a2={rho:.2f}, positive={positive}, a1_band={a1_band}"
    )
    ok = report(3, "weighted-fit improvement", positive and trend and a1_band, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 4: robustness studies
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_robustness():
    parts = []
    all_ok = True
    for scen, seed, targets in (
        ("uniform_noise", SEED_UNIFORM, UNIFORM_TARGETS),
        ("misspecified", SEED_MISSPEC, MISSPEC_TARGETS),
    ):
        cfg = ScenarioConfig(scenario=scen, seed=seed, replications=100)
        got = table_as_dict(run_mse_study(cfg), "closed_form")
        ok = all(factor_band(got[k], targets[k]) for k in got)
        all_ok = all_ok and ok
        parts.append(
            scen + ": " + ", ".join(
                f"{k}={got[k]:.4f} (ratio {got[k] / targets[k]:.2f})" for k in got
            )
        )
    detail = "; ".join(parts)
    ok = report(4, "robustness scenarios", all_ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: noise-variance bias law tracking
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_bias_tracking():
    reps = 500
    results = {}
    for h in (0.15, 0.25):
        cfg = ScenarioConfig(scenario="gaussian", seed=SEED_BIAS, bandwidth=h,
                             replications=reps)
        s2_vals = np.empty(reps)
        b_vals = np.empty(reps)
        for rep in range(reps):
            ds = generate(cfg, rep)
            fit = fit_pipeline(ds, cfg.kernel)
            s2_vals[rep] = fit.variance.sigma2
            b, _, _ = bias_terms(ds, fit.projections, coefficient_curvature(ds.u_all))
            b_vals[rep] = b
        empirical = float(s2_vals.mean() - 1.0)
        predicted = float(0.25 * h**4 * 0.2**2 * b_vals.mean())
        results[h] = (empirical, predicted)
    legs = {}
    for h, (emp, pred) in results.items():
        same_sign = np.sign(emp) == np.sign(pred)
        factor3 = pred / 3.0 <= emp <= 3.0 * pred if pred > 0 else False
        legs[h] = same_sign and factor3
    monotone = abs(results[0.25][0]) > abs(results[0.15][0])
    detail = ", ".join(
        f"h={h}: empirical {emp:+.4f} vs predicted {pred:+.4f} (ratio {emp / pred:.2f})"
        for h, (emp, pred) in results.items()
    ) + f", |bias| increases with h: {monotone}"
    ok = report(5, "noise-variance bias law", all(legs.values()) and monotone, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: oracle-equivalence suite
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_equivalence():
    failures = []

    # (a) local-linear closed form vs dense weighted normal equations
    ds = random_dataset(seed=61, m=6, p=2, q=2, Sigma=np.eye(2), sigma=0.6)
    kernel = KernelSpec(bandwidth=0.35)
    for u in (0.3, 0.5, 0.7):
        a, b = local_linear_fit(ds, u, kernel)
        d = ds.u_all - u
        w = kernel.weights(d)
        lam = np.hstack([ds.X_all, d[:, None] * ds.X_all])
        theta = np.linalg.solve(lam.T @ (w[:, None] * lam), lam.T @ (w * ds.y_all))
        if not np.allclose(np.concatenate([a, b]), theta, rtol=1e-10, atol=1e-12):
            failures.append(f"local-linear at u={u}")

    # (b) variance-component formulas vs dense matrix oracle
    fit = fit_pipeline(ds, kernel)
    total, n = 0.0, 0
    moment = np.zeros((2, 2))
    correction = np.zeros((2, 2))
    rmap = dict(zip(fit.residuals.cluster_ids, fit.residuals.residuals))
    for c in ds.clusters:
        r = rmap[c.id]
        gi = np.linalg.inv(c.Z.T @ c.Z)
        Q = np.eye(c.n) - c.Z @ gi @ c.Z.T
        total += float(r @ Q @ r)
        n += c.n
        e = gi @ c.Z.T @ r
        moment += np.outer(e, e)
        correction += gi
    sigma2_oracle = total / (n - 2 * ds.m)
    Sigma_oracle = moment / ds.m - sigma2_oracle * correction / ds.m
    if not np.isclose(fit.variance.sigma2, sigma2_oracle, rtol=1e-10):
        failures.append("sigma2 vs dense oracle")
    if not np.allclose(fit.variance.sigma_raw.entries, Sigma_oracle, rtol=1e-10,
                       atol=1e-12):
        failures.append("Sigma vs dense oracle")

    # (c) REML likelihood vs dense restricted-likelihood oracle on n <= 30
    small = random_dataset(seed=62, m=4, p=2, q=2, n_range=(5, 7),
                           Sigma=[[1.0, 0.3], [0.3, 0.8]], sigma=0.8)
    assert small.n <= 30
    spec = SplineSpec(n_interior_knots=2,
                      interval=(float(small.u_all.min()), float(small.u_all.max())),
                      degree=2)
    params = RemlParams.encode(np.array([[1.1, 0.2], [0.2, 0.9]]), 0.8, 2)
    Sig, s2 = params.decode()
    got = reml_negloglik(params, small, spec)
    V = np.zeros((small.n, small.n))
    design = []
    offset = 0
    for c in small.clusters:
        V[offset:offset + c.n, offset:offset + c.n] = c.Z @ Sig @ c.Z.T + s2 * np.eye(c.n)
        design.append(np.hstack([c.X[:, [k]] * basis_matrix(spec, c.u)
                                 for k in range(small.p)]))
        offset += c.n
    B = np.vstack(design)
    Vinv = np.linalg.inv(V)
    A = B.T @ Vinv @ B
    beta = np.linalg.solve(A, B.T @ Vinv @ small.y_all)
    r = small.y_all - B @ beta
    oracle = np.linalg.slogdet(V)[1] + np.linalg.slogdet(A)[1] + float(r @ Vinv @ r)
    if not np.isclose(got, oracle, rtol=1e-8):
        failures.append("REML likelihood vs dense oracle")

    # (d) WLS vs dense GLS oracle
    Sigma_w = np.array([[0.9, 0.2], [0.2, 0.7]])
    vc = VarianceComponents(
        sigma2=0.5, sigma2_raw=0.5, sigma_raw=SymMatrix(Sigma_w),
        sigma_psd=SymMatrix(Sigma_w), correlation=np.eye(2),
    )
    wls = fit_wls(small, spec, vc)
    Vw = np.zeros((small.n, small.n))
    offset = 0
    for c in small.clusters:
        Vw[offset:offset + c.n, offset:offset + c.n] = (
            c.Z @ Sigma_w @ c.Z.T + 0.5 * np.eye(c.n)
        )
        offset += c.n
    Vwinv = np.linalg.inv(Vw)
    gls = np.linalg.solve(B.T @ Vwinv @ B, B.T @ Vwinv @ small.y_all)
    if not np.allclose(wls.coefficients.T.ravel(), gls, rtol=1e-10, atol=1e-10):
        failures.append("WLS vs dense GLS oracle")

    detail = "all four oracle routes agree" if not failures else "; ".join(failures)
    ok = report(6, "oracle equivalence", not failures, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 7: invariant suite
# ---------------------------------------------------------------------------


def test_criterion_7_invariants(tmp_path):
    failures = []

    # projection idempotency and traces
    ds = random_dataset(seed=71, m=6, q=2, n_range=(4, 9))
    for hat in dense_hats(cluster_projections(ds)):
        annihilator = np.eye(hat.shape[0]) - hat
        if np.max(np.abs(hat @ hat - hat)) > 1e-10:
            failures.append("projection idempotency")
        if (abs(np.trace(hat) - 2.0) > 1e-8
                or abs(np.trace(annihilator) - (hat.shape[0] - 2.0)) > 1e-8):
            failures.append("projection traces")

    # duplication identities for q in 1..5: vech(A) placed at both vec
    # positions of each entry rebuilds vec(A) exactly
    rng = np.random.default_rng(72)
    for q in range(1, 6):
        b = rng.normal(size=(q, q))
        a = b + b.T
        ij, ji = _vech_pairs(q)
        rebuilt = np.full(q * q, np.nan)
        rebuilt[ij] = vech(a)
        rebuilt[ji] = vech(a)
        if not np.array_equal(a.ravel(order="F"), rebuilt):
            failures.append(f"duplication identity q={q}")

    # Epanechnikov second moment
    if abs(kernel_moments(KernelSpec(bandwidth=0.15)).mu2 - 0.2) > 1e-10:
        failures.append("Epanechnikov mu2")

    # local-linear affine exactness
    rng = np.random.default_rng(73)
    rows = []
    for i in range(5):
        for j in range(6):
            u = rng.uniform(0, 1)
            x = rng.normal()
            rows.append((f"c{i}", u, x * (1.0 + 3.0 * u), [x], [0.0]))
    affine = dataset_from_arrays(rows, p=1, q=1)
    a, _ = local_linear_fit(affine, 0.5, KernelSpec(bandwidth=0.3))
    if abs(a[0] - 2.5) > 1e-8 * 2.5:
        failures.append("affine exactness")

    # scaling equivariance of the variance components
    base = random_dataset(seed=74, m=8, q=2, Sigma=np.eye(2), sigma=0.7)
    kernel = KernelSpec(bandwidth=0.35)
    f1 = fit_pipeline(base, kernel)
    doubled = type(base)(
        clusters=tuple(type(c)(id=c.id, u=c.u, y=2.0 * c.y, X=c.X, Z=c.Z)
                       for c in base.clusters),
        p=base.p, q=base.q,
    )
    f2 = fit_pipeline(doubled, kernel)
    if f2.variance.sigma2 != 4.0 * f1.variance.sigma2 or not np.array_equal(
        f2.variance.sigma_raw.entries, 4.0 * f1.variance.sigma_raw.entries
    ):
        failures.append("scaling equivariance")

    # WI equals WLS under identity weighting
    spec = SplineSpec(
        n_interior_knots=4,
        interval=(float(base.u_all.min()), float(base.u_all.max())),
    )
    vc_id = VarianceComponents(
        sigma2=1.0, sigma2_raw=1.0, sigma_raw=SymMatrix(np.zeros((2, 2))),
        sigma_psd=SymMatrix(np.zeros((2, 2))), correlation=np.full((2, 2), np.nan),
    )
    if not np.allclose(fit_wi(base, spec).coefficients,
                       fit_wls(base, spec, vc_id).coefficients, atol=1e-10):
        failures.append("WI == WLS under identity")

    # CLI determinism under varying thread counts
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        code = cli_main(["simulate", "--scenario", "gaussian", "--reps", "4",
                         "--m", "20", "--seed", "7", "--threads", str(threads),
                         "--out-dir", str(out)])
        if code != 0:
            failures.append(f"cli exit {code} at threads={threads}")
        outs.append((out / "mse_table.csv").read_bytes())
    if outs[0] != outs[1]:
        failures.append("CLI thread-count determinism")

    detail = "all invariants hold" if not failures else "; ".join(sorted(set(failures)))
    ok = report(7, "invariant suite", not failures, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 8: consistency trend
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_consistency_trend():
    medians = {}
    for m in (50, 200):
        cfg = ScenarioConfig(scenario="gaussian", seed=SEED_TREND, m=m,
                             replications=20)
        errs = []
        for rep in range(20):
            fit = fit_pipeline(generate(cfg, rep), cfg.kernel)
            errs.append((fit.variance.sigma2 - 1.0) ** 2)
        medians[m] = float(np.median(errs))
    ok_flag = medians[200] < medians[50]
    detail = f"median sq err m=50: {medians[50]:.5f}, m=200: {medians[200]:.5f}"
    ok = report(8, "consistency trend", ok_flag, detail)
    assert ok, detail
