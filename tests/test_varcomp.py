import numpy as np
import pytest

from vcre import (
    DataValidationError,
    KernelSpec,
    ResidualSet,
    cluster_projections,
    estimate_effect_covariance,
    estimate_effects,
    estimate_noise_variance,
    fit_pipeline,
)

from helpers import dataset_from_arrays, dense_hats, random_dataset


def residual_set(ds, vectors):
    return ResidualSet(
        cluster_ids=tuple(c.id for c in ds.clusters), residuals=tuple(vectors)
    )


def test_mean_projection():
    rows = [("a", 0.1 * j, 1.0, [1.0], [1.0]) for j in range(4)]
    rows += [("b", 0.1 * j, 1.0, [1.0], [1.0, ]) for j in range(3)]
    ds = dataset_from_arrays(rows, p=1, q=1)
    proj = cluster_projections(ds)
    assert np.allclose(dense_hats(proj)[0], np.full((4, 4), 0.25), atol=1e-12)


def test_projection_idempotency_and_traces():
    ds = random_dataset(seed=1, m=6, q=2, n_range=(4, 9))
    proj = cluster_projections(ds)
    for P in dense_hats(proj):
        Q = np.eye(P.shape[0]) - P
        assert np.max(np.abs(P @ P - P)) < 1e-10
        assert np.max(np.abs(Q @ Q - Q)) < 1e-10
        assert np.trace(P) == pytest.approx(2.0, abs=1e-8)
        assert np.trace(Q) == pytest.approx(P.shape[0] - 2.0, abs=1e-8)


def test_projection_orthonormal_columns():
    z = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 2)))[0]
    rows = [("a", 0.1 * j, 1.0, [1.0], z[j]) for j in range(3)]
    ds = dataset_from_arrays(rows, p=1, q=2)
    proj = cluster_projections(ds)
    assert np.allclose(dense_hats(proj)[0], z @ z.T, atol=1e-10)


def test_projection_errors_name_cluster():
    rows = [("tiny", 0.1, 1.0, [1.0], [1.0, 2.0]), ("tiny", 0.2, 1.0, [1.0], [2.0, 1.0])]
    rows += [("ok", 0.1 * j, 1.0, [1.0], [1.0 * j, 1.0]) for j in range(5)]
    ds = dataset_from_arrays(rows, p=1, q=2)
    with pytest.raises(DataValidationError, match="tiny"):
        cluster_projections(ds)
    with pytest.warns(UserWarning, match="tiny"):
        proj = cluster_projections(ds, skip_infeasible=True)
    assert proj.excluded == ("tiny",)
    assert proj.m == 1


def test_noise_variance_zero_residuals():
    ds = random_dataset(seed=3, m=4)
    proj = cluster_projections(ds)
    res = residual_set(ds, [np.zeros(c.n) for c in ds.clusters])
    assert estimate_noise_variance(res, proj) == 0.0


def test_noise_variance_matches_dense_oracle():
    rng = np.random.default_rng(4)
    rows = []
    for cid, n_i in (("a", 5), ("b", 7)):
        for j in range(n_i):
            rows.append((cid, rng.uniform(0, 1), rng.normal(), [1.0], rng.normal(size=2)))
    ds = dataset_from_arrays(rows, p=1, q=2)
    proj = cluster_projections(ds)
    vectors = [rng.normal(size=c.n) for c in ds.clusters]
    res = residual_set(ds, vectors)
    got = estimate_noise_variance(res, proj)
    # dense oracle straight from the definitions
    total = 0.0
    n = 0
    for c, r in zip(ds.clusters, vectors):
        Q = np.eye(c.n) - c.Z @ np.linalg.inv(c.Z.T @ c.Z) @ c.Z.T
        total += r @ Q @ r
        n += c.n
    oracle = total / (n - 2 * 2)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_effects_recovered_exactly_without_noise():
    rng = np.random.default_rng(5)
    ds = random_dataset(seed=5, m=5, q=2, sigma=0.0)
    proj = cluster_projections(ds)
    effects_true = [rng.normal(size=2) for _ in ds.clusters]
    res = residual_set(ds, [c.Z @ e for c, e in zip(ds.clusters, effects_true)])
    eff = estimate_effects(res, proj)
    assert np.allclose(eff.effects, np.vstack(effects_true), atol=1e-10)


def test_effects_zero_for_zero_residuals():
    ds = random_dataset(seed=6, m=4)
    proj = cluster_projections(ds)
    res = residual_set(ds, [np.zeros(c.n) for c in ds.clusters])
    eff = estimate_effects(res, proj)
    assert np.array_equal(eff.effects, np.zeros_like(eff.effects))


def test_effects_match_dense_solve():
    ds = random_dataset(seed=7, m=5, q=2, sigma=0.8)
    proj = cluster_projections(ds)
    rng = np.random.default_rng(8)
    vectors = [rng.normal(size=c.n) for c in ds.clusters]
    res = residual_set(ds, vectors)
    eff = estimate_effects(res, proj)
    for c, r, row in zip(ds.clusters, vectors, eff.effects):
        oracle = np.linalg.lstsq(c.Z, r, rcond=None)[0]
        assert np.allclose(row, oracle, rtol=1e-9, atol=1e-11)


def test_effect_covariance_zero_case():
    ds = random_dataset(seed=9, m=4)
    proj = cluster_projections(ds)
    res = residual_set(ds, [np.zeros(c.n) for c in ds.clusters])
    eff = estimate_effects(res, proj)
    vc = estimate_effect_covariance(eff, 0.0, proj)
    assert np.array_equal(vc.sigma_raw.entries, np.zeros((2, 2)))
    assert np.array_equal(vc.sigma_psd.entries, np.zeros((2, 2)))
    assert np.isnan(vc.correlation).all()


def test_effect_covariance_matches_formula_oracle():
    ds = random_dataset(seed=10, m=5, q=2, Sigma=np.eye(2), sigma=0.6)
    proj = cluster_projections(ds)
    rng = np.random.default_rng(11)
    vectors = [rng.normal(size=c.n) for c in ds.clusters]
    res = residual_set(ds, vectors)
    sigma2 = estimate_noise_variance(res, proj)
    eff = estimate_effects(res, proj)
    vc = estimate_effect_covariance(eff, sigma2, proj)
    # independent plain-loop evaluation of the corrected moment formula
    m = ds.m
    moment = np.zeros((2, 2))
    correction = np.zeros((2, 2))
    for c, r in zip(ds.clusters, vectors):
        gi = np.linalg.inv(c.Z.T @ c.Z)
        e = gi @ c.Z.T @ r
        moment += np.outer(e, e)
        correction += gi
    oracle = moment / m - sigma2 * correction / m
    assert np.allclose(vc.sigma_raw.entries, 0.5 * (oracle + oracle.T), rtol=1e-10)


def test_effect_covariance_needs_two_clusters():
    ds = random_dataset(seed=12, m=1)
    proj = cluster_projections(ds)
    res = residual_set(ds, [np.zeros(c.n) for c in ds.clusters])
    eff = estimate_effects(res, proj)
    with pytest.raises(DataValidationError, match="2"):
        estimate_effect_covariance(eff, 1.0, proj)


def test_correlation_guard_and_unit_diagonal():
    ds = random_dataset(seed=13, m=6, q=2, Sigma=[[1.0, 0.3], [0.3, 1.0]], sigma=0.5)
    fit = fit_pipeline(ds, KernelSpec(bandwidth=0.6))
    corr = fit.variance.correlation
    finite = np.isfinite(np.diag(corr))
    assert np.all(np.diag(corr)[finite] == 1.0)


def test_pipeline_scaling_equivariance_exact():
    ds = random_dataset(seed=14, m=8, q=2, Sigma=np.eye(2), sigma=0.7)
    kernel = KernelSpec(bandwidth=0.35)
    fit1 = fit_pipeline(ds, kernel)
    clusters = [type(c)(id=c.id, u=c.u, y=2.0 * c.y, X=c.X, Z=c.Z) for c in ds.clusters]
    ds2 = type(ds)(clusters=tuple(clusters), p=ds.p, q=ds.q)
    fit2 = fit_pipeline(ds2, kernel)
    # scaling by a power of two is exact in floating point
    assert fit2.variance.sigma2 == 4.0 * fit1.variance.sigma2
    assert np.array_equal(fit2.variance.sigma_raw.entries, 4.0 * fit1.variance.sigma_raw.entries)


def test_pipeline_noise_free_affine():
    rng = np.random.default_rng(15)
    rows = []
    for i in range(10):
        for j in range(6):
            u = rng.uniform(0, 1)
            x = rng.normal(size=2)
            a = np.array([2.0 - u, 0.5 + 2.0 * u])
            rows.append((f"c{i}", u, float(x @ a), x, rng.normal(size=2)))
    ds = dataset_from_arrays(rows, p=2, q=2)
    fit = fit_pipeline(ds, KernelSpec(bandwidth=0.35))
    assert abs(fit.variance.sigma2) < 1e-6
    assert np.max(np.abs(fit.variance.sigma_raw.entries)) < 1e-6


def test_pipeline_excludes_infeasible_clusters():
    rows = [("tiny", 0.5, 1.0, [1.0], [1.0, 0.5])]
    rng = np.random.default_rng(16)
    for i in range(6):
        for j in range(6):
            rows.append((f"c{i}", rng.uniform(0, 1), rng.normal(), [rng.normal()],
                         rng.normal(size=2)))
    ds = dataset_from_arrays(rows, p=1, q=2)
    with pytest.warns(UserWarning, match="tiny"):
        fit = fit_pipeline(ds, KernelSpec(bandwidth=0.45))
    assert fit.variance.excluded_clusters == ("tiny",)
    # the infeasible cluster still participates in curve fitting
    assert 0.5 in fit.curve.points
    assert len(fit.effects.cluster_ids) == 6


def test_pipeline_stage_labels():
    ds = random_dataset(seed=17, m=3)
    with pytest.raises(DataValidationError, match="curve fitting"):
        fit_pipeline(ds, KernelSpec(bandwidth=0.4), eval_points=[5.0])


def test_pipeline_mean_sigma2_over_replications():
    # replication oracle with recorded seed: the pooled noise-variance
    # estimate stays within 3 Monte-Carlo standard errors of the truth
    from vcre import ScenarioConfig, generate

    cfg = ScenarioConfig(seed=101)
    vals = []
    for rep in range(100):
        fit = fit_pipeline(generate(cfg, rep), cfg.kernel)
        vals.append(fit.variance.sigma2)
    vals = np.array(vals)
    se = vals.std(ddof=1) / 10.0
    # smoothing inflates the estimate slightly at this sample size; the
    # 3-SE band is around the replication mean's own expectation
    assert abs(vals.mean() - 1.0) < 3.0 * se + 0.05


@pytest.mark.slow
def test_correction_moves_moment_toward_truth():
    # with the true curve supplied (no smoothing), the raw effect moment
    # overshoots the target by sigma2 * mean Gram inverse; subtracting that
    # term must shrink the error wherever the term is material.  For the
    # isotropic design the Gram-inverse mean is diagonal in expectation, so
    # the off-diagonal entry is only checked for non-degradation.
    from vcre import CoefficientCurve, ScenarioConfig, coefficient_values, generate
    from vcre.smoother import residuals as make_residuals

    cfg = ScenarioConfig(seed=19)
    Sigma = cfg.Sigma
    raw_sum = np.zeros((2, 2))
    corrected_sum = np.zeros((2, 2))
    correction_sum = np.zeros((2, 2))
    reps = 500
    for rep in range(reps):
        ds = generate(cfg, rep)
        pts = np.unique(ds.u_all)
        curve = CoefficientCurve(
            points=pts, values=coefficient_values(pts), slopes=np.zeros((pts.size, 2))
        )
        res = make_residuals(ds, curve)
        proj = cluster_projections(ds)
        sigma2 = estimate_noise_variance(res, proj)
        eff = estimate_effects(res, proj)
        moment = eff.effects.T @ eff.effects / proj.m
        vc = estimate_effect_covariance(eff, sigma2, proj)
        raw_sum += moment
        corrected_sum += vc.sigma_raw.entries
        correction_sum += moment - vc.sigma_raw.entries
    raw_err = np.abs(raw_sum / reps - Sigma)
    corrected_err = np.abs(corrected_sum / reps - Sigma)
    # the overshoot of the raw moment matches the subtracted term (3.5 SE:
    # per-rep diagonal moment entries have sd ~ 0.3, so SE ~ 0.013 at 500)
    overshoot = raw_sum / reps - Sigma
    assert np.allclose(np.diag(overshoot), np.diag(correction_sum / reps), atol=0.05)
    # strictly closer on the diagonal, where the correction is material
    assert np.all(np.diag(corrected_err) < np.diag(raw_err))
    # no material degradation off-diagonal (correction is ~0 there)
    assert corrected_err[0, 1] - raw_err[0, 1] < 0.01
    # and closer in total
    assert corrected_err.sum() < raw_err.sum()
