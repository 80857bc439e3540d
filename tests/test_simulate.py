import numpy as np
import pytest
from scipy.stats import norm

from vcre import (
    DataValidationError,
    NumericalError,
    ScenarioConfig,
    coefficient_curvature,
    coefficient_values,
    generate,
    run_imp_study,
    run_mse_study,
)
from vcre.simulate import SCENARIOS, _EXP_M2, _ndtri, default_effect_cov
from vcre.varcomp import VarianceComponents
from vcre.symmat import SymMatrix

from helpers import generate_per_cluster, same_bits, same_dataset


def test_generation_is_deterministic():
    cfg = ScenarioConfig(seed=5, m=20)
    a = generate(cfg, 3)
    b = generate(cfg, 3)
    assert a.n == b.n
    for c1, c2 in zip(a.clusters, b.clusters):
        assert np.array_equal(c1.u, c2.u)
        assert np.array_equal(c1.y, c2.y)
        assert np.array_equal(c1.X, c2.X)
        assert np.array_equal(c1.Z, c2.Z)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_generate_equals_per_cluster_oracle(scenario, q):
    # the block draws and the stacked transform give the per-cluster
    # generator's datasets bit for bit: labels, sizes, u, y, X and Z
    for m in (100, 400):
        cfg = ScenarioConfig(scenario=scenario, m=m, seed=30 + q, Sigma=default_effect_cov(q))
        for rep in range(3):
            assert same_dataset(generate(cfg, rep), generate_per_cluster(cfg, rep)), (m, rep)


def test_ndtri_equals_scipy_bitwise():
    from scipy.special import ndtri

    def around(p, width):
        return p + np.arange(-width, width + 1) * np.spacing(p)

    draws = np.clip(np.random.default_rng(3).random(1_000_000), 1e-300, 1.0 - 1e-16)
    # the clip ends, both ends of the central branch, and the switch from
    # P1/Q1 to P2/Q2 at x = sqrt(-2 log p) = 8, that is p = exp(-32)
    x8 = np.exp(-32.0) * (1.0 + np.linspace(-1e-12, 1e-12, 401))
    x = np.sqrt(-2.0 * np.log(x8))
    assert (x < 8.0).any() and (x >= 8.0).any()
    edges = np.concatenate([
        [1e-300, 1.0 - 1e-16], around(_EXP_M2, 4), around(1.0 - _EXP_M2, 4), x8, 1.0 - x8,
    ])
    for p in (draws, edges):
        assert same_bits(_ndtri(p), ndtri(p))


def test_distinct_reps_differ():
    cfg = ScenarioConfig(seed=5, m=5)
    a = generate(cfg, 0)
    b = generate(cfg, 1)
    assert not np.array_equal(a.y_all, b.y_all)


def test_cluster_size_law():
    # n_i = floor(|theta|) + 6 with theta ~ N(0, 4): the mean is
    # 6 + sum_{k>=1} P(|theta| >= k), computed here as an independent oracle
    cfg = ScenarioConfig(seed=12, m=100)
    sizes = []
    for rep in range(100):
        ds = generate(cfg, rep)
        sizes.extend(c.n for c in ds.clusters)
    sizes = np.asarray(sizes, dtype=float)
    assert sizes.min() >= 6
    expected = 6.0 + sum(2.0 * (1.0 - norm.cdf(k / 2.0)) for k in range(1, 60))
    assert expected == pytest.approx(7.1293, abs=1e-3)
    assert abs(sizes.mean() - expected) < 0.05


def test_gaussian_moment_oracles():
    # with zero effect covariance the measurement error is recoverable as
    # y - x a(u); with zero noise the effects are recoverable exactly
    cfg = ScenarioConfig(seed=9, m=100, Sigma=np.zeros((2, 2)))
    eps = []
    for rep in range(15):
        ds = generate(cfg, rep)
        eps.append(ds.y_all - np.sum(ds.X_all * coefficient_values(ds.u_all), axis=1))
    eps = np.concatenate(eps)
    assert eps.size > 10_000
    se_var = np.sqrt(2.0 / eps.size)
    assert abs(eps.var() - 1.0) < 3.0 * se_var

    cfg2 = ScenarioConfig(seed=10, m=100, sigma2=0.0)
    effects = []
    for rep in range(100):
        ds = generate(cfg2, rep)
        for c in ds.clusters:
            r = c.y - np.sum(c.X * coefficient_values(c.u), axis=1)
            effects.append(np.linalg.lstsq(c.Z, r, rcond=None)[0])
    effects = np.vstack(effects)
    assert effects.shape[0] == 10_000
    cov = np.cov(effects.T)
    n = effects.shape[0]
    # 3-SE bands from Gaussian fourth moments
    se11 = np.sqrt(2.0 * 2.0**2 / n)
    se12 = np.sqrt((2.0 * 2.0 + 1.5**2) / n)
    assert abs(cov[0, 0] - 2.0) < 3.0 * se11
    assert abs(cov[1, 1] - 2.0) < 3.0 * se11
    assert abs(cov[0, 1] - 1.5) < 3.0 * se12


@pytest.mark.slow
def test_uniform_noise_variance_and_kurtosis():
    # mean-zero uniform with variance sigma2; kurtosis of a uniform is 9/5.
    # SE of the kurtosis estimate from the delta method with exact uniform
    # moments mu2 = a^2/3, mu4 = a^4/5, mu6 = a^6/7, mu8 = a^8/9 (a = sqrt 3)
    cfg = ScenarioConfig(seed=11, m=1000, scenario="uniform_noise",
                         Sigma=np.zeros((2, 2)))
    eps = []
    for rep in range(150):
        ds = generate(cfg, rep)
        eps.append(ds.y_all - np.sum(ds.X_all * coefficient_values(ds.u_all), axis=1))
        if sum(e.size for e in eps) >= 1_000_000:
            break
    eps = np.concatenate(eps)[:1_000_000]
    n = eps.size
    assert n == 1_000_000
    assert abs(eps.var() - 1.0) < 3.0 * np.sqrt((9.0 / 5.0 - 1.0) / n)
    m2 = np.mean(eps**2)
    m4 = np.mean(eps**4)
    kurt = m4 / m2**2
    mu2, mu4, mu6, mu8 = 1.0, 9.0 / 5.0, 27.0 / 7.0, 9.0
    k = mu4 / mu2**2
    var_k = (
        (mu8 - mu4**2) / mu2**4
        + 4.0 * k**2 * (mu4 - mu2**2) / mu2**2
        - 4.0 * k * (mu6 - mu2 * mu4) / mu2**3
    ) / n
    assert abs(kurt - 9.0 / 5.0) < 3.0 * np.sqrt(var_k)


def test_misspecified_records_raw_covariates():
    cfg_g = ScenarioConfig(seed=13, m=10)
    cfg_m = ScenarioConfig(seed=13, m=10, scenario="misspecified")
    a = generate(cfg_g, 0)
    b = generate(cfg_m, 0)
    for c1, c2 in zip(a.clusters, b.clusters):
        assert np.array_equal(c1.Z, c2.Z)
        assert np.array_equal(c1.X, c2.X)
        assert np.array_equal(c1.u, c2.u)
    assert not np.array_equal(a.y_all, b.y_all)


def test_uniform_noise_changes_only_noise():
    cfg_g = ScenarioConfig(seed=14, m=5)
    cfg_u = ScenarioConfig(seed=14, m=5, scenario="uniform_noise")
    a = generate(cfg_g, 0)
    b = generate(cfg_u, 0)
    assert np.array_equal(a.Z_all, b.Z_all)
    assert not np.array_equal(a.y_all, b.y_all)


def test_coefficient_truth_helpers():
    u = np.array([0.0, 0.25, 0.5])
    vals = coefficient_values(u)
    assert np.allclose(vals[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(vals[:, 1], [1.0, 0.0, -1.0], atol=1e-12)
    curv = coefficient_curvature(u)
    assert curv[1, 0] == pytest.approx(-4.0 * np.pi**2)


def test_default_effect_cov_psd():
    for q in (2, 3, 4):
        w = np.linalg.eigvalsh(default_effect_cov(q))
        assert w.min() > 0


def test_unknown_scenario_rejected():
    with pytest.raises(DataValidationError, match="scenario"):
        ScenarioConfig(scenario="weird")


def test_mse_study_two_rep_manual_oracle():
    from vcre import KernelSpec, fit_pipeline

    cfg = ScenarioConfig(seed=15, m=25, replications=2)
    table = run_mse_study(cfg)
    manual = []
    for rep in range(2):
        fit = fit_pipeline(generate(cfg, rep), cfg.kernel)
        S = fit.variance.sigma_raw.entries
        manual.append([
            (S[0, 0] - 2.0) ** 2,
            (S[0, 1] - 1.5) ** 2,
            (S[1, 1] - 2.0) ** 2,
            (fit.variance.sigma2 - 1.0) ** 2,
        ])
    manual = np.array(manual)
    assert np.array_equal(table.per_rep_sq_err[:, :, 0], manual)
    assert np.array_equal(table.mse[:, 0], manual.mean(axis=0))


def test_mse_study_additivity_over_disjoint_rep_blocks():
    cfg = ScenarioConfig(seed=16, m=20, replications=4)
    full = run_mse_study(cfg, rep_indices=range(4))
    first = run_mse_study(cfg, rep_indices=range(0, 2))
    second = run_mse_study(cfg, rep_indices=range(2, 4))
    stacked = np.concatenate([first.per_rep_sq_err, second.per_rep_sq_err])
    assert np.array_equal(full.per_rep_sq_err, stacked)
    assert np.allclose(
        full.mse, 0.5 * (first.mse + second.mse), rtol=1e-12, atol=1e-15
    )


def test_mse_study_thread_count_invariance():
    cfg = ScenarioConfig(seed=17, m=20, replications=4)
    a = run_mse_study(cfg, threads=1)
    b = run_mse_study(cfg, threads=3)
    assert np.array_equal(a.per_rep_sq_err, b.per_rep_sq_err)
    assert np.array_equal(a.mse, b.mse)


def test_mse_study_aborts_on_failures():
    # a bandwidth far too small empties every smoothing window
    cfg = ScenarioConfig(seed=18, m=10, replications=3, bandwidth=1e-7)
    with pytest.raises(NumericalError, match="failed"):
        run_mse_study(cfg)


def test_imp_zero_when_weighting_is_identity():
    cfg = ScenarioConfig(seed=19, m=20, replications=2)
    override = VarianceComponents(
        sigma2=1.0,
        sigma2_raw=1.0,
        sigma_raw=SymMatrix(np.zeros((2, 2))),
        sigma_psd=SymMatrix(np.zeros((2, 2))),
        correlation=np.full((2, 2), np.nan),
    )
    table = run_imp_study(cfg, knot_range=[7, 9], replications=2,
                          variance_override=override)
    assert np.allclose(table.imp, 0.0, atol=1e-9)


def test_imp_recomputable_from_exported_mises():
    cfg = ScenarioConfig(seed=20, m=25, replications=1)
    table = run_imp_study(cfg, knot_range=[8], replications=1)
    recomputed = (table.mise_wi - table.mise_wls) / table.mise_wls
    assert np.array_equal(table.imp, recomputed)
    assert table.imp.shape == (1, 2)


def test_reml_method_in_study():
    cfg = ScenarioConfig(seed=21, m=15, replications=2)
    table = run_mse_study(cfg, methods=("closed_form", "reml"), reml_knots=(4,))
    assert table.methods == ("closed_form", "reml_k4")
    assert table.mse.shape == (4, 2)
    assert "reml_k4" in table.reml_converged
    with pytest.raises(DataValidationError, match="knot"):
        run_mse_study(cfg, methods=("reml",))
