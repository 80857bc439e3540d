import numpy as np
import pytest

from vcre import (
    KernelSpec,
    ScenarioConfig,
    bias_terms,
    coefficient_curvature,
    coefficient_values,
    cluster_projections,
    compute_diagnostics,
    curvature_curve,
    fit_pipeline,
    generate,
    kernel_moments,
    leverage_constants,
    noise_variance_inference,
    squared_noise_variance,
)
from vcre import asymptotics
from vcre.asymptotics import _delta_hat, effect_cov_inference
from vcre.errors import DegenerateKernelError
from vcre.kernels import KernelMoments
from vcre.symmat import vech

from helpers import dataset_from_arrays, random_dataset


def balanced_intercept_dataset(m=6, n0=4):
    rows = []
    rng = np.random.default_rng(0)
    for i in range(m):
        for j in range(n0):
            rows.append((f"c{i}", rng.uniform(0, 1), rng.normal(), [1.0], [1.0]))
    return dataset_from_arrays(rows, p=1, q=1)


def test_gamma_hand_algebra_intercept_design():
    # q=1, z identically 1, balanced n0: leverage is 1/n0 everywhere and
    # gamma reduces to (n0-1)/n0
    for n0 in (3, 4, 8):
        ds = balanced_intercept_dataset(m=5, n0=n0)
        consts = leverage_constants(cluster_projections(ds))
        assert consts.gamma_hat == pytest.approx((n0 - 1) / n0, abs=1e-12)


def test_c_constant_identities():
    ds = random_dataset(seed=2, m=7, q=2, n_range=(4, 10))
    proj = cluster_projections(ds)
    consts = leverage_constants(proj)
    assert consts.c1 * (consts.n - 2 * consts.m) == pytest.approx(consts.n, abs=1e-9)
    assert consts.c2 * consts.m == pytest.approx(consts.n, abs=1e-9)


def test_gamma_matches_brute_force_double_sum():
    rng = np.random.default_rng(3)
    rows = []
    for i in range(100):
        for j in range(8):
            rows.append((f"c{i}", rng.uniform(0, 1), rng.normal(), [1.0],
                         rng.normal(size=2)))
    ds = dataset_from_arrays(rows, p=1, q=2)
    proj = cluster_projections(ds)
    consts = leverage_constants(proj)
    # brute force: leverage of every observation, squared, summed
    total = 0.0
    n = 0
    for c in ds.clusters:
        gi = np.linalg.inv(c.Z.T @ c.Z)
        for j in range(c.n):
            total += float(c.Z[j] @ gi @ c.Z[j]) ** 2
        n += c.n
    dof = n - 2 * ds.m
    oracle = total / dof - (n / dof) * 2 / (n / ds.m) + 1.0
    assert consts.gamma_hat == pytest.approx(oracle, rel=1e-10)


def test_bias_terms_vanish_for_zero_curvature():
    ds = random_dataset(seed=4, m=5, q=2)
    proj = cluster_projections(ds)
    b, B1, B2 = bias_terms(ds, proj, np.zeros((ds.n, ds.p)))
    assert b == 0.0
    assert np.array_equal(B2, np.zeros((2, 2)))
    assert np.allclose(B1, np.mean([np.linalg.inv(c.Z.T @ c.Z) for c in ds.clusters], axis=0))


def test_bias_terms_intercept_hand_algebra():
    ds = balanced_intercept_dataset(m=4, n0=5)
    proj = cluster_projections(ds)
    _, B1, _ = bias_terms(ds, proj, np.zeros((ds.n, 1)))
    assert B1[0, 0] == pytest.approx(1.0 / 5.0, abs=1e-12)


def test_bias_terms_match_dense_oracle():
    ds = random_dataset(seed=5, m=4, q=2, n_range=(5, 8))
    proj = cluster_projections(ds)
    rng = np.random.default_rng(6)
    curv = rng.normal(size=(ds.n, ds.p))
    b, B1, B2 = bias_terms(ds, proj, curv)
    # dense re-evaluation with explicit projection matrices
    eta_all = np.sum(ds.X_all * curv, axis=1)
    b_o = 0.0
    B2_o = np.zeros((2, 2))
    n = 0
    for i, c in enumerate(ds.clusters):
        eta = eta_all[ds.cluster_slice(i)]
        gi = np.linalg.inv(c.Z.T @ c.Z)
        Q = np.eye(c.n) - c.Z @ gi @ c.Z.T
        b_o += eta @ Q @ eta
        v = gi @ c.Z.T @ eta
        B2_o += np.outer(v, v)
        n += c.n
    b_o /= n - 2 * ds.m
    B2_o /= ds.m
    assert b == pytest.approx(b_o, rel=1e-10)
    assert np.allclose(B2, B2_o, rtol=1e-10)


def test_bias_terms_curvature_homogeneity():
    ds = random_dataset(seed=7, m=4, q=2)
    proj = cluster_projections(ds)
    rng = np.random.default_rng(8)
    curv = rng.normal(size=(ds.n, ds.p))
    b1, B1_a, B2_a = bias_terms(ds, proj, curv)
    b2, B1_b, B2_b = bias_terms(ds, proj, 2.0 * curv)
    assert b2 == 4.0 * b1
    assert np.array_equal(B2_b, 4.0 * B2_a)
    assert np.array_equal(B1_a, B1_b)


def test_noise_variance_bias_arithmetic():
    # symmetric kernel: the curvature ratio is -mu2, so the bias collapses
    # to h^4 mu2^2 b / 4
    ds = generate(ScenarioConfig(seed=9, m=30), 0)
    kernel = KernelSpec(bandwidth=0.15)
    fit = fit_pipeline(ds, kernel)
    curv = coefficient_curvature(ds.u_all)
    b, B1, B2 = bias_terms(ds, fit.projections, curv)
    consts = leverage_constants(fit.projections)
    veps = squared_noise_variance(fit.residuals, fit.projections)
    moments = kernel_moments(kernel)
    bias, se = noise_variance_inference(fit.variance, moments, 0.15, b, consts, veps)
    assert bias == pytest.approx(0.25 * 0.15**4 * 0.2**2 * b, rel=1e-12)
    assert se > 0


def test_noise_variance_se_gaussian_reduction():
    # substituting var(eps^2) = 2 sigma^4 gives n se^2 = 2 sigma^4 c1 (1 + 2 gamma)
    ds = random_dataset(seed=10, m=8, q=2, Sigma=np.eye(2), sigma=0.5)
    fit = fit_pipeline(ds, KernelSpec(bandwidth=0.5))
    consts = leverage_constants(fit.projections)
    moments = kernel_moments(KernelSpec(bandwidth=0.5))
    s2 = fit.variance.sigma2
    _, se = noise_variance_inference(
        fit.variance, moments, 0.5, 0.0, consts, 2.0 * s2**2
    )
    expected = 2.0 * s2**2 * consts.c1 * (1.0 + 2.0 * consts.gamma_hat) / consts.n
    assert se**2 == pytest.approx(expected, rel=1e-10)


def test_degenerate_kernel_moments_error():
    ds = random_dataset(seed=11, m=5, q=1)
    fit = fit_pipeline(ds, KernelSpec(bandwidth=0.5))
    consts = leverage_constants(fit.projections)
    bad = KernelMoments(mu0=1.0, mu1=1.0, mu2=1.0, mu3=1.0)  # mu0 mu2 - mu1^2 = 0
    with pytest.raises(DegenerateKernelError):
        noise_variance_inference(fit.variance, bad, 0.2, 1.0, consts, 1.0)


def test_effect_cov_bias_vanishes_for_zero_curvature():
    ds = random_dataset(seed=12, m=6, q=2, Sigma=np.eye(2), sigma=0.5)
    kernel = KernelSpec(bandwidth=0.5)
    fit = fit_pipeline(ds, kernel)
    consts = leverage_constants(fit.projections)
    moments = kernel_moments(kernel)
    veps = squared_noise_variance(fit.residuals, fit.projections)
    b, B1, B2 = bias_terms(ds, fit.projections, np.zeros((ds.n, ds.p)))
    bias, se = effect_cov_inference(
        fit.variance, fit.effects, fit.projections, moments, 0.5,
        b, B1, B2, consts, veps,
    )
    assert np.array_equal(bias, np.zeros(3))
    assert se.shape == (3,)
    assert np.all(se >= 0)


def test_effect_cov_q1_scalar_collapse():
    ds = random_dataset(seed=13, m=8, q=1, Sigma=[[1.0]], sigma=0.4)
    kernel = KernelSpec(bandwidth=0.5)
    fit = fit_pipeline(ds, kernel)
    consts = leverage_constants(fit.projections)
    moments = kernel_moments(kernel)
    veps = squared_noise_variance(fit.residuals, fit.projections)
    b, B1, B2 = bias_terms(ds, fit.projections, np.zeros((ds.n, ds.p)))
    _, se = effect_cov_inference(
        fit.variance, fit.effects, fit.projections, moments, 0.5,
        b, B1, B2, consts, veps,
    )
    delta = _delta_hat(fit.variance, fit.effects, fit.projections, consts, veps)
    assert delta.shape == (1, 1)
    assert se[0] == pytest.approx(np.sqrt(delta[0, 0] * consts.c2 / consts.n), rel=1e-12)


def dense_duplication_pinv(q):
    """D+ = (D^T D)^{-1} D^T for the duplication matrix, vec(A) = D vech(A), by index walk."""
    pos = {}
    for j in range(q):
        for i in range(j, q):
            pos[(i, j)] = len(pos)
    d = np.zeros((q * q, len(pos)))
    for j in range(q):  # vec stacks columns
        for i in range(q):
            d[j * q + i, pos[(max(i, j), min(i, j))]] = 1.0
    gram = d.T @ d
    assert np.array_equal(gram, np.diag(np.diag(gram)))  # so its inverse is exact
    return (1.0 / np.diag(gram))[:, None] * d.T


@pytest.mark.parametrize("q", [1, 2, 3])
def test_effect_cov_sandwich_matches_dense_duplication_oracle(q, monkeypatch):
    # The index-form sandwich must equal D+ delta D+^T bit for bit, for the
    # fitted delta and for symmetric deltas at scales 1e-8 to 1e8.  The
    # sandwich reaches the output only through its diagonal, the SEs.
    ds = random_dataset(seed=15 + q, m=10, q=q, sigma=0.5)
    kernel = KernelSpec(bandwidth=0.5)
    fit = fit_pipeline(ds, kernel)
    consts = leverage_constants(fit.projections)
    veps = squared_noise_variance(fit.residuals, fit.projections)
    b, B1, B2 = bias_terms(ds, fit.projections, np.zeros((ds.n, ds.p)))
    dplus = dense_duplication_pinv(q)
    rng = np.random.default_rng(q)
    deltas = [_delta_hat(fit.variance, fit.effects, fit.projections, consts, veps)]
    for scale in (1e-8, 1.0, 1e8):
        g = rng.normal(size=(q * q, q * q)) @ rng.normal(size=(q * q, q * q))
        deltas.append(scale * (g + g.T))
    for delta in deltas:
        monkeypatch.setattr(asymptotics, "_delta_hat", lambda *args, d=delta: d)
        _, se = effect_cov_inference(
            fit.variance, fit.effects, fit.projections, kernel_moments(kernel), 0.5,
            b, B1, B2, consts, veps,
        )
        s = dplus @ delta @ dplus.T * consts.c2
        s = 0.5 * (s + s.T)
        assert np.array_equal(se, np.sqrt(np.maximum(np.diag(s), 0.0) / consts.n))


def test_delta_hat_symmetric_and_near_psd():
    ds = generate(ScenarioConfig(seed=14, m=80), 0)
    kernel = KernelSpec(bandwidth=0.15)
    fit = fit_pipeline(ds, kernel)
    consts = leverage_constants(fit.projections)
    veps = squared_noise_variance(fit.residuals, fit.projections)
    delta = _delta_hat(fit.variance, fit.effects, fit.projections, consts, veps)
    assert np.array_equal(delta, delta.T)
    w = np.linalg.eigvalsh(delta)
    assert w.min() > -0.05 * w.max()  # PSD up to sampling noise


def test_curvature_curve_affine_near_zero():
    rng = np.random.default_rng(15)
    rows = []
    for i in range(100):
        for j in range(7):
            u = rng.uniform(0, 1)
            x = rng.normal(size=2)
            a = np.array([1.0 + u, 2.0 - 3.0 * u])
            rows.append((f"c{i}", u, float(x @ a), x, [0.0, 0.0]))
    ds = dataset_from_arrays(rows, p=2, q=2)
    curv = curvature_curve(ds, KernelSpec(bandwidth=0.15))
    assert np.max(np.abs(curv)) < 0.1


def test_curvature_curve_sinusoid_at_quarter():
    # a(u) = sin(2 pi u) has curvature -4 pi^2 at u = 0.25; the local-cubic
    # estimate must land within 20% under zero noise at n >= 800
    rng = np.random.default_rng(16)
    rows = []
    for i in range(120):
        for j in range(7):
            u = rng.uniform(0, 1)
            x = rng.normal()
            rows.append((f"c{i}", u, float(x * np.sin(2 * np.pi * u)), [x], [0.0]))
    ds = dataset_from_arrays(rows, p=1, q=1)
    assert ds.n >= 800
    from vcre.smoother import curvature_at_points

    val = curvature_at_points(ds, KernelSpec(bandwidth=0.2), [0.25])[0, 0]
    target = -4.0 * np.pi**2
    assert abs(val - target) < 0.2 * abs(target)


def test_compute_diagnostics_report_shape():
    ds = generate(ScenarioConfig(seed=17, m=40), 0)
    kernel = KernelSpec(bandwidth=0.15)
    fit = fit_pipeline(ds, kernel)
    diag = compute_diagnostics(ds, kernel, fit)
    report = diag.to_report()
    assert set(report) == {
        "mu", "b", "B1", "B2", "gamma_hat", "c1", "c2",
        "bias_sigma2", "se_sigma2", "bias_Sigma", "se_Sigma",
    }
    assert len(report["mu"]) == 4
    assert len(report["bias_Sigma"]) == 3
    assert len(report["se_Sigma"]) == 3
    assert diag.b > 0  # sinusoidal truth has real curvature


@pytest.mark.slow
def test_sandwich_se_coverage():
    # Monte-Carlo oracle with recorded seed: +-1.96 se intervals around the
    # raw covariance estimate cover each true entry at a rate inside
    # [85%, 99%] (approximate by construction)
    cfg = ScenarioConfig(seed=77, m=200)
    truth = vech(cfg.Sigma)
    reps = 200
    hits = np.zeros(3)
    for rep in range(reps):
        ds = generate(cfg, rep)
        fit = fit_pipeline(ds, cfg.kernel)
        diag = compute_diagnostics(
            ds, cfg.kernel, fit, curvature=coefficient_curvature(ds.u_all)
        )
        est = vech(fit.variance.sigma_raw)
        hits += np.abs(est - truth) <= 1.96 * diag.se_Sigma
    coverage = hits / reps
    assert np.all(coverage >= 0.85)
    assert np.all(coverage <= 0.99)


def dense_oracle(ds, fit, curvature):
    """The closed-form quantities from explicit per-cluster n_i x n_i projections."""
    q = ds.q
    rmap = dict(zip(fit.residuals.cluster_ids, fit.residuals.residuals))
    eta_all = np.sum(ds.X_all * curvature, axis=1)
    rss = lev_sq = b = 0.0
    B2 = np.zeros((q, q))
    eps, effects, gram_invs, solved = [], [], [], []
    for i, c in enumerate(ds.clusters):
        if c.n <= q:
            continue
        gi = np.linalg.inv(c.Z.T @ c.Z)
        hat = c.Z @ gi @ c.Z.T
        annihilator = np.eye(c.n) - hat
        r = rmap[c.id]
        eta = eta_all[ds.cluster_slice(i)]
        rss += r @ annihilator @ r
        eps.append(annihilator @ r)
        effects.append(gi @ c.Z.T @ r)
        gram_invs.append(gi)
        solved += [gi @ z for z in c.Z]
        lev_sq += np.sum(np.diag(hat) ** 2)
        b += eta @ annihilator @ eta
        v = gi @ c.Z.T @ eta
        B2 += np.outer(v, v)
    m = len(gram_invs)
    n = sum(e.size for e in eps)
    dof = n - q * m
    sigma2 = rss / dof
    E = np.array(effects)
    G = np.mean(gram_invs, axis=0)
    S = E.T @ E / m - sigma2 * G
    S = 0.5 * (S + S.T)
    w = np.concatenate(eps) ** 2
    var_eps_sq = np.sum((w - np.sum(w) / dof) ** 2) / dof
    c1, c2 = n / dof, n / m
    gamma = lev_sq / dof - c1 * q / c2 + 1.0
    outer4 = sum(np.outer(np.kron(e, e), np.kron(e, e)) for e in E) / m
    D1 = np.vstack([np.kron(S, G[r : r + 1, :]) + np.kron(G, S[r : r + 1, :])
                    for r in range(q)])
    D2 = sum(np.outer(g.ravel(order="F"), g.ravel(order="F")) for g in gram_invs) / m
    D3 = sum(np.outer(np.kron(x, x), np.kron(x, x)) for x in solved) / m
    vecS, vecG = S.ravel(order="F"), G.ravel(order="F")
    gG = np.outer(vecG, vecG)
    delta = outer4 - np.outer(vecS, vecS)
    delta += sigma2 * (np.kron(S, G) + np.kron(G, S) + D1)
    delta += 2.0 * sigma2**2 * (D2 - D3 + c1 / c2 * (1.0 + gamma) * gG)
    delta += var_eps_sq * (D3 + c1 / c2 * gamma * gG)
    return {
        "sigma2": sigma2, "effects": E, "Sigma": S, "gamma_hat": gamma, "b": b / dof,
        "B2": B2 / m, "var_eps_sq": var_eps_sq, "delta": 0.5 * (delta + delta.T),
    }


@pytest.mark.parametrize("q", [1, 2, 3])
def test_stacked_layer_matches_dense_projection_oracle(q):
    # The stacked q x q algebra against explicit hat and annihilator matrices,
    # with one cluster (n_i = q) excluded.  Only the summation order differs,
    # so every quantity agrees to 1e-12 of its largest entry.
    base = random_dataset(seed=30 + q, m=12, q=q, n_range=(q + 1, q + 6),
                          Sigma=np.eye(q), sigma=0.6)
    rng = np.random.default_rng(q)
    tiny = type(base.clusters[0])(id="tiny", u=rng.random(q), y=rng.normal(size=q),
                                  X=rng.normal(size=(q, 2)), Z=rng.normal(size=(q, q)))
    ds = type(base)(clusters=base.clusters + (tiny,), p=2, q=q)
    with pytest.warns(UserWarning, match="tiny"):
        fit = fit_pipeline(ds, KernelSpec(bandwidth=0.5))
    curvature = rng.normal(size=(ds.n, ds.p))
    want = dense_oracle(ds, fit, curvature)
    consts = leverage_constants(fit.projections)
    veps = squared_noise_variance(fit.residuals, fit.projections)
    b, _, B2 = bias_terms(ds, fit.projections, curvature)
    got = {
        "sigma2": fit.variance.sigma2, "effects": fit.effects.effects,
        "Sigma": fit.variance.sigma_raw.entries, "gamma_hat": consts.gamma_hat, "b": b,
        "B2": B2, "var_eps_sq": veps,
        "delta": _delta_hat(fit.variance, fit.effects, fit.projections, consts, veps),
    }
    assert fit.projections.excluded == ("tiny",)
    for key, value in want.items():
        err = np.max(np.abs(np.asarray(got[key]) - value))
        assert err <= 1e-12 * np.max(np.abs(value)), key
