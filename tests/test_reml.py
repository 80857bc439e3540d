import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcre import KernelSpec, RemlParams, SplineSpec, fit_pipeline, fit_reml, reml_negloglik
from vcre.reml import _Workspace, _negloglik
from vcre.splines import basis_matrix

from helpers import dataset_from_arrays, random_dataset


def dense_restricted_negloglik(ds, spec, Sigma, sigma2):
    # dense whole-dataset oracle: explicit block-diagonal covariance,
    # determinants and the profiled GLS residual quadratic form
    n = ds.n
    V = np.zeros((n, n))
    design = []
    offset = 0
    for c in ds.clusters:
        V[offset : offset + c.n, offset : offset + c.n] = (
            c.Z @ Sigma @ c.Z.T + sigma2 * np.eye(c.n)
        )
        design.append(
            np.hstack([c.X[:, [k]] * basis_matrix(spec, c.u) for k in range(ds.p)])
        )
        offset += c.n
    B = np.vstack(design)
    y = ds.y_all
    Vinv = np.linalg.inv(V)
    A = B.T @ Vinv @ B
    beta = np.linalg.solve(A, B.T @ Vinv @ y)
    r = y - B @ beta
    return (
        np.linalg.slogdet(V)[1] + np.linalg.slogdet(A)[1] + float(r @ Vinv @ r)
    )


def small_dataset(seed=0, m=4, n_range=(5, 7), q=2):
    return random_dataset(
        seed=seed, m=m, p=2, q=q, n_range=n_range,
        Sigma=[[1.0, 0.3], [0.3, 0.8]][:q][:q] if q == 2 else np.eye(q) * 0.8,
        sigma=0.8,
    )


def spec_for(ds, knots=2, degree=2):
    return SplineSpec(
        n_interior_knots=knots,
        interval=(float(ds.u_all.min()), float(ds.u_all.max())),
        degree=degree,
    )


def test_negloglik_matches_dense_oracle():
    ds = small_dataset(seed=1, m=4, n_range=(5, 7))
    assert ds.n <= 30
    spec = spec_for(ds)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        L = np.tril(rng.normal(size=(2, 2)) * 0.4)
        L[np.diag_indices(2)] = np.abs(L[np.diag_indices(2)]) + 0.3
        Sigma = L @ L.T
        sigma2 = float(rng.uniform(0.3, 1.5))
        got = _negloglik(Sigma, sigma2, _Workspace(ds, spec))
        oracle = dense_restricted_negloglik(ds, spec, Sigma, sigma2)
        assert got == pytest.approx(oracle, rel=1e-8)


def test_negloglik_zero_effect_covariance_reduces_to_ols_form():
    ds = small_dataset(seed=2, m=3, n_range=(5, 6))
    spec = spec_for(ds)
    got = _negloglik(np.zeros((2, 2)), 1.0, _Workspace(ds, spec))
    oracle = dense_restricted_negloglik(ds, spec, np.zeros((2, 2)), 1.0)
    assert got == pytest.approx(oracle, rel=1e-8)


def test_negloglik_public_api_decodes_params():
    ds = small_dataset(seed=3, m=3)
    spec = spec_for(ds)
    params = RemlParams.encode(np.array([[1.0, 0.2], [0.2, 0.7]]), 0.9, 2)
    Sigma, sigma2 = params.decode()
    assert reml_negloglik(params, ds, spec) == pytest.approx(
        dense_restricted_negloglik(ds, spec, Sigma, sigma2), rel=1e-8
    )


def test_translation_invariance_with_intercept_design():
    # one fixed-effect covariate is identically 1, so the spline block spans
    # constants; shifting every response leaves the restricted value alone
    rng = np.random.default_rng(4)
    rows = []
    for i in range(4):
        for j in range(6):
            u = rng.uniform(0, 1)
            rows.append((f"c{i}", u, rng.normal(), [1.0, rng.normal()],
                         rng.normal(size=2)))
    ds = dataset_from_arrays(rows, p=2, q=2)
    spec = spec_for(ds, knots=1, degree=2)
    Sigma = np.array([[0.8, 0.1], [0.1, 0.6]])
    base = _negloglik(Sigma, 0.7, _Workspace(ds, spec))
    shifted_clusters = [
        type(c)(id=c.id, u=c.u, y=c.y + 5.0, X=c.X, Z=c.Z) for c in ds.clusters
    ]
    ds2 = type(ds)(clusters=tuple(shifted_clusters), p=ds.p, q=ds.q)
    shifted = _negloglik(Sigma, 0.7, _Workspace(ds2, spec))
    assert shifted == pytest.approx(base, rel=1e-8)


def test_two_cluster_q1_grid_against_oracle():
    ds = random_dataset(seed=5, m=2, p=1, q=1, n_range=(6, 8),
                        Sigma=[[0.5]], sigma=0.6)
    spec = spec_for(ds, knots=1, degree=1)
    ws = _Workspace(ds, spec)
    for s2 in (0.2, 0.5, 0.9, 1.7):
        got = _negloglik(np.array([[0.5]]), s2, ws)
        oracle = dense_restricted_negloglik(ds, spec, np.array([[0.5]]), s2)
        assert got == pytest.approx(oracle, rel=1e-8)


@settings(deadline=None, max_examples=40)
@given(
    vec=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=4, max_size=4,
    )
)
def test_decoded_covariance_always_psd(vec):
    params = RemlParams(q=2, vector=np.array(vec))
    Sigma, sigma2 = params.decode()
    assert sigma2 > 0
    assert np.linalg.eigvalsh(Sigma).min() >= -1e-12


def test_encode_decode_roundtrip():
    Sigma = np.array([[2.0, 1.5], [1.5, 2.0]])
    params = RemlParams.encode(Sigma, 1.3, 2)
    S2, s2 = params.decode()
    assert np.allclose(S2, Sigma, atol=1e-6)
    assert s2 == pytest.approx(1.3, rel=1e-9)


def test_encode_floors_indefinite_input():
    Sigma = np.array([[1.0, 0.0], [0.0, -0.5]])
    S2, _ = RemlParams.encode(Sigma, 1.0, 2).decode()
    assert np.linalg.eigvalsh(S2).min() >= 0.0


def test_fit_reml_descent_and_metadata():
    ds = small_dataset(seed=6, m=6, n_range=(5, 8))
    spec = spec_for(ds, knots=2, degree=2)
    init = fit_pipeline(ds, KernelSpec(bandwidth=0.4)).variance
    x0 = RemlParams.encode(init.sigma_psd.entries, init.sigma2, 2)
    before = reml_negloglik(x0, ds, spec)
    fit = fit_reml(ds, spec, init=init)
    assert fit.neg_loglik <= before + 1e-12
    assert fit.converged
    assert fit.iterations > 0
    assert fit.simplex_spread < 1e-8
    assert np.linalg.eigvalsh(fit.Sigma.entries).min() >= -1e-12
    assert fit.spline_coefficients.shape == (spec.dim, ds.p)


def test_fit_reml_deterministic():
    ds = small_dataset(seed=7, m=5)
    spec = spec_for(ds)
    a = fit_reml(ds, spec)
    b = fit_reml(ds, spec)
    assert np.array_equal(a.Sigma.entries, b.Sigma.entries)
    assert a.sigma2 == b.sigma2
    assert a.iterations == b.iterations


def test_fit_reml_warns_above_q3():
    ds = random_dataset(seed=8, m=6, p=2, q=4, n_range=(6, 9),
                        Sigma=np.eye(4) * 0.5, sigma=0.8)
    spec = spec_for(ds, knots=1, degree=1)
    with pytest.warns(UserWarning, match="q=4"):
        fit_reml(ds, spec, max_iter=30, restarts=0)


@pytest.mark.slow
def test_reml_shrinks_toward_zero_effect_covariance():
    # data simulated without random effects: the fitted covariance entries
    # collapse toward zero (median over 20 seeded replications)
    from vcre import ScenarioConfig, generate

    cfg = ScenarioConfig(seed=9, Sigma=np.zeros((2, 2)))
    entries = []
    for rep in range(20):
        ds = generate(cfg, rep)
        init = fit_pipeline(ds, cfg.kernel).variance
        fit = fit_reml(ds, SplineSpec(n_interior_knots=8, interval=(0.0, 1.0)),
                       init=init)
        S = fit.Sigma.entries
        entries.append([abs(S[0, 0]), abs(S[0, 1]), abs(S[1, 1])])
    med = np.median(np.array(entries), axis=0)
    assert np.all(med < 0.2)


_V3 = np.array([1.0, -0.5, 0.8])
# (Sigma, sigma2, relative bound on |woodbury - dense|).  Each bound is about
# 10x the largest gap measured on these datasets: 1.1e-14, 2.0e-15, 3.1e-15
# and 1.1e-10 in this order.  At sigma2 = 1e-6 the dense oracle inverts V with
# condition number ~1e7 and is the less accurate side: against a 50-digit
# reference on a dataset of this shape the Woodbury value was within 7e-15
# and the oracle 5e-11 off.
WOODBURY_CASES = {
    "q1": ([[0.8]], 0.5, 1e-13),
    "q3": ([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.6]], 0.4, 3e-14),
    "q3_rank1": (np.outer(_V3, _V3), 0.3, 3e-14),
    "q2_small_sigma2": ([[1.0, 0.3], [0.3, 0.8]], 1e-6, 1e-9),
}


@pytest.mark.parametrize("case", sorted(WOODBURY_CASES))
def test_negloglik_woodbury_matches_dense_oracle(case):
    Sigma, sigma2, bound = WOODBURY_CASES[case]
    Sigma = np.asarray(Sigma, dtype=float)
    q = Sigma.shape[0]
    for seed in range(3):
        ds = random_dataset(seed=50 + seed, m=4, p=2, q=q, n_range=(q + 2, q + 5),
                            Sigma=np.eye(q) * 0.7, sigma=0.6)
        spec = spec_for(ds)
        got = _negloglik(Sigma, sigma2, _Workspace(ds, spec))
        oracle = dense_restricted_negloglik(ds, spec, Sigma, sigma2)
        assert abs(got - oracle) <= bound * abs(oracle)
