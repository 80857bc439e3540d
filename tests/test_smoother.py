import numpy as np
import pytest

from vcre import (
    CoefficientCurve,
    DataValidationError,
    EmptyWindowError,
    KernelSpec,
    NumericalError,
    ScenarioConfig,
    SingularWindowError,
    fit_curve,
    generate,
    residuals,
)
from vcre.kernels import tabulated_profile
from vcre.smoother import (
    _BLOCK_ELEMENTS,
    _solve_local,
    _solve_points,
    _Windows,
    curvature_at_points,
    local_linear_fit,
)

from helpers import dataset_from_arrays, random_dataset


def dense_local_linear_oracle(ds, u, kernel):
    # straight from the definition: solve the full 2p x 2p weighted normal
    # equations with explicitly assembled regression and weight matrices
    d = ds.u_all - u
    w = kernel.weights(d)
    lam = np.hstack([ds.X_all, d[:, None] * ds.X_all])
    W = np.diag(w)
    theta = np.linalg.solve(lam.T @ W @ lam, lam.T @ W @ ds.y_all)
    return theta[: ds.p], theta[ds.p :]


def constant_coef_dataset(seed=0, m=4, values=(2.0, -1.0)):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(m):
        for j in range(6):
            x = rng.normal(size=2)
            rows.append((f"c{i}", rng.uniform(0, 1), float(x @ values), x, [0.0, 0.0]))
    return dataset_from_arrays(rows, p=2, q=2)


def test_reproduces_constants():
    ds = constant_coef_dataset()
    a, _ = local_linear_fit(ds, 0.5, KernelSpec(bandwidth=0.6))
    assert np.allclose(a, [2.0, -1.0], atol=1e-10)


def test_reproduces_affine_exactly():
    rng = np.random.default_rng(1)
    rows = []
    for i in range(5):
        for j in range(5):
            u = rng.uniform(0, 1)
            x = rng.normal()
            rows.append((f"c{i}", u, x * (1.0 + 3.0 * u), [x], [0.0]))
    ds = dataset_from_arrays(rows, p=1, q=1)
    for u in (0.3, 0.5, 0.7):
        a, b = local_linear_fit(ds, u, KernelSpec(bandwidth=0.25))
        assert a[0] == pytest.approx(1.0 + 3.0 * u, rel=1e-8)
        assert b[0] == pytest.approx(3.0, rel=1e-8)


def test_matches_dense_oracle_single_cluster():
    rng = np.random.default_rng(2)
    u = np.sort(rng.uniform(0, 1, 5))
    x = rng.normal(size=(5, 1))
    y = rng.normal(size=5)
    rows = [("only", u[j], y[j], [x[j, 0]], [1.0]) for j in range(5)]
    ds = dataset_from_arrays(rows, p=1, q=1)
    kernel = KernelSpec(bandwidth=2.0)  # covers every observation
    a, b = local_linear_fit(ds, 0.5, kernel)
    a_o, b_o = dense_local_linear_oracle(ds, 0.5, kernel)
    assert np.allclose(a, a_o, rtol=1e-10)
    assert np.allclose(b, b_o, rtol=1e-10)


def test_matches_dense_oracle_random_instances():
    for seed in range(8):
        ds = random_dataset(seed=seed, m=5, p=2, q=1, sigma=0.5)
        kernel = KernelSpec(bandwidth=0.35)
        for u in (0.35, 0.55, 0.8):
            a, b = local_linear_fit(ds, u, kernel)
            a_o, b_o = dense_local_linear_oracle(ds, u, kernel)
            assert np.allclose(a, a_o, rtol=1e-10, atol=1e-12)
            assert np.allclose(b, b_o, rtol=1e-10, atol=1e-10)


def test_weight_locality():
    ds = random_dataset(seed=5, m=4, p=1, q=1, sigma=0.3)
    kernel = KernelSpec(bandwidth=0.15)
    u0 = 0.5
    a1, b1 = local_linear_fit(ds, u0, kernel)
    # perturb the response of every observation at distance >= h
    far = np.abs(ds.u_all - u0) >= kernel.bandwidth
    assert far.any()
    clusters = []
    offset = 0
    for c in ds.clusters:
        mask = np.abs(c.u - u0) >= kernel.bandwidth
        y = c.y + 100.0 * mask
        clusters.append(type(c)(id=c.id, u=c.u, y=y, X=c.X, Z=c.Z))
        offset += c.n
    ds2 = type(ds)(clusters=tuple(clusters), p=ds.p, q=ds.q)
    a2, b2 = local_linear_fit(ds2, u0, kernel)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_scaling_equivariance():
    ds = random_dataset(seed=6, m=4, p=2, q=1, sigma=0.4)
    kernel = KernelSpec(bandwidth=0.4)
    a1, b1 = local_linear_fit(ds, 0.5, kernel)
    clusters = [type(c)(id=c.id, u=c.u, y=2.0 * c.y, X=c.X, Z=c.Z) for c in ds.clusters]
    ds2 = type(ds)(clusters=tuple(clusters), p=ds.p, q=ds.q)
    a2, b2 = local_linear_fit(ds2, 0.5, kernel)
    assert np.array_equal(a2, 2.0 * a1)
    assert np.array_equal(b2, 2.0 * b1)


def test_translation_equivariance():
    ds = random_dataset(seed=7, m=4, p=1, q=1, sigma=0.4)
    kernel = KernelSpec(bandwidth=0.3)
    shift = 2.5
    a1, _ = local_linear_fit(ds, 0.5, kernel)
    clusters = [type(c)(id=c.id, u=c.u + shift, y=c.y, X=c.X, Z=c.Z) for c in ds.clusters]
    ds2 = type(ds)(clusters=tuple(clusters), p=ds.p, q=ds.q)
    a2, _ = local_linear_fit(ds2, 0.5 + shift, kernel)
    assert np.allclose(a1, a2, rtol=1e-9)


def test_empty_window_error_names_point():
    rows = [("a", float(j), 1.0, [1.0], [1.0]) for j in range(5)]
    ds = dataset_from_arrays(rows, p=1, q=1)
    with pytest.raises(EmptyWindowError, match="u=2.5"):
        local_linear_fit(ds, 2.5, KernelSpec(bandwidth=0.2))


def test_eval_point_outside_range_rejected():
    ds = random_dataset(seed=8, m=3)
    with pytest.raises(DataValidationError, match="outside observed range"):
        fit_curve(ds, KernelSpec(bandwidth=0.3), eval_points=[2.0])


def test_per_point_error_carries_identity():
    us = [0.0, 0.05, 0.1, 0.15, 3.9, 3.95, 4.0]
    rows = [("a", u, 1.0 + u, [1.0], [1.0]) for u in us]
    ds = dataset_from_arrays(rows, p=1, q=1)
    with pytest.raises(NumericalError, match="eval point u=2.5"):
        fit_curve(ds, KernelSpec(bandwidth=0.2), eval_points=[0.05, 2.5, 3.95])


def test_singular_window_and_ridge():
    # two observations in the window but identical u: slope unidentifiable
    rows = [("a", 0.5, 1.0, [1.0], [1.0]), ("a", 0.5, 2.0, [1.0], [1.0]),
            ("a", 3.0, 1.0, [1.0], [1.0])]
    ds = dataset_from_arrays(rows, p=1, q=1)
    with pytest.raises(SingularWindowError):
        local_linear_fit(ds, 0.5, KernelSpec(bandwidth=0.2))
    curve = fit_curve(ds, KernelSpec(bandwidth=0.2), eval_points=[0.5], ridge=True)
    assert curve.ridged_points == (0.5,)
    assert np.isfinite(curve.values).all()


def test_default_eval_points_cover_observations():
    ds = random_dataset(seed=9, m=5, sigma=0.2)
    curve = fit_curve(ds, KernelSpec(bandwidth=0.4))
    assert np.array_equal(curve.points, np.unique(ds.u_all))
    res = residuals(ds, curve)
    assert res.values.shape == (ds.n,)


def test_residuals_zero_for_noise_free_affine():
    rng = np.random.default_rng(10)
    rows = []
    for i in range(6):
        for j in range(5):
            u = rng.uniform(0, 1)
            x = rng.normal(size=2)
            a = np.array([1.0 + 2.0 * u, -0.5 + u])
            rows.append((f"c{i}", u, float(x @ a), x, [0.0]))
    ds = dataset_from_arrays(rows, p=2, q=1)
    curve = fit_curve(ds, KernelSpec(bandwidth=0.3))
    res = residuals(ds, curve)
    assert np.max(np.abs(res.stacked())) < 1e-8


def test_residuals_equal_effect_contribution_with_true_curve():
    # with the exact coefficient curve supplied, residuals are Z e per cluster
    rng = np.random.default_rng(11)
    coef = lambda u: np.column_stack([np.sin(u), np.cos(u)])
    effects = {}
    rows = []
    for i in range(4):
        e = rng.normal(size=2)
        effects[f"c{i}"] = e
        for j in range(6):
            u = rng.uniform(0, 1)
            x = rng.normal(size=2)
            z = rng.normal(size=2)
            y = float(x @ coef(np.array([u]))[0] + z @ e)
            rows.append((f"c{i}", u, y, x, z))
    ds = dataset_from_arrays(rows, p=2, q=2)
    pts = np.unique(ds.u_all)
    curve = CoefficientCurve(points=pts, values=coef(pts), slopes=np.zeros((pts.size, 2)))
    res = residuals(ds, curve)
    for i, (cid, c) in enumerate(zip(res.cluster_ids, ds.clusters)):
        assert np.allclose(res.values[ds.cluster_slice(i)], c.Z @ effects[cid], atol=1e-12)


def test_residuals_match_pointwise_recomputation():
    # seeded reference-design data: residuals recomputed observation by
    # observation through independent single-point fits must agree
    from vcre import ScenarioConfig, generate

    ds = generate(ScenarioConfig(seed=21, m=20), 0)
    kernel = KernelSpec(bandwidth=0.15)
    curve = fit_curve(ds, kernel)
    res = residuals(ds, curve)
    for i, c in enumerate(ds.clusters[:3]):
        r = res.values[ds.cluster_slice(i)]
        for j in range(c.n):
            a, _ = local_linear_fit(ds, float(c.u[j]), kernel)
            assert r[j] == pytest.approx(float(c.y[j] - c.X[j] @ a), abs=1e-12)


def test_exact_lookup_requires_coverage():
    ds = random_dataset(seed=12, m=3)
    curve = fit_curve(ds, KernelSpec(bandwidth=0.5),
                      eval_points=np.unique(ds.u_all)[:-1])
    with pytest.raises(NumericalError, match="exact mode"):
        residuals(ds, curve)
    res = residuals(ds, curve, interpolate=True)
    assert np.isfinite(res.stacked()).all()


def test_interpolated_curve_lookup():
    pts = np.array([0.0, 1.0])
    curve = CoefficientCurve(points=pts, values=[[0.0], [2.0]], slopes=[[0.0], [0.0]])
    vals = curve.values_at(np.array([0.25, 0.5]), interpolate=True)
    assert np.allclose(vals[:, 0], [0.5, 1.0])


def test_curve_mise_under_reference_design():
    # Monte-Carlo oracle with recorded seed: integrated squared error of the
    # first fitted coefficient against its sinusoid stays below 0.05
    from scipy.integrate import trapezoid

    from vcre import ScenarioConfig, coefficient_values, generate

    ds = generate(ScenarioConfig(seed=33), 0)
    grid = np.linspace(ds.u_all.min(), ds.u_all.max(), 401)
    curve = fit_curve(ds, KernelSpec(bandwidth=0.15), eval_points=grid)
    err = curve.values[:, 0] - coefficient_values(curve.points)[:, 0]
    mise1 = float(trapezoid(err**2, curve.points))
    assert np.isfinite(mise1)
    assert mise1 < 0.05


def test_curvature_exact_on_quadratic():
    rng = np.random.default_rng(13)
    rows = []
    for i in range(6):
        for j in range(8):
            u = rng.uniform(0, 1)
            x = rng.normal()
            rows.append((f"c{i}", u, x * u * u, [x], [0.0]))
    ds = dataset_from_arrays(rows, p=1, q=1)
    vals = curvature_at_points(ds, KernelSpec(bandwidth=0.45), [0.4, 0.5, 0.6])
    assert np.allclose(vals, 2.0, atol=1e-6)


def test_curvature_infeasible_window_errors():
    rows = [("a", 0.1 * j, 1.0, [1.0], [1.0]) for j in range(3)]
    ds = dataset_from_arrays(rows, p=1, q=1)
    with pytest.raises(NumericalError):
        curvature_at_points(ds, KernelSpec(bandwidth=0.5), [0.1])


def pointwise_oracle(win, points, kernel, degree, ridge):
    # one _solve_local per point, with the per-point error wrapping of the
    # smoother's public functions
    thetas, ridged = [], []
    for u in points:
        try:
            theta, used_ridge = _solve_local(win, float(u), kernel, degree, ridge)
        except NumericalError as e:
            raise type(e)(f"eval point u={u}: {e}") from e
        thetas.append(theta)
        if used_ridge:
            ridged.append(float(u))
    return np.array(thetas), ridged


ORACLE_KERNELS = {
    "epanechnikov": KernelSpec(bandwidth=0.15),
    "uniform": KernelSpec(bandwidth=0.15, kind="uniform"),
    "triangular": KernelSpec(bandwidth=0.15, kind="triangular"),
    "tabulated": KernelSpec(
        bandwidth=0.15,
        kind="custom",
        profile=tabulated_profile(
            np.linspace(-1.0, 1.0, 9), 0.9375 * (1.0 - np.linspace(-1.0, 1.0, 9) ** 2) ** 2
        ),
    ),
}


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("kind", sorted(ORACLE_KERNELS))
def test_blocked_solve_matches_pointwise_oracle(degree, kind):
    # reference design at m = 100; the blocked solve sums the window moments
    # in another order, so it agrees with the per-point solve to rounding:
    # |blocked - loop| <= 1e-9 * max|loop| in every coefficient column
    ds = generate(ScenarioConfig(seed=7, m=100), 0)
    kernel = ORACLE_KERNELS[kind]
    if degree == 3:
        kernel = kernel.with_bandwidth(2.0 * kernel.bandwidth)
    win = _Windows(ds)
    points = np.unique(ds.u_all)
    lo = np.searchsorted(win.u, points - kernel.bandwidth, side="left")
    hi = np.searchsorted(win.u, points + kernel.bandwidth, side="right")
    # each block holds at most _BLOCK_ELEMENTS / min(window) targets
    assert points.size * np.min(hi - lo) > 4 * _BLOCK_ELEMENTS  # over 4 blocks
    theta, ridged = _solve_points(win, points, kernel, degree, ridge=False)
    loop, loop_ridged = pointwise_oracle(win, points, kernel, degree, ridge=False)
    assert ridged == loop_ridged == []
    scale = np.max(np.abs(loop), axis=0)
    assert np.all(np.abs(theta - loop) <= 1e-9 * scale)
    if degree == 1:
        curve = fit_curve(ds, kernel)
        assert np.array_equal(curve.values, theta[:, 0])
        assert np.array_equal(curve.slopes, theta[:, 1])
    else:
        # arbitrary point order: every target keeps its own window
        shuffled = np.random.default_rng(0).permutation(points)
        curv = curvature_at_points(ds, kernel, shuffled)
        expected = 2.0 * loop[np.searchsorted(points, shuffled), 2]
        assert np.all(np.abs(curv - expected) <= 2e-9 * scale[2])


def gap_dataset():
    # dense observations on [0, 1] and [2, 3] with one lone observation at
    # u = 1.5: its h = 0.2 window holds a single point, fewer than the 2p
    # a local-linear fit needs, and it shares a block with normal windows
    rng = np.random.default_rng(14)
    us = np.concatenate([np.linspace(0.0, 1.0, 21), [1.5], np.linspace(2.0, 3.0, 21)])
    rows = []
    for j, u in enumerate(us):
        x = rng.normal()
        rows.append((f"c{j % 5}", float(u), x * np.sin(u) + 0.1 * rng.normal(), [x], [1.0]))
    return dataset_from_arrays(rows, p=1, q=1)


def test_underdetermined_window_inside_block_matches_loop():
    ds = gap_dataset()
    kernel = KernelSpec(bandwidth=0.2)
    win = _Windows(ds)
    # evaluated at u = 1.42 instead of 1.5, the lone observation sits
    # off-centre and its rank-one moment matrix passes a Cholesky
    # factorisation on rounding alone; only the count of positive weights
    # flags the window
    points = np.unique(np.append(ds.u_all[ds.u_all != 1.5], 1.42))
    assert points.size * ds.n <= _BLOCK_ELEMENTS  # a single block
    curve = fit_curve(ds, kernel, eval_points=points, ridge=True)
    loop, loop_ridged = pointwise_oracle(win, points, kernel, 1, ridge=True)
    assert curve.ridged_points == tuple(loop_ridged) == (1.42,)
    assert np.array_equal(curve.values, loop[:, 0])
    assert np.array_equal(curve.slopes, loop[:, 1])

    with pytest.raises(SingularWindowError) as loop_err:
        pointwise_oracle(win, points, kernel, 1, ridge=False)
    with pytest.raises(SingularWindowError, match="eval point u=1.42") as err:
        fit_curve(ds, kernel, eval_points=points)
    assert str(err.value) == str(loop_err.value)


def test_blocked_solve_keeps_searchsorted_window_bounds():
    # an observation one ulp below u0 - h lies outside the window that
    # searchsorted gives, yet (u - u0) / h rounds to -1 and the uniform
    # kernel would weight it; the blocked solve must leave it out as the
    # per-point solve does
    u0, h = 0.25, 0.2
    edge = float(np.nextafter(u0 - h, -np.inf))
    assert edge < u0 - h and abs((edge - u0) / h) <= 1.0
    rng = np.random.default_rng(15)
    us = [u for u in np.linspace(0.0, 1.0, 21) if u != 0.05] + [edge]
    rows = [(f"c{j % 4}", u, float(np.cos(3.0 * u) + rng.normal()), [1.0], [1.0])
            for j, u in enumerate(us)]
    ds = dataset_from_arrays(rows, p=1, q=1)
    kernel = KernelSpec(bandwidth=h, kind="uniform")
    win = _Windows(ds)
    points = np.unique(ds.u_all)
    assert u0 in points
    curve = fit_curve(ds, kernel)
    loop, _ = pointwise_oracle(win, points, kernel, 1, ridge=False)
    scale = np.max(np.abs(loop), axis=0)
    assert np.all(np.abs(curve.values - loop[:, 0]) <= 1e-9 * scale[0])
    assert np.all(np.abs(curve.slopes - loop[:, 1]) <= 1e-9 * scale[1])
