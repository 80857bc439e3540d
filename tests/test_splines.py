import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vcre import (
    DataValidationError,
    NumericalError,
    RankError,
    SplineSpec,
    fit_wi,
    fit_wls,
    imp,
    mise,
)
from vcre.splines import basis_matrix
from vcre.varcomp import VarianceComponents
from vcre.symmat import SymMatrix

from helpers import dataset_from_arrays, random_dataset


def naive_recursive_basis(u, knots, degree, index):
    # independent oracle: the textbook recursive definition, one function at
    # a time, with the closed right endpoint handled by direct lookup
    t = knots
    if degree == 0:
        if t[index] <= u < t[index + 1]:
            return 1.0
        return 0.0
    left = 0.0
    if t[index + degree] > t[index]:
        left = (u - t[index]) / (t[index + degree] - t[index]) * naive_recursive_basis(
            u, t, degree - 1, index
        )
    right = 0.0
    if t[index + degree + 1] > t[index + 1]:
        right = (t[index + degree + 1] - u) / (
            t[index + degree + 1] - t[index + 1]
        ) * naive_recursive_basis(u, t, degree - 1, index + 1)
    return left + right


def make_vc(Sigma, sigma2):
    Sigma = np.asarray(Sigma, dtype=float)
    q = Sigma.shape[0]
    return VarianceComponents(
        sigma2=sigma2,
        sigma2_raw=sigma2,
        sigma_raw=SymMatrix(Sigma),
        sigma_psd=SymMatrix(Sigma),
        correlation=np.eye(q),
    )


def test_basis_dimension():
    spec = SplineSpec(n_interior_knots=8, interval=(0.0, 1.0), degree=3)
    assert spec.dim == 12
    assert basis_matrix(spec, [0.3])[0].shape == (12,)


def test_partition_of_unity():
    spec = SplineSpec(n_interior_knots=9, interval=(0.0, 1.0), degree=3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, 1000)
    for u in pts:
        assert abs(basis_matrix(spec, [u])[0].sum() - 1.0) < 1e-12


@settings(deadline=None, max_examples=50)
@given(
    u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    k=st.integers(min_value=0, max_value=12),
    degree=st.integers(min_value=1, max_value=4),
)
def test_partition_of_unity_property(u, k, degree):
    spec = SplineSpec(n_interior_knots=k, interval=(0.0, 1.0), degree=degree)
    vals = basis_matrix(spec, [u])[0]
    assert abs(vals.sum() - 1.0) < 1e-12
    assert np.all(vals >= -1e-15)


def test_clamped_endpoints():
    spec = SplineSpec(n_interior_knots=5, interval=(0.0, 2.0), degree=3)
    left = basis_matrix(spec, [0.0])[0]
    right = basis_matrix(spec, [2.0])[0]
    assert np.array_equal(left, np.eye(spec.dim)[0])
    assert np.array_equal(right, np.eye(spec.dim)[-1])


def test_basis_matches_naive_recursion_oracle():
    spec = SplineSpec(n_interior_knots=8, interval=(0.0, 1.0), degree=3)
    knots = spec.knots()
    got = basis_matrix(spec, [0.37])[0]
    oracle = np.array(
        [naive_recursive_basis(0.37, knots, 3, i) for i in range(spec.dim)]
    )
    assert np.allclose(got, oracle, atol=1e-13)


def test_spec_rejects_interval_too_narrow_for_distinct_knots():
    with pytest.raises(DataValidationError, match="too narrow"):
        SplineSpec(n_interior_knots=12, interval=(1.0, 1.0 + 4 * np.spacing(1.0)))
    with pytest.raises(DataValidationError, match="too narrow"):
        SplineSpec(n_interior_knots=12, interval=(0.0, 5e-323), degree=2)
    assert SplineSpec(n_interior_knots=3, interval=(1.0, 1.0 + 4 * np.spacing(1.0))).dim == 7


def test_basis_outside_interval_rejected():
    spec = SplineSpec(n_interior_knots=3, interval=(0.0, 1.0))
    with pytest.raises(DataValidationError):
        basis_matrix(spec, [1.5])[0]


def test_wi_fits_constant_exactly():
    rng = np.random.default_rng(2)
    rows = []
    for i in range(6):
        for j in range(8):
            u = rng.uniform(0, 1)
            x = rng.normal(size=2)
            rows.append((f"c{i}", u, float(x @ [1.5, -0.5]), x, [0.0, 0.0]))
    ds = dataset_from_arrays(rows, p=2, q=2)
    spec = SplineSpec(n_interior_knots=4, interval=(0.0, 1.0))
    fit = fit_wi(ds, spec)
    grid = np.linspace(0.05, 0.95, 31)
    vals = fit.evaluate(grid)
    assert np.allclose(vals[:, 0], 1.5, atol=1e-8)
    assert np.allclose(vals[:, 1], -0.5, atol=1e-8)


def test_wi_rank_error_when_overparameterized():
    rows = [("a", 0.1 * j, 1.0, [1.0], [1.0]) for j in range(5)]
    ds = dataset_from_arrays(rows, p=1, q=1)
    spec = SplineSpec(n_interior_knots=10, interval=(0.0, 0.4))  # dim 14 > n 5
    with pytest.raises(RankError, match="knots"):
        fit_wi(ds, spec)


def test_wls_identity_weight_equals_wi():
    ds = random_dataset(seed=3, m=8, q=2, Sigma=np.eye(2), sigma=0.6)
    spec = SplineSpec(n_interior_knots=4, interval=(float(ds.u_all.min()), float(ds.u_all.max())))
    vc = make_vc(np.zeros((2, 2)), 1.0)
    wi = fit_wi(ds, spec)
    wls = fit_wls(ds, spec, vc)
    assert np.allclose(wls.coefficients, wi.coefficients, atol=1e-10)
    assert wls.mode == "wls" and wi.mode == "wi"


def test_wls_matches_dense_gls_oracle():
    ds = random_dataset(seed=4, m=2, p=2, q=2, n_range=(5, 6),
                        Sigma=[[1.0, 0.4], [0.4, 0.8]], sigma=0.7)
    lo, hi = float(ds.u_all.min()), float(ds.u_all.max())
    spec = SplineSpec(n_interior_knots=2, interval=(lo, hi), degree=2)
    Sigma = np.array([[0.9, 0.2], [0.2, 0.6]])
    sigma2 = 0.5
    fit = fit_wls(ds, spec, make_vc(Sigma, sigma2))
    # dense oracle: assemble the full block-diagonal weight and invert it
    blocks, design, ys = [], [], []
    for c in ds.clusters:
        V = c.Z @ Sigma @ c.Z.T + sigma2 * np.eye(c.n)
        blocks.append(V)
        B = np.hstack([c.X[:, [k]] * basis_matrix(spec, c.u) for k in range(ds.p)])
        design.append(B)
        ys.append(c.y)
    n1, n2 = blocks[0].shape[0], blocks[1].shape[0]
    Vfull = np.zeros((n1 + n2, n1 + n2))
    Vfull[:n1, :n1] = blocks[0]
    Vfull[n1:, n1:] = blocks[1]
    B = np.vstack(design)
    y = np.concatenate(ys)
    Vinv = np.linalg.inv(Vfull)
    oracle = np.linalg.solve(B.T @ Vinv @ B, B.T @ Vinv @ y)
    got = fit.coefficients.T.ravel()
    assert np.allclose(got, oracle, rtol=1e-10, atol=1e-10)


def test_gls_covariance_dominates_wi():
    # at the true weight, the GLS coefficient covariance is dominated by the
    # WI sandwich covariance (difference PSD)
    ds = random_dataset(seed=5, m=2, p=1, q=2, n_range=(8, 9),
                        Sigma=[[1.2, 0.5], [0.5, 1.0]], sigma=0.6)
    lo, hi = float(ds.u_all.min()), float(ds.u_all.max())
    spec = SplineSpec(n_interior_knots=1, interval=(lo, hi), degree=2)
    Sigma = np.array([[1.2, 0.5], [0.5, 1.0]])
    sigma2 = 0.36
    blocks, design = [], []
    for c in ds.clusters:
        blocks.append(c.Z @ Sigma @ c.Z.T + sigma2 * np.eye(c.n))
        design.append(np.hstack([c.X[:, [k]] * basis_matrix(spec, c.u)
                                 for k in range(ds.p)]))
    n1 = blocks[0].shape[0]
    ntot = n1 + blocks[1].shape[0]
    Vfull = np.zeros((ntot, ntot))
    Vfull[:n1, :n1] = blocks[0]
    Vfull[n1:, n1:] = blocks[1]
    B = np.vstack(design)
    Vinv = np.linalg.inv(Vfull)
    cov_gls = np.linalg.inv(B.T @ Vinv @ B)
    bread = np.linalg.inv(B.T @ B)
    cov_wi = bread @ B.T @ Vfull @ B @ bread
    w = np.linalg.eigvalsh(cov_wi - cov_gls)
    assert w.min() >= -1e-10


def test_wls_jitter_recovery_and_failure():
    # sigma2 = 0 with a rank-one effect design makes the weight singular but
    # trace-positive; the jitter retry must recover and be recorded
    rows = [("a", 0.1 * j, float(j), [1.0], [1.0]) for j in range(6)]
    rows += [("b", 0.1 * j, float(j) + 0.5, [1.0], [1.0]) for j in range(6)]
    ds = dataset_from_arrays(rows, p=1, q=1)
    spec = SplineSpec(n_interior_knots=0, interval=(0.0, 0.5), degree=1)
    fit = fit_wls(ds, spec, make_vc([[1.0]], 0.0))
    assert set(fit.jittered_clusters) == {"a", "b"}
    assert np.isfinite(fit.coefficients).all()
    # an exactly-zero weight has zero trace, so the prescribed jitter cannot
    # recover it: hard error
    rows_zero = [("z", 0.1 * j, float(j), [1.0], [0.0]) for j in range(6)]
    ds_zero = dataset_from_arrays(rows_zero, p=1, q=1)
    with pytest.raises(NumericalError, match="singular weight"):
        fit_wls(ds_zero, spec, make_vc([[1.0]], 0.0))


def test_mise_zero_and_constant_offset():
    grid = np.linspace(0.0, 1.0, 401)
    f = np.sin(grid)
    assert mise(f, f, grid) == 0.0
    assert mise(f + 0.3, f, grid) == pytest.approx(0.09, rel=1e-12)


def test_mise_analytic_sine_integral():
    grid = np.linspace(0.0, 1.0, 401)
    value = mise(np.sin(2 * np.pi * grid), np.zeros(401), grid)
    assert value == pytest.approx(0.5, abs=1e-4)


def test_mise_accepts_callables():
    grid = np.linspace(0.0, 1.0, 201)
    assert mise(np.cos, np.cos, grid) == 0.0


def test_mise_mismatched_grid_rejected():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DataValidationError):
        mise(np.zeros(10), np.zeros(11), grid)


def test_mise_rejects_two_dimensional_values():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DataValidationError, match=r"shape \(11, 2\)"):
        mise(np.zeros((11, 2)), np.ones((11, 2)), grid)
    with pytest.raises(DataValidationError, match=r"truth values have shape \(11, 1\)"):
        mise(np.zeros(11), lambda g: g[:, None], grid)


@settings(deadline=None, max_examples=100)
@given(
    steps=st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=60),
    start=st.floats(min_value=-100.0, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_mise_equals_scipy_trapezoid_bitwise(steps, start, seed, scale):
    from scipy.integrate import trapezoid

    grid = start + np.cumsum(np.concatenate([[0.0], steps]))
    assume(np.all(np.diff(grid) > 0))
    rng = np.random.default_rng(seed)
    est = scale * rng.normal(size=grid.size)
    truth = rng.normal(size=grid.size)
    assert mise(est, truth, grid) == float(trapezoid((est - truth) ** 2, grid))


def test_imp_values():
    assert imp(0.2, 0.2) == 0.0
    assert imp(0.3, 0.1) == pytest.approx(2.0)
    assert np.isnan(imp(0.1, 0.0))
    # invariant under common positive rescaling (exact for binary scales)
    assert imp(0.3, 0.1) == imp(2.0 * 0.3, 2.0 * 0.1)
    assert imp(0.3, 0.1) == pytest.approx(imp(3.0 * 0.3, 3.0 * 0.1), rel=1e-14)
    with pytest.raises(DataValidationError):
        imp(-0.1, 0.2)


@settings(deadline=None, max_examples=100)
@given(
    degree=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=0, max_value=12),
    interval=st.sampled_from([(0.0, 1.0), (-2.0, 3.5), (0.1, 0.4)]),
    fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
)
def test_basis_matrix_matches_naive_recursion_property(degree, k, interval, fracs):
    # every knot (both endpoints included), one ulp either side of each knot
    # inside the interval, and random points
    spec = SplineSpec(n_interior_knots=k, interval=interval, degree=degree)
    lo, hi = interval
    knots = spec.knots()
    distinct = np.unique(knots)
    pts = np.concatenate([
        distinct,
        np.nextafter(distinct[:-1], hi),
        np.nextafter(distinct[1:], lo),
        np.minimum(lo + (hi - lo) * np.asarray(fracs, dtype=float), hi),
    ])
    got = basis_matrix(spec, pts)
    for u, row in zip(pts, got):
        if u == hi:
            # the oracle's half-open spans miss the closed right endpoint
            oracle = np.eye(spec.dim)[-1]
        else:
            oracle = np.array(
                [naive_recursive_basis(u, knots, degree, i) for i in range(spec.dim)]
            )
        assert np.max(np.abs(row - oracle)) <= 1e-13


@settings(deadline=None, max_examples=100)
@given(
    degree=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=0, max_value=12),
    interval=st.sampled_from([(0.0, 1.0), (-2.0, 3.5), (0.1, 0.4)]),
    fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
)
def test_basis_matrix_equals_scipy_design_matrix(degree, k, interval, fracs):
    # scipy's BSpline runs the same recursion in the same order, so every
    # entry must agree exactly, at the same points as the naive-recursion test
    from scipy.interpolate import BSpline

    spec = SplineSpec(n_interior_knots=k, interval=interval, degree=degree)
    lo, hi = interval
    knots = spec.knots()
    distinct = np.unique(knots)
    pts = np.concatenate([
        distinct,
        np.nextafter(distinct[:-1], hi),
        np.nextafter(distinct[1:], lo),
        np.minimum(lo + (hi - lo) * np.asarray(fracs, dtype=float), hi),
    ])
    expected = BSpline.design_matrix(pts, knots, degree).toarray()
    got = basis_matrix(spec, pts)
    assert got.shape == expected.shape
    assert np.all(got == expected)


def test_basis_matrix_of_no_points():
    spec = SplineSpec(n_interior_knots=4, interval=(0.0, 1.0), degree=3)
    assert basis_matrix(spec, []).shape == (0, spec.dim)
    assert basis_matrix(spec, np.empty(0)).dtype == float


def dense_gls_coefficients(ds, spec, Sigma, sigma2):
    # dense whole-dataset GLS oracle: explicit block-diagonal weight, inverted
    V = np.zeros((ds.n, ds.n))
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
    Vinv = np.linalg.inv(V)
    return np.linalg.solve(B.T @ Vinv @ B, B.T @ Vinv @ ds.y_all)


_V3 = np.array([1.0, -0.5, 0.8])
# (Sigma, sigma2, bound on max |woodbury - dense| / max |dense|).  Each bound
# is about 10x the largest gap measured on these datasets: 3.0e-13, 6.3e-15,
# 5.0e-15 and 1.6e-10 in this order.  At sigma2 = 1e-6 the dense oracle
# inverts V with condition number ~1e7 and is the less accurate side: against
# a 50-digit reference on a dataset of this shape the Woodbury fit was within
# 3e-15 and the oracle 5e-11 off.
WOODBURY_CASES = {
    "q1": ([[0.8]], 0.5, 3e-12),
    "q3": ([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.6]], 0.4, 1e-13),
    "q3_rank1": (np.outer(_V3, _V3), 0.3, 1e-13),
    "q2_small_sigma2": ([[1.0, 0.3], [0.3, 0.8]], 1e-6, 2e-9),
}


@pytest.mark.parametrize("case", sorted(WOODBURY_CASES))
def test_wls_woodbury_matches_dense_gls_oracle(case):
    Sigma, sigma2, bound = WOODBURY_CASES[case]
    Sigma = np.asarray(Sigma, dtype=float)
    q = Sigma.shape[0]
    for seed in range(3):
        ds = random_dataset(seed=40 + seed, m=4, p=2, q=q, n_range=(q + 2, q + 5),
                            Sigma=np.eye(q) * 0.7, sigma=0.6)
        spec = SplineSpec(n_interior_knots=2,
                          interval=(float(ds.u_all.min()), float(ds.u_all.max())),
                          degree=2)
        fit = fit_wls(ds, spec, make_vc(Sigma, sigma2))
        assert fit.jittered_clusters == ()
        oracle = dense_gls_coefficients(ds, spec, Sigma, sigma2)
        gap = np.max(np.abs(fit.coefficients.T.ravel() - oracle))
        assert gap <= bound * np.max(np.abs(oracle))
