"""Local polynomial estimation of the functional coefficient vector.

The coefficient functions are fitted pointwise: at a target u the responses
are regressed on the covariates and their interactions with powers of
(U - u), weighted by the kernel.  Degree 1 yields the coefficient estimate
and its slope; degree 3 (used by the diagnostics module) additionally yields
curvature.

Many targets are solved together: consecutive evaluation points are grouped
into blocks whose targets x window-union size stays under a fixed element
budget.  Each block forms its kernel-weighted moments sum w d^s x x^T and
sum w d^s x y with one matrix product each over the union of its windows
(every target masked to its own window), then solves all its normal
equations with one stacked Cholesky factorisation.  A block holding an
empty or underdetermined window, a failed factorisation or a non-finite
solution is redone point by point with the single-target solver, which
owns the ridge fallback and the error messages.  The single-target solver
is also the reference the blocked solve is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LongitudinalDataset, _write_csv
from .errors import (
    DataValidationError,
    EmptyWindowError,
    NumericalError,
    SingularWindowError,
)
from .kernels import KernelSpec


@dataclass(frozen=True, eq=False)
class CoefficientCurve:
    """Pointwise coefficient estimates on a strictly increasing grid.

    values[k] is the p-vector estimate at points[k]; slopes[k] the first
    derivative estimate.  ridged_points lists evaluation points where a
    ridge fallback was applied (empty unless ridge was requested).
    """

    points: np.ndarray  # (k,)
    values: np.ndarray  # (k, p)
    slopes: np.ndarray  # (k, p)
    ridged_points: tuple[float, ...] = ()

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        slopes = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        if points.ndim != 1 or np.any(np.diff(points) <= 0):
            raise DataValidationError("evaluation points must be strictly increasing")
        if values.shape[0] != points.shape[0] or slopes.shape != values.shape:
            raise DataValidationError("curve arrays have inconsistent shapes")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(slopes))):
            raise DataValidationError("curve has non-finite entries")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "ridged_points", tuple(self.ridged_points))

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def values_at(self, us, interpolate: bool = False) -> np.ndarray:
        """Coefficient values at `us`: exact grid lookup, or linear interpolation."""
        us = np.asarray(us, dtype=float)
        if interpolate:
            return np.column_stack(
                [np.interp(us, self.points, self.values[:, k]) for k in range(self.p)]
            )
        idx = np.searchsorted(self.points, us)
        bad = (idx >= self.points.shape[0]) | (self.points[np.minimum(idx, len(self.points) - 1)] != us)
        if np.any(bad):
            missing = np.atleast_1d(us)[np.atleast_1d(bad)][:3]
            raise NumericalError(
                f"curve not evaluated at u={missing.tolist()} (exact mode); "
                "fit at the observed points or enable interpolation"
            )
        return self.values[idx]


@dataclass(frozen=True, eq=False)
class ResidualSet:
    """Smoother residuals of every observation, in the dataset's stacked row order.

    `values[ds.cluster_slice(i)]` holds the residuals of cluster `cluster_ids[i]`.
    """

    cluster_ids: tuple[str, ...]
    values: np.ndarray  # (n,)

    def stacked(self) -> np.ndarray:
        return self.values


class _Windows:
    """Sorted stacked observations with bandwidth window lookup."""

    def __init__(self, ds: LongitudinalDataset):
        order = np.argsort(ds.u_all, kind="stable")
        self.u = ds.u_all[order]
        self.X = ds.X_all[order]
        self.y = ds.y_all[order]
        self.u_min = float(self.u[0])
        self.u_max = float(self.u[-1])

    def window(self, u: float, h: float):
        lo = int(np.searchsorted(self.u, u - h, side="left"))
        hi = int(np.searchsorted(self.u, u + h, side="right"))
        return self.u[lo:hi], self.X[lo:hi], self.y[lo:hi]


def _chol_solve(moment: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # moment is PSD by construction; Cholesky doubles as the singularity
    # check.  Works on one system or a stack of them (leading axes).
    low = np.linalg.cholesky(moment)
    z = np.linalg.solve(low, rhs[..., None])
    theta = np.linalg.solve(np.swapaxes(low, -1, -2), z)[..., 0]
    if not np.all(np.isfinite(theta)):
        raise np.linalg.LinAlgError("non-finite solution")
    return theta


def _solve_local(win: _Windows, u: float, kernel: KernelSpec, degree: int, ridge: bool):
    """Weighted polynomial fit at u; returns (theta blocks, used_ridge)."""
    uw, Xw, yw = win.window(u, kernel.bandwidth)
    if uw.size == 0:
        raise EmptyWindowError(
            f"no observations within bandwidth h={kernel.bandwidth} of u={u}"
        )
    w = kernel.weights(uw - u)
    if float(np.sum(w)) <= 0.0:
        raise EmptyWindowError(
            f"no positive kernel weight within h={kernel.bandwidth} of u={u}"
        )
    p = Xw.shape[1]
    need = (degree + 1) * p
    underdetermined = int(np.count_nonzero(w)) < need
    d = uw - u
    lam = np.hstack([Xw * (d**k)[:, None] for k in range(degree + 1)])
    lw = lam * w[:, None]
    moment = lam.T @ lw
    rhs = lw.T @ yw
    used_ridge = False
    try:
        if underdetermined:
            raise np.linalg.LinAlgError(f"fewer than {need} weighted observations")
        theta = _chol_solve(moment, rhs)
    except np.linalg.LinAlgError as reason:
        if not ridge:
            raise SingularWindowError(
                f"singular local moment matrix at u={u} (h={kernel.bandwidth}): {reason}"
            ) from None
        eps = 1e-8 * np.trace(moment) / moment.shape[0]
        try:
            theta = _chol_solve(moment + eps * np.eye(moment.shape[0]), rhs)
        except np.linalg.LinAlgError:
            raise SingularWindowError(
                f"singular local moment matrix at u={u} even after ridge"
            ) from None
        used_ridge = True
    return theta.reshape(degree + 1, p), used_ridge


# Upper bound on targets x window-union entries per block; it bounds the
# block's working arrays (about 2*degree+1 of this many doubles).
_BLOCK_ELEMENTS = 2**14


def _solve_block(win, XX, XY, pts, lo, hi, kernel, degree):
    """Stacked fit at the targets `pts` (windows [lo, hi)); None if any is degenerate."""
    start, stop = int(lo.min()), int(hi.max())
    idx = np.arange(start, stop)
    inside = (idx >= lo[:, None]) & (idx < hi[:, None])
    d = win.u[start:stop] - pts[:, None]
    w = np.where(inside, kernel.weights(d), 0.0)
    p = win.X.shape[1]
    if np.count_nonzero(w, axis=1).min() < (degree + 1) * p:
        return None
    # powers[s] = w * d^s, s = 0..2*degree
    powers = np.empty((2 * degree + 1,) + w.shape)
    powers[0] = w
    for s in range(1, 2 * degree + 1):
        np.multiply(powers[s - 1], d, out=powers[s])
    n_pts, width = w.shape
    mom = (powers.reshape(-1, width) @ XX[start:stop]).reshape(2 * degree + 1, n_pts, p, p)
    rhs = (powers[: degree + 1].reshape(-1, width) @ XY[start:stop]).reshape(
        degree + 1, n_pts, p
    )
    # block (a, b) of the local moment matrix is mom[a + b]
    order = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    size = (degree + 1) * p
    moment = mom[order].transpose(2, 0, 3, 1, 4).reshape(n_pts, size, size)
    try:
        theta = _chol_solve(moment, rhs.transpose(1, 0, 2).reshape(n_pts, size))
    except np.linalg.LinAlgError:
        return None
    return theta.reshape(n_pts, degree + 1, p)


def _solve_points(
    win: _Windows, points: np.ndarray, kernel: KernelSpec, degree: int, ridge: bool
):
    """Local polynomial fits at every point; returns (theta (k, degree+1, p), ridged list).

    Consecutive points are solved as one stacked system per block (see the
    module docstring); a block with any degenerate window is redone point by
    point with `_solve_local`, so ridging and errors match it exactly.
    """
    h = kernel.bandwidth
    lo = np.searchsorted(win.u, points - h, side="left")
    hi = np.searchsorted(win.u, points + h, side="right")
    XX = (win.X[:, :, None] * win.X[:, None, :]).reshape(win.X.shape[0], -1)
    XY = win.X * win.y[:, None]
    theta = np.empty((points.size, degree + 1, win.X.shape[1]))
    ridged = []
    begin = 0
    while begin < points.size:
        end = begin + 1
        start, stop = lo[begin], hi[begin]
        while end < points.size:
            new_start, new_stop = min(start, lo[end]), max(stop, hi[end])
            if (end - begin + 1) * (new_stop - new_start) > _BLOCK_ELEMENTS:
                break
            start, stop = new_start, new_stop
            end += 1
        block = _solve_block(
            win, XX, XY, points[begin:end], lo[begin:end], hi[begin:end], kernel, degree
        )
        if block is not None:
            theta[begin:end] = block
        else:
            for i in range(begin, end):
                u = float(points[i])
                try:
                    theta[i], used_ridge = _solve_local(win, u, kernel, degree, ridge)
                except NumericalError as e:
                    raise type(e)(f"eval point u={u}: {e}") from e
                if used_ridge:
                    ridged.append(u)
        begin = end
    return theta, ridged


def local_linear_fit(
    ds: LongitudinalDataset, u: float, kernel: KernelSpec, ridge: bool = False
):
    """Local-linear estimate of the coefficient vector and its slope at u.

    Minimizes the kernel-weighted squared error of the linearisation
    a + b (U - u) over all observations; returns (a_hat, b_hat), both
    p-vectors.  Raises if the window is empty or the 2p x 2p moment matrix
    is singular (optionally retried with a small ridge).
    """
    win = _Windows(ds)
    blocks, _ = _solve_local(win, float(u), kernel, degree=1, ridge=ridge)
    return blocks[0], blocks[1]


def fit_curve(
    ds: LongitudinalDataset,
    kernel: KernelSpec,
    eval_points=None,
    ridge: bool = False,
) -> CoefficientCurve:
    """Fit the coefficient curve at each evaluation point.

    Parameters
    ----------
    ds : LongitudinalDataset
    kernel : KernelSpec
    eval_points : array-like, optional
        Defaults to all distinct observed index values.  Points outside the
        observed range are rejected.
    ridge : bool
        Enable the ridge fallback for singular windows; affected points are
        recorded on the returned curve.
    """
    win = _Windows(ds)
    if eval_points is None:
        points = np.unique(ds.u_all)
    else:
        points = np.unique(np.asarray(eval_points, dtype=float))
        if points.size == 0:
            raise DataValidationError("no evaluation points given")
        outside = points[(points < win.u_min) | (points > win.u_max)]
        if outside.size:
            raise DataValidationError(
                f"evaluation points outside observed range "
                f"[{win.u_min}, {win.u_max}]: {outside[:3].tolist()}"
            )
    theta, ridged = _solve_points(win, points, kernel, degree=1, ridge=ridge)
    return CoefficientCurve(
        points=points, values=theta[:, 0], slopes=theta[:, 1], ridged_points=tuple(ridged)
    )


def curvature_at_points(
    ds: LongitudinalDataset, kernel: KernelSpec, points, ridge: bool = False
) -> np.ndarray:
    """Second-derivative estimates at `points` via a local-cubic fit.

    Returns an array (len(points), p); the curvature is twice the quadratic
    coefficient of the fitted cubic.  The window must contain at least 4p
    weighted observations.
    """
    win = _Windows(ds)
    points = np.asarray(points, dtype=float)
    theta, _ = _solve_points(win, points, kernel, degree=3, ridge=ridge)
    return 2.0 * theta[:, 2]


def residuals(
    ds: LongitudinalDataset, curve: CoefficientCurve, interpolate: bool = False
) -> ResidualSet:
    """Smoother residuals y - x^T a_hat(u) of every observation, stacked.

    Exact mode (default) requires the curve to contain every observed index
    value; interpolation mode reads a_hat off the curve's grid linearly.
    """
    a_vals = curve.values_at(ds.u_all, interpolate=interpolate)
    return ResidualSet(cluster_ids=ds.ids, values=ds.y_all - np.sum(ds.X_all * a_vals, axis=1))


def write_curve_csv(curve: CoefficientCurve, target) -> None:
    """Export a curve as CSV with columns u, a1..ap, b1..bp."""
    p = curve.p
    _write_csv(
        target,
        ["u"] + [f"a{k}" for k in range(1, p + 1)] + [f"b{k}" for k in range(1, p + 1)],
        (
            [repr(float(curve.points[i]))]
            + [repr(float(v)) for v in curve.values[i]]
            + [repr(float(v)) for v in curve.slopes[i]]
            for i in range(curve.points.size)
        ),
    )
