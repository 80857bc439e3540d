"""B-spline coefficient estimation under working independence and GLS weighting.

Each coefficient function is expanded in the same clamped B-spline basis with
equally spaced interior knots.  Working independence solves ordinary least
squares over all observations; the weighted fit solves generalized least
squares with the per-cluster covariance implied by estimated variance
components.  Both fits, and the restricted likelihood in `reml`, read one set
of sufficient statistics of the stacked design (`_DesignStats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LongitudinalDataset
from .errors import DataValidationError, NumericalError, RankError
from .varcomp import VarianceComponents


@dataclass(frozen=True)
class SplineSpec:
    """Clamped B-spline space: equally spaced interior knots on an interval."""

    n_interior_knots: int
    interval: tuple[float, float]
    degree: int = 3

    def __post_init__(self):
        lo, hi = self.interval
        if not (hi > lo):
            raise DataValidationError(f"invalid interval {self.interval}")
        if self.degree < 1:
            raise DataValidationError("spline degree must be at least 1")
        if self.n_interior_knots < 0:
            raise DataValidationError("interior knot count must be non-negative")

    @property
    def dim(self) -> int:
        """Basis dimension: interior knots + degree + 1."""
        return self.n_interior_knots + self.degree + 1

    def knots(self) -> np.ndarray:
        lo, hi = self.interval
        interior = np.linspace(lo, hi, self.n_interior_knots + 2)[1:-1]
        return np.concatenate(
            [np.full(self.degree + 1, lo), interior, np.full(self.degree + 1, hi)]
        )


def basis_matrix(spec: SplineSpec, us) -> np.ndarray:
    """Basis values at each point of `us`, shape (len(us), dim).

    De Boor's recursion as implemented by `scipy.interpolate.BSpline`.  The
    boundary knots are repeated degree+1 times, so a row is (1, 0, ..., 0) at
    the left endpoint; the last knot span is closed, so the right endpoint
    gives (0, ..., 0, 1).
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    lo, hi = spec.interval
    outside = ~((us >= lo) & (us <= hi))
    if outside.any():
        raise DataValidationError(
            f"u={us[outside][0]} outside spline interval [{lo}, {hi}]"
        )
    if not us.size:
        return np.zeros((0, spec.dim))
    from scipy.interpolate import BSpline

    return BSpline.design_matrix(us, spec.knots(), spec.degree).toarray()


@dataclass(frozen=True, eq=False)
class SplineFit:
    """Fitted spline coefficients, one column per coefficient function."""

    spec: SplineSpec
    coefficients: np.ndarray  # (dim, p)
    mode: str  # "wi" | "wls"
    weighting: Optional[tuple[np.ndarray, float]] = None  # (Sigma used, sigma2 used)
    jittered_clusters: tuple[str, ...] = ()

    def evaluate(self, us) -> np.ndarray:
        """Coefficient function values at `us`, shape (len(us), p)."""
        return basis_matrix(self.spec, us) @ self.coefficients


class _DesignStats:
    """Sufficient statistics of the stacked spline design for WI, WLS and REML.

    The design row of an observation is x (x) basis(u), so column block k
    holds x_k times the basis.  With the augmented design [D | y] this keeps
    its global Gram matrix and, per cluster, Z_i^T [D_i | y_i] and Z_i^T Z_i:
    every GLS quantity then needs only q x q work per cluster.
    """

    def __init__(self, ds: LongitudinalDataset, spec: SplineSpec):
        basis = basis_matrix(spec, ds.u_all)
        self.p = ds.p
        self.spline_dim = spec.dim
        self.dim = spec.dim * ds.p
        design = (ds.X_all[:, :, None] * basis[:, None, :]).reshape(ds.n, self.dim)
        self.dy = np.column_stack([design, ds.y_all])
        self.gram = self.dy.T @ self.dy
        starts = ds.offsets[:-1]
        Z = ds.Z_all
        self.zt_dy = np.add.reduceat(Z[:, :, None] * self.dy[:, None, :], starts, axis=0)
        self.ztz = np.add.reduceat(Z[:, :, None] * Z[:, None, :], starts, axis=0)
        self.excess = ds.n - ds.m * ds.q  # sum of n_i - q

    def weighted(self, Sigma: np.ndarray, sigma2: float) -> tuple[np.ndarray, float]:
        """[D | y]^T V^-1 [D | y] and log|V| for V_i = Z_i Sigma Z_i^T + sigma2 I.

        With Sigma = L L^T (L from the eigendecomposition, so a singular PSD
        Sigma is fine) and M_i = sigma2 I + L^T Z_i^T Z_i L, Woodbury gives
        V_i^-1 = [I - Z_i L M_i^-1 L^T Z_i^T] / sigma2 and
        log|V_i| = (n_i - q) log sigma2 + log|M_i|.  Needs sigma2 > 0; raises
        LinAlgError when some M_i is numerically not positive definite.
        """
        w, v = np.linalg.eigh(Sigma)
        L = v * np.sqrt(np.clip(w, 0.0, None))
        M = L.T @ self.ztz @ L
        idx = np.arange(L.shape[0])
        M[:, idx, idx] += sigma2
        low = np.linalg.cholesky(M)
        U = np.linalg.solve(low, L.T @ self.zt_dy)
        U = U.reshape(-1, U.shape[-1])
        logdet = self.excess * math.log(sigma2) + 2.0 * float(
            np.sum(np.log(np.diagonal(low, axis1=1, axis2=2)))
        )
        return (self.gram - U.T @ U) / sigma2, logdet


def _solve_normal_equations(gram: np.ndarray, dim: int, p: int):
    from scipy.linalg import cho_factor, cho_solve

    P = dim * p
    try:
        c = cho_factor(gram[:P, :P])
        theta = cho_solve(c, gram[:P, P])
    except np.linalg.LinAlgError:
        raise RankError(
            "stacked spline design is rank deficient; reduce the number of knots"
        ) from None
    if not np.all(np.isfinite(theta)):
        raise RankError(
            "stacked spline design is numerically rank deficient; reduce the knots"
        )
    return theta.reshape(p, dim).T  # (dim, p)


def fit_wi(ds: LongitudinalDataset, spec: SplineSpec) -> SplineFit:
    """Ordinary least squares over all observations, ignoring clustering."""
    gram = _DesignStats(ds, spec).gram
    coef = _solve_normal_equations(gram, spec.dim, ds.p)
    return SplineFit(spec=spec, coefficients=coef, mode="wi")


def _cluster_weight(c, Sigma: np.ndarray, sigma2: float, jitter_events: list):
    from scipy.linalg import cho_factor

    V = c.Z @ Sigma @ c.Z.T + sigma2 * np.eye(c.n)
    try:
        return cho_factor(V)
    except np.linalg.LinAlgError:
        eps = 1e-8 * np.trace(V) / c.n
        try:
            factor = cho_factor(V + eps * np.eye(c.n))
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"cluster {c.id}: singular weight matrix even after jitter"
            ) from None
        jitter_events.append(c.id)
        return factor


def fit_wls(
    ds: LongitudinalDataset, spec: SplineSpec, vc: VarianceComponents
) -> SplineFit:
    """Generalized least squares with block-diagonal cluster weights.

    The weight of a cluster is the inverse of Z Sigma Z^T + sigma2 I built
    from the PSD-projected covariance estimate, applied through q x q
    Woodbury algebra.  When that matrix is singular (sigma2 = 0, or sigma2
    too small for the Woodbury factor) each cluster's weight is factored
    densely and a singular one is retried once with a small diagonal jitter
    (recorded on the fit).
    """
    Sigma = vc.sigma_psd.entries
    sigma2 = vc.sigma2
    stats = _DesignStats(ds, spec)
    jitter_events: list = []
    gram = None
    if sigma2 > 0:
        try:
            gram, _ = stats.weighted(Sigma, sigma2)
        except np.linalg.LinAlgError:
            pass
    if gram is None:
        from scipy.linalg import cho_solve

        gram = np.zeros_like(stats.gram)
        for i, c in enumerate(ds.clusters):
            dy = stats.dy[ds.cluster_slice(i)]
            factor = _cluster_weight(c, Sigma, sigma2, jitter_events)
            gram += dy.T @ cho_solve(factor, dy)
    coef = _solve_normal_equations(gram, spec.dim, ds.p)
    return SplineFit(
        spec=spec,
        coefficients=coef,
        mode="wls",
        weighting=(Sigma.copy(), float(sigma2)),
        jittered_clusters=tuple(jitter_events),
    )


def mise(estimate, truth, grid) -> float:
    """Trapezoid integral of the squared difference over `grid`.

    `estimate` and `truth` may be callables or arrays already evaluated on
    the grid; array lengths must match the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DataValidationError("grid must be a strictly increasing 1-d array")

    def on_grid(f, name):
        if callable(f):
            return np.asarray(f(grid), dtype=float)
        arr = np.asarray(f, dtype=float)
        if arr.shape[0] != grid.size:
            raise DataValidationError(f"{name} values do not match the grid length")
        return arr

    e = on_grid(estimate, "estimate")
    t = on_grid(truth, "truth")
    if e.shape != t.shape:
        raise DataValidationError("estimate and truth shapes differ")
    from scipy.integrate import trapezoid

    return float(trapezoid((e - t) ** 2, grid))


def imp(mise_wi: float, mise_wls: float) -> float:
    """Relative improvement (MISE_wi - MISE_wls) / MISE_wls; NaN when undefined."""
    if mise_wls < 0 or mise_wi < 0:
        raise DataValidationError("MISE values must be non-negative")
    if mise_wls == 0.0:
        return float("nan")
    return (mise_wi - mise_wls) / mise_wls
