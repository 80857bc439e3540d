"""Variance-component estimation from smoother residuals.

Per cluster, the residuals follow a synthetic linear model in the
random-effect covariates.  Its least-squares fit needs only the q x q Gram
inverse G_i = (Z_i^T Z_i)^{-1}: the effect estimate is G_i Z_i^T r_i and the
within-cluster residual is r_i - Z_i times it, so no n_i x n_i projection is
ever formed.  All eligible clusters are handled at once on stacked rows.
These yield a pooled noise-variance estimate and a moment-corrected estimate
of the random-effect covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import LongitudinalDataset, _write_csv, _z_ranks
from .errors import DataValidationError, VcreError
from .kernels import KernelSpec
from .smoother import CoefficientCurve, ResidualSet, fit_curve, residuals
from .symmat import SymMatrix, nearest_psd

CORRELATION_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Stacked least-squares machinery of the clusters eligible for variance estimation.

    Eligible clusters keep their dataset order; `starts` indexes the first of
    each cluster's rows in `Z` and `cluster_of` maps each row to its cluster.
    """

    q: int
    cluster_ids: tuple[str, ...]
    excluded: tuple[str, ...]
    rows: np.ndarray  # (dataset n,) bool: the dataset rows of eligible clusters
    Z: np.ndarray  # (n, q) eligible rows
    starts: np.ndarray  # (m,)
    cluster_of: np.ndarray  # (n,)
    gram_inv: np.ndarray  # (m, q, q), (Z_i^T Z_i)^{-1}
    gram_inv_mean: np.ndarray  # (q, q), the average Gram inverse

    @property
    def m(self) -> int:
        return len(self.cluster_ids)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def dof(self) -> int:
        """Synthetic degrees of freedom n - q m; raises when not positive."""
        dof = self.n - self.q * self.m
        if dof <= 0:
            raise DataValidationError(
                f"non-positive degrees of freedom n - q*m = {dof}; need more observations"
            )
        return dof

    def regress(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least squares of the eligible rows v on Z_i, cluster by cluster.

        Returns the coefficients G_i Z_i^T v_i, shape (m, q), and the
        residuals (I - P) v = v - Z_i G_i Z_i^T v_i, shape (n,).
        """
        cross = np.add.reduceat(self.Z * v[:, None], self.starts, axis=0)
        coef = np.einsum("ijk,ik->ij", self.gram_inv, cross)
        return coef, v - np.einsum("ij,ij->i", self.Z, coef[self.cluster_of])


def cluster_projections(
    ds: LongitudinalDataset, skip_infeasible: bool = False
) -> ProjectionSet:
    """Build the stacked Gram inverses of the clusters eligible for variance estimation.

    Clusters with n_i <= q or rank-deficient Z_i cannot support the synthetic
    regression; by default they raise, with skip_infeasible=True they are
    excluded with a warning (they still participate in curve fitting).
    """
    q = ds.q
    sizes = np.diff(ds.offsets)
    ranks = _z_ranks(ds)
    feasible = (sizes > q) & (ranks >= q)
    for i in np.flatnonzero(~feasible):
        c = ds.clusters[i]
        reason = f"n_i={c.n} <= q={q}" if c.n <= q else "rank-deficient random-effect design"
        if not skip_infeasible:
            raise DataValidationError(f"cluster {c.id}: {reason}")
        warnings.warn(
            f"cluster {c.id}: {reason}; excluded from variance estimation", stacklevel=2
        )
    if not feasible.any():
        raise DataValidationError("no cluster is eligible for variance estimation")
    rows = np.repeat(feasible, sizes)
    Z = ds.Z_all[rows]
    kept = sizes[feasible]
    starts = np.cumsum(kept) - kept
    gram = np.add.reduceat(Z[:, :, None] * Z[:, None, :], starts, axis=0)
    gram_inv = np.linalg.inv(gram)
    gram_inv = 0.5 * (gram_inv + gram_inv.transpose(0, 2, 1))
    gram_inv_mean = np.mean(gram_inv, axis=0)
    gram_inv_mean.flags.writeable = False  # also handed out as B1 and Gamma_hat
    ids = np.array([c.id for c in ds.clusters], dtype=object)
    return ProjectionSet(
        q=q,
        cluster_ids=tuple(ids[feasible]),
        excluded=tuple(ids[~feasible]),
        rows=rows,
        Z=Z,
        starts=starts,
        cluster_of=np.repeat(np.arange(kept.size), kept),
        gram_inv=gram_inv,
        gram_inv_mean=gram_inv_mean,
    )


def estimate_noise_variance(res: ResidualSet, proj: ProjectionSet) -> float:
    """Pooled residual-sum-of-squares estimate of the noise variance.

    Sums |(I - P) r|^2 = r^T (I - P) r over eligible clusters and divides by
    the synthetic degrees of freedom n - q m (counting eligible clusters only).
    """
    _, eps = proj.regress(res.stacked()[proj.rows])
    return float(eps @ eps) / proj.dof


@dataclass(frozen=True, eq=False)
class EffectEstimates:
    """Per-cluster least-squares random-effect estimates (eligible clusters)."""

    cluster_ids: tuple[str, ...]
    effects: np.ndarray  # (m, q)


def estimate_effects(res: ResidualSet, proj: ProjectionSet) -> EffectEstimates:
    """Least-squares effect estimate (Z^T Z)^{-1} Z^T r per eligible cluster."""
    effects, _ = proj.regress(res.stacked()[proj.rows])
    return EffectEstimates(cluster_ids=proj.cluster_ids, effects=effects)


@dataclass(frozen=True, eq=False)
class VarianceComponents:
    """Noise variance and random-effect covariance estimates.

    sigma_raw is the moment-corrected estimate, which can be indefinite in
    finite samples; sigma_psd is its eigenvalue-clipped projection, from
    which the correlation matrix is derived (NaN marks entries whose
    variance is below the defined-correlation floor).
    """

    sigma2: float
    sigma2_raw: float
    sigma_raw: SymMatrix
    sigma_psd: SymMatrix
    correlation: np.ndarray
    excluded_clusters: tuple[str, ...] = ()

    def to_report(self) -> dict:
        corr = [
            [None if not np.isfinite(v) else float(v) for v in row]
            for row in self.correlation
        ]
        return {
            "sigma2": float(self.sigma2),
            "sigma_raw": self.sigma_raw.entries.tolist(),
            "sigma_psd": self.sigma_psd.entries.tolist(),
            "correlation": corr,
            "excluded_clusters": list(self.excluded_clusters),
        }


def _correlation_from(psd: np.ndarray) -> np.ndarray:
    d = np.diag(psd).copy()
    q = psd.shape[0]
    corr = np.full((q, q), np.nan)
    defined = d > CORRELATION_VARIANCE_FLOOR
    if np.any(defined):
        scale = np.zeros(q)
        scale[defined] = 1.0 / np.sqrt(d[defined])
        block = np.outer(scale, scale) * psd
        corr[np.ix_(defined, defined)] = block[np.ix_(defined, defined)]
        corr[defined, defined] = 1.0
    return corr


def estimate_effect_covariance(
    eff: EffectEstimates, sigma2: float, proj: ProjectionSet
) -> VarianceComponents:
    """Moment estimate of the random-effect covariance with noise correction.

    The average outer product of the effect estimates overshoots the target
    by sigma2 times the average Gram inverse; that term is subtracted.  Both
    the raw matrix and its PSD projection are reported.
    """
    m = eff.effects.shape[0]
    if m < 2:
        raise DataValidationError(f"need at least 2 eligible clusters, got {m}")
    moment = eff.effects.T @ eff.effects / m
    correction = sigma2 * proj.gram_inv_mean
    raw = moment - correction
    raw = 0.5 * (raw + raw.T)
    psd = nearest_psd(raw)
    return VarianceComponents(
        sigma2=max(float(sigma2), 0.0),
        sigma2_raw=float(sigma2),
        sigma_raw=SymMatrix(raw),
        sigma_psd=SymMatrix(psd),
        correlation=_correlation_from(psd),
        excluded_clusters=proj.excluded,
    )


@dataclass(frozen=True, eq=False)
class PipelineFit:
    """Everything produced by the closed-form estimation pipeline."""

    curve: CoefficientCurve
    residuals: ResidualSet
    projections: ProjectionSet
    effects: EffectEstimates
    variance: VarianceComponents


def _stage(label: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except VcreError as e:
        raise type(e)(f"{label}: {e}") from e


def fit_pipeline(
    ds: LongitudinalDataset,
    kernel: KernelSpec,
    eval_points=None,
    ridge: bool = False,
    interpolate: bool = False,
) -> PipelineFit:
    """Run the full closed-form procedure on a dataset.

    Fits the coefficient curve under working independence, forms residuals,
    then estimates the noise variance, the per-cluster effects, and the
    random-effect covariance.  Deterministic given its inputs.
    """
    proj = _stage("cluster projections", cluster_projections, ds, skip_infeasible=True)
    curve = _stage("curve fitting", fit_curve, ds, kernel, eval_points, ridge)
    res = _stage("residuals", residuals, ds, curve, interpolate)
    sigma2 = _stage("noise variance", estimate_noise_variance, res, proj)
    eff = _stage("effect estimates", estimate_effects, res, proj)
    vc = _stage("effect covariance", estimate_effect_covariance, eff, sigma2, proj)
    return PipelineFit(curve=curve, residuals=res, projections=proj, effects=eff, variance=vc)


def write_effects_csv(eff: EffectEstimates, target) -> None:
    """Export effect estimates as CSV keyed by cluster id."""
    q = eff.effects.shape[1]
    _write_csv(
        target,
        ["cluster"] + [f"e{k}" for k in range(1, q + 1)],
        ([cid] + [repr(float(v)) for v in row] for cid, row in zip(eff.cluster_ids, eff.effects)),
    )
