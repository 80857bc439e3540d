"""Variance-component estimation from smoother residuals.

Per cluster, the residuals follow a synthetic linear model in the
random-effect covariates; its least-squares machinery (hat matrix,
annihilator, per-cluster effect estimates) yields a pooled noise-variance
estimate and a moment-corrected estimate of the random-effect covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import LongitudinalDataset, _write_csv
from .errors import DataValidationError, VcreError
from .kernels import KernelSpec
from .smoother import CoefficientCurve, ResidualSet, fit_curve, residuals
from .symmat import SymMatrix, nearest_psd

CORRELATION_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ClusterProjection:
    """Least-squares machinery of one cluster's random-effect design."""

    cluster_id: str
    Z: np.ndarray  # (n_i, q)
    gram_inv: np.ndarray  # (Z^T Z)^{-1}
    hat: np.ndarray  # (n_i, n_i), symmetric idempotent with trace q
    annihilator: np.ndarray  # I - hat

    @property
    def n(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Projections for the clusters eligible for variance estimation."""

    q: int
    projections: tuple[ClusterProjection, ...]
    excluded: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.projections)

    @property
    def n(self) -> int:
        return sum(p.n for p in self.projections)


def cluster_projections(
    ds: LongitudinalDataset, skip_infeasible: bool = False
) -> ProjectionSet:
    """Build per-cluster Gram inverses, hat matrices and annihilators.

    Clusters with n_i <= q or rank-deficient Z_i cannot support the synthetic
    regression; by default they raise, with skip_infeasible=True they are
    excluded with a warning (they still participate in curve fitting).
    """
    projections = []
    excluded = []
    for c in ds.clusters:
        reason = None
        if c.n <= ds.q:
            reason = f"n_i={c.n} <= q={ds.q}"
        elif np.linalg.matrix_rank(c.Z) < ds.q:
            reason = "rank-deficient random-effect design"
        if reason is not None:
            if not skip_infeasible:
                raise DataValidationError(f"cluster {c.id}: {reason}")
            warnings.warn(
                f"cluster {c.id}: {reason}; excluded from variance estimation",
                stacklevel=2,
            )
            excluded.append(c.id)
            continue
        gram = c.Z.T @ c.Z
        gram_inv = np.linalg.inv(gram)
        hat = c.Z @ gram_inv @ c.Z.T
        hat = 0.5 * (hat + hat.T)
        projections.append(
            ClusterProjection(
                cluster_id=c.id,
                Z=c.Z,
                gram_inv=0.5 * (gram_inv + gram_inv.T),
                hat=hat,
                annihilator=np.eye(c.n) - hat,
            )
        )
    if not projections:
        raise DataValidationError("no cluster is eligible for variance estimation")
    return ProjectionSet(q=ds.q, projections=tuple(projections), excluded=tuple(excluded))


def _residual_map(res: ResidualSet) -> dict:
    return dict(zip(res.cluster_ids, res.residuals))


def estimate_noise_variance(res: ResidualSet, proj: ProjectionSet) -> float:
    """Pooled residual-sum-of-squares estimate of the noise variance.

    Sums r^T (I - P) r over eligible clusters and divides by the synthetic
    degrees of freedom n - q m (counting eligible clusters only).
    """
    dof = proj.n - proj.q * proj.m
    if dof <= 0:
        raise DataValidationError(
            f"non-positive degrees of freedom n - q*m = {dof}; need more observations"
        )
    rmap = _residual_map(res)
    total = 0.0
    for p in proj.projections:
        r = rmap[p.cluster_id]
        total += float(r @ (p.annihilator @ r))
    # a sum of PSD quadratic forms: negative only through rounding
    return total / dof


@dataclass(frozen=True, eq=False)
class EffectEstimates:
    """Per-cluster least-squares random-effect estimates (eligible clusters)."""

    cluster_ids: tuple[str, ...]
    effects: np.ndarray  # (m, q)


def estimate_effects(res: ResidualSet, proj: ProjectionSet) -> EffectEstimates:
    """Least-squares effect estimate (Z^T Z)^{-1} Z^T r per eligible cluster."""
    rmap = _residual_map(res)
    ids = []
    effects = np.empty((proj.m, proj.q))
    for i, p in enumerate(proj.projections):
        r = rmap[p.cluster_id]
        effects[i] = p.gram_inv @ (p.Z.T @ r)
        ids.append(p.cluster_id)
    return EffectEstimates(cluster_ids=tuple(ids), effects=effects)


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
    correction = sigma2 * np.mean([p.gram_inv for p in proj.projections], axis=0)
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
