"""Plug-in bias and variance diagnostics for the closed-form estimators.

All quantities are finite-sample analogues: expectations over the covariate
law are replaced by averages over the observed clusters, and population
moments of the effects by moments of their estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LongitudinalDataset
from .errors import DataValidationError
from .kernels import KernelMoments, KernelSpec, kernel_moments
from .smoother import curvature_at_points
from .symmat import _vech_pairs, vech
from .varcomp import EffectEstimates, PipelineFit, ProjectionSet, VarianceComponents


@dataclass(frozen=True)
class LeverageConstants:
    """Sample ratios driving the asymptotic variances.

    c1 = n/(n - q m) and c2 = n/m over the eligible clusters; gamma_hat is
    the squared-leverage sum normalized by n - q m, shifted by -c1*q/c2 + 1.
    """

    gamma_hat: float
    c1: float
    c2: float
    Gamma_hat: np.ndarray  # average Gram inverse, q x q
    n: int
    m: int


def _solved_rows(proj: ProjectionSet) -> np.ndarray:
    """Row j is G_i z_j for the cluster i of eligible row j, shape (n, q)."""
    return np.einsum("ikj,ij->ik", proj.gram_inv[proj.cluster_of], proj.Z)


def _kron_rows(a: np.ndarray) -> np.ndarray:
    """Row j is kron(a_j, a_j), shape (rows, q^2)."""
    return (a[:, :, None] * a[:, None, :]).reshape(a.shape[0], -1)


def leverage_constants(proj: ProjectionSet) -> LeverageConstants:
    n, m, q, dof = proj.n, proj.m, proj.q, proj.dof
    c1 = n / dof
    c2 = n / m
    # the leverage of row j is z_j^T G_i z_j, the diagonal of the cluster's projection
    lev = np.einsum("ij,ij->i", proj.Z, _solved_rows(proj))
    gamma_hat = float(lev @ lev) / dof - c1 * q / c2 + 1.0
    return LeverageConstants(
        gamma_hat=gamma_hat, c1=c1, c2=c2, Gamma_hat=proj.gram_inv_mean, n=n, m=m
    )


def curvature_curve(
    ds: LongitudinalDataset, kernel: KernelSpec, ridge: bool = False
) -> np.ndarray:
    """Estimate the coefficient curvature at every observation.

    Local-cubic fit with the same kernel at twice the bandwidth (a wider
    window stabilizes curvature); returns (n, p) in dataset order.  In
    simulation studies the true curvature can be injected instead.
    """
    wide = kernel.with_bandwidth(2.0 * kernel.bandwidth)
    upts = np.unique(ds.u_all)
    vals = curvature_at_points(ds, wide, upts, ridge=ridge)
    idx = np.searchsorted(upts, ds.u_all)
    return vals[idx]


def bias_terms(ds: LongitudinalDataset, proj: ProjectionSet, curvature: np.ndarray):
    """Curvature-driven bias quantities (b, B1, B2).

    `curvature` holds per-observation second derivatives of the coefficient
    functions, shape (n, p), in dataset order.  b pools the annihilated
    quadratic form of eta (the curvature projected through the fixed-effect
    covariates); B1 is the average Gram inverse; B2 the average outer
    product of the Gram-solved cross products.
    """
    curvature = np.asarray(curvature, dtype=float)
    if curvature.shape != (ds.n, ds.p):
        raise DataValidationError(
            f"curvature must have shape {(ds.n, ds.p)}, got {curvature.shape}"
        )
    V, eta_perp = proj.regress(np.sum(ds.X_all * curvature, axis=1)[proj.rows])
    b = float(eta_perp @ eta_perp) / proj.dof
    return b, proj.gram_inv_mean, V.T @ V / proj.m


def squared_noise_variance(res, proj: ProjectionSet) -> float:
    """Sample variance of the squared within-cluster residuals.

    Within-cluster residuals are the annihilated smoother residuals; their
    squares are centered at the pooled noise-variance estimate and
    normalized by the synthetic degrees of freedom n - q m (biased but
    consistent).
    """
    dof = proj.dof
    _, eps_hat = proj.regress(res.values[proj.rows])
    w = eps_hat**2
    center = float(np.sum(w)) / dof
    return float(np.sum((w - center) ** 2)) / dof


def noise_variance_inference(
    vc: VarianceComponents,
    moments: KernelMoments,
    bandwidth: float,
    b: float,
    consts: LeverageConstants,
    var_eps_sq: float,
):
    """Plug-in bias and standard error for the noise-variance estimate."""
    ratio = moments.curvature_ratio
    bias = 0.25 * bandwidth**4 * ratio**2 * b
    s2 = vc.sigma2
    var_n = 2.0 * s2**2 * (1.0 + consts.gamma_hat) * consts.c1
    var_n += var_eps_sq * consts.gamma_hat * consts.c1
    se = float(np.sqrt(max(var_n, 0.0) / consts.n))
    return float(bias), se


def _delta_hat(
    vc: VarianceComponents,
    eff: EffectEstimates,
    proj: ProjectionSet,
    consts: LeverageConstants,
    var_eps_sq: float,
) -> np.ndarray:
    """Sample analogue of the fourth-moment matrix in the covariance law.

    Expectations over effects use the estimated effects; the two terms the
    displayed law couples to the noise-variance fluctuation enter through
    the outer product of vec(Gamma_hat) with itself.
    """
    q = proj.q
    S = vc.sigma_raw.entries
    G = consts.Gamma_hat
    m = proj.m
    kron_rows = _kron_rows(eff.effects)
    outer4 = kron_rows.T @ kron_rows / m
    vecS = S.ravel(order="F")
    vecG = G.ravel(order="F")
    D1 = np.vstack(
        [np.kron(S, G[r : r + 1, :]) + np.kron(G, S[r : r + 1, :]) for r in range(q)]
    )
    # row i is vec(G_i); G_i is symmetric, so C and F order agree
    vec_gram_inv = proj.gram_inv.reshape(m, q * q)
    D2 = vec_gram_inv.T @ vec_gram_inv / m
    # row j of K is kron(G_i z_j, G_i z_j), so D3 = sum_j outer(K_j, K_j) / m
    K = _kron_rows(_solved_rows(proj))
    D3 = K.T @ K / m
    s2 = vc.sigma2
    gG = np.outer(vecG, vecG)
    c_ratio = consts.c1 / consts.c2
    delta = outer4 - np.outer(vecS, vecS)
    delta += s2 * (np.kron(S, G) + np.kron(G, S) + D1)
    delta += 2.0 * s2**2 * (D2 - D3 + c_ratio * (1.0 + consts.gamma_hat) * gG)
    delta += var_eps_sq * (D3 + c_ratio * consts.gamma_hat * gG)
    return 0.5 * (delta + delta.T)


def effect_cov_inference(
    vc: VarianceComponents,
    eff: EffectEstimates,
    proj: ProjectionSet,
    moments: KernelMoments,
    bandwidth: float,
    b: float,
    B1: np.ndarray,
    B2: np.ndarray,
    consts: LeverageConstants,
    var_eps_sq: float,
):
    """Plug-in bias and standard errors for the half-vectorized covariance.

    The bias is h^4 ratio^2 (vech(B2) - vech(B1) b) / 4.
    """
    bias = 0.25 * bandwidth**4 * moments.curvature_ratio**2 * (vech(B2) - vech(B1) * b)
    delta = _delta_hat(vc, eff, proj, consts, var_eps_sq)
    # D+ delta D+^T with D+ the duplication matrix's pseudo-inverse: D+ averages
    # the vec positions of (i, j) and (j, i), once on each side.
    ij, ji = _vech_pairs(proj.q)
    half = 0.5 * (delta[ij] + delta[ji])
    sandwich = 0.5 * (half[:, ij] + half[:, ji]) * consts.c2
    sandwich = 0.5 * (sandwich + sandwich.T)
    se = np.sqrt(np.maximum(np.diag(sandwich), 0.0) / consts.n)
    return bias, se


@dataclass(frozen=True, eq=False)
class AsymptoticDiagnostics:
    """Kernel moments, bias quantities and plug-in standard errors."""

    moments: KernelMoments
    b: float
    B1: np.ndarray
    B2: np.ndarray
    gamma_hat: float
    c1: float
    c2: float
    Gamma_hat: np.ndarray
    bias_sigma2: float
    se_sigma2: float
    bias_Sigma: np.ndarray
    se_Sigma: np.ndarray

    def to_report(self) -> dict:
        return {
            "mu": [self.moments.mu0, self.moments.mu1, self.moments.mu2, self.moments.mu3],
            "b": self.b,
            "B1": self.B1.tolist(),
            "B2": self.B2.tolist(),
            "gamma_hat": self.gamma_hat,
            "c1": self.c1,
            "c2": self.c2,
            "bias_sigma2": self.bias_sigma2,
            "se_sigma2": self.se_sigma2,
            "bias_Sigma": self.bias_Sigma.tolist(),
            "se_Sigma": self.se_Sigma.tolist(),
        }


def compute_diagnostics(
    ds: LongitudinalDataset,
    kernel: KernelSpec,
    fit: PipelineFit,
    curvature: Optional[np.ndarray] = None,
) -> AsymptoticDiagnostics:
    """Assemble the full diagnostics block for a fitted pipeline.

    `curvature` overrides the local-cubic curvature estimate (simulation
    presets inject the true second derivatives to isolate plug-in error).
    """
    moments = kernel_moments(kernel)
    if curvature is None:
        curvature = curvature_curve(ds, kernel)
    b, B1, B2 = bias_terms(ds, fit.projections, curvature)
    consts = leverage_constants(fit.projections)
    var_eps_sq = squared_noise_variance(fit.residuals, fit.projections)
    bias_s2, se_s2 = noise_variance_inference(
        fit.variance, moments, kernel.bandwidth, b, consts, var_eps_sq
    )
    bias_S, se_S = effect_cov_inference(
        fit.variance, fit.effects, fit.projections, moments, kernel.bandwidth,
        b, B1, B2, consts, var_eps_sq,
    )
    return AsymptoticDiagnostics(
        moments=moments,
        b=b,
        B1=B1,
        B2=B2,
        gamma_hat=consts.gamma_hat,
        c1=consts.c1,
        c2=consts.c2,
        Gamma_hat=consts.Gamma_hat,
        bias_sigma2=bias_s2,
        se_sigma2=se_s2,
        bias_Sigma=bias_S,
        se_Sigma=se_S,
    )
