"""Restricted-likelihood baseline estimated by downhill-simplex search.

The coefficient functions are expanded in a B-spline basis and profiled out
of the Gaussian restricted likelihood by generalized least squares, leaving
a search over the random-effect covariance (log-Cholesky parameterization)
and the log noise variance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LongitudinalDataset
from .errors import NumericalError
from .neldermead import nelder_mead
from .splines import SplineSpec, _DesignStats
from .symmat import SymMatrix
from .varcomp import VarianceComponents

# returned instead of a non-finite likelihood so the simplex can recover
PENALTY = 1e12


@dataclass(frozen=True, eq=False)
class RemlParams:
    """Unconstrained parameter vector for the restricted likelihood.

    Layout: the q(q+1)/2 entries of the Cholesky factor of the covariance in
    column-major lower-triangle order, with diagonal entries on log scale,
    followed by the log noise variance.  Any vector decodes to a PSD
    covariance and a positive noise variance.
    """

    q: int
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float).ravel()
        expected = self.q * (self.q + 1) // 2 + 1
        if v.size != expected:
            raise NumericalError(f"expected {expected} parameters, got {v.size}")
        object.__setattr__(self, "vector", v)

    def decode(self) -> tuple[np.ndarray, float]:
        q = self.q
        chol = np.zeros((q, q))
        k = 0
        for j in range(q):
            for i in range(j, q):
                chol[i, j] = math.exp(self.vector[k]) if i == j else self.vector[k]
                k += 1
        sigma2 = math.exp(self.vector[-1])
        return chol @ chol.T, sigma2

    @classmethod
    def encode(cls, Sigma, sigma2: float, q: int) -> "RemlParams":
        Sigma = np.asarray(Sigma, dtype=float)
        w, v = np.linalg.eigh(0.5 * (Sigma + Sigma.T))
        floor = 1e-8 + 1e-6 * max(float(np.max(np.abs(w)) if w.size else 0.0), 0.0)
        w = np.maximum(w, floor)
        chol = np.linalg.cholesky((v * w) @ v.T)
        vec = []
        for j in range(q):
            for i in range(j, q):
                vec.append(math.log(chol[i, j]) if i == j else chol[i, j])
        vec.append(math.log(max(float(sigma2), 1e-8)))
        return cls(q=q, vector=np.array(vec))


# likelihood evaluations reuse the spline layer's sufficient statistics
_Workspace = _DesignStats


def _negloglik(Sigma: np.ndarray, sigma2: float, ws: _Workspace) -> float:
    if not (np.all(np.isfinite(Sigma)) and math.isfinite(sigma2) and sigma2 > 0):
        return PENALTY
    D = ws.dim
    try:
        gram, logdet = ws.weighted(Sigma, sigma2)
    except np.linalg.LinAlgError:
        return PENALTY
    A = gram[:D, :D]
    rhs = gram[:D, D]
    sign, logdet_A = np.linalg.slogdet(A)
    if sign <= 0 or not math.isfinite(logdet_A):
        return PENALTY
    try:
        beta = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return PENALTY
    value = logdet + logdet_A + gram[D, D] - float(rhs @ beta)
    return value if math.isfinite(value) else PENALTY


def _profiled_coefficients(Sigma: np.ndarray, sigma2: float, ws: _Workspace) -> np.ndarray:
    D = ws.dim
    gram, _ = ws.weighted(Sigma, sigma2)
    beta = np.linalg.solve(gram[:D, :D], gram[:D, D])
    return beta.reshape(ws.p, ws.spline_dim).T


def reml_negloglik(
    params: RemlParams, ds: LongitudinalDataset, spec: SplineSpec
) -> float:
    """Minus twice the restricted log-likelihood, constants dropped.

    Computed as sum of log|V_i| plus the log determinant of the weighted
    normal-equation matrix plus the weighted residual quadratic form at the
    profiled coefficient estimate.  Non-finite values map to a large finite
    penalty.
    """
    Sigma, sigma2 = params.decode()
    return _negloglik(Sigma, sigma2, _Workspace(ds, spec))


@dataclass(frozen=True, eq=False)
class RemlFit:
    """Restricted-likelihood estimates with optimizer metadata."""

    Sigma: SymMatrix
    sigma2: float
    spline_coefficients: np.ndarray
    neg_loglik: float
    converged: bool
    iterations: int
    simplex_spread: float


def fit_reml(
    ds: LongitudinalDataset,
    spec: SplineSpec,
    init: Optional[VarianceComponents] = None,
    tol: float = 1e-8,
    max_iter: Optional[int] = None,
    restarts: int = 2,
    step: float = 0.1,
) -> RemlFit:
    """Minimize the restricted likelihood over covariance and noise variance.

    Initialized from the closed-form estimates when `init` is given, else
    from the identity covariance and the sample variance of the response.
    Convergence is reported, never enforced; the search degrades for
    random-effect dimensions above 3.
    """
    if ds.q > 3:
        warnings.warn(
            f"random-effect dimension q={ds.q} > 3: simplex optimization of the "
            "restricted likelihood is prone to non-convergence",
            stacklevel=2,
        )
    ws = _Workspace(ds, spec)
    if init is not None:
        x0 = RemlParams.encode(init.sigma_psd.entries, init.sigma2, ds.q)
    else:
        x0 = RemlParams.encode(np.eye(ds.q), float(np.var(ds.y_all)), ds.q)

    def objective(vec):
        Sigma, sigma2 = RemlParams(q=ds.q, vector=vec).decode()
        return _negloglik(Sigma, sigma2, ws)

    result = nelder_mead(
        objective, x0.vector, tol=tol, max_iter=max_iter, restarts=restarts, step=step
    )
    Sigma, sigma2 = RemlParams(q=ds.q, vector=result.x).decode()
    coefs = _profiled_coefficients(Sigma, sigma2, ws)
    return RemlFit(
        Sigma=SymMatrix(Sigma),
        sigma2=float(sigma2),
        spline_coefficients=coefs,
        neg_loglik=result.fun,
        converged=result.converged,
        iterations=result.iterations,
        simplex_spread=result.spread,
    )
