"""Kernel specifications for local polynomial smoothing, and their moments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DataValidationError, NumericalError


def _epanechnikov(t):
    return 0.75 * (1.0 - t * t)


def _uniform(t):
    return np.full_like(np.asarray(t, dtype=float), 0.5)


def _triangular(t):
    return 1.0 - np.abs(t)


_PROFILES = {
    "epanechnikov": _epanechnikov,
    "uniform": _uniform,
    "triangular": _triangular,
}

# exact moments (mu0, mu1, mu2, mu3) on [-1, 1]
_CLOSED_FORM_MOMENTS = {
    "epanechnikov": (1.0, 0.0, 0.2, 0.0),
    "uniform": (1.0, 0.0, 1.0 / 3.0, 0.0),
    "triangular": (1.0, 0.0, 1.0 / 6.0, 0.0),
}


def tabulated_profile(points, values) -> Callable:
    """Linear-interpolation profile for a kernel tabulated on [-1, 1]."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 1 or points.shape != values.shape or points.size < 2:
        raise DataValidationError("tabulated kernel needs matching 1-d point/value arrays")
    if np.any(np.diff(points) <= 0):
        raise DataValidationError("tabulated kernel points must be strictly increasing")

    def profile(t):
        return np.interp(t, points, values, left=0.0, right=0.0)

    return profile


@dataclass(frozen=True)
class KernelSpec:
    """A density kernel on [-1, 1] together with a bandwidth.

    `kind` is one of epanechnikov / uniform / triangular / custom; custom
    requires a `profile` callable defined on [-1, 1] (use
    :func:`tabulated_profile` for tabulated kernels).
    """

    bandwidth: float
    kind: str = "epanechnikov"
    profile: Optional[Callable] = None

    def __post_init__(self):
        if not (self.bandwidth > 0):
            raise DataValidationError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kind == "custom":
            if self.profile is None:
                raise DataValidationError("custom kernel requires a profile callable")
        elif self.kind not in _PROFILES:
            raise DataValidationError(f"unknown kernel kind {self.kind!r}")

    def profile_fn(self) -> Callable:
        return self.profile if self.kind == "custom" else _PROFILES[self.kind]

    def weights(self, dist) -> np.ndarray:
        """K_h(dist) = K(dist/h)/h, zero outside the support |dist| > h."""
        d = np.asarray(dist, dtype=float)
        t = d / self.bandwidth
        inside = np.abs(t) <= 1.0
        out = np.zeros_like(t)
        if np.any(inside):
            out[inside] = self.profile_fn()(t[inside]) / self.bandwidth
        return np.maximum(out, 0.0)

    def with_bandwidth(self, bandwidth: float) -> "KernelSpec":
        return KernelSpec(bandwidth=bandwidth, kind=self.kind, profile=self.profile)


@dataclass(frozen=True)
class KernelMoments:
    """Polynomial moments mu_i = integral of t^i K(t) dt over the support."""

    mu0: float
    mu1: float
    mu2: float
    mu3: float

    @property
    def curvature_ratio(self) -> float:
        """(mu1*mu3 - mu2^2) / (mu0*mu2 - mu1^2); -mu2 for symmetric kernels."""
        denom = self.mu0 * self.mu2 - self.mu1**2
        if denom <= 0:
            from .errors import DegenerateKernelError

            raise DegenerateKernelError(
                f"mu0*mu2 - mu1^2 = {denom:.3e} is not positive"
            )
        return (self.mu1 * self.mu3 - self.mu2**2) / denom


def kernel_moments(spec: KernelSpec) -> KernelMoments:
    """Moments of the kernel profile: closed form where known, else quadrature.

    Raises if the profile does not integrate to 1 within 1e-6 (not a density).
    """
    if spec.kind in _CLOSED_FORM_MOMENTS:
        return KernelMoments(*_CLOSED_FORM_MOMENTS[spec.kind])
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    profile = spec.profile_fn()
    mus = []
    for i in range(4):
        with warnings.catch_warnings():
            # non-smooth (e.g. tabulated) profiles trip quad's roundoff
            # report while the values stay far inside the tolerance
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda t, i=i: (t**i) * float(profile(t)), -1.0, 1.0,
                          epsabs=1e-12, epsrel=1e-12, limit=400)
        mus.append(val)
    if abs(mus[0] - 1.0) > 1e-6:
        raise NumericalError(f"kernel is not normalized: mu0 = {mus[0]:.8f}")
    return KernelMoments(*mus)


def bandwidth_rule(n: int, scale: float = 1.0) -> float:
    """Optional rate-based bandwidth scale * n^(-1/8)."""
    if n < 1:
        raise DataValidationError("n must be positive")
    return scale * float(n) ** (-0.125)
