"""Symmetric-matrix algebra: half-vectorization and PSD projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError

# Accepted asymmetry: max|A - A^T| <= SYMMETRY_RTOL * max|A|.  Anything larger
# signals a bug upstream (the estimators below produce exact symmetry).
SYMMETRY_RTOL = 1e-10


def symmetrize(a, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return the symmetric average of a square matrix, rejecting real asymmetry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataValidationError("matrix has non-finite entries")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    drift = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if drift > rtol * scale:
        raise DataValidationError(
            f"matrix asymmetry {drift:.3e} exceeds tolerance {rtol * scale:.3e}"
        )
    return 0.5 * (a + a.T)


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric square matrix; entries are symmetrized on construction."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", symmetrize(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def _as_symmetric(a) -> np.ndarray:
    if isinstance(a, SymMatrix):
        return a.entries
    return symmetrize(a)


def _vech_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in vec(A) of (i, j) and of (j, i) for each vech entry of a q x q A.

    The vech order is column 1 rows 1..q, column 2 rows 2..q, and so on;
    vec stacks columns, so (i, j) sits at j*q + i.  On the diagonal both
    positions coincide.
    """
    j, i = np.triu_indices(q)
    return j * q + i, i * q + j


def vech(a) -> np.ndarray:
    """Stack the lower triangle column by column into a q(q+1)/2 vector."""
    m = _as_symmetric(a)
    return m.ravel(order="F")[_vech_pairs(m.shape[0])[0]]


def nearest_psd(a) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clipping negative eigenvalues.

    This is the Frobenius-nearest PSD matrix; a no-op when the input is
    already PSD.
    """
    m = _as_symmetric(a)
    w, v = np.linalg.eigh(m)
    if w.size == 0 or w[0] >= 0.0:
        return m.copy()
    clipped = (v * np.maximum(w, 0.0)) @ v.T
    return 0.5 * (clipped + clipped.T)
