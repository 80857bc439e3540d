"""Shared dataset builders for the test suite (independent of the sim harness)."""

import numpy as np

from vcre import Cluster, LongitudinalDataset


def dataset_from_arrays(rows, p, q):
    """Build a dataset from (cluster_id, u, y, x-list, z-list) tuples."""
    groups = {}
    for cid, u, y, x, z in rows:
        groups.setdefault(cid, []).append((u, y, x, z))
    clusters = []
    for cid, obs in groups.items():
        clusters.append(
            Cluster(
                id=cid,
                u=np.array([o[0] for o in obs], dtype=float),
                y=np.array([o[1] for o in obs], dtype=float),
                X=np.array([o[2] for o in obs], dtype=float).reshape(len(obs), p),
                Z=np.array([o[3] for o in obs], dtype=float).reshape(len(obs), q),
            )
        )
    return LongitudinalDataset(clusters=tuple(clusters), p=p, q=q)


def random_dataset(
    seed,
    m=6,
    p=2,
    q=2,
    n_range=(4, 9),
    coef=None,
    Sigma=None,
    sigma=1.0,
    u_low=0.0,
    u_high=1.0,
):
    """Generic random longitudinal dataset for oracle tests.

    `coef` maps u -> (p,) coefficient values (defaults to affine functions);
    `Sigma` is the effect covariance (defaults to zero effects).
    """
    rng = np.random.default_rng(seed)
    if coef is None:
        coef = lambda u: np.column_stack([1.0 + 2.0 * u] + [0.5 - u] * (p - 1))
    clusters = []
    for i in range(m):
        n_i = int(rng.integers(n_range[0], n_range[1] + 1))
        u = np.sort(rng.uniform(u_low, u_high, n_i))
        X = rng.normal(size=(n_i, p))
        Z = rng.normal(size=(n_i, q))
        e = np.zeros(q) if Sigma is None else np.linalg.cholesky(
            np.asarray(Sigma) + 1e-12 * np.eye(q)
        ) @ rng.normal(size=q)
        eps = sigma * rng.normal(size=n_i) if sigma > 0 else np.zeros(n_i)
        a_vals = np.atleast_2d(coef(u))
        y = np.sum(X * a_vals, axis=1) + Z @ e + eps
        clusters.append(Cluster(id=f"t{i}", u=u, y=y, X=X, Z=Z))
    return LongitudinalDataset(clusters=tuple(clusters), p=p, q=q)


def dense_hats(proj):
    """Each eligible cluster's n_i x n_i projection Z_i G_i Z_i^T, from the stacked arrays."""
    blocks = np.split(proj.Z, proj.starts[1:])
    return [Z @ G @ Z.T for Z, G in zip(blocks, proj.gram_inv)]
