"""Shared dataset builders for the test suite, and the slow paths kept as oracles."""

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


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: -0.0 differs from 0.0 and NaN payloads count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_dataset(a, b) -> bool:
    """Same cluster labels and sizes, and bit-equal stacked columns."""
    return (
        a.ids == b.ids
        and np.array_equal(a.offsets, b.offsets)
        and all(same_bits(getattr(a, k), getattr(b, k))
                for k in ("u_all", "y_all", "X_all", "Z_all"))
    )


def generate_per_cluster(cfg, rep_index):
    """The per-cluster generator that `vcre.generate` replaced, kept as its oracle.

    One draw call per array from each cluster's stream, scipy's ndtri for
    the normal draws, and one `Cluster` per cluster.
    """
    import math

    from scipy.special import ndtri

    from vcre.simulate import _cluster_rng, _effect_nonlinearity, coefficient_values

    def std_normal(rng, shape):
        return ndtri(np.clip(rng.random(shape), 1e-300, 1.0 - 1e-16))

    q = cfg.q
    chol = np.linalg.cholesky(cfg.Sigma + 1e-12 * np.eye(q))
    sd = math.sqrt(cfg.sigma2)
    clusters = []
    for i in range(cfg.m):
        rng = _cluster_rng(cfg.seed, rep_index, i)
        theta = 2.0 * float(std_normal(rng, ()))
        n_i = int(math.floor(abs(theta))) + 6
        u = rng.random(n_i)
        X = std_normal(rng, (n_i, 2))
        Z = std_normal(rng, (n_i, q))
        e = chol @ std_normal(rng, q)
        if cfg.scenario == "uniform_noise":
            eps = math.sqrt(3.0) * sd * (2.0 * rng.random(n_i) - 1.0)
        else:
            eps = sd * std_normal(rng, n_i)
        effect_design = _effect_nonlinearity(Z) if cfg.scenario == "misspecified" else Z
        y = np.sum(X * coefficient_values(u), axis=1) + effect_design @ e + eps
        clusters.append(Cluster(id=f"c{i:04d}", u=u, y=y, X=X, Z=Z))
    return LongitudinalDataset(clusters=tuple(clusters), p=2, q=q)


def load_dataset_per_cell(source, schema=None):
    """The row-by-row CSV loader that `vcre.load_dataset` replaced, kept as its oracle.

    Each row is read as a dict and each cell parsed with float(); rows are
    grouped by cluster id in a dict, in file order.
    """
    import csv

    from vcre import CsvParseError, CsvSchema, DataValidationError, SchemaError
    from vcre.data import _numbered_columns, _open_source

    schema = schema or CsvSchema()
    stream, owned = _open_source(source)
    try:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise DataValidationError("empty dataset: no header row")
        fieldnames = [f.strip() for f in reader.fieldnames]
        x_cols = schema.x_cols or _numbered_columns(fieldnames, "x")
        z_cols = schema.z_cols or _numbered_columns(fieldnames, "z")
        needed = [schema.cluster, schema.u, schema.y, *x_cols, *z_cols]
        missing = [c for c in needed if c not in fieldnames]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")

        def cell(row, col, line):
            raw = row.get(col)
            if raw is None:
                raise CsvParseError(f"row {line}: missing value in column '{col}'")
            try:
                return float(raw)
            except ValueError:
                raise CsvParseError(
                    f"row {line}: column '{col}': could not parse {raw!r} as a number"
                ) from None

        groups = {}
        for row in reader:
            line = reader.line_num
            cid = row.get(schema.cluster)
            if cid is None or cid == "":
                raise CsvParseError(f"row {line}: missing cluster id")
            u, y, x, z = groups.setdefault(cid, ([], [], [], []))
            u.append(cell(row, schema.u, line))
            y.append(cell(row, schema.y, line))
            x.append([cell(row, c, line) for c in x_cols])
            z.append([cell(row, c, line) for c in z_cols])
        if not groups:
            raise DataValidationError("empty dataset: no data rows")
        clusters = tuple(Cluster(cid, *columns) for cid, columns in groups.items())
        return LongitudinalDataset(clusters=clusters, p=len(x_cols), q=len(z_cols))
    finally:
        if owned:
            stream.close()
