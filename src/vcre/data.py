"""Longitudinal dataset types, CSV ingestion, and structural validation.

A dataset is a collection of clusters; inside a cluster every observation
carries an index variable u, a response y, a fixed-effect covariate vector x
(length p) and a random-effect covariate vector z (length q).  Cluster
membership comes from an explicit id column, never from row adjacency, so
ragged and unordered files load correctly.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvParseError, DataValidationError, SchemaError


@dataclass(frozen=True, eq=False)
class Cluster:
    """All observations sharing one cluster label, in source order."""

    id: str
    u: np.ndarray  # (n_i,)
    y: np.ndarray  # (n_i,)
    X: np.ndarray  # (n_i, p)
    Z: np.ndarray  # (n_i, q)

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        if u.ndim != 1 or u.shape[0] < 1:
            raise DataValidationError(f"cluster {self.id}: needs at least one observation")
        n = u.shape[0]
        if y.shape != (n,) or X.shape[0] != n or Z.shape[0] != n:
            raise DataValidationError(f"cluster {self.id}: inconsistent array lengths")
        for name, arr in (("u", u), ("y", y), ("x", X), ("z", Z)):
            if not np.all(np.isfinite(arr)):
                raise DataValidationError(f"cluster {self.id}: non-finite value in {name}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True, eq=False)
class LongitudinalDataset:
    """Immutable collection of clusters agreeing on covariate dimensions."""

    clusters: tuple[Cluster, ...]
    p: int
    q: int
    # stacked views in cluster order, built once
    u_all: np.ndarray = field(init=False, repr=False)
    y_all: np.ndarray = field(init=False, repr=False)
    X_all: np.ndarray = field(init=False, repr=False)
    Z_all: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if len(clusters) < 1:
            raise DataValidationError("dataset needs at least one cluster")
        for c in clusters:
            if c.X.shape[1] != self.p:
                raise DataValidationError(
                    f"cluster {c.id}: x dimension {c.X.shape[1]} != p={self.p}"
                )
            if c.Z.shape[1] != self.q:
                raise DataValidationError(
                    f"cluster {c.id}: z dimension {c.Z.shape[1]} != q={self.q}"
                )
        object.__setattr__(self, "clusters", clusters)
        sizes = np.array([c.n for c in clusters])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "u_all", np.concatenate([c.u for c in clusters]))
        object.__setattr__(self, "y_all", np.concatenate([c.y for c in clusters]))
        object.__setattr__(self, "X_all", np.vstack([c.X for c in clusters]))
        object.__setattr__(self, "Z_all", np.vstack([c.Z for c in clusters]))

    @property
    def m(self) -> int:
        return len(self.clusters)

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    def cluster_slice(self, index: int) -> slice:
        """Slice of the stacked arrays holding cluster `index`."""
        return slice(int(self.offsets[index]), int(self.offsets[index + 1]))


@dataclass(frozen=True)
class CsvSchema:
    """Column naming for CSV ingestion.

    When x_cols / z_cols are None, columns named x1..xp / z1..zq are taken
    from the header (the default layout); p and q always come from the schema
    that results, never from data heuristics.
    """

    cluster: str = "cluster"
    u: str = "u"
    y: str = "y"
    x_cols: tuple[str, ...] | None = None
    z_cols: tuple[str, ...] | None = None


def _numbered_columns(fieldnames, prefix: str) -> tuple[str, ...]:
    pat = re.compile(rf"^{prefix}(\d+)$")
    found = {}
    for name in fieldnames:
        m = pat.match(name)
        if m:
            found[int(m.group(1))] = name
    if not found:
        raise SchemaError(f"no columns matching {prefix}1..{prefix}N in header")
    count = len(found)
    if sorted(found) != list(range(1, count + 1)):
        raise SchemaError(f"{prefix}-columns must be numbered 1..{count} without gaps")
    return tuple(found[i] for i in range(1, count + 1))


def _open_source(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8", newline=""), True


def load_dataset(source, schema: CsvSchema = CsvSchema()) -> LongitudinalDataset:
    """Load a longitudinal dataset from a CSV file or text stream.

    Rows are grouped by the cluster-id column preserving file order.  Every
    cell named by the schema must parse as a float; failures report the
    1-based line number of the offending row.
    """
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

        # cluster id -> its u, y, x-row and z-row lists, in file order
        groups: dict[str, tuple[list, list, list, list]] = {}
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


def _write_csv(target, header, rows) -> None:
    """Write a header row and then `rows` as CSV.

    `target` is an open text stream, left open, or a path, opened and closed
    here.
    """
    if hasattr(target, "write"):
        writer = csv.writer(target)
        writer.writerow(header)
        writer.writerows(rows)
        return
    with open(target, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, header, rows)


def write_dataset(ds: LongitudinalDataset, target, schema: CsvSchema = CsvSchema()) -> None:
    """Serialize a dataset back to CSV at full (round-trip) precision."""
    x_cols = schema.x_cols or tuple(f"x{i}" for i in range(1, ds.p + 1))
    z_cols = schema.z_cols or tuple(f"z{i}" for i in range(1, ds.q + 1))
    _write_csv(
        target,
        [schema.cluster, schema.u, schema.y, *x_cols, *z_cols],
        (
            [c.id, repr(float(c.u[j])), repr(float(c.y[j]))]
            + [repr(float(v)) for v in c.X[j]]
            + [repr(float(v)) for v in c.Z[j]]
            for c in ds.clusters
            for j in range(c.n)
        ),
    )


@dataclass(frozen=True)
class ClusterCheck:
    """Validation facts for one cluster."""

    cluster_id: str
    n: int
    z_rank: int
    flags: tuple[str, ...]  # subset of {"n_le_q", "rank_deficient"}


@dataclass(frozen=True)
class ValidationReport:
    """Report-only feasibility check for variance-component estimation."""

    q: int
    checks: tuple[ClusterCheck, ...]

    @property
    def flagged(self) -> tuple[ClusterCheck, ...]:
        return tuple(c for c in self.checks if c.flags)

    @property
    def ok(self) -> bool:
        return not self.flagged


def _z_ranks(ds: LongitudinalDataset) -> np.ndarray:
    """Rank of every cluster's Z_i, from one matrix_rank call per cluster size.

    matrix_rank sets its tolerance per matrix of a stack, so each rank equals
    a call on Z_i alone (a test on Z_i^T Z_i would square the condition number).
    """
    sizes = np.diff(ds.offsets)
    ranks = np.empty(ds.m, dtype=int)
    for size in np.unique(sizes):
        idx = np.flatnonzero(sizes == size)
        ranks[idx] = np.linalg.matrix_rank(ds.Z_all[ds.offsets[idx, None] + np.arange(size)])
    return ranks


def validate(ds: LongitudinalDataset) -> ValidationReport:
    """Flag clusters with n_i <= q or a rank-deficient random-effect design."""
    checks = []
    for c, rank in zip(ds.clusters, _z_ranks(ds).tolist()):
        flags = []
        if c.n <= ds.q:
            flags.append("n_le_q")
        if rank < ds.q:
            flags.append("rank_deficient")
        checks.append(ClusterCheck(cluster_id=c.id, n=c.n, z_rank=rank, flags=tuple(flags)))
    return ValidationReport(q=ds.q, checks=tuple(checks))
