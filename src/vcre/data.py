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
from dataclasses import dataclass
from functools import cached_property

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
        # the dataset checks the values (finite, at least one row) on its stacked columns
        u, y = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (self.u, self.y))
        X, Z = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (self.X, self.Z))
        if u.ndim != 1 or y.shape != u.shape or X.shape[0] != u.size or Z.shape[0] != u.size:
            raise DataValidationError(f"cluster {self.id}: inconsistent array lengths")
        for name, arr in zip("uyXZ", (u, y, X, Z)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.u.shape[0]


class LongitudinalDataset:
    """Clusters of observations, stored as stacked columns in cluster order.

    Cluster i is labelled ids[i] and owns rows offsets[i]:offsets[i+1] of
    u_all (n,), y_all (n,), X_all (n, p) and Z_all (n, q); the arrays are
    read-only.  Build a dataset from `Cluster` objects with
    LongitudinalDataset(clusters, p, q), or from the columns themselves with
    `from_columns`.  `clusters` is a view, built on first use.
    """

    def __init__(self, clusters, p: int, q: int):
        clusters = tuple(clusters)
        if len(clusters) < 1:
            raise DataValidationError("dataset needs at least one cluster")
        for c in clusters:
            if c.X.shape[1] != p:
                raise DataValidationError(f"cluster {c.id}: x dimension {c.X.shape[1]} != p={p}")
            if c.Z.shape[1] != q:
                raise DataValidationError(f"cluster {c.id}: z dimension {c.Z.shape[1]} != q={q}")
        self._set_columns(
            [c.id for c in clusters], [c.n for c in clusters],
            *(np.concatenate([getattr(c, k) for c in clusters]) for k in ("u", "y", "X", "Z")),
        )
        self.__dict__["clusters"] = clusters

    @classmethod
    def from_columns(cls, ids, sizes, u, y, X, Z) -> "LongitudinalDataset":
        """Dataset whose cluster i is ids[i] with the next sizes[i] rows of the columns."""
        ds = cls.__new__(cls)
        ds._set_columns(ids, sizes, u, y, X, Z)
        return ds

    def _set_columns(self, ids, sizes, u, y, X, Z) -> None:
        # every cluster has a row and every value is finite, checked once on the stacked rows
        self.ids = tuple(ids)
        sizes = np.asarray(sizes, dtype=int)
        if len(self.ids) < 1:
            raise DataValidationError("dataset needs at least one cluster")
        if sizes.min() < 1:
            raise DataValidationError(
                f"cluster {self.ids[int(np.argmin(sizes))]}: needs at least one observation"
            )
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        columns = {}
        for name, arr, ndim in (("u", u, 1), ("y", y, 1), ("x", X, 2), ("z", Z, 2)):
            arr = np.array(arr, dtype=float, order="C")  # a read-only copy
            if arr.ndim != ndim or arr.shape[0] != self.offsets[-1]:
                raise DataValidationError(f"stacked column {name} has shape {arr.shape}")
            arr.flags.writeable = False
            columns[name] = arr
        bad = {k: ~np.isfinite(a).reshape(a.shape[0], -1).all(axis=1) for k, a in columns.items()}
        rows = np.logical_or.reduce(list(bad.values()))
        if rows.any():
            i = int(np.searchsorted(self.offsets, np.argmax(rows), "right")) - 1
            name = next(k for k, b in bad.items() if b[self.cluster_slice(i)].any())
            raise DataValidationError(f"cluster {self.ids[i]}: non-finite value in {name}")
        self.u_all, self.y_all, self.X_all, self.Z_all = columns.values()

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    @property
    def p(self) -> int:
        return self.X_all.shape[1]

    @property
    def q(self) -> int:
        return self.Z_all.shape[1]

    def cluster_slice(self, index: int) -> slice:
        """Slice of the stacked arrays holding cluster `index`."""
        return slice(int(self.offsets[index]), int(self.offsets[index + 1]))

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        """One `Cluster` per cluster, viewing the stacked arrays."""
        return tuple(
            Cluster(cid, self.u_all[s], self.y_all[s], self.X_all[s], self.Z_all[s])
            for cid, s in zip(self.ids, map(self.cluster_slice, range(self.m)))
        )

    @cached_property
    def z_ranks(self) -> np.ndarray:
        """Rank of every cluster's Z_i, from one matrix_rank call per cluster size.

        matrix_rank sets its tolerance per matrix of a stack, so each rank
        equals a call on Z_i alone (a test on Z_i^T Z_i would square the
        condition number).  Computed once per dataset, for `validate` and
        the variance stage alike.
        """
        sizes = np.diff(self.offsets)
        ranks = np.empty(self.m, dtype=int)
        for size in np.unique(sizes):
            idx = np.flatnonzero(sizes == size)
            stack = self.Z_all[self.offsets[idx, None] + np.arange(size)]
            ranks[idx] = np.linalg.matrix_rank(stack)
        ranks.flags.writeable = False
        return ranks


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

    Rows are grouped by the cluster-id column, clusters in order of first
    appearance and rows in file order.  Every cell named by the schema must
    parse as a float; failures report the 1-based line number of the
    offending row.
    """
    stream, owned = _open_source(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise DataValidationError("empty dataset: no header row")
        fieldnames = [f.strip() for f in header]
        x_cols = schema.x_cols or _numbered_columns(fieldnames, "x")
        z_cols = schema.z_cols or _numbered_columns(fieldnames, "z")
        needed = [schema.cluster, schema.u, schema.y, *x_cols, *z_cols]
        missing = [c for c in needed if c not in fieldnames]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")
        rows, lines = [], []
        for row in reader:
            if row:  # blank lines hold no record
                rows.append(row)
                lines.append(reader.line_num)
    finally:
        if owned:
            stream.close()
    if not rows:
        raise DataValidationError("empty dataset: no data rows")
    index = {name: k for k, name in enumerate(fieldnames)}
    cols = [index[c] for c in needed]
    try:
        if min(map(len, rows)) <= max(cols):
            raise ValueError("short row")
        columns = list(zip(*rows))
        if "" in columns[cols[0]]:
            raise ValueError("missing cluster id")
        values = np.array([list(map(float, columns[k])) for k in cols[1:]]).T
    except ValueError:
        _raise_first_bad_cell(rows, lines, needed, cols)
        raise
    # clusters in order of first appearance; a stable sort keeps file order inside each
    labels, first, inverse = np.unique(
        np.array(columns[cols[0]]), return_index=True, return_inverse=True
    )
    rank = np.empty(labels.size, dtype=int)
    rank[np.argsort(first)] = np.arange(labels.size)
    code = rank[inverse]
    values = values[np.argsort(code, kind="stable")]
    p = len(x_cols)
    return LongitudinalDataset.from_columns(
        labels[np.argsort(first)].tolist(), np.bincount(code),
        values[:, 0], values[:, 1], values[:, 2 : 2 + p], values[:, 2 + p :],
    )


def _raise_first_bad_cell(rows, lines, needed, cols) -> None:
    """Raise CsvParseError for the first row, in file order, with a bad cell."""
    for row, line in zip(rows, lines):
        if len(row) <= cols[0] or row[cols[0]] == "":
            raise CsvParseError(f"row {line}: missing cluster id")
        for col, k in zip(needed[1:], cols[1:]):
            if len(row) <= k:
                raise CsvParseError(f"row {line}: missing value in column '{col}'")
            try:
                float(row[k])
            except ValueError:
                raise CsvParseError(
                    f"row {line}: column '{col}': could not parse {row[k]!r} as a number"
                ) from None


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
    table = np.column_stack([ds.u_all, ds.y_all, ds.X_all, ds.Z_all]).tolist()
    ids = np.repeat(np.array(ds.ids, dtype=object), np.diff(ds.offsets))
    _write_csv(
        target,
        [schema.cluster, schema.u, schema.y, *x_cols, *z_cols],
        ([cid, *map(repr, row)] for cid, row in zip(ids, table)),
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


def validate(ds: LongitudinalDataset) -> ValidationReport:
    """Flag clusters with n_i <= q or a rank-deficient random-effect design."""
    checks = []
    for cid, n, rank in zip(ds.ids, np.diff(ds.offsets).tolist(), ds.z_ranks.tolist()):
        flags = []
        if n <= ds.q:
            flags.append("n_le_q")
        if rank < ds.q:
            flags.append("rank_deficient")
        checks.append(ClusterCheck(cluster_id=cid, n=n, z_rank=rank, flags=tuple(flags)))
    return ValidationReport(q=ds.q, checks=tuple(checks))
