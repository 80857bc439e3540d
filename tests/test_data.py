import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcre import (
    CsvParseError,
    CsvSchema,
    DataValidationError,
    SchemaError,
    load_dataset,
    validate,
    write_dataset,
)
from vcre.data import _z_ranks

from helpers import dataset_from_arrays, random_dataset

SMALL = """cluster,u,y,x1,z1
a,0.1,1.0,1.0,1.0
a,0.2,1.5,0.5,1.0
b,0.3,2.0,2.0,0.5
"""


def test_load_small_csv():
    ds = load_dataset(io.StringIO(SMALL))
    assert ds.m == 2
    assert ds.n == 3
    assert ds.p == 1 and ds.q == 1
    assert [c.id for c in ds.clusters] == ["a", "b"]
    assert np.array_equal(ds.clusters[0].u, [0.1, 0.2])


def test_load_ragged_clusters():
    lines = ["cluster,u,y,x1,z1"]
    for j in range(4):
        lines.append(f"p,{0.1 * j},1.0,1.0,1.0")
    for j in range(7):
        lines.append(f"q,{0.05 * j},2.0,1.0,1.0")
    ds = load_dataset(io.StringIO("\n".join(lines) + "\n"))
    assert ds.n == 11
    assert [c.n for c in ds.clusters] == [4, 7]


def test_parse_error_cites_row():
    text = "cluster,u,y,x1,z1\na,0.1,1.0,1.0,1.0\na,0.2,NA,0.5,1.0\n"
    with pytest.raises(CsvParseError, match="row 3"):
        load_dataset(io.StringIO(text))


def test_missing_column_is_schema_error():
    text = "cluster,u,x1,z1\na,0.1,1.0,1.0\n"
    with pytest.raises(SchemaError, match="y"):
        load_dataset(io.StringIO(text))


def test_missing_x_columns():
    text = "cluster,u,y,z1\na,0.1,1.0,1.0\n"
    with pytest.raises(SchemaError):
        load_dataset(io.StringIO(text))


def test_empty_file():
    with pytest.raises(DataValidationError, match="empty"):
        load_dataset(io.StringIO(""))


def test_header_only_file():
    with pytest.raises(DataValidationError, match="empty"):
        load_dataset(io.StringIO("cluster,u,y,x1,z1\n"))


def test_custom_schema_names():
    text = "vil,time,resp,age,educ,one\nv1,0.0,1.0,30,1,1\nv1,0.5,2.0,31,0,1\n"
    schema = CsvSchema(cluster="vil", u="time", y="resp",
                       x_cols=("age", "educ"), z_cols=("one",))
    ds = load_dataset(io.StringIO(text), schema)
    assert ds.p == 2 and ds.q == 1
    assert np.array_equal(ds.clusters[0].X[:, 0], [30.0, 31.0])


def test_gapped_numbered_columns_rejected():
    text = "cluster,u,y,x1,x3,z1\na,0.1,1.0,1.0,1.0,1.0\n"
    with pytest.raises(SchemaError, match="numbered"):
        load_dataset(io.StringIO(text))


def test_round_trip_full_precision():
    ds = random_dataset(seed=123, m=5, p=2, q=2, sigma=0.7)
    buf = io.StringIO()
    write_dataset(ds, buf)
    ds2 = load_dataset(io.StringIO(buf.getvalue()))
    assert ds2.m == ds.m and ds2.p == ds.p and ds2.q == ds.q
    for c1, c2 in zip(ds.clusters, ds2.clusters):
        assert c1.id == c2.id
        assert np.array_equal(c1.u, c2.u)
        assert np.array_equal(c1.y, c2.y)
        assert np.array_equal(c1.X, c2.X)
        assert np.array_equal(c1.Z, c2.Z)
    # and the round trip is idempotent at the byte level
    buf2 = io.StringIO()
    write_dataset(ds2, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_non_finite_rejected():
    text = "cluster,u,y,x1,z1\na,0.1,inf,1.0,1.0\n"
    with pytest.raises(DataValidationError, match="non-finite"):
        load_dataset(io.StringIO(text))


def test_validate_flags_small_cluster():
    rows = [("a", 0.1 * j, 1.0, [1.0, 0.0], [1.0, float(j)]) for j in range(2)]
    rows += [("b", 0.1 * j, 1.0, [1.0, 0.0], [1.0, float(j) + 0.5]) for j in range(5)]
    ds = dataset_from_arrays(rows, p=2, q=2)
    report = validate(ds)
    flagged = {c.cluster_id: c.flags for c in report.flagged}
    assert flagged == {"a": ("n_le_q",)}
    assert not report.ok


def test_validate_flags_rank_deficiency():
    # all z rows identical: rank 1 < q = 2
    rows = [("a", 0.1 * j, 1.0, [1.0], [1.0, 2.0]) for j in range(5)]
    ds = dataset_from_arrays(rows, p=1, q=2)
    report = validate(ds)
    assert report.checks[0].z_rank == 1
    assert report.flagged[0].flags == ("rank_deficient",)


def test_validate_clean_dataset():
    ds = random_dataset(seed=7, m=4, n_range=(5, 8))
    report = validate(ds)
    assert report.ok
    assert report.flagged == ()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 3),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12),
    exponents=st.lists(st.floats(0.0, 20.0), min_size=12, max_size=12),
)
def test_stacked_z_ranks_match_per_cluster_matrix_rank(seed, q, sizes, exponents):
    # near-collinear Z_i: every column after the first is a multiple of the
    # first plus a perturbation of size 10^-exponent, from well separated to
    # below rounding; equal sizes share one stacked matrix_rank call
    rng = np.random.default_rng(seed)
    rows = []
    for i, (n_i, e) in enumerate(zip(sizes, exponents)):
        base = rng.normal(size=(n_i, 1))
        z = base * rng.normal(size=q) + 10.0**-e * rng.normal(size=(n_i, q))
        z[:, 0] = base[:, 0]
        rows += [(f"c{i}", 0.1 * j, 1.0, [1.0], z[j]) for j in range(n_i)]
    ds = dataset_from_arrays(rows, p=1, q=q)
    per_cluster = [int(np.linalg.matrix_rank(c.Z)) for c in ds.clusters]
    assert _z_ranks(ds).tolist() == per_cluster
    assert [c.z_rank for c in validate(ds).checks] == per_cluster
