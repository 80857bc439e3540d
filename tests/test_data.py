import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcre import (
    Cluster,
    CsvParseError,
    CsvSchema,
    DataValidationError,
    KernelSpec,
    LongitudinalDataset,
    ScenarioConfig,
    SchemaError,
    cluster_projections,
    generate,
    load_dataset,
    validate,
    write_dataset,
)

from helpers import (
    dataset_from_arrays,
    load_dataset_per_cell,
    random_dataset,
    same_bits,
    same_dataset,
)

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
    assert ds.z_ranks.tolist() == per_cluster
    assert [c.z_rank for c in validate(ds).checks] == per_cluster


def interleaved_csv(seed: int) -> str:
    """A written dataset with its data rows shuffled, so clusters interleave."""
    buf = io.StringIO()
    write_dataset(random_dataset(seed=seed, m=7, p=2, q=3, sigma=0.7), buf)
    header, *rows = buf.getvalue().splitlines()
    order = np.random.default_rng(seed).permutation(len(rows))
    return "\n".join([header] + [rows[k] for k in order]) + "\n"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_load_equals_per_cell_oracle_on_repr_floats(seed):
    text = interleaved_csv(seed)
    assert same_dataset(load_dataset(io.StringIO(text)), load_dataset_per_cell(io.StringIO(text)))


def test_load_equals_per_cell_oracle_on_hand_written_cells():
    text = (
        "cluster,u,y,x1,z1\n"
        "b,1e3, 2 ,-0.0,+.5\n"
        "\n"
        "a,.25,-1E-3,1_000,0.1\n"
        "b,-0.0,+7,3.,  -2.5e+2\n"
    )
    new, old = load_dataset(io.StringIO(text)), load_dataset_per_cell(io.StringIO(text))
    assert same_dataset(new, old)
    assert new.ids == ("b", "a")
    assert same_bits(new.X_all[0], np.array([-0.0]))


@pytest.mark.parametrize("row", [
    "b,0.3,nan,1.0,1.0",
    "b,0.3,1.0,inf,1.0",
    "b,0.3,1.0,1.0,-inf",
    "b,0.3,1.0,abc,1.0",
    "b,0.3,,1.0,1.0",
    ",0.3,1.0,1.0,1.0",
    "b,0.3,1.0",
    "b",
])
def test_bad_cells_fail_with_the_per_cell_message(row):
    # the bad row follows a blank line: line 4 of the file, the 3rd record
    text = f"cluster,u,y,x1,z1\na,0.1,1.0,1.0,1.0\n\n{row}\na,0.2,1.0,1.0,1.0\n"
    with pytest.raises(Exception) as new:
        load_dataset(io.StringIO(text))
    with pytest.raises(Exception) as old:
        load_dataset_per_cell(io.StringIO(text))
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)
    assert "row 4" in str(new.value) or "cluster b: non-finite" in str(new.value)


def test_first_bad_row_is_named():
    text = "cluster,u,y,x1,z1\na,0.1,1.0,1.0,1.0\nb,0.3,1.0,x,1.0\na,0.2,y,1.0,1.0\n"
    with pytest.raises(CsvParseError, match=r"^row 3: column 'x1': could not parse 'x'"):
        load_dataset(io.StringIO(text))


def test_columns_are_checked_once_with_the_cluster_message():
    sizes, n = [2, 3], 5
    u, y, X, Z = np.linspace(0, 1, n), np.zeros(n), np.ones((n, 1)), np.ones((n, 1))
    X[3, 0] = np.nan
    y[4] = np.inf
    with pytest.raises(DataValidationError, match="cluster b: non-finite value in y"):
        LongitudinalDataset.from_columns(["a", "b"], sizes, u, y, X, Z)
    with pytest.raises(DataValidationError, match="cluster b: needs at least one"):
        LongitudinalDataset.from_columns(["a", "b"], [5, 0], u, y, X, Z)
    X[3, 0] = 1.0
    y[4] = 0.0
    ds = LongitudinalDataset.from_columns(["a", "b"], sizes, u, y, X, Z)
    assert [c.n for c in ds.clusters] == sizes
    assert not ds.y_all.flags.writeable


def test_cluster_built_dataset_equals_column_built():
    ds = generate(ScenarioConfig(seed=4, m=12, Sigma=np.eye(3)), 0)
    from_clusters = LongitudinalDataset(
        [Cluster(c.id, c.u.copy(), c.y.copy(), c.X.copy(), c.Z.copy()) for c in ds.clusters],
        p=2, q=3,
    )
    assert same_dataset(from_clusters, ds)
    assert [c.id for c in from_clusters.clusters] == list(ds.ids)


def test_z_ranks_computed_once_per_dataset(monkeypatch):
    # validate and the variance stage share one rank computation
    ds = random_dataset(seed=5, m=8, n_range=(4, 6))
    calls = []
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: calls.append(1) or rank(a))
    validate(ds)
    cluster_projections(ds)
    assert len(calls) == np.unique(np.diff(ds.offsets)).size


def test_fit_path_builds_no_cluster_objects():
    from vcre import compute_diagnostics, fit_pipeline

    ds = generate(ScenarioConfig(seed=6, m=30), 0)
    kernel = KernelSpec(bandwidth=0.2)
    compute_diagnostics(ds, kernel, fit_pipeline(ds, kernel))
    validate(ds)
    write_dataset(ds, io.StringIO())
    assert "clusters" not in vars(ds)
