import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcre import DataValidationError, SymMatrix
from vcre.symmat import _vech_pairs, nearest_psd, symmetrize, vech


def brute_force_vech(a):
    # index walk straight from the definition: column j, rows j..q-1
    q = a.shape[0]
    out = []
    for j in range(q):
        for i in range(j, q):
            out.append(a[i, j])
    return np.array(out)


def duplication_from_pairs(q):
    """Dense q^2 x q(q+1)/2 zero-one matrix with a 1 at both vec positions of each entry."""
    ij, ji = _vech_pairs(q)
    r = np.zeros((q * q, ij.size))
    cols = np.arange(ij.size)
    r[ij, cols] = 1.0
    r[ji, cols] = 1.0
    return r


def random_symmetric(rng, q):
    b = rng.normal(size=(q, q))
    return b + b.T


def test_vech_2x2():
    assert np.array_equal(vech(np.array([[1.0, 2.0], [2.0, 3.0]])), [1.0, 2.0, 3.0])


def test_vech_identity3():
    assert np.array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])


def test_vech_matches_index_walk():
    rng = np.random.default_rng(42)
    a = random_symmetric(rng, 4)
    assert np.array_equal(vech(a), brute_force_vech(a))


def test_duplication_q1():
    ij, ji = _vech_pairs(1)
    assert np.array_equal(ij, [0]) and np.array_equal(ji, [0])


def test_duplication_q2_mapping():
    r = duplication_from_pairs(2)
    assert np.array_equal(r @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 2.0, 3.0])


def test_duplication_one_per_row():
    for q in range(1, 6):
        r = duplication_from_pairs(q)
        assert np.array_equal(np.sum(r, axis=1), np.ones(q * q))
        assert set(np.unique(r)) <= {0.0, 1.0}


@settings(deadline=None, max_examples=60)
@given(
    q=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_vec_equals_dup_times_vech(q, seed):
    a = random_symmetric(np.random.default_rng(seed), q)
    ij, ji = _vech_pairs(q)
    # both positions of each entry hold the same value, so equality is exact
    vec = a.ravel(order="F")
    assert np.array_equal(vec[ij], vech(a))
    assert np.array_equal(vec[ji], vech(a))
    assert np.array_equal(vec, duplication_from_pairs(q) @ vech(a))


def test_dup_gram_diagonal_entries():
    for q in range(1, 6):
        r = duplication_from_pairs(q)
        gram = r.T @ r
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        assert set(np.unique(np.diag(gram))) <= {1.0, 2.0}


def test_dup_pinv_identity():
    rng = np.random.default_rng(9)
    for q in (1, 2, 3):
        a = random_symmetric(rng, q)
        ij, ji = _vech_pairs(q)
        vec = a.ravel(order="F")
        assert np.allclose(0.5 * (vec[ij] + vec[ji]), vech(a), atol=1e-14)


def test_symmetrize_rejects_asymmetry():
    a = np.array([[1.0, 2.0], [2.1, 3.0]])
    with pytest.raises(DataValidationError):
        symmetrize(a)


def test_symmetrize_accepts_small_drift():
    a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    out = symmetrize(a)
    assert out[0, 1] == out[1, 0]


def test_sym_matrix_dim():
    s = SymMatrix(np.eye(3))
    assert s.dim == 3
    assert np.array_equal(np.asarray(s), np.eye(3))


def test_nearest_psd_noop_on_psd():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(3, 3))
    a = b @ b.T
    assert np.array_equal(nearest_psd(a), 0.5 * (a + a.T))


def test_nearest_psd_matches_eigen_oracle():
    rng = np.random.default_rng(11)
    for q in (2, 3):
        for _ in range(20):
            a = random_symmetric(rng, q)
            got = nearest_psd(a)
            w, v = np.linalg.eigh(a)
            oracle = v @ np.diag(np.maximum(w, 0.0)) @ v.T
            assert np.allclose(got, oracle, atol=1e-12)
            assert np.linalg.eigvalsh(got).min() >= -1e-12


def test_nearest_psd_frobenius_minimality():
    # the eigenvalue clip must beat random PSD candidates in Frobenius distance
    rng = np.random.default_rng(17)
    a = random_symmetric(rng, 3) - 2.0 * np.eye(3)  # force negative eigenvalues
    proj = nearest_psd(a)
    d_proj = np.linalg.norm(proj - a)
    for _ in range(50):
        b = rng.normal(size=(3, 3))
        candidate = b @ b.T
        assert d_proj <= np.linalg.norm(candidate - a) + 1e-12
