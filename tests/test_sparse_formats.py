"""Tests for repro.sparse formats and conversions, with scipy as oracle."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    coo_to_csc,
    csc_to_coo,
    transpose,
)
from repro.util.errors import ShapeError


def random_coo(rng, shape=(8, 6), nnz=20, allow_dups=True):
    r = rng.integers(0, shape[0], size=nnz)
    c = rng.integers(0, shape[1], size=nnz)
    v = rng.standard_normal(nnz)
    return COOMatrix(shape, r, c, v)


class TestCOO:
    def test_construct_and_nnz(self):
        m = COOMatrix((3, 3), [0, 1], [1, 2], [5.0, 6.0])
        assert m.nnz == 2
        assert m.shape == (3, 3)

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            COOMatrix((3, 3), [0, 1], [1], [5.0, 6.0])

    def test_out_of_range_row(self):
        with pytest.raises(ShapeError):
            COOMatrix((3, 3), [3], [0], [1.0])

    def test_out_of_range_col(self):
        with pytest.raises(ShapeError):
            COOMatrix((3, 3), [0], [-1], [1.0])

    def test_from_to_dense_roundtrip(self, rng):
        d = rng.standard_normal((5, 7))
        d[rng.random((5, 7)) < 0.5] = 0.0
        m = COOMatrix.from_dense(d)
        np.testing.assert_array_equal(m.to_dense(), d)

    def test_duplicates_sum_in_to_dense(self):
        m = COOMatrix((2, 2), [0, 0], [0, 0], [1.0, 2.0])
        assert m.to_dense()[0, 0] == 3.0

    def test_sum_duplicates(self):
        m = COOMatrix((2, 2), [0, 1, 0], [0, 1, 0], [1.0, 4.0, 2.0])
        s = m.sum_duplicates()
        assert s.nnz == 2
        np.testing.assert_array_equal(s.to_dense(), [[3.0, 0.0], [0.0, 4.0]])

    def test_sum_duplicates_sorted_order(self, rng):
        m = random_coo(rng, nnz=50)
        s = m.sum_duplicates()
        keys = s.row * m.shape[1] + s.col
        assert np.all(np.diff(keys) > 0)

    def test_empty(self):
        m = COOMatrix.empty((4, 4))
        assert m.nnz == 0
        np.testing.assert_array_equal(m.to_dense(), np.zeros((4, 4)))

    def test_repr(self):
        assert "COOMatrix" in repr(COOMatrix.empty((2, 2)))


class TestCSC:
    def test_from_dense_matches_scipy(self, rng):
        d = rng.standard_normal((7, 5))
        d[rng.random((7, 5)) < 0.6] = 0.0
        ours = CSCMatrix.from_dense(d)
        ref = sps.csc_matrix(d)
        np.testing.assert_array_equal(ours.indptr, ref.indptr)
        np.testing.assert_array_equal(ours.indices, ref.indices)
        np.testing.assert_allclose(ours.data, ref.data)

    def test_col_access(self):
        m = CSCMatrix.from_dense(np.array([[1.0, 0.0], [3.0, 0.0]]))
        rows, vals = m.col(0)
        assert rows.tolist() == [0, 1]
        assert vals.tolist() == [1.0, 3.0]
        rows, _ = m.col(1)
        assert rows.size == 0

    def test_diagonal(self):
        d = np.array([[2.0, 1.0], [1.0, 0.0]])
        m = CSCMatrix.from_dense(d)
        np.testing.assert_array_equal(m.diagonal(), [2.0, 0.0])

    def test_col_degrees(self):
        m = CSCMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert m.col_degrees().tolist() == [1, 2]

    def test_validation_unsorted_col(self):
        with pytest.raises(ShapeError):
            CSCMatrix((3, 1), [0, 2], [2, 0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "shape,indptr,indices,match",
        [
            ((2, 1), [1, 2], [0], r"indptr\[0\] must be 0"),
            ((2, 2), [0, 2, 1], [0, 1], "indptr decreases at column 1"),
            ((3, 2), [0, 1, 3], [2, 1, 0], "column 1 has unsorted"),
            ((3, 1), [0, 2], [1, 1], "column 0 has unsorted or duplicate"),
            ((3, 1), [0, 3], [0, 1], r"indptr\[-1\] = 3 but 2 indices"),
        ],
        ids=["bad_indptr_start", "decreasing_indptr", "unsorted_col", "duplicate_row", "indptr_tail"],
    )
    def test_validation_rejects(self, shape, indptr, indices, match):
        data = np.ones(len(indices))
        with pytest.raises(ShapeError, match=match):
            CSCMatrix(shape, indptr, indices, data)

    def test_validation_accepts_empty_columns(self):
        m = CSCMatrix((3, 4), [0, 0, 2, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m.col(1)[0], [0, 2])

    def test_copy_is_deep(self):
        m = CSCMatrix.from_dense(np.eye(3))
        c = m.copy()
        c.data[0] = 99.0
        assert m.data[0] == 1.0


class TestConversions:
    @pytest.mark.parametrize("shape,nnz", [((5, 5), 10), ((8, 3), 15), ((3, 9), 12), ((1, 1), 1)])
    def test_coo_csr_csc_roundtrips(self, rng, shape, nnz):
        """COO → CSC → COO, and through the CSR layout (the CSC of Aᵀ)."""
        m = random_coo(rng, shape, nnz)
        dense = m.to_dense()
        csc = coo_to_csc(m)
        csr = transpose(csc)
        np.testing.assert_allclose(csc.to_dense(), dense)
        np.testing.assert_allclose(csr.to_dense(), dense.T)
        assert csr.shape == shape[::-1]
        back = transpose(csr)
        np.testing.assert_array_equal(back.indptr, csc.indptr)
        np.testing.assert_array_equal(back.indices, csc.indices)
        np.testing.assert_array_equal(back.data, csc.data)
        np.testing.assert_allclose(csc_to_coo(csc).to_dense(), dense)

    def test_empty_matrix_conversions(self):
        m = COOMatrix.empty((4, 6))
        assert coo_to_csc(m).nnz == 0
        t = transpose(coo_to_csc(m))
        assert t.shape == (6, 4) and t.nnz == 0

    def test_coo_to_csc_canonical(self, rng):
        m = random_coo(rng, (10, 10), 40)
        csc = coo_to_csc(m)
        for j in range(10):
            rows, _ = csc.col(j)
            assert np.all(np.diff(rows) > 0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_roundtrip_random(self, data):
        n_rows = data.draw(st.integers(1, 12), label="rows")
        n_cols = data.draw(st.integers(1, 12), label="cols")
        nnz = data.draw(st.integers(0, 30), label="nnz")
        r = data.draw(
            st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
        )
        c = data.draw(
            st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
        )
        v = data.draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=nnz, max_size=nnz
            )
        )
        m = COOMatrix((n_rows, n_cols), np.array(r, dtype=np.int64), np.array(c, dtype=np.int64), np.array(v))
        dense = m.to_dense()
        csc = coo_to_csc(m)
        np.testing.assert_allclose(csc.to_dense(), dense, atol=1e-12)
        np.testing.assert_allclose(transpose(csc).to_dense(), dense.T, atol=1e-12)
