"""Tests for repro.sparse.ops, permute, io_mm."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    matvec_csc,
    tril,
    transpose,
    full_symmetric_from_lower,
    is_structurally_symmetric,
    sym_matvec_lower,
    sym_matvec_lower_many,
    permute_symmetric_lower,
    read_matrix_market,
    write_matrix_market,
)
from repro.sparse.ops import norm_inf_csc, sym_norm_inf_lower
from repro.sparse.permute import (
    invert_permutation,
    permute_vector,
    unpermute_vector,
)
from repro.util.errors import ShapeError


def random_sparse_dense(rng, shape, density=0.4):
    d = rng.standard_normal(shape)
    d[rng.random(shape) >= density] = 0.0
    return d


class TestMatvec:
    def test_csc_matches_dense(self, rng):
        d = random_sparse_dense(rng, (6, 8))
        x = rng.standard_normal(8)
        m = CSCMatrix.from_dense(d)
        np.testing.assert_allclose(matvec_csc(m, x), d @ x)

    def test_empty_rows(self):
        d = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        m = CSCMatrix.from_dense(d)
        np.testing.assert_allclose(matvec_csc(m, np.array([1.0, 1.0])), [0.0, 3.0, 0.0])

    def test_zero_matrix(self):
        mc = CSCMatrix.from_dense(np.zeros((3, 3)))
        np.testing.assert_array_equal(matvec_csc(mc, np.ones(3)), np.zeros(3))

    def test_wrong_x_shape(self):
        m = CSCMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            matvec_csc(m, np.ones(4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 1000))
    def test_property_csr_csc_agree(self, nr, nc, seed):
        """The scatter product equals row-by-row dot products, which read
        the CSR layout (the CSC of Aᵀ)."""
        rng = np.random.default_rng(seed)
        d = random_sparse_dense(rng, (nr, nc))
        x = rng.standard_normal(nc)
        rows = transpose(CSCMatrix.from_dense(d))
        yr = np.array([vals @ x[cols] for cols, vals in map(rows.col, range(nr))])
        yc = matvec_csc(CSCMatrix.from_dense(d), x)
        np.testing.assert_allclose(yr, yc, atol=1e-12)


class TestTransposeTriangles:
    @staticmethod
    def upper(m, k=0):
        """Upper triangle through the lower one: ``triu(A, k) = tril(Aᵀ, -k)ᵀ``."""
        return transpose(tril(transpose(m), -k))

    def test_tril_triu(self, rng):
        d = random_sparse_dense(rng, (6, 6))
        m = CSCMatrix.from_dense(d)
        np.testing.assert_allclose(tril(m).to_dense(), np.tril(d))
        np.testing.assert_allclose(self.upper(m).to_dense(), np.triu(d))
        np.testing.assert_allclose(tril(m, k=-1).to_dense(), np.tril(d, -1))
        np.testing.assert_allclose(self.upper(m, k=1).to_dense(), np.triu(d, 1))

    def test_tril_triu_partition(self, rng):
        d = random_sparse_dense(rng, (6, 6))
        m = CSCMatrix.from_dense(d)
        total = tril(m, -1).to_dense() + self.upper(m).to_dense()
        np.testing.assert_allclose(total, d)

    def test_transpose_of_rectangular(self, rng):
        d = random_sparse_dense(rng, (4, 7))
        t = transpose(CSCMatrix.from_dense(d))
        assert t.shape == (7, 4)
        np.testing.assert_array_equal(t.to_dense(), d.T)


class TestSymmetry:
    def test_is_structurally_symmetric_true(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert is_structurally_symmetric(CSCMatrix.from_dense(d))

    def test_is_structurally_symmetric_false(self):
        d = np.array([[1.0, 2.0], [0.0, 4.0]])
        assert not is_structurally_symmetric(CSCMatrix.from_dense(d))

    def test_not_square(self):
        d = np.ones((2, 3))
        assert not is_structurally_symmetric(CSCMatrix.from_dense(d))

    def test_full_from_lower(self, rng):
        d = random_sparse_dense(rng, (6, 6))
        sym = (d + d.T) / 2
        np.fill_diagonal(sym, 1.0)
        lower = CSCMatrix.from_dense(np.tril(sym))
        np.testing.assert_allclose(full_symmetric_from_lower(lower).to_dense(), sym)

    def test_sym_matvec_lower(self, rng):
        d = random_sparse_dense(rng, (8, 8))
        sym = d + d.T
        np.fill_diagonal(sym, 3.0)
        lower = CSCMatrix.from_dense(np.tril(sym))
        x = rng.standard_normal(8)
        np.testing.assert_allclose(sym_matvec_lower(lower, x), sym @ x)

    def test_sym_matvec_lower_empty(self):
        lower = CSCMatrix.from_dense(np.zeros((3, 3)))
        np.testing.assert_array_equal(sym_matvec_lower(lower, np.ones(3)), np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 1000))
    def test_property_sym_matvec(self, n, seed):
        rng = np.random.default_rng(seed)
        d = random_sparse_dense(rng, (n, n))
        sym = d + d.T
        lower = CSCMatrix.from_dense(np.tril(sym))
        x = rng.standard_normal(n)
        np.testing.assert_allclose(sym_matvec_lower(lower, x), sym @ x, atol=1e-10)


class TestCompiledMatvec:
    """The plan-based matvecs and norms against the ``np.add.at`` /
    ``np.bincount`` scatters they replace, bit for bit."""

    @staticmethod
    def scatter_sym(lower, x):
        n = lower.shape[0]
        col = np.repeat(np.arange(n), np.diff(lower.indptr))
        rows, vals = lower.indices, lower.data
        vals = vals if x.ndim == 1 else vals[:, None]
        y = np.zeros((n,) + x.shape[1:])
        np.add.at(y, rows, vals * x[col])
        off = rows != col
        np.add.at(y, col[off], vals[off] * x[rows[off]])
        return y

    @staticmethod
    def scatter_csc(a, x):
        col = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
        y = np.zeros((a.shape[0],) + x.shape[1:])
        np.add.at(y, a.indices, (a.data if x.ndim == 1 else a.data[:, None]) * x[col])
        return y

    @staticmethod
    def sparse(seed, shape, density, empty_cols):
        """A random pattern, its first *empty_cols* columns emptied; with
        density 0, the all-zero matrix (no stored entry)."""
        rng = np.random.default_rng(seed)
        d = random_sparse_dense(rng, shape, density)
        d[:, :empty_cols] = 0.0
        return d, rng

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 14),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        st.integers(0, 3),
        st.sampled_from([None, 1, 4]),
    )
    def test_symmetric_matches_the_scatter(self, n, seed, density, empty_cols, k):
        d, rng = self.sparse(seed, (n, n), density, empty_cols)
        lower = CSCMatrix.from_dense(np.tril(d))
        x = rng.standard_normal(n if k is None else (n, k))
        want = self.scatter_sym(lower, x)
        got = sym_matvec_lower(lower, x) if k is None else sym_matvec_lower_many(lower, x)
        assert got.tobytes() == want.tobytes()
        absv = np.abs(lower.data)
        col = np.repeat(np.arange(n), np.diff(lower.indptr))
        off = lower.indices != col
        sums = np.bincount(
            np.concatenate([lower.indices, col[off]]),
            weights=np.concatenate([absv, absv[off]]),
            minlength=n,
        )
        norm = float(sums.max()) if lower.nnz else 0.0
        assert np.float64(sym_norm_inf_lower(lower)).tobytes() == np.float64(norm).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.2, 0.6]),
        st.integers(0, 3),
        st.sampled_from([None, 1, 5]),
    )
    def test_general_matches_the_scatter(self, nr, nc, seed, density, empty_cols, k):
        d, rng = self.sparse(seed, (nr, nc), density, empty_cols)
        a = CSCMatrix.from_dense(d)
        x = rng.standard_normal(nc if k is None else (nc, k))
        assert matvec_csc(a, x).tobytes() == self.scatter_csc(a, x).tobytes()
        sums = np.bincount(a.indices, weights=np.abs(a.data), minlength=nr)
        norm = float(sums.max()) if a.nnz else 0.0
        assert np.float64(norm_inf_csc(a)).tobytes() == np.float64(norm).tobytes()

    def test_the_analysis_plan_is_checked_against_its_operand(self):
        from repro.check import sanitize
        from repro.symbolic import analyze
        from repro.util.errors import InvariantError

        d = np.tril(4 * np.eye(4) + np.eye(4, k=-1) + np.eye(4, k=-2))
        lower = CSCMatrix.from_dense(d)
        plan = analyze(lower, np.arange(4)).matvec_plan
        x = np.arange(4.0)
        assert sym_matvec_lower(lower, x, plan).tobytes() == self.scatter_sym(lower, x).tobytes()
        fewer = CSCMatrix.from_dense(np.tril(4 * np.eye(4) + np.eye(4, k=-1)))
        with pytest.raises(InvariantError):
            sym_matvec_lower(fewer, x, plan)
        # as many entries on another pattern: only the full check sees it
        d[2, 0], d[3, 0] = 0.0, 1.0
        moved = CSCMatrix.from_dense(d)
        assert moved.nnz == lower.nnz
        with sanitize.sanitized(True), pytest.raises(InvariantError):
            sym_matvec_lower(moved, x, plan)


class TestPermute:
    def test_invert_permutation(self):
        p = np.array([2, 0, 1], dtype=np.int64)
        inv = invert_permutation(p)
        np.testing.assert_array_equal(inv[p], np.arange(3))

    def test_permute_unpermute_vector(self, rng):
        x = rng.standard_normal(5)
        p = rng.permutation(5)
        np.testing.assert_allclose(unpermute_vector(permute_vector(x, p), p), x)

    def test_permute_symmetric_lower(self, rng):
        d = random_sparse_dense(rng, (7, 7))
        sym = d + d.T
        np.fill_diagonal(sym, 5.0)
        lower = CSCMatrix.from_dense(np.tril(sym))
        p = rng.permutation(7)
        out = permute_symmetric_lower(lower, p)
        expected = np.tril(sym[np.ix_(p, p)])
        np.testing.assert_allclose(out.to_dense(), expected)

    def test_permute_symmetric_identity(self, rng):
        d = np.tril(random_sparse_dense(rng, (5, 5)))
        np.fill_diagonal(d, 1.0)
        lower = CSCMatrix.from_dense(d)
        out = permute_symmetric_lower(lower, np.arange(5))
        np.testing.assert_allclose(out.to_dense(), d)

    def test_bad_permutation(self, rng):
        lower = CSCMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            permute_symmetric_lower(lower, [0, 0, 1])


class TestMatrixMarket:
    def test_roundtrip_general(self, rng, tmp_path):
        d = random_sparse_dense(rng, (5, 4))
        path = tmp_path / "m.mtx"
        write_matrix_market(path, COOMatrix.from_dense(d))
        out, info = read_matrix_market(path)
        assert info["symmetry"] == "general"
        np.testing.assert_allclose(out.to_dense(), d)

    def test_symmetric_write_read(self, rng, tmp_path):
        d = random_sparse_dense(rng, (5, 5))
        sym = d + d.T
        np.fill_diagonal(sym, 2.0)
        lower = COOMatrix.from_dense(np.tril(sym))
        path = tmp_path / "m.mtx"
        write_matrix_market(path, lower, symmetric=True)
        coo, info = read_matrix_market(path)
        assert info["symmetry"] == "symmetric"
        np.testing.assert_allclose(coo.to_dense(), sym)

    def test_symmetric_write_rejects_upper(self):
        m = COOMatrix((2, 2), [0], [1], [1.0])
        with pytest.raises(ShapeError):
            write_matrix_market(io.StringIO(), m, symmetric=True)

    def test_pattern_read(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
        coo, info = read_matrix_market(io.StringIO(text))
        assert info["field"] == "pattern"
        np.testing.assert_allclose(coo.to_dense(), np.eye(2))

    def test_comment_lines_skipped(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n% another\n1 1 1\n1 1 3.5\n"
        )
        coo, _ = read_matrix_market(io.StringIO(text))
        assert coo.to_dense()[0, 0] == 3.5

    def test_bad_header(self):
        with pytest.raises(ShapeError):
            read_matrix_market(io.StringIO("garbage\n"))

    def test_unsupported_field(self):
        text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"
        with pytest.raises(ShapeError):
            read_matrix_market(io.StringIO(text))

    def test_scipy_interop(self, rng, tmp_path):
        """Files we write parse identically under scipy's reader."""
        import scipy.io as sio

        d = random_sparse_dense(rng, (6, 6))
        m = COOMatrix.from_dense(d)
        path = tmp_path / "interop.mtx"
        write_matrix_market(path, m)
        ref = sio.mmread(str(path)).toarray()
        np.testing.assert_allclose(ref, d)


class TestMatrixMarketMalformed:
    """Malformed / truncated coordinate files must raise ShapeError naming
    the offending line, never a bare IndexError/ValueError."""

    HEADER = "%%MatrixMarket matrix coordinate real general\n"

    def read(self, text):
        return read_matrix_market(io.StringIO(text))

    def test_blank_lines_are_skipped(self):
        text = (
            self.HEADER
            + "\n% a comment\n\n2 2 2\n\n1 1 1.5\n\n\n2 2 2.5\n"
        )
        coo, _ = self.read(text)
        np.testing.assert_allclose(coo.to_dense(), np.diag([1.5, 2.5]))

    def test_truncated_entries_name_missing_entry(self):
        with pytest.raises(ShapeError, match="entry 2 of 3"):
            self.read(self.HEADER + "2 2 3\n1 1 1.0\n")

    def test_missing_size_line(self):
        with pytest.raises(ShapeError, match="truncated"):
            self.read(self.HEADER + "% only comments follow\n")

    def test_short_entry_names_line(self):
        with pytest.raises(ShapeError, match="line 4"):
            self.read(self.HEADER + "2 2 2\n1 1 1.0\n2 2\n")

    def test_pattern_entry_needs_two_tokens(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n"
        with pytest.raises(ShapeError, match="line 3"):
            self.read(text)

    def test_size_line_token_count(self):
        with pytest.raises(ShapeError, match="size line"):
            self.read(self.HEADER + "2 2\n")

    def test_size_line_non_integer(self):
        with pytest.raises(ShapeError, match="integers"):
            self.read(self.HEADER + "2 2 one\n")

    def test_non_numeric_entry_names_line(self):
        with pytest.raises(ShapeError, match="line 4"):
            self.read(self.HEADER + "% c\n1 1 1\n1 x 3.5\n")

    def test_blank_lines_do_not_shift_error_line_numbers(self):
        with pytest.raises(ShapeError, match="line 6"):
            self.read(self.HEADER + "\n\n2 2 2\n1 1 1.0\n2 2\n")

    @pytest.mark.parametrize("size", ["-2 2 1", "2 -2 1", "2 2 -1"])
    def test_negative_size_rejected(self, size):
        with pytest.raises(ShapeError, match="line 2: size line values must be non-negative"):
            self.read(self.HEADER + size + "\n1 1 1.0\n")

    def test_entries_beyond_declared_count_rejected(self):
        with pytest.raises(ShapeError, match="line 6: more entries than the 2 the size line declares"):
            self.read(self.HEADER + "2 2 2\n1 1 1.0\n2 2 2.0\n% c\n1 2 5.0\n")

    def test_trailing_comments_and_blank_lines_accepted(self):
        coo, _ = self.read(self.HEADER + "1 1 1\n1 1 3.5\n\n% trailing comment\n\n")
        assert coo.to_dense()[0, 0] == 3.5

    def test_symmetric_must_be_square(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n1 1 1.0\n"
        with pytest.raises(ShapeError, match="symmetric matrix must be square"):
            self.read(text)
