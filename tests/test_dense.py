"""Tests for repro.dense kernels against numpy/scipy oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from repro.dense import (
    cholesky,
    cholesky_in_place,
    ldlt,
    ldlt_in_place,
    solve_lower_inplace,
    solve_lower_transpose_outer_inplace,
    solve_unit_lower_inplace,
    solve_unit_lower_transpose_outer_inplace,
    syrk_lower_update,
    partial_cholesky,
    partial_ldlt,
)
from repro.dense.chol import LAPACK_MIN_PIVOTS, _trsm_right_lower_transpose
from repro.dense.partial_factor import _trsm_right_unit_lower_transpose
from repro.dense.syrk import syrk_lower_update_scaled
from repro.dense.trsm import lower_inverses
from repro.util.errors import NotPositiveDefiniteError, ShapeError, SingularMatrixError


def spd(rng, n, shift=None):
    a = rng.standard_normal((n, n))
    m = a @ a.T
    m += (shift if shift is not None else n) * np.eye(n)
    return m


class TestCholesky:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 100])
    def test_matches_numpy(self, rng, n):
        a = spd(rng, n)
        l = cholesky(a)
        np.testing.assert_allclose(l, np.linalg.cholesky(a), rtol=1e-10, atol=1e-10)

    def test_in_place_overwrites_lower(self, rng):
        a = spd(rng, 10)
        work = a.copy()
        cholesky_in_place(work)
        np.testing.assert_allclose(
            np.tril(work), np.linalg.cholesky(a), rtol=1e-10, atol=1e-10
        )

    def test_not_pd_raises_with_column(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as ei:
            cholesky(a)
        assert ei.value.column == 1

    def test_not_pd_in_blocked_region(self, rng):
        a = spd(rng, 80)
        a[70, 70] = -1e6
        with pytest.raises(NotPositiveDefiniteError) as ei:
            cholesky(a)
        assert ei.value.column == 70

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_pivot_on_lapack_path(self, rng, bad, dtype):
        # OpenBLAS potrf returns a NaN factor for a NaN pivot without
        # flagging it; the kernel must raise the typed error instead.
        n = LAPACK_MIN_PIVOTS + 16
        a = spd(rng, n).astype(dtype)
        a[12, 12] = bad
        with pytest.raises(NotPositiveDefiniteError) as ei:
            cholesky_in_place(a, col_offset=100)
        assert ei.value.column == 112

    def test_reads_only_the_lower_triangle(self, rng):
        a = spd(rng, LAPACK_MIN_PIVOTS + 9)
        poisoned = a.copy()
        poisoned[np.triu_indices_from(a, 1)] = np.nan
        cholesky_in_place(a)
        cholesky_in_place(poisoned)
        assert np.array_equal(np.tril(a), np.tril(poisoned))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            cholesky_in_place(np.ones((2, 3)))

    def test_rejects_non_working_dtype(self):
        # float32 is a valid working dtype now; float16 is still rejected.
        with pytest.raises(ShapeError):
            cholesky_in_place(np.eye(3, dtype=np.float16))

    def test_fp32_matches_fp64_shape_contract(self):
        a = np.eye(3, dtype=np.float32)
        cholesky_in_place(a)
        assert a.dtype == np.float32

    def test_empty_matrix(self):
        a = np.zeros((0, 0))
        cholesky_in_place(a)  # no-op

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 24), st.integers(0, 10_000))
    def test_property_reconstruction(self, n, seed):
        rng = np.random.default_rng(seed)
        a = spd(rng, n)
        l = cholesky(a)
        np.testing.assert_allclose(l @ l.T, a, rtol=1e-9, atol=1e-9)
        assert np.all(np.diag(l) > 0)


class TestLDLT:
    @pytest.mark.parametrize("n", [1, 2, 8, 30])
    def test_reconstruction_spd(self, rng, n):
        a = spd(rng, n)
        l, d = ldlt(a)
        np.testing.assert_allclose(l @ np.diag(d) @ l.T, a, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(np.diag(l), 1.0)

    def test_indefinite_strongly_regular(self):
        # Symmetric indefinite with non-zero leading minors.
        a = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, 4.0]])
        l, d = ldlt(a)
        np.testing.assert_allclose(l @ np.diag(d) @ l.T, a, rtol=1e-10, atol=1e-12)
        assert (d < 0).any()

    def test_zero_pivot_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError) as ei:
            ldlt(a)
        assert ei.value.column == 0

    def test_matches_scipy_ldl_spd(self, rng):
        a = spd(rng, 12)
        l, d = ldlt(a)
        lu, ds, _ = scipy.linalg.ldl(a, lower=True)
        # scipy may permute; for SPD diagonally dominant it should not.
        np.testing.assert_allclose(l, lu, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(d, np.diag(ds), rtol=1e-8, atol=1e-8)

    def test_in_place_returns_diag(self, rng):
        a = spd(rng, 6)
        work = a.copy()
        d = ldlt_in_place(work)
        np.testing.assert_allclose(np.diagonal(work), d)


class TestTrsm:
    @pytest.mark.parametrize("nrhs", [None, 1, 4])
    def test_forward(self, rng, nrhs):
        l = np.tril(rng.standard_normal((8, 8))) + 4 * np.eye(8)
        b = rng.standard_normal(8) if nrhs is None else rng.standard_normal((8, nrhs))
        x = b.copy()
        solve_lower_inplace(l, x)
        np.testing.assert_allclose(l @ x, b, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_backward_transpose(self, rng, nrhs):
        l = np.tril(rng.standard_normal((8, 8))) + 4 * np.eye(8)
        b = rng.standard_normal(8) if nrhs is None else rng.standard_normal((8, nrhs))
        x = b.copy()
        solve_lower_transpose_outer_inplace(l, x)
        np.testing.assert_allclose(l.T @ x, b, rtol=1e-10, atol=1e-10)

    def test_unit_forward(self, rng):
        l = np.tril(rng.standard_normal((7, 7)), -1) + np.eye(7)
        b = rng.standard_normal(7)
        x = b.copy()
        solve_unit_lower_inplace(l, x)
        np.testing.assert_allclose(l @ x, b, rtol=1e-10, atol=1e-10)

    def test_unit_backward(self, rng):
        l = np.tril(rng.standard_normal((7, 7)), -1) + np.eye(7)
        b = rng.standard_normal(7)
        x = b.copy()
        solve_unit_lower_transpose_outer_inplace(l, x)
        np.testing.assert_allclose(l.T @ x, b, rtol=1e-10, atol=1e-10)

    def test_unit_ignores_diagonal_values(self, rng):
        l = np.tril(rng.standard_normal((5, 5)), -1)
        l_garbage = l + np.diag(rng.standard_normal(5))
        b = rng.standard_normal(5)
        x1, x2 = b.copy(), b.copy()
        solve_unit_lower_inplace(l + np.eye(5), x1)
        solve_unit_lower_inplace(l_garbage, x2)
        np.testing.assert_allclose(x1, x2)

    @pytest.mark.parametrize("k", [LAPACK_MIN_PIVOTS - 1, LAPACK_MIN_PIVOTS + 7])
    def test_panel_solves_read_only_the_lower_triangle(self, rng, k):
        l = np.tril(rng.standard_normal((k, k))) + k * np.eye(k)
        garbage = l + np.triu(rng.standard_normal((k, k)), 1)
        unit = np.tril(l, -1) + np.eye(k)
        b = rng.standard_normal((9, k))
        x, xu = b.copy(), b.copy()
        _trsm_right_lower_transpose(garbage, x)
        _trsm_right_unit_lower_transpose(garbage, xu)
        np.testing.assert_allclose(x @ l.T, b, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(xu @ unit.T, b, rtol=1e-10, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_lower_inplace(np.eye(3), np.ones(4))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("unit", [False, True])
    def test_lower_inverses(self, rng, unit, dtype):
        b = 7
        l = np.tril(rng.standard_normal((5, b, b))) + b * np.eye(b)
        garbage = (l + np.triu(rng.standard_normal((5, b, b)), 1)).astype(dtype)
        inv = lower_inverses(garbage, unit=unit)
        assert inv.dtype == dtype
        tri = np.tril(l, -1) + np.eye(b) if unit else l
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(inv @ tri, np.broadcast_to(np.eye(b), tri.shape), atol=tol)

    def test_lower_inverses_bits_do_not_depend_on_the_stack(self, rng):
        """Each inverse is the one its matrix gets alone, also when padded
        with the identity to a larger order."""
        l = np.tril(rng.standard_normal((6, 5, 5))) + 5 * np.eye(5)
        stacked = lower_inverses(l)
        padded = np.zeros((6, 8, 8))
        padded[:, range(8), range(8)] = 1.0
        padded[:, :5, :5] = l
        padded_inv = lower_inverses(padded)
        for i in range(6):
            alone = lower_inverses(l[i:i + 1])[0]
            assert alone.tobytes() == stacked[i].tobytes()
            assert alone.tobytes() == np.ascontiguousarray(padded_inv[i, :5, :5]).tobytes()
        with pytest.raises(ShapeError):
            solve_lower_inplace(np.ones((2, 3)), np.ones(2))


class TestSyrk:
    def test_update(self, rng):
        c = rng.standard_normal((6, 6))
        a = rng.standard_normal((6, 3))
        expected = c - a @ a.T
        syrk_lower_update(c, a)
        np.testing.assert_allclose(c, expected)

    def test_scaled_update(self, rng):
        c = rng.standard_normal((5, 5))
        a = rng.standard_normal((5, 2))
        d = np.array([2.0, -3.0])
        expected = c - a @ np.diag(d) @ a.T
        syrk_lower_update_scaled(c, a, d)
        np.testing.assert_allclose(c, expected)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            syrk_lower_update(np.ones((2, 3)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            syrk_lower_update(np.eye(3), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            syrk_lower_update_scaled(np.eye(3), np.ones((3, 2)), np.ones(3))


class TestPartialFactor:
    @pytest.mark.parametrize("m,k", [(6, 2), (10, 10), (8, 0), (5, 1), (40, 13)])
    def test_partial_cholesky_blocks(self, rng, m, k):
        a = spd(rng, m)
        front = a.copy()
        partial_cholesky(front, k)
        if k == 0:
            np.testing.assert_allclose(front, a)
            return
        l_full = np.linalg.cholesky(a)
        np.testing.assert_allclose(
            np.tril(front[:k, :k]), l_full[:k, :k], rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(front[k:, :k], l_full[k:, :k], rtol=1e-9, atol=1e-9)
        # Schur complement oracle
        schur = a[k:, k:] - l_full[k:, :k] @ l_full[k:, :k].T
        np.testing.assert_allclose(
            np.tril(front[k:, k:]), np.tril(schur), rtol=1e-8, atol=1e-8
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    @pytest.mark.parametrize(
        "m,k", [(9, LAPACK_MIN_PIVOTS - 1), (12, LAPACK_MIN_PIVOTS), (60, 25), (30, 30)]
    )
    def test_matches_the_column_loop(self, rng, method, dtype, m, k):
        """The LAPACK/GEMM path agrees with the plain right-looking column
        loop it replaced, to a tolerance fixed by the working dtype."""
        a = spd(rng, m).astype(dtype)
        ref = a.copy()
        for j in range(k):
            if method == "cholesky":
                ref[j, j] = np.sqrt(ref[j, j])
            col = ref[j + 1:, j] / ref[j, j]
            other = col if method == "cholesky" else ref[j + 1:, j]
            ref[j + 1:, j + 1:] -= col[:, None] * other
            ref[j + 1:, j] = col
        got = a.copy()
        if method == "cholesky":
            partial_cholesky(got, k)
        else:
            partial_ldlt(got, k)
        tol = 100 * m * np.finfo(dtype).eps
        np.testing.assert_allclose(np.tril(got), np.tril(ref), rtol=tol, atol=tol)

    def test_partial_cholesky_out_of_range(self, rng):
        with pytest.raises(ShapeError):
            partial_cholesky(spd(rng, 4), 5)

    @pytest.mark.parametrize("m,k", [(6, 2), (9, 9), (7, 3)])
    def test_partial_ldlt_blocks(self, rng, m, k):
        a = spd(rng, m)
        front = a.copy()
        d = partial_ldlt(front, k)
        l11 = np.tril(front[:k, :k], -1) + np.eye(k)
        np.testing.assert_allclose(
            l11 @ np.diag(d) @ l11.T, a[:k, :k], rtol=1e-9, atol=1e-9
        )
        if k < m:
            l21 = front[k:, :k]
            np.testing.assert_allclose(
                l21 @ np.diag(d) @ l11.T, a[k:, :k], rtol=1e-8, atol=1e-8
            )
            schur = a[k:, k:] - l21 @ np.diag(d) @ l21.T
            np.testing.assert_allclose(
                np.tril(front[k:, k:]), np.tril(schur), rtol=1e-8, atol=1e-8
            )

    def test_partial_consistency_chol_vs_ldlt(self, rng):
        """For SPD fronts, L_chol = L_ldlt @ sqrt(D)."""
        a = spd(rng, 8)
        f1, f2 = a.copy(), a.copy()
        partial_cholesky(f1, 3)
        d = partial_ldlt(f2, 3)
        l11c = np.tril(f1[:3, :3])
        l11d = np.tril(f2[:3, :3], -1) + np.eye(3)
        np.testing.assert_allclose(l11c, l11d * np.sqrt(d)[None, :], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            np.tril(f1[3:, 3:]), np.tril(f2[3:, 3:]), rtol=1e-8, atol=1e-8
        )
