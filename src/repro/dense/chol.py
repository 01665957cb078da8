"""Dense Cholesky factorization (lower, in place).

A pivot block of at least :data:`LAPACK_MIN_PIVOTS` columns is one LAPACK
``potrf`` through ``np.linalg.cholesky`` and a panel solve against it is
one GEMM against the inverse of the factor; narrower blocks keep the
vectorized column sweeps, which beat the fixed cost of a numpy LAPACK
call at one or two columns. Pivot failures are reported by the sweep in
both cases, so their type and column do not depend on the path taken.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.errors import NotPositiveDefiniteError, ShapeError

#: pivot count from which the kernels below call LAPACK/BLAS through numpy.
#: A module constant, not an option: it changes no result beyond rounding,
#: only where a few microseconds of wrapper cost stop paying for themselves
#: (measured in EXPERIMENTS.md "Warm path host cost — dense kernels").
LAPACK_MIN_PIVOTS = 4

#: width of the diagonal blocks of L11 whose inverses a factor keeps for
#: its triangular sweeps (:func:`repro.mf.numeric.diagonal_inverses`): a
#: pivot block of w ≥ :data:`LAPACK_MIN_PIVOTS` columns is solved with
#: ceil(w / SOLVE_BLOCK) gemvs on them plus one per block column of L11
#: below them. A module constant, not an option. Chosen on cube 16³, BLAS
#: on one thread, medians of 11 interleaved rounds (EXPERIMENTS.md "Solve
#: path host cost — sweeps on the diagonal-block inverses"): k = 1 /
#: k = 16 solves took 29.5 / 59.0 ms at 16, 21.5 / 43.2 at 24, 21.2 / 45.1
#: at 32, 28.1 / 50.4 at 48 and 25.8 / 50.8 at 128, while forming the
#: inverses grows from 3.5 ms at 16 and 4.9 at 32 to 15.5 at 128.
SOLVE_BLOCK = 32


def _cholesky_sweep(a: np.ndarray, col_offset: int = 0) -> None:
    """In-place lower Cholesky of a small square block, column by column.

    *col_offset* is only used to report the failing global column.
    """
    n = a.shape[0]
    for j in range(n):
        d = a[j, j]
        if d <= 0.0 or not math.isfinite(d):
            raise NotPositiveDefiniteError(
                f"non-positive pivot {d:.6g} at column {col_offset + j}",
                column=col_offset + j,
            )
        # Round the pivot to the working dtype before using it: the stored
        # L[j,j] and the divisor below must be the same number, or fp32
        # factors would be inconsistent with their own diagonal.
        d = a.dtype.type(math.sqrt(d))
        a[j, j] = d
        if j + 1 < n:
            a[j + 1:, j] /= d
            # Rank-1 trailing update restricted to the lower triangle: do a
            # full outer-product column sweep (cheap at block sizes).
            col = a[j + 1:, j]
            a[j + 1:, j + 1:] -= col[:, None] * col


def cholesky_in_place(a: np.ndarray, col_offset: int = 0) -> None:
    """Factor SPD *a* as L·Lᵀ, overwriting its lower triangle with L.

    Only the lower triangle is read; the strictly upper triangle is left
    unspecified. Raises :class:`NotPositiveDefiniteError` on a non-positive
    or non-finite pivot, with ``column`` = *col_offset* + its local index.
    """
    n = _check_square(a)
    if n < LAPACK_MIN_PIVOTS:
        _cholesky_sweep(a, col_offset)
        return
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        l = None
    # LAPACK's error names no column, and OpenBLAS potrf passes a NaN or
    # +Inf pivot through silently. np.linalg.cholesky leaves *a* intact, so
    # the sweep re-factors it from scratch and raises the typed error.
    if l is None or not np.isfinite(np.diagonal(l)).all():
        _cholesky_sweep(a, col_offset)
        return
    a[...] = l


def cholesky(a: np.ndarray) -> np.ndarray:
    """Return the lower Cholesky factor of SPD *a* (input unchanged)."""
    work = np.array(a, dtype=np.float64, copy=True)
    cholesky_in_place(work)
    return np.tril(work)


def _trsm_right_lower_transpose(l: np.ndarray, b: np.ndarray) -> None:
    """B <- B L^{-T} in place, L lower-triangular (non-unit diagonal).

    Only the lower triangle of *l* is read. From :data:`LAPACK_MIN_PIVOTS`
    columns on this is one GEMM against the inverse of L; below, a column
    sweep with one BLAS-2 call per column.
    """
    k = l.shape[0]
    if k >= LAPACK_MIN_PIVOTS:
        b[...] = b @ np.linalg.inv(np.tril(l)).T
        return
    for j in range(k):
        b[:, j] /= l[j, j]
        if j + 1 < k:
            # Remaining columns see the rank-1 correction from column j.
            b[:, j + 1:] -= b[:, j, None] * l[j + 1:, j]


#: dtypes the in-place kernels operate in: the canonical fp64 and the
#: reduced fp32 working precision of mixed-precision fronts
WORKING_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _check_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square 2-D array; got shape {a.shape}")
    if a.dtype not in WORKING_DTYPES:
        raise ShapeError(
            "in-place kernels require a float64 or float32 working array; "
            f"got dtype {a.dtype}"
        )
    return a.shape[0]


def _check_consistent(work: np.ndarray, *others: np.ndarray) -> None:
    """All operands of an in-place kernel must share the working dtype.

    Mixed fp32/fp64 operands would silently upcast intermediate products
    and break both the memory win and the bitwise contracts, so they raise
    instead.
    """
    for o in others:
        if o.dtype != work.dtype:
            raise ShapeError(
                "in-place kernel operands must share one working dtype; "
                f"got {work.dtype} and {o.dtype}"
            )
