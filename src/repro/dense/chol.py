"""Dense Cholesky factorization (lower, in place, blocked).

The unblocked kernel is a vectorized left-looking loop; the blocked driver
applies it to diagonal panels and uses matrix products for the off-diagonal
panels — the same structure a LAPACK ``potrf`` has, expressed in numpy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.errors import NotPositiveDefiniteError, ShapeError

#: default blocking factor for the panel sweep
DEFAULT_BLOCK = 64


def _cholesky_unblocked(a: np.ndarray, col_offset: int = 0) -> None:
    """In-place lower Cholesky of a small square block.

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


def cholesky_in_place(a: np.ndarray, block: int = DEFAULT_BLOCK) -> None:
    """Factor SPD *a* as L·Lᵀ, overwriting its lower triangle with L.

    The strictly upper triangle is left untouched (callers treat it as
    garbage). Raises :class:`NotPositiveDefiniteError` on a non-positive
    pivot.
    """
    n = _check_square(a)
    if block < 1:
        raise ShapeError("block must be >= 1")
    for k in range(0, n, block):
        kb = min(block, n - k)
        _cholesky_unblocked(a[k: k + kb, k: k + kb], col_offset=k)
        if k + kb < n:
            # Panel solve: A[k+kb:, k:k+kb] <- A[k+kb:, k:k+kb] L_kk^{-T}
            lkk = a[k: k + kb, k: k + kb]
            panel = a[k + kb:, k: k + kb]
            _trsm_right_lower_transpose(lkk, panel)
            # Trailing symmetric update (lower triangle only by blocks).
            trail = a[k + kb:, k + kb:]
            trail -= panel @ panel.T
    # Note: the trailing update writes the full square; only the lower
    # triangle is meaningful, matching the contract above.


def cholesky(a: np.ndarray, block: int = DEFAULT_BLOCK) -> np.ndarray:
    """Return the lower Cholesky factor of SPD *a* (input unchanged)."""
    work = np.array(a, dtype=np.float64, copy=True)
    cholesky_in_place(work, block=block)
    return np.tril(work)


def _trsm_right_lower_transpose(l: np.ndarray, b: np.ndarray) -> None:
    """B <- B L^{-T} in place, L lower-triangular (non-unit diagonal).

    Column-sweep formulation so each column update is one BLAS-2 call.
    """
    k = l.shape[0]
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
