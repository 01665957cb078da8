"""Sparse matrix operations: matvec, the lower triangle, symmetric expansion.

These feed two consumers: the factorization layer (lower-triangle
extraction, structural-symmetry test) and the verification /
iterative-refinement path (symmetric matvec from the lower triangle only,
the general matvec and ∞-norm for LU).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import coo_to_csc, csc_to_coo, transpose
from repro.util.errors import ShapeError
from repro.util.validation import as_float_array


def matvec_csc(a: CSCMatrix, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for CSC *a* (scatter formulation).

    *x* is a vector ``(n,)`` or a panel ``(n, k)``. A panel takes one
    scatter pass, and ``np.add.at`` walks the same entry order for every
    column, so column *j* of the result is bitwise ``matvec_csc(a, x[:, j])``.
    """
    x = as_float_array(x, "x")
    n = a.shape[1]
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ShapeError(f"x must have shape ({n},) or ({n}, k); got {x.shape}")
    y = np.zeros((a.shape[0],) + x.shape[1:])
    if a.nnz == 0:
        return y
    col_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    vals = a.data if x.ndim == 1 else a.data[:, None]
    np.add.at(y, a.indices, vals * x[col_of])
    return y


def norm_inf_csc(a: CSCMatrix) -> float:
    """``‖A‖∞`` (max absolute row sum) of CSC *a*."""
    if a.nnz == 0:
        return 0.0
    return float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]).max())


def tril(a: CSCMatrix, k: int = 0) -> CSCMatrix:
    """Lower triangle of *a*: entries with ``row >= col - k``."""
    cols = np.repeat(np.arange(a.shape[1], dtype=np.int64), np.diff(a.indptr))
    keep = cols - a.indices <= k
    indptr = np.zeros(a.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[keep], minlength=a.shape[1]), out=indptr[1:])
    return CSCMatrix(a.shape, indptr, a.indices[keep], a.data[keep], _skip_check=True)


def is_structurally_symmetric(a: CSCMatrix) -> bool:
    """True when the sparsity pattern of *a* equals that of its transpose."""
    if a.shape[0] != a.shape[1]:
        return False
    at = transpose(a)
    return (
        np.array_equal(a.indptr, at.indptr)
        and np.array_equal(a.indices, at.indices)
    )


def full_symmetric_from_lower(lower: CSCMatrix) -> CSCMatrix:
    """Expand a lower-triangular CSC (diagonal included) to the full
    symmetric matrix ``L + L^T - diag(L)``."""
    coo = csc_to_coo(lower)
    off = coo.row != coo.col
    row = np.concatenate([coo.row, coo.col[off]])
    col = np.concatenate([coo.col, coo.row[off]])
    dat = np.concatenate([coo.data, coo.data[off]])
    return coo_to_csc(COOMatrix(lower.shape, row, col, dat))


def sym_matvec_lower(lower: CSCMatrix, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` where A is symmetric and only its lower triangle
    (diagonal included) is stored.

    Used by iterative refinement and by residual checks without ever
    materializing the full matrix.
    """
    x = as_float_array(x, "x")
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("sym_matvec_lower requires a square lower triangle")
    if x.shape != (n,):
        raise ShapeError(f"x must have shape ({n},); got {x.shape}")
    y = np.zeros(n)
    if lower.nnz == 0:
        return y
    col_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(lower.indptr))
    rows = lower.indices
    vals = lower.data
    # Lower-triangle contribution: y[r] += A[r,c] * x[c]
    np.add.at(y, rows, vals * x[col_of])
    # Mirrored strict upper part: y[c] += A[r,c] * x[r] for r != c
    off = rows != col_of
    np.add.at(y, col_of[off], vals[off] * x[rows[off]])
    return y


def sym_norm_inf_lower(lower: CSCMatrix) -> float:
    """``‖A‖∞`` (max absolute row sum) of a symmetric matrix given only its
    lower triangle (diagonal included).

    Feeds the normwise backward-error denominator
    ``‖A‖∞·‖x‖∞ + ‖b‖∞`` used by iterative refinement's stopping test.
    """
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("sym_norm_inf_lower requires a square lower triangle")
    if lower.nnz == 0:
        return 0.0
    col_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(lower.indptr))
    rows = lower.indices
    absv = np.abs(lower.data)
    off = rows != col_of
    # one ordered pass: each row sum adds its lower entries, then the
    # mirrored upper ones (np.bincount accumulates in input order)
    row_sums = np.bincount(
        np.concatenate([rows, col_of[off]]),
        weights=np.concatenate([absv, absv[off]]),
        minlength=n,
    )
    return float(row_sums.max())


def sym_matvec_lower_many(lower: CSCMatrix, x: np.ndarray) -> np.ndarray:
    """``Y = A @ X`` for a panel ``X`` of shape ``(n, k)``, where A is
    symmetric with only its lower triangle stored.

    The blocked counterpart of :func:`sym_matvec_lower`: one scatter pass
    covers every column. The accumulation order per column equals the
    single-vector version's (``np.add.at`` walks the same entry order and
    each add is elementwise), so column *j* of the result is bitwise
    identical to ``sym_matvec_lower(lower, x[:, j])`` — the guarantee the
    blocked residual checks and blocked iterative refinement build on.
    """
    x = as_float_array(x, "x")
    if x.ndim == 1:
        return sym_matvec_lower(lower, x)
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("sym_matvec_lower_many requires a square lower triangle")
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"x must have shape ({n}, k); got {x.shape}")
    y = np.zeros((n, x.shape[1]))
    if lower.nnz == 0:
        return y
    col_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(lower.indptr))
    rows = lower.indices
    vals = lower.data
    np.add.at(y, rows, vals[:, None] * x[col_of])
    off = rows != col_of
    np.add.at(y, col_of[off], vals[off, None] * x[rows[off]])
    return y
