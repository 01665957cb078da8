"""Dense triangular solves used by the solve phase and the frontal kernels.

All operate in place on the right-hand side; RHS may be a vector or a
matrix of multiple right-hand sides.
"""

from __future__ import annotations

import numpy as np

from repro.dense.chol import _check_consistent
from repro.util.errors import ShapeError


def _check(l: np.ndarray, b: np.ndarray) -> int:
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ShapeError(f"triangular factor must be square; got {l.shape}")
    if b.shape[0] != l.shape[0]:
        raise ShapeError(
            f"rhs leading dimension {b.shape[0]} != factor order {l.shape[0]}"
        )
    _check_consistent(l, b)
    return l.shape[0]


def solve_lower_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``b <- L^{-1} b`` (forward substitution, non-unit diagonal)."""
    n = _check(l, b)
    for j in range(n):
        b[j] = b[j] / l[j, j]
        if j + 1 < n:
            b[j + 1:] -= np.multiply.outer(l[j + 1:, j], b[j]) if b.ndim > 1 else l[j + 1:, j] * b[j]


def solve_unit_lower_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``b <- L^{-1} b`` with *unit* diagonal (LDLᵀ forward sweep; only the
    strictly-lower part of *l* is read)."""
    n = _check(l, b)
    for j in range(n):
        if j + 1 < n:
            if b.ndim > 1:
                b[j + 1:] -= np.multiply.outer(l[j + 1:, j], b[j])
            else:
                b[j + 1:] -= l[j + 1:, j] * b[j]


def solve_lower_transpose_outer_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``b <- L^{-T} b`` (backward substitution with the transpose) in the
    column-oriented (outer-product) form.

    The inner update is a saxpy ``b[:j] -= l[j, :j] * b[j]``, not a dot
    product. Every operation is elementwise, so with a multi-column *b*
    each column gets the exact floating-point operation sequence it would
    get solved alone — the blocked multi-RHS solves rely on this to stay
    bitwise identical per column regardless of how many right-hand sides
    ride in the panel (BLAS dot/gemv reductions reorder sums with the
    operand shape and cannot give that guarantee).
    """
    n = _check(l, b)
    for j in range(n - 1, -1, -1):
        b[j] = b[j] / l[j, j]
        if j:
            if b.ndim > 1:
                b[:j] -= np.multiply.outer(l[j, :j], b[j])
            else:
                b[:j] -= l[j, :j] * b[j]


def solve_unit_lower_transpose_outer_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``b <- L^{-T} b``, unit diagonal, column-oriented form (see
    :func:`solve_lower_transpose_outer_inplace` for why it exists)."""
    n = _check(l, b)
    for j in range(n - 1, -1, -1):
        if j:
            if b.ndim > 1:
                b[:j] -= np.multiply.outer(l[j, :j], b[j])
            else:
                b[:j] -= l[j, :j] * b[j]
