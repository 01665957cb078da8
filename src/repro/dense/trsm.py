"""Dense triangular solves used by the solve phase and the frontal kernels.

All operate in place on the right-hand side; RHS may be a vector or a
matrix of multiple right-hand sides. The sweeps of
:mod:`repro.mf.solve_phase` call the column kernels for LU pivot blocks,
for Cholesky and LDLᵀ pivot blocks narrower than
:data:`~repro.dense.chol.LAPACK_MIN_PIVOTS`, and for the simulator's
distributed pivot blocks; every other pivot block is solved with gemvs on
the inverses of its diagonal blocks, which :func:`lower_inverses` forms
once per factor. :func:`solve_unit_lower_inplace` is also the LU
kernel's U-panel solve in the simulator's distributed fronts.
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


def lower_inverses(l: np.ndarray, unit: bool = False) -> np.ndarray:
    """The inverses of a stack ``(k, b, b)`` of lower-triangular matrices
    (only the lower triangle read; a unit diagonal assumed when *unit*).

    Each inverse is the column-oriented forward substitution of
    :func:`solve_lower_inplace` on the identity, run for the whole stack
    at once: b steps of elementwise operations, so an inverse's bits do
    not depend on what else is in the stack. Substitution, not
    ``np.linalg.inv``: LU with partial pivoting swaps the rows of a badly
    row-scaled triangle and loses accuracy that the substitution keeps.
    """
    k, b, _ = l.shape
    x = np.zeros_like(l)
    diag = np.arange(b)
    x[:, diag, diag] = 1.0
    for j in range(b):
        if not unit:
            x[:, j, :j + 1] /= l[:, j, j, None]
        if j + 1 < b:
            x[:, j + 1:, :j + 1] -= l[:, j + 1:, j, None] * x[:, j, None, :j + 1]
    return x
