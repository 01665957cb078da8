"""Dense triangular solves used by the solve phase and the frontal kernels.

All operate in place on the right-hand side, for one triangle or a stack
of them. A triangle ``l`` of order n takes a vector ``(n,)`` or a panel
``(n, K)`` of right-hand sides; a stack ``(k, n, n)`` takes ``(n, k)`` or
``(n, k, K)``, row by row with its members and their columns beside each
other. Every operation is elementwise, so a member's bits do not depend
on the stack or the panel it rides in, and one triangle runs the very
steps it ran before stacks existed.

The class sweeps of :mod:`repro.mf.solve_phase` call the column kernels
on the stacked pivot blocks of a front class: LU's, and Cholesky and LDLᵀ
pivot blocks narrower than :data:`~repro.dense.chol.LAPACK_MIN_PIVOTS`;
the simulator's fronts call them one triangle at a time. Every other
pivot block is solved with gemvs on the inverses of its diagonal blocks,
which :func:`lower_inverses` forms once per factor.
:func:`solve_unit_lower_inplace` is also the LU kernel's U-panel solve in
the simulator's distributed fronts.
"""

from __future__ import annotations

import numpy as np

from repro.dense.chol import _check_consistent
from repro.util.errors import ShapeError


def _operands(l: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """``(n, lt)``: the order of *l* and a view of it in which ``lt[i, j]``
    broadcasts against the row ``b[i]`` — over the stack's members and
    the right-hand sides."""
    stack = l.shape[:-2]
    n = l.shape[-1]
    if l.ndim not in (2, 3) or l.shape[-2] != n:
        raise ShapeError(f"triangular factor must be square; got {l.shape}")
    if b.shape[:1 + len(stack)] != (n,) + stack or b.ndim > len(stack) + 2:
        raise ShapeError(f"rhs shape {b.shape} does not match factor of shape {l.shape}")
    _check_consistent(l, b)
    lt = l.transpose(1, 2, 0) if stack else l
    return n, lt if b.ndim == len(stack) + 1 else lt[..., None]


def solve_lower_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``b <- L^{-1} b`` (forward substitution, non-unit diagonal)."""
    n, lt = _operands(l, b)
    for j in range(n):
        b[j] /= lt[j, j]
        if j + 1 < n:
            b[j + 1:] -= lt[j + 1:, j] * b[j]


def solve_unit_lower_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``b <- L^{-1} b`` with *unit* diagonal (LDLᵀ forward sweep; only the
    strictly-lower part of *l* is read)."""
    n, lt = _operands(l, b)
    for j in range(n - 1):
        b[j + 1:] -= lt[j + 1:, j] * b[j]


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
    n, lt = _operands(l, b)
    for j in range(n - 1, -1, -1):
        b[j] /= lt[j, j]
        if j:
            b[:j] -= lt[j, :j] * b[j]


def solve_unit_lower_transpose_outer_inplace(l: np.ndarray, b: np.ndarray) -> None:
    """``b <- L^{-T} b``, unit diagonal, column-oriented form (see
    :func:`solve_lower_transpose_outer_inplace` for why it exists)."""
    n, lt = _operands(l, b)
    for j in range(n - 1, 0, -1):
        b[:j] -= lt[j, :j] * b[j]


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
