"""Dense LDLᵀ factorization (no pivoting).

For symmetric indefinite-but-strongly-regular fronts (the solver's LDLᵀ
mode for symmetric matrices that are not positive definite but have
non-vanishing leading minors, e.g. shifted operators). No Bunch–Kaufman
2×2 pivots: the paper family's symmetric solvers use 1×1 pivots with
ordering-time safeguards, and our generators produce strongly regular
matrices.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.errors import SingularMatrixError
from repro.dense.chol import _check_square

#: relative pivot-magnitude threshold below which a pivot counts as zero
PIVOT_TOL = 1e-13


def ldlt_in_place(
    a: np.ndarray,
    perturb: float | None = None,
    col_offset: int = 0,
    perturbed: list[int] | None = None,
) -> np.ndarray:
    """Factor symmetric *a* as L·D·Lᵀ with unit lower L.

    Overwrites the strictly-lower triangle of *a* with the strictly-lower
    part of L and returns the diagonal D as a separate 1-D array (the
    diagonal of *a* is overwritten with D as well).

    With ``perturb=None`` (default), raises :class:`SingularMatrixError` on
    an (effectively) zero pivot. With a positive *perturb* — an **absolute**
    threshold, typically ``epsilon · max|diag(A)|`` of the *global* matrix —
    tiny pivots are replaced by ``±perturb`` (static pivoting: the
    factorization proceeds, the global column ``col_offset + j`` is appended
    to *perturbed*, and the caller recovers accuracy by iterative
    refinement — the strategy solvers of this family use to avoid dynamic
    pivoting's communication). A raised error names the same global column.
    """
    n = _check_square(a)
    if perturb is None:
        scale = float(np.max(np.abs(np.diagonal(a)))) if n else 0.0
        tol = PIVOT_TOL * max(scale, 1.0)
    else:
        tol = float(perturb)
    d = np.empty(n, dtype=a.dtype)
    for j in range(n):
        pivot = a[j, j]
        if not math.isfinite(pivot) or abs(pivot) <= tol:
            if perturb is None or not math.isfinite(pivot):
                raise SingularMatrixError(
                    f"zero pivot {pivot:.6g} at column {col_offset + j}",
                    column=col_offset + j,
                )
            sign = 1.0 if pivot >= 0 else -1.0
            # Rounded to the working dtype so the stored pivot, the returned
            # D entry, and the divisor below are the same number.
            pivot = a.dtype.type(sign * tol)
            a[j, j] = pivot
            if perturbed is not None:
                perturbed.append(col_offset + j)
        d[j] = pivot
        if j + 1 < n:
            col = a[j + 1:, j] / pivot
            a[j + 1:, j + 1:] -= col[:, None] * a[j + 1:, j]
            a[j + 1:, j] = col
        a[j, j] = pivot
    return d


def ldlt(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(L, d)`` with unit-lower L and diagonal vector d such that
    ``A = L @ diag(d) @ L.T`` (input unchanged)."""
    work = np.array(a, dtype=np.float64, copy=True)
    d = ldlt_in_place(work)
    l = np.tril(work, -1) + np.eye(a.shape[0])
    return l, d
