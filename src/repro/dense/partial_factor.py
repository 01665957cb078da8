"""Partial factorization of a frontal matrix.

The core dense operation of the multifrontal method: given a symmetric
front F of order m with k pivot columns,

    F = [ F11  ·   ]      (lower triangles meaningful)
        [ F21  F22 ]

factor F11 = L11 L11ᵀ, compute L21 = F21 L11^{-T}, and form the Schur
complement U = F22 - L21 L21ᵀ. The (L11, L21) block is the slice of the
global factor owned by the supernode; U is the update matrix passed to the
parent front.

:func:`partial_lu` is the same step on a full unsymmetric front: the
static-pivoting LU kernel of the one front loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dense.chol import (
    LAPACK_MIN_PIVOTS,
    _check_square,
    _trsm_right_lower_transpose,
    cholesky_in_place,
)
from repro.dense.ldlt import ldlt_in_place
from repro.dense.syrk import syrk_lower_update, syrk_lower_update_scaled
from repro.util.errors import ShapeError, SingularMatrixError


def partial_cholesky(front: np.ndarray, k: int, col_offset: int = 0) -> None:
    """Eliminate the first *k* pivots of symmetric *front* in place.

    On return the leading m×k panel holds [L11; L21] (lower triangle of L11
    meaningful) and the trailing (m-k)×(m-k) block holds the Schur
    complement (lower triangle meaningful).

    Raises :class:`~repro.util.errors.NotPositiveDefiniteError` if a pivot
    fails, with its column (local index plus *col_offset*) recorded.
    """
    m = _check_square(front)
    if not (0 <= k <= m):
        raise ShapeError(f"pivot count {k} out of range for front of order {m}")
    if k == 0:
        return
    cholesky_in_place(front[:k, :k], col_offset=col_offset)
    if k < m:
        panel = front[k:, :k]
        _trsm_right_lower_transpose(front[:k, :k], panel)
        syrk_lower_update(front[k:, k:], panel)


def partial_ldlt(
    front: np.ndarray,
    k: int,
    perturb: float | None = None,
    col_offset: int = 0,
    perturbed: list[int] | None = None,
) -> np.ndarray:
    """LDLᵀ variant of :func:`partial_cholesky`.

    Returns the k pivot values D (also left on the diagonal of the pivot
    block); the panel holds unit-lower L21·(scaled), i.e. ``L21`` such that
    ``F21 = L21 diag(d) L11ᵀ`` with unit L11. Static pivot perturbation
    passes through to :func:`repro.dense.ldlt.ldlt_in_place`.
    """
    m = _check_square(front)
    if not (0 <= k <= m):
        raise ShapeError(f"pivot count {k} out of range for front of order {m}")
    if k == 0:
        return np.empty(0, dtype=front.dtype)
    d = ldlt_in_place(
        front[:k, :k], perturb=perturb, col_offset=col_offset, perturbed=perturbed
    )
    if k < m:
        panel = front[k:, :k]
        # Solve panel <- F21 L11^{-T} D^{-1}: first the unit-triangular
        # solve, then the diagonal scaling.
        _trsm_right_unit_lower_transpose(front[:k, :k], panel)
        scaled = panel / d[None, :]
        syrk_lower_update_scaled(front[k:, k:], scaled, d)
        panel[:, :] = scaled
    return d


def partial_lu(
    front: np.ndarray,
    k: int,
    perturb: float | None = None,
    col_offset: int = 0,
    perturbed: list[int] | None = None,
) -> None:
    """Unsymmetric variant of :func:`partial_cholesky` on a *full* front.

    Eliminates the first *k* pivots in place with no row exchanges: the
    leading k columns then hold unit-lower [L11; L21] below the diagonal
    and U11 on and above it, the leading k rows hold U12 right of the
    pivot block, and the trailing block holds the Schur complement (the
    whole square is meaningful). A pivot with ``|p| <= perturb`` is
    replaced by ``±perturb`` and its column (plus *col_offset*) appended
    to *perturbed*; without *perturb* a zero pivot raises
    :class:`~repro.util.errors.SingularMatrixError`, as does a non-finite
    one either way.
    """
    m = _check_square(front)
    if not (0 <= k <= m):
        raise ShapeError(f"pivot count {k} out of range for front of order {m}")
    tiny = max(perturb or 0.0, 1e-300)
    for j in range(k):
        piv = front[j, j]
        if not math.isfinite(piv):
            raise SingularMatrixError(
                f"non-finite pivot at column {col_offset + j}", column=col_offset + j
            )
        if abs(piv) <= tiny:
            if perturb is None:
                raise SingularMatrixError(
                    f"zero pivot {piv:.6g} at column {col_offset + j}",
                    column=col_offset + j,
                )
            piv = (1.0 if piv >= 0 else -1.0) * perturb
            front[j, j] = piv
            if perturbed is not None:
                perturbed.append(col_offset + j)
        if j + 1 < m:
            front[j + 1:, j] /= piv
            front[j + 1:, j + 1:] -= front[j + 1:, j, None] * front[j, j + 1:]


def _trsm_right_unit_lower_transpose(l: np.ndarray, b: np.ndarray) -> None:
    """B <- B L^{-T} with unit-diagonal lower L (strictly-lower part read).

    One GEMM against the inverse of L from :data:`LAPACK_MIN_PIVOTS`
    columns on, a column sweep below.
    """
    k = l.shape[0]
    if k >= LAPACK_MIN_PIVOTS:
        unit = np.tril(l, -1)
        np.fill_diagonal(unit, 1.0)
        b[...] = b @ np.linalg.inv(unit).T
        return
    for j in range(k):
        if j + 1 < k:
            b[:, j + 1:] -= b[:, j, None] * l[j + 1:, j]
