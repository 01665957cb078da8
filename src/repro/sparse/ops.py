"""Sparse matrix operations: matvec, the lower triangle, symmetric expansion.

These feed two consumers: the factorization layer (lower-triangle
extraction, structural-symmetry test) and the verification /
iterative-refinement path (symmetric matvec from the lower triangle only,
the general matvec and ∞-norm for LU).

The matvecs and ∞-norms run on a :class:`MatvecPlan`, compiled once per
pattern (``analyze()`` keeps one for the refinement loop) or on the spot
when none is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import coo_to_csc, csc_to_coo, transpose
from repro.util.errors import InvariantError, ShapeError
from repro.util.validation import as_float_array, runtime_checks_enabled


@dataclass(frozen=True)
class MatvecPlan:
    """A sparse matvec's products, regrouped by the row they are added to.

    Each row's products are added in *slots*, one product per slot,
    starting from zero, in the order an ``np.add.at`` scatter over the
    stored entries would add them. So a row's sum has the scatter's bits,
    and a panel's column *j* those of the vector ``x[:, j]``. The rows
    are ranked by descending product count, so slot t touches the first
    ``slot_rows[t]`` ranks: one gather, one product and one contiguous
    add per slot, not one call per product. Value-free: the plan indexes
    ``data`` by position and holds for every matrix of its pattern.
    """

    shape: tuple[int, int]
    #: stored entries of the pattern compiled
    nnz: int
    #: the row at each rank (``int32``)
    rank_rows: np.ndarray
    #: per slot: the number of ranks it touches
    slot_rows: list[int]
    #: per product, slot by slot: the stored entry and the entry of x it
    #: multiplies (``int32``)
    entry: np.ndarray
    col: np.ndarray

    @classmethod
    def compile(
        cls, a: CSCMatrix, row: np.ndarray, entry: np.ndarray, col: np.ndarray
    ) -> MatvecPlan:
        """The plan of the products ``data[entry[i]] * x[col[i]]`` added to
        rows ``row[i]``, in that order."""
        m = a.shape[0]
        counts = np.bincount(row, minlength=m)
        rank_rows = np.argsort(-counts, kind="stable")
        rank_of = np.empty(m, dtype=np.int64)
        rank_of[rank_rows] = np.arange(m)
        # the products row by row, each row's in the order they are added:
        # a product's slot is its position there
        by_row = np.argsort(row, kind="stable")
        slot = np.arange(row.size).astype(np.int32)
        slot -= np.repeat((np.cumsum(counts) - counts).astype(np.int32), counts)
        slot_rows = np.bincount(slot, minlength=int(counts.max(initial=0)))
        # slot t holds ranks 0 .. slot_rows[t] - 1, in rank order
        at = (np.cumsum(slot_rows) - slot_rows).astype(np.int32)[slot]
        del slot
        at += np.repeat(rank_of.astype(np.int32), counts)
        plan_entry, plan_col = np.empty_like(entry), np.empty_like(col)
        plan_entry[at] = entry[by_row]
        plan_col[at] = col[by_row]
        return cls(
            shape=a.shape,
            nnz=a.nnz,
            rank_rows=rank_rows.astype(np.int32),
            slot_rows=slot_rows.tolist(),
            entry=plan_entry,
            col=plan_col,
        )

    def same(self, other: MatvecPlan) -> bool:
        return (
            self.shape == other.shape
            and self.nnz == other.nnz
            and self.slot_rows == other.slot_rows
            and all(
                np.array_equal(getattr(self, f), getattr(other, f))
                for f in ("rank_rows", "entry", "col")
            )
        )

    def row_sums(self, values: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """Per row the sum of its products ``values[entry] * x[col]`` (of
        ``values[entry]`` alone when *x* is None), slot by slot."""
        v = values[self.entry]
        tail = () if x is None else x.shape[1:]
        if x is not None and x.ndim == 2:
            v = v[:, None]
        acc = np.zeros((self.shape[0],) + tail)
        lo = 0
        for rows in self.slot_rows:
            hi = lo + rows
            acc[:rows] += v[lo:hi] if x is None else v[lo:hi] * x[self.col[lo:hi]]
            lo = hi
        y = np.empty_like(acc)
        y[self.rank_rows] = acc
        return y


def _col_of(a: CSCMatrix) -> np.ndarray:
    """The column of each stored entry (``int32``)."""
    return np.repeat(np.arange(a.shape[1]).astype(np.int32), np.diff(a.indptr))


def csc_matvec_plan(a: CSCMatrix) -> MatvecPlan:
    """The plan of ``A @ x`` for CSC *a*: entry by entry, in storage order."""
    return MatvecPlan.compile(a, a.indices, np.arange(a.nnz).astype(np.int32), _col_of(a))


def sym_matvec_plan(lower: CSCMatrix) -> MatvecPlan:
    """The plan of ``A @ x`` for a symmetric A stored as its lower triangle
    *lower*: the stored entries in storage order, then the strictly lower
    ones again, mirrored, in storage order."""
    col_of = _col_of(lower)
    rows = lower.indices.astype(np.int32)
    off = np.flatnonzero(rows != col_of).astype(np.int32)
    return MatvecPlan.compile(
        lower,
        np.concatenate([rows, col_of[off]]),
        np.concatenate([np.arange(lower.nnz).astype(np.int32), off]),
        np.concatenate([col_of, rows[off]]),
    )


def _plan(
    a: CSCMatrix, plan: MatvecPlan | None, compile_plan: Callable[[CSCMatrix], MatvecPlan]
) -> MatvecPlan:
    """*plan* (compiled by *compile_plan*) checked against *a*, or a fresh
    plan of *a*. The check is O(1) — the shape and the entry count — and
    under ``REPRO_CHECK=1`` a recompilation from *a*'s pattern."""
    if plan is None:
        return compile_plan(a)
    if (a.shape, a.nnz) != (plan.shape, plan.nnz) or (
        runtime_checks_enabled() and not plan.same(compile_plan(a))
    ):
        raise InvariantError(
            f"matvec plan compiled for a {plan.shape} pattern with {plan.nnz} "
            f"entries does not fit a {a.shape} matrix with {a.nnz}"
        )
    return plan


def matvec_csc(a: CSCMatrix, x: np.ndarray, plan: MatvecPlan | None = None) -> np.ndarray:
    """``y = A @ x`` for CSC *a*, on its *plan* (:func:`csc_matvec_plan`,
    compiled here when not given).

    *x* is a vector ``(n,)`` or a panel ``(n, k)``; column *j* of a
    panel's result is bitwise ``matvec_csc(a, x[:, j])``, and each row
    has the bits of an ``np.add.at`` scatter in storage order.
    """
    x = as_float_array(x, "x")
    n = a.shape[1]
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ShapeError(f"x must have shape ({n},) or ({n}, k); got {x.shape}")
    return _plan(a, plan, csc_matvec_plan).row_sums(a.data, x)


def norm_inf_csc(a: CSCMatrix, plan: MatvecPlan | None = None) -> float:
    """``‖A‖∞`` (max absolute row sum) of CSC *a*."""
    if a.nnz == 0:
        return 0.0
    return float(_plan(a, plan, csc_matvec_plan).row_sums(np.abs(a.data)).max())


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


def sym_matvec_lower(
    lower: CSCMatrix, x: np.ndarray, plan: MatvecPlan | None = None
) -> np.ndarray:
    """``y = A @ x`` where A is symmetric and only its lower triangle
    (diagonal included) is stored, on its *plan*
    (:func:`sym_matvec_plan`, compiled here when not given).

    Used by iterative refinement and by residual checks without ever
    materializing the full matrix. Each row has the bits of two
    ``np.add.at`` scatters in storage order: the lower entries, then the
    mirrored strict upper part.
    """
    x = as_float_array(x, "x")
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("sym_matvec_lower requires a square lower triangle")
    if x.shape != (n,):
        raise ShapeError(f"x must have shape ({n},); got {x.shape}")
    return _plan(lower, plan, sym_matvec_plan).row_sums(lower.data, x)


def sym_norm_inf_lower(lower: CSCMatrix, plan: MatvecPlan | None = None) -> float:
    """``‖A‖∞`` (max absolute row sum) of a symmetric matrix given only its
    lower triangle (diagonal included).

    Feeds the normwise backward-error denominator
    ``‖A‖∞·‖x‖∞ + ‖b‖∞`` used by iterative refinement's stopping test.
    Each row sum adds its lower entries, then the mirrored upper ones.
    """
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("sym_norm_inf_lower requires a square lower triangle")
    if lower.nnz == 0:
        return 0.0
    return float(_plan(lower, plan, sym_matvec_plan).row_sums(np.abs(lower.data)).max())


def sym_matvec_lower_many(
    lower: CSCMatrix, x: np.ndarray, plan: MatvecPlan | None = None
) -> np.ndarray:
    """``Y = A @ X`` for a panel ``X`` of shape ``(n, k)``, where A is
    symmetric with only its lower triangle stored.

    The blocked counterpart of :func:`sym_matvec_lower`: one pass of the
    plan covers every column. Each add is elementwise, so column *j* of
    the result is bitwise identical to ``sym_matvec_lower(lower, x[:, j])``
    — the guarantee the blocked residual checks and blocked iterative
    refinement build on.
    """
    x = as_float_array(x, "x")
    if x.ndim == 1:
        return sym_matvec_lower(lower, x, plan)
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("sym_matvec_lower_many requires a square lower triangle")
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"x must have shape ({n}, k); got {x.shape}")
    return _plan(lower, plan, sym_matvec_plan).row_sums(lower.data, x)
