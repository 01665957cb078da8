"""The front plan: where everything lands in the multifrontal front loop.

Which position of which front a matrix entry is scattered to, and which
rows of its parent's front a child's update is added into, are fixed by
the sparsity pattern. They are compiled here once per analysis into flat
index tables; every numeric factorization — sequential, threaded or
simulated-distributed, first or thousandth on the pattern — only executes
them (:mod:`repro.mf.frontal`, :mod:`repro.mf.extend_add`).

The tables are value-free: they index ``permuted_lower.data`` by position,
so installing new values on the same pattern leaves them valid. They hold
one number per stored matrix entry and one per update *row* — never one per
update entry, which would be the size of the factor itself.

An LU analysis adds one more table (:func:`with_full_table`): where each
stored entry of the permuted *full* matrix lands in its supernode's full
m×m front. It is derived from ``a_pos`` alone, so LU fronts run the same
loop with nothing looked up per front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import SupernodePartition
from repro.util.errors import InvariantError


@dataclass(frozen=True)
class FrontPlan:
    """Index tables of the front loop, shared read-only by every backend."""

    #: first column, pivot width and front order of each supernode
    start: list[int]
    width: list[int]
    order: list[int]
    #: supernode s owns the stored entries ``a_ptr[s]:a_ptr[s + 1]`` of
    #: ``permuted_lower`` (its pivot columns are contiguous in CSC)
    a_ptr: list[int]
    #: per stored entry of ``permuted_lower``: its position
    #: ``local_row * order + local_col`` in its supernode's flattened front
    a_pos: np.ndarray
    #: per supernode c: positions of its update rows ``sn_rows[c][width:]``
    #: in its parent's row list (``int32``, strictly increasing; empty when
    #: c has no update)
    rel: list[np.ndarray]
    #: LU analyses only (None otherwise): supernode s owns the stored entries
    #: ``full_src[full_ptr[s]:full_ptr[s + 1]]`` of ``permuted_full``, and
    #: ``full_pos`` holds each one's position ``local_row * order + local_col``
    #: in s's full m×m front
    full_ptr: list[int] | None = None
    full_src: np.ndarray | None = None
    full_pos: np.ndarray | None = None

    def check_current(self, permuted_lower: CSCMatrix) -> None:
        """The O(1) staleness guard of the numeric drivers: the tables were
        compiled for a matrix with this many stored entries."""
        if permuted_lower.nnz != self.a_pos.size:
            raise InvariantError(
                f"front plan compiled for {self.a_pos.size} stored entries, but "
                f"permuted_lower has {permuted_lower.nnz}; re-run analyze()"
            )


def build_front_plan(
    a: CSCMatrix,
    part: SupernodePartition,
    sn_rows: list[np.ndarray],
    sn_parent: np.ndarray,
) -> FrontPlan:
    """Compile the front plan of the permuted lower triangle *a*.

    Looking rows up is also the soundness check of the assembly tree: every
    stored entry must be a row of its supernode's front, and every update
    row of a child a row of its parent's front (the containment extend-add
    relies on). A miss raises :class:`InvariantError`.

    One supernode at a time, so the working memory is a front's row list,
    not the sum of them all.
    """
    nsn = part.n_supernodes
    sn_start = part.sn_start
    start = sn_start[:-1].tolist()
    width = np.diff(sn_start).tolist()
    order = [int(r.size) for r in sn_rows]
    a_ptr = a.indptr[sn_start].tolist()
    local_row = np.empty(a.nnz, dtype=np.int64)
    rel: list[np.ndarray] = []
    for s in range(nsn):
        rows, w = sn_rows[s], width[s]
        # (a) rows of the matrix entries of s's pivot columns, in s's front.
        lo, hi = a_ptr[s], a_ptr[s + 1]
        at = locate_rows(rows, a.indices[lo:hi])
        if at is None:
            stray = np.setdiff1d(a.indices[lo:hi], rows)
            raise InvariantError(
                f"front plan: supernode {s} stores matrix rows "
                f"{stray[:5].tolist()} that are not rows of its front"
            )
        local_row[lo:hi] = at
        # (b) s's update rows, in its parent's front (a root must have none).
        p = int(sn_parent[s])
        update_rows = rows[w:]
        parent_rows = sn_rows[p] if p >= 0 else update_rows[:0]
        at = locate_rows(parent_rows, update_rows)
        if at is None:
            lost = np.setdiff1d(update_rows, parent_rows)
            raise InvariantError(
                f"assembly tree violation: supernode {s} update rows "
                f"{lost[:5].tolist()} missing from parent {p}"
            )
        rel.append(at.astype(np.int32))
    col = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    sn = part.col_to_sn[col]
    a_pos = local_row * np.asarray(order, dtype=np.int64)[sn] + (col - sn_start[sn])
    return FrontPlan(start=start, width=width, order=order, a_ptr=a_ptr, a_pos=a_pos, rel=rel)


def with_full_table(
    plan: FrontPlan, part: SupernodePartition, lower: CSCMatrix, full: CSCMatrix
) -> FrontPlan:
    """*plan*, compiled for *lower* — the lower triangle of the symmetrized
    pattern of *full* — plus the LU assembly table of *full*.

    Entry (i, j) of *full* belongs to the supernode of column ``min(i, j)``
    and lands at (front row of i, front row of j) there. Its lower twin
    ``(max, min)`` is stored in *lower*, and ``a_pos`` already holds the
    twin's position: a lower entry takes it as is, an upper entry takes
    it transposed. An entry without a twin raises :class:`InvariantError`.
    """
    n = full.shape[1]
    col = np.repeat(np.arange(n, dtype=np.int64), np.diff(full.indptr))
    row = full.indices.astype(np.int64)
    j, i = np.minimum(row, col), np.maximum(row, col)
    twin_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(lower.indptr)) * n + lower.indices
    twin = locate_rows(twin_keys, j * n + i)
    if twin is None:
        raise InvariantError(
            "front plan: the full matrix has entries outside the symmetrized "
            "pattern it was analysed on"
        )
    sn = part.col_to_sn[j]
    m = np.asarray(plan.order, dtype=np.int64)[sn]
    pos = plan.a_pos[twin]
    upper = row < col
    r, c = np.divmod(pos[upper], m[upper])
    pos[upper] = c * m[upper] + r
    src = np.argsort(sn, kind="stable")
    ptr = np.searchsorted(sn[src], np.arange(part.n_supernodes + 1)).tolist()
    return replace(plan, full_ptr=ptr, full_src=src, full_pos=pos[src])


def locate_rows(front_rows: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
    """Positions of global *rows* in the sorted row list *front_rows* of a
    front, or None when one of them is not there."""
    at = np.searchsorted(front_rows, rows)
    if rows.size and (at.max() == front_rows.size or not np.array_equal(front_rows[at], rows)):
        return None
    return at
