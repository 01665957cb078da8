"""Symbolic Cholesky: the nonzero pattern of L.

Uses the multifrontal recurrence on a postordered matrix:

    struct(L[:, j]) = {j} ∪ below-diag(A[:, j]) ∪ (⋃_{c : parent(c)=j} struct(L[:, c]) \\ {c})

which is also exactly the row structure of each frontal matrix — so the
numeric phase reuses these arrays as front indices.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.postorder import children_lists, is_postordered
from repro.util.errors import ShapeError


def column_patterns(
    lower: CSCMatrix, parent: np.ndarray
) -> list[np.ndarray]:
    """Per-column row pattern of L (including the diagonal), sorted.

    Requires a postordered input (``parent[j] > j`` for non-roots); raises
    otherwise. Returns ``patterns[j]`` = sorted int64 array starting at j.

    Two cases need no merge: a leaf column is its own rows of A (with j
    put in front when the diagonal is not stored), and a column whose only
    child c has ``patterns[c][1] == j`` and column j's rows of A among
    ``patterns[c][1:]`` is that slice. Every other column merges its
    pieces.
    """
    n = lower.shape[0]
    if parent.size != n:
        raise ShapeError("parent array length must equal matrix dimension")
    if not is_postordered(parent):
        raise ShapeError("column_patterns requires a postordered matrix")
    ch = children_lists(parent)
    # The stored rows on or below the diagonal, column by column.
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(lower.indptr))
    keep = lower.indices >= cols
    rows, cols = lower.indices[keep], cols[keep]
    bounds = np.searchsorted(cols, np.arange(n + 1)).tolist()
    diag = np.zeros(n, dtype=bool)
    diag[cols[rows == cols]] = True
    has_diag = diag.tolist()
    patterns: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for j in range(n):
        own = rows[bounds[j]:bounds[j + 1]]
        if not has_diag[j]:
            own = np.concatenate((np.array([j], dtype=np.int64), own))
        kids = ch[j]
        if not kids:
            patterns[j] = own
            continue
        if len(kids) == 1:
            tail = patterns[kids[0]][1:]
            if tail.size and tail[0] == j:
                pos = tail.searchsorted(own)
                if pos[-1] < tail.size and (tail[pos] == own).all():
                    patterns[j] = tail
                    continue
        pieces = [own]
        for c in kids:
            pc = patterns[c]
            pieces.append(pc[pc > j])
        patterns[j] = np.unique(np.concatenate(pieces))
    return patterns


def symbolic_cholesky(
    lower: CSCMatrix, parent: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Full symbolic factorization.

    Returns ``(patterns, col_counts, nnz_L)`` where ``col_counts[j]`` =
    ``len(patterns[j])`` (diagonal included) and ``nnz_L`` is their sum.
    """
    patterns = column_patterns(lower, parent)
    col_counts = np.asarray([p.size for p in patterns], dtype=np.int64)
    return patterns, col_counts, int(col_counts.sum())
