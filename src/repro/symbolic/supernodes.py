"""Supernode detection and relaxed amalgamation.

A *fundamental supernode* is a maximal chain of columns j, j+1, … where
each column's pattern is the next column's pattern plus itself
(``parent[j] == j+1`` and ``colcount[j] == colcount[j+1] + 1``). Columns of
a supernode share one dense frontal matrix, which is where all the level-3
arithmetic in the multifrontal method comes from.

*Relaxed amalgamation* merges a child supernode into its parent even when
that introduces explicit zeros — a narrow child always, a wide one when the
zeros are at most 1 % of the merged front. Fewer, larger fronts trade a
bounded amount of extra arithmetic for much better kernel efficiency (the
same trade WSMP/MUMPS make).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ShapeError


@dataclass(frozen=True)
class SupernodePartition:
    """Contiguous column partition into supernodes.

    ``sn_start`` has length ``n_supernodes + 1``; supernode s owns columns
    ``[sn_start[s], sn_start[s+1])``. ``col_to_sn[j]`` maps a column to its
    supernode.
    """

    sn_start: np.ndarray
    col_to_sn: np.ndarray

    @property
    def n_supernodes(self) -> int:
        return self.sn_start.size - 1

    def columns(self, s: int) -> np.ndarray:
        return np.arange(self.sn_start[s], self.sn_start[s + 1], dtype=np.int64)

    def width(self, s: int) -> int:
        return int(self.sn_start[s + 1] - self.sn_start[s])


def partition_from_starts(starts: list[int] | np.ndarray, n: int) -> SupernodePartition:
    """Build a partition from a sorted sequence of first columns."""
    sn_start = np.append(np.asarray(starts, dtype=np.int64), n)
    if sn_start.size < 2 or sn_start[0] != 0:
        raise ShapeError("supernode starts must begin at column 0")
    if np.any(np.diff(sn_start) <= 0):
        raise ShapeError("supernode starts must be strictly increasing")
    col_to_sn = np.repeat(
        np.arange(sn_start.size - 1, dtype=np.int64), np.diff(sn_start)
    )
    return SupernodePartition(sn_start, col_to_sn)


def fundamental_supernodes(
    parent: np.ndarray, col_counts: np.ndarray
) -> SupernodePartition:
    """Fundamental supernode partition of a postordered factor.

    Column j+1 joins column j's supernode iff ``parent[j] == j+1``,
    ``colcount[j] == colcount[j+1] + 1``, and j+1 has exactly one child in
    the elimination tree chain sense (guaranteed by the count equality plus
    parent linkage for fundamental supernodes; we additionally require j to
    be the only child of j+1 to keep the assembly tree simple).
    """
    n = parent.size
    if n == 0:
        return SupernodePartition(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
    n_children = np.bincount(parent[parent >= 0], minlength=n)
    j = np.arange(1, n, dtype=np.int64)
    chain = (
        (parent[:-1] == j)
        & (col_counts[:-1] == col_counts[1:] + 1)
        & (n_children[1:] == 1)
    )
    return partition_from_starts(np.append(0, j[~chain]), n)


def supernode_parents(
    part: SupernodePartition, parent: np.ndarray
) -> np.ndarray:
    """Assembly-tree parent per supernode: the supernode containing the
    etree parent of the supernode's last column (-1 for roots)."""
    p = parent[part.sn_start[1:] - 1]
    root = p < 0
    sn_parent = part.col_to_sn[np.where(root, 0, p)]
    sn_parent[root] = -1
    return sn_parent


def trapezoid_entries(n_rows: int, width: int) -> int:
    """Stored entries of a supernodal block: width columns over n_rows rows,
    skipping the strictly-upper part of the pivot block."""
    return width * n_rows - width * (width - 1) // 2


def amalgamate(
    part: SupernodePartition,
    parent: np.ndarray,
    patterns: list[np.ndarray],
    max_extra_fill_ratio: float = 0.25,
    small_width: int = 8,
) -> tuple[SupernodePartition, list[np.ndarray]]:
    """Relaxed amalgamation: merge a supernode into its assembly-tree parent
    when they are column-contiguous and the merge is cheap.

    *part* is the fundamental partition of *patterns*
    (:func:`fundamental_supernodes`), so each supernode's rows are its first
    column's pattern: along the chain every later column's pattern is the
    previous one without its own column. Returns the merged partition and
    its per-supernode row structure (what :func:`supernode_rows` gives for
    that partition).

    A merge of child c (columns ending at the parent's first column, with
    the child's first update row inside the parent's pivot block) is
    accepted when the child is narrow (``width <= small_width``) or the
    merge is near-exact — its explicit zeros are at most 1 % of the merged
    node's stored entries (``100 * extra <= new_entries``, exact in
    integers) — AND the merged node's stored entries stay within
    ``(1 + max_extra_fill_ratio)`` of its *structural* entries. The
    structural bound is cumulative, so total factor storage is bounded by
    ``(1 + ratio) * nnz(L)`` regardless of how many merges fire. The
    near-exact rule is what folds the wide chains at the top of a 3D
    nested-dissection tree into few large fronts.

    A node's rows and structural entries are fixed by its column range, so
    a verdict depends only on the two ranges: a rejected pair is not judged
    again on a later pass unless one of its nodes has grown.
    """
    n = parent.size
    if n == 0:
        return part, []
    starts = part.sn_start[:-1].tolist()
    rows_by_start = {s: patterns[s] for s in starts}
    widths = dict(zip(starts, np.diff(part.sn_start).tolist()))
    # Structural (no-amalgamation) entries per supernode: sum of the column
    # counts of its columns.
    col_counts = np.asarray([p.size for p in patterns], dtype=np.int64)
    struct = dict(zip(starts, np.add.reduceat(col_counts, part.sn_start[:-1]).tolist()))
    rejected: set[tuple[int, int, int, int]] = set()

    merged = True
    while merged:
        merged = False
        i = 1
        while i < len(starts):
            c_start = starts[i - 1]
            p_start = starts[i]
            c_width = widths[c_start]
            p_width = widths[p_start]
            key = (c_start, c_width, p_start, p_width)
            if key in rejected:
                i += 1
                continue
            c_rows = rows_by_start[c_start]
            p_rows = rows_by_start[p_start]
            # Contiguity: child columns end exactly at parent start, and the
            # child's first update row (its first row past its own columns)
            # must land inside the parent pivot block (otherwise p is not
            # c's assembly-tree parent).
            if c_rows.size == c_width or c_rows[c_width] >= p_start + p_width:
                rejected.add(key)
                i += 1
                continue
            # The child's update rows lie in the parent's rows: its columns
            # all descend from its last one, whose etree parent is in p. So
            # the merged node holds the child's columns and the parent's
            # rows, and the merge adds no row. (The front plan re-checks this
            # containment for every assembly edge.)
            new_width = c_width + p_width
            old_entries = trapezoid_entries(c_rows.size, c_width) + trapezoid_entries(
                p_rows.size, p_width
            )
            new_entries = trapezoid_entries(c_width + p_rows.size, new_width)
            extra = new_entries - old_entries
            struct_merged = struct[c_start] + struct[p_start]
            candidate = c_width <= small_width or 100 * extra <= new_entries
            within_budget = new_entries <= (1.0 + max_extra_fill_ratio) * struct_merged
            if candidate and within_budget:
                # Merge: drop parent start.
                new_rows = np.concatenate([c_rows[:c_width], p_rows])
                del starts[i]
                widths.pop(p_start)
                widths[c_start] = new_width
                rows_by_start.pop(p_start)
                rows_by_start[c_start] = new_rows
                struct[c_start] = struct_merged
                struct.pop(p_start)
                merged = True
                # Stay at the same position to consider merging further up.
            else:
                rejected.add(key)
                i += 1
    return partition_from_starts(starts, n), [rows_by_start[s] for s in starts]


def supernode_rows(
    part: SupernodePartition, patterns: list[np.ndarray]
) -> list[np.ndarray]:
    """Union row structure per supernode: its own columns and every row of
    their patterns, sorted (the first ``width`` entries are exactly the
    supernode's own columns)."""
    out = []
    for s in range(part.n_supernodes):
        c0, c1 = int(part.sn_start[s]), int(part.sn_start[s + 1])
        pieces = [np.arange(c0, c1, dtype=np.int64)]
        pieces.extend(patterns[j] for j in range(c0, c1))
        out.append(np.unique(np.concatenate(pieces)))
    return out
