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

The plan also groups the supernodes into *front classes*
(:func:`build_front_classes`): the fronts of one height in the assembly
tree, one order m and one pivot width w. No member of a class is an
ancestor of another, so the triangular sweeps run one step per class over
a stack of its members, and the factor stores each class's panels as one
``(k, m, w)`` array. The class tables are value-free too: members, the
rows each class gathers, where each update panel is published during the
forward sweep, and the table from which each class pulls the updates
into its pivot rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import SupernodePartition
from repro.util.errors import InvariantError


class Runs(Sequence):
    """Consecutive runs of one flat array: run i is ``flat[ptr[i]:ptr[i + 1]]``,
    a view made on access, so a plan holds no object per run."""

    def __init__(self, flat: np.ndarray, ptr: np.ndarray) -> None:
        self.flat, self.ptr = flat, ptr

    def __len__(self) -> int:
        return int(self.ptr.size) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i %= len(self)
        return self.flat[self.ptr[i]: self.ptr[i + 1]]


@dataclass(frozen=True)
class FrontClasses:
    """The front classes of an analysis, as flat tables.

    A class is the set of fronts of one height in the assembly tree, one
    order m and one pivot width w. Heights count from the leaves (a leaf
    is 0, a parent one above its highest child), so a class holds no
    ancestor of its own members and every descendant of a member sits in
    a lower class. Classes are numbered by ascending height, the forward
    sweep's order; a ``*_ptr`` array holds class c's share of its table
    at ``[ptr[c], ptr[c + 1])``. Index tables are ``int32``.
    """

    #: class c holds the supernodes ``members[ptr[c]:ptr[c + 1]]``, ascending
    ptr: np.ndarray
    members: np.ndarray
    #: per class: its height, front order m and pivot width w
    height: np.ndarray
    order: np.ndarray
    width: np.ndarray
    #: per supernode: its class, and its position among the class's members
    of: np.ndarray
    slot: np.ndarray
    #: the members' pivot rows, class by class, then position by position
    #: with the members beside each other: class c's, reshaped
    #: ``(w, k)``, hold member i's rows in column i
    pivots: np.ndarray
    piv_ptr: np.ndarray
    #: per row of the published forward-update buffer: the row it updates.
    #: Class c publishes its members' update rows in rows
    #: ``pub_ptr[c]:pub_ptr[c + 1]``, laid out ``(m − w, k)`` as its pivot
    #: rows are
    update_rows: np.ndarray
    pub_ptr: np.ndarray
    #: the forward pull, round by round: round r subtracts the published
    #: rows ``pull_from[lo:hi]`` from the rows ``pull_to[lo:hi]`` (distinct
    #: within a round), ``lo, hi = round_ptr[r], round_ptr[r + 1]``. Class
    #: c runs rounds ``class_rounds[c]:class_rounds[c + 1]`` before its
    #: step: the first class of a height pulls into the pivot rows of every
    #: class of that height, the others pull nothing. A row's r-th round
    #: brings its r-th source in ascending supernode order, and every
    #: published row is pulled once.
    pull_to: np.ndarray
    pull_from: np.ndarray
    round_ptr: np.ndarray
    class_rounds: np.ndarray

    def __len__(self) -> int:
        return int(self.height.size)


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
    rel: Runs
    #: the front classes: the steps of the triangular sweeps and the unit
    #: of the factor's panel storage
    classes: FrontClasses
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
    # the classes first, while the tables below are not yet built
    classes = build_front_classes(part, sn_rows, sn_parent)
    nsn = part.n_supernodes
    sn_start = part.sn_start
    start = sn_start[:-1].tolist()
    width = np.diff(sn_start).tolist()
    order = [int(r.size) for r in sn_rows]
    a_ptr = a.indptr[sn_start].tolist()
    local_row = np.empty(a.nnz, dtype=np.int64)
    rel: list[np.ndarray] = []  # gathered into one flat table below
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
    return FrontPlan(
        start=start, width=width, order=order, a_ptr=a_ptr, a_pos=a_pos,
        rel=Runs(
            np.concatenate(rel or [np.zeros(0, dtype=np.int64)]).astype(np.int32),
            np.concatenate(([0], np.cumsum([r.size for r in rel], dtype=np.int64))),
        ),
        classes=classes,
    )


def build_front_classes(
    part: SupernodePartition, sn_rows: list[np.ndarray], sn_parent: np.ndarray
) -> FrontClasses:
    """Group the supernodes by (height, m, w): classes by ascending height,
    members ascending.

    The published buffer holds the classes' update panels in class order.
    The pull subtracts every published row once, before the classes of
    the height its row belongs to, and each row's sources in ascending
    supernode order — the per-element order of a per-front forward sweep.
    A row of a height with several sources takes one per round, so a
    round is a plain fancy-indexed subtraction.
    """
    nsn, n = part.n_supernodes, int(part.sn_start[-1])
    parent = sn_parent.tolist()
    height = [0] * nsn
    for s in range(nsn):  # postorder: children first
        p = parent[s]
        if p >= 0 and height[p] <= height[s]:
            height[p] = height[s] + 1
    h = np.asarray(height, dtype=np.int64)
    w = np.diff(part.sn_start)
    m = np.asarray([r.size for r in sn_rows], dtype=np.int64)
    srt = np.lexsort((np.arange(nsn), w, m, h))
    new = np.flatnonzero(np.diff(h[srt]) | np.diff(m[srt]) | np.diff(w[srt])) + 1
    ptr = np.concatenate(([0], new, [nsn]))
    sizes = np.diff(ptr)
    of = np.empty(nsn, dtype=np.int64)
    of[srt] = np.repeat(np.arange(sizes.size), sizes)
    slot = np.empty(nsn, dtype=np.int64)
    slot[srt] = np.arange(nsn) - np.repeat(ptr[:-1], sizes)
    first = srt[ptr[:-1]]
    mu = m - w

    def spread(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where runs of *lengths* rows, one per supernode and laid out
        supernode by supernode, land when laid out class by class,
        position by position, member by member; and the classes' starts."""
        cls_ptr = np.concatenate(([0], np.cumsum(sizes * lengths[first])))
        j = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        j *= np.repeat(sizes[of], lengths)
        j += np.repeat(cls_ptr[:-1][of] + slot, lengths)
        return cls_ptr, j.astype(np.int32)

    # pivot rows: supernode by supernode they are 0 .. n - 1
    piv_ptr, at = spread(w)
    pivots = np.empty(n, dtype=np.int64)
    pivots[at] = np.arange(n)
    pivots = pivots.astype(np.int32)
    # every update row, supernode by supernode (rows), and where it is
    # published (at)
    rows = np.concatenate(
        [r[k:] for r, k in zip(sn_rows, w.tolist())] or [np.zeros(0, dtype=np.int64)]
    ).astype(np.int32)
    pub_ptr, at = spread(mu)
    update_rows = np.empty_like(rows)
    update_rows[at] = rows
    # The pull: a stable sort by target row keeps each row's sources
    # ascending; a row's r-th source goes to round r of its height.
    by_row = np.argsort(rows, kind="stable")
    target = rows[by_row]
    starts = np.flatnonzero(np.concatenate(([True], target[1:] != target[:-1])))
    rank = np.arange(rows.size).astype(np.int32)
    rank -= np.repeat(starts.astype(np.int32), np.diff(np.append(starts, rows.size)))
    key = h[part.col_to_sn[target]]
    key *= int(rank.max(initial=0)) + 1
    key += rank
    del starts, rank, target
    order = np.argsort(key, kind="stable")
    pull = by_row[order]
    del by_row
    key = key[order]
    del order
    cuts = np.flatnonzero(np.diff(key)) + 1
    round_ptr = np.concatenate(([0], cuts, [key.size])) if key.size else np.zeros(1, dtype=np.int64)
    # the rounds of a height run before the first class of that height
    round_h = h[part.col_to_sn[rows[pull[round_ptr[:-1]]]]]
    hc = h[first]
    leads = np.concatenate(([True], hc[1:] != hc[:-1]))
    class_rounds = np.where(
        leads, np.searchsorted(round_h, hc, "left"), np.searchsorted(round_h, hc, "right")
    )
    return FrontClasses(
        ptr=ptr,
        members=srt.astype(np.int32),
        height=hc,
        order=m[first],
        width=w[first],
        of=of.astype(np.int32),
        slot=slot.astype(np.int32),
        pivots=pivots,
        piv_ptr=piv_ptr,
        update_rows=update_rows,
        pub_ptr=pub_ptr,
        pull_to=rows[pull],
        pull_from=at[pull],
        round_ptr=round_ptr,
        class_rounds=np.append(class_rounds, round_h.size),
    )


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
