"""Debug-mode invariant sanitizer.

Validation routines for the structures every phase of the solver shares:
CSC index arrays, permutations, elimination trees, supernode
partitions, and the front plan's assembly tables. Each check raises
:class:`~repro.util.errors.InvariantError` with enough evidence (indices,
offending values) to locate the corruption.

The checks are installed into hot paths behind the ``REPRO_CHECK=1``
environment switch (see :func:`enabled` /
:func:`repro.util.validation.runtime_checks_enabled`): matrix constructors
with ``_skip_check=True`` re-validate, and the analyze phase checks the
full symbolic factor (and an LU analysis its assembly table). When the
switch is off the hooks cost one predicate call — no structure is walked.

The routines are duck-typed on purpose: they accept anything with the
right attributes, so this module sits at the bottom of the dependency
graph (it imports only :mod:`numpy` and :mod:`repro.util`) and every layer
can call into it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.util.errors import InvariantError, ReproError
from repro.util.validation import (
    check_compressed as _check_compressed,
    check_permutation as _check_permutation,
    runtime_checks_enabled,
    set_runtime_checks,
)

__all__ = [
    "enabled",
    "sanitized",
    "check_csc",
    "check_permutation",
    "check_etree",
    "check_postordered",
    "check_partition",
    "check_symbolic",
    "check_full_table",
]

#: alias for the switch every hook consults
enabled = runtime_checks_enabled


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Context manager forcing the sanitizer switch on (or off) within a
    block; restores the previous state on exit. Test helper."""
    previous = set_runtime_checks(on)
    try:
        yield
    finally:
        set_runtime_checks(previous)


def _fail(message: str) -> "InvariantError":
    return InvariantError(f"sanitizer: {message}")


# -- compressed-format well-formedness ---------------------------------------


def check_csc(matrix: Any) -> None:
    """CSC well-formedness: the shared index checks of
    :func:`repro.util.validation.check_compressed`, plus finite values.
    *matrix* needs ``shape``, ``indptr``, ``indices`` and ``data``."""
    data = np.asarray(matrix.data)
    try:
        _check_compressed(
            matrix.shape, np.asarray(matrix.indptr), np.asarray(matrix.indices), data
        )
    except ReproError as exc:
        raise _fail(str(exc)) from exc
    if data.size and not np.all(np.isfinite(data)):
        k = int(np.argmin(np.isfinite(data)))
        raise _fail(f"non-finite value at position {k}: {data[k]!r}")


# -- permutations ------------------------------------------------------------


def check_permutation(perm: Any, n: int, name: str = "perm") -> None:
    """*perm* must be a permutation of ``range(n)``."""
    try:
        _check_permutation(perm, n, name)
    except ReproError as exc:
        raise _fail(str(exc)) from exc


# -- elimination trees -------------------------------------------------------


def check_etree(parent: Any) -> None:
    """Elimination-tree validity: parent pointers in range and acyclic."""
    p = np.asarray(parent, dtype=np.int64)
    n = p.size
    if n == 0:
        return
    if p.ndim != 1:
        raise _fail(f"parent must be 1-D; got shape {p.shape}")
    bad = np.flatnonzero((p < -1) | (p >= n))
    if bad.size:
        j = int(bad[0])
        raise _fail(f"parent[{j}] = {int(p[j])} out of range [-1, {n})")
    if np.any(p == np.arange(n)):
        j = int(np.argmax(p == np.arange(n)))
        raise _fail(f"self-loop: parent[{j}] == {j}")
    # Cycle detection by chain-walking with path marking: color[j] = 0
    # unvisited, 1 on the current chain, 2 settled.
    color = np.zeros(n, dtype=np.int8)
    for j0 in range(n):
        if color[j0]:
            continue
        j = j0
        chain = []
        while j >= 0 and color[j] == 0:
            color[j] = 1
            chain.append(j)
            j = int(p[j])
        if j >= 0 and color[j] == 1:
            raise _fail(f"elimination tree contains a cycle through node {j}")
        for c in chain:
            color[c] = 2


def check_postordered(parent: Any) -> None:
    """Postorder consistency: valid etree with ``parent[j] > j`` everywhere
    (children numbered before parents — the multifrontal stack invariant)."""
    check_etree(parent)
    p = np.asarray(parent, dtype=np.int64)
    viol = np.flatnonzero((p >= 0) & (p <= np.arange(p.size)))
    if viol.size:
        j = int(viol[0])
        raise _fail(
            f"not postordered: parent[{j}] = {int(p[j])} <= {j}"
        )


# -- supernode partitions ----------------------------------------------------


def check_partition(partition: Any, n: int) -> None:
    """Supernode partition coverage: ``sn_start`` strictly increasing from
    0 to n, and ``col_to_sn`` consistent with it."""
    sn_start = np.asarray(partition.sn_start, dtype=np.int64)
    if sn_start.ndim != 1 or sn_start.size < 1:
        raise _fail(f"sn_start must be 1-D and nonempty; got shape {sn_start.shape}")
    if sn_start[0] != 0:
        raise _fail(f"sn_start[0] must be 0; got {int(sn_start[0])}")
    if sn_start[-1] != n:
        raise _fail(
            f"partition covers [0, {int(sn_start[-1])}) but the matrix has "
            f"{n} columns"
        )
    if np.any(np.diff(sn_start) <= 0):
        s = int(np.argmax(np.diff(sn_start) <= 0))
        raise _fail(f"empty or reversed supernode at position {s}")
    col_to_sn = np.asarray(partition.col_to_sn, dtype=np.int64)
    if col_to_sn.size != n:
        raise _fail(
            f"col_to_sn has {col_to_sn.size} entries for {n} columns"
        )
    expect = np.repeat(
        np.arange(sn_start.size - 1, dtype=np.int64), np.diff(sn_start)
    )
    if not np.array_equal(col_to_sn, expect):
        j = int(np.argmax(col_to_sn != expect))
        raise _fail(
            f"col_to_sn[{j}] = {int(col_to_sn[j])} but column {j} lies in "
            f"supernode {int(expect[j])}"
        )


# -- whole symbolic factors --------------------------------------------------


def check_symbolic(sym: Any) -> None:
    """Composite invariant check of a :class:`~repro.symbolic.analyze.
    SymbolicFactor`: permutation validity, postordered etree, partition
    coverage, per-supernode row structure, assembly-tree consistency, the
    front plan's index tables (every matrix entry lands once, on its own
    row and column, inside the lower trapezoid; every child's update rows
    map onto the same global rows of its parent), and its front classes
    (:func:`_check_front_classes`)."""
    n = int(sym.n)
    check_permutation(sym.perm, n)
    check_postordered(sym.parent)
    check_partition(sym.partition, n)
    check_csc(sym.permuted_lower)
    nsn = int(sym.partition.n_supernodes)
    sn_start = np.asarray(sym.partition.sn_start, dtype=np.int64)
    plan = sym.front_plan
    if len(plan.a_pos) != sym.permuted_lower.indices.size or len(plan.rel) != nsn:
        raise _fail(
            f"front plan covers {len(plan.a_pos)} entries and {len(plan.rel)} "
            f"supernodes; the factor has {sym.permuted_lower.indices.size} and {nsn}"
        )
    for s in range(nsn):
        c0, c1 = int(sn_start[s]), int(sn_start[s + 1])
        rows = np.asarray(sym.sn_rows[s], dtype=np.int64)
        w = c1 - c0
        if rows.size < w or not np.array_equal(rows[:w], np.arange(c0, c1)):
            raise _fail(
                f"supernode {s}: first {w} rows must be its own columns "
                f"[{c0}, {c1}); got {rows[:w].tolist()}"
            )
        if rows.size > 1 and np.any(np.diff(rows) <= 0):
            raise _fail(f"supernode {s}: row structure unsorted")
        p = int(sym.sn_parent[s])
        if p >= 0 and not (0 <= p < nsn and p > s):
            raise _fail(
                f"supernode {s}: assembly-tree parent {p} invalid "
                f"(must be in ({s}, {nsn}))"
            )
        _check_front_plan(sym, s, c0, w, rows)
    _check_front_classes(sym)


def _check_front_classes(sym: Any) -> None:
    """The front classes the triangular sweeps step through: they
    partition the supernodes; a class's members share (height, m, w) and
    ascend; classes ascend in height and every parent is higher than its
    children; each class gathers its members' pivot rows and publishes
    their update rows where the previous class stopped; the forward pull
    lists every published row once, within a round for distinct rows, in
    a class after its source's and no later than its target's, and with
    ascending sources within each target row."""
    plan = sym.front_plan
    cl = plan.classes
    nsn = int(sym.partition.n_supernodes)
    ptr = np.asarray(cl.ptr, dtype=np.int64)
    members = np.asarray(cl.members, dtype=np.int64)
    ncls = ptr.size - 1
    if (
        ptr[0] != 0 or np.any(np.diff(ptr) <= 0) or ptr[-1] != nsn
        or not np.array_equal(np.sort(members), np.arange(nsn))
    ):
        raise _fail("front classes do not partition the supernodes")
    of = np.repeat(np.arange(ncls), np.diff(ptr))
    if np.any((np.diff(members) <= 0) & (of[1:] == of[:-1])):
        c = int(of[1:][np.argmax((np.diff(members) <= 0) & (of[1:] == of[:-1]))])
        raise _fail(f"front class {c}: members not ascending")
    order = np.asarray(plan.order, dtype=np.int64)[members]
    width = np.asarray(plan.width, dtype=np.int64)[members]
    wrong = (order != np.asarray(cl.order)[of]) | (width != np.asarray(cl.width)[of])
    if wrong.any():
        c = int(of[np.argmax(wrong)])
        raise _fail(f"front class {c}: members of (m, w) other than ({cl.order[c]}, {cl.width[c]})")
    if np.any(np.diff(cl.height) < 0):
        raise _fail("front classes do not ascend in height")
    slot = np.arange(nsn) - ptr[of]
    if not (np.array_equal(cl.of[members], of) and np.array_equal(cl.slot[members], slot)):
        raise _fail("front classes: per-supernode class or slot disagree with the members")
    height = np.empty(nsn, dtype=np.int64)
    height[members] = np.asarray(cl.height)[of]
    parent = np.asarray(sym.sn_parent, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    low = child[height[parent[child]] <= height[child]]
    if low.size:
        raise _fail(f"supernode {int(low[0])}: its parent is not higher than itself")
    # each class's rows laid out (position, member), and the member of each
    pivots, updates, source = [], [], []
    for c in range(ncls):
        mem = members[ptr[c]: ptr[c + 1]].tolist()
        w = int(cl.width[c])
        pivots.append((np.asarray(plan.start)[mem][None, :] + np.arange(w)[:, None]).ravel())
        rows = np.stack([np.asarray(sym.sn_rows[s][w:]) for s in mem], axis=1)
        updates.append(rows.ravel())
        source.append(np.tile(mem, rows.shape[0]))
    pivots, updates, source = (np.concatenate(v or [ptr[:0]]) for v in (pivots, updates, source))
    piv_ptr = np.concatenate(([0], np.cumsum(np.diff(ptr) * cl.width)))
    pub_ptr = np.concatenate(([0], np.cumsum(np.diff(ptr) * (np.asarray(cl.order) - cl.width))))
    if not (
        np.array_equal(cl.pivots, pivots) and np.array_equal(cl.piv_ptr, piv_ptr)
        and np.array_equal(cl.update_rows, updates) and np.array_equal(cl.pub_ptr, pub_ptr)
    ):
        raise _fail("front classes: pivot rows or published update rows misplaced")
    # the pull
    rounds = np.asarray(cl.class_rounds, dtype=np.int64)
    bounds = np.asarray(cl.round_ptr, dtype=np.int64)
    if rounds.size != ncls + 1 or rounds[0] != 0 or np.any(np.diff(rounds) < 0) or (
        bounds[0] != 0 or np.any(np.diff(bounds) <= 0) or bounds[-1] != np.asarray(cl.pull_to).size
        or rounds[-1] != bounds.size - 1
    ):
        raise _fail("front classes: pull rounds malformed")
    to = np.asarray(cl.pull_to, dtype=np.int64)
    src = np.asarray(cl.pull_from, dtype=np.int64)
    rnd = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    at = np.repeat(np.arange(ncls), np.diff(rounds))[rnd]
    key = np.sort(rnd * sym.n + to)
    if np.any(np.diff(key) == 0):
        r = int(key[np.argmax(np.diff(key) == 0)] // sym.n)
        raise _fail(f"front class {int(at[bounds[r]])}: pull round {r} updates a row twice")
    if not np.array_equal(np.sort(src), np.arange(updates.size)):
        raise _fail("the forward pull does not list every published row once")
    if not np.array_equal(updates[src], to):
        raise _fail("the forward pull subtracts a published row from another row")
    source = source[src]
    owner = np.asarray(cl.of, dtype=np.int64)[np.asarray(sym.partition.col_to_sn)[to]]
    late = (at <= np.asarray(cl.of)[source]) | (at > owner)
    if late.any():
        i = int(np.argmax(late))
        raise _fail(
            f"front class {int(at[i])}: pulls row {int(to[i])} from supernode "
            f"{int(source[i])} outside the classes between its source and its owner"
        )
    by_row = np.argsort(to, kind="stable")
    same = to[by_row][1:] == to[by_row][:-1]
    if np.any(same & (np.diff(source[by_row]) <= 0)):
        raise _fail("the forward pull does not take a row's sources in ascending order")


def _check_front_plan(sym: Any, s: int, c0: int, w: int, rows: np.ndarray) -> None:
    """Supernode *s*'s share of the front plan against the structures it
    was compiled from: its plain-int geometry, the front positions of its
    matrix entries, and the parent positions of its update rows."""
    plan = sym.front_plan
    indptr = np.asarray(sym.permuted_lower.indptr)
    indices = np.asarray(sym.permuted_lower.indices)
    m = rows.size
    lo, hi = int(indptr[c0]), int(indptr[c0 + w])
    geometry = (plan.start[s], plan.width[s], plan.order[s], plan.a_ptr[s], plan.a_ptr[s + 1])
    if geometry != (c0, w, m, lo, hi):
        raise _fail(
            f"supernode {s}: front plan geometry {geometry} != (start, width, "
            f"order, first entry, end entry) {(c0, w, m, lo, hi)}"
        )
    pos = np.asarray(plan.a_pos[lo:hi], dtype=np.int64)
    if np.unique(pos).size != pos.size:
        raise _fail(f"supernode {s}: two matrix entries share one front position")
    if pos.size and (pos.min() < 0 or pos.max() >= m * m):
        raise _fail(f"supernode {s}: assembly position outside the {m}x{m} front")
    local_row, k = np.divmod(pos, m)
    col = c0 + np.repeat(np.arange(w), np.diff(indptr[c0: c0 + w + 1]))
    wrong = (k >= w) | (local_row < k) | (rows[local_row] != indices[lo:hi]) | (c0 + k != col)
    if wrong.any():
        e = int(np.argmax(wrong))
        raise _fail(
            f"supernode {s}: matrix entry ({int(indices[lo + e])}, {int(col[e])}) "
            f"is assembled at front position ({int(local_row[e])}, {int(k[e])})"
        )
    p = int(sym.sn_parent[s])
    parent_rows = np.asarray(sym.sn_rows[p], dtype=np.int64) if p >= 0 else rows[:0]
    rel = np.asarray(plan.rel[s], dtype=np.int64)
    if (
        rel.size != m - w
        or np.any(np.diff(rel) <= 0)
        or (rel.size and (rel[0] < 0 or rel[-1] >= parent_rows.size))
        or not np.array_equal(parent_rows[rel], rows[w:])
    ):
        raise _fail(
            f"supernode {s}: front plan maps update rows {rows[w:][:5].tolist()} "
            f"to positions {rel[:5].tolist()} of parent {p}"
        )


def check_full_table(sym: Any) -> None:
    """The LU assembly table of an LU analysis (``sym.permuted_full`` and
    the plan's ``full_*`` arrays): every stored entry of the full matrix is
    listed exactly once, by one supernode, at the front position of its
    own row and column inside that supernode's pivot rows or columns."""
    plan, full = sym.front_plan, sym.permuted_full
    nnz = int(full.indices.size)
    nsn = int(sym.partition.n_supernodes)
    ptr = np.asarray(plan.full_ptr, dtype=np.int64)
    src = np.asarray(plan.full_src, dtype=np.int64)
    pos = np.asarray(plan.full_pos, dtype=np.int64)
    if (
        ptr.size != nsn + 1 or ptr[0] != 0 or ptr[-1] != nnz
        or np.any(np.diff(ptr) < 0) or src.size != nnz or pos.size != nnz
    ):
        raise _fail(
            f"LU table covers {src.size} entries in {ptr.size - 1} supernodes; "
            f"the full matrix has {nnz} and the factor {nsn}"
        )
    if not np.array_equal(np.sort(src), np.arange(nnz)):
        raise _fail("LU table does not list every stored entry exactly once")
    sn = np.repeat(np.arange(nsn), np.diff(ptr))
    m = np.asarray(plan.order, dtype=np.int64)[sn]
    if nnz and (pos.min() < 0 or np.any(pos >= m * m)):
        e = int(np.argmax((pos < 0) | (pos >= m * m)))
        raise _fail(f"supernode {int(sn[e])}: LU assembly position outside its front")
    r, c = np.divmod(pos, m)
    first_row = np.concatenate(([0], np.cumsum(plan.order)))[sn]
    front_rows = np.concatenate(sym.sn_rows)
    col = np.repeat(np.arange(full.shape[1]), np.diff(full.indptr))[src]
    row = np.asarray(full.indices, dtype=np.int64)[src]
    wrong = (
        (front_rows[first_row + r] != row)
        | (front_rows[first_row + c] != col)
        | (np.minimum(r, c) >= np.asarray(plan.width, dtype=np.int64)[sn])
    )
    if wrong.any():
        e = int(np.argmax(wrong))
        raise _fail(
            f"supernode {int(sn[e])}: full-matrix entry ({int(row[e])}, {int(col[e])}) "
            f"is assembled at front position ({int(r[e])}, {int(c[e])})"
        )

