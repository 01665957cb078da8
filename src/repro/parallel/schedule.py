"""The compiled communication schedule.

Which rank sends which rectangle of a child's update matrix to which owner
of the parent's blocks — and which rhs segment during the solves — is fixed
by the plan. It is compiled here once per plan (lazily per child) into
small ``int32`` tables that all simulated ranks share read-only; the rank
programs only execute them (:mod:`repro.parallel.dist_front`,
:mod:`repro.parallel.solve_par`).

The tables are value-free (they index into matrix data and front blocks,
never hold entries) and per *run* or per *run pair*, never per entry: a run
is a maximal stretch of a child's update rows inside one child block and
one parent block, so a pair of runs is one rectangle of one child block
landing in one parent block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.plan import FactorPlan, SupernodeDist

#: key of the single "block" standing for a sequential front or update
SEQ = -1

Index = slice | np.ndarray


def _grouped(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort by *keys* (first is primary): the order and the
    boundaries (length groups + 1) of the runs of equal keys in it."""
    order = np.lexsort(tuple(keys)[::-1])
    if order.size == 0:
        return order, np.zeros(1, dtype=np.intp)
    change = np.zeros(order.size - 1, dtype=bool)
    for k in keys:
        ks = k[order]
        change |= ks[1:] != ks[:-1]
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [order.size]))
    return order, bounds


class Routes:
    """Items grouped by ``(sender, dest)``.

    ``groups`` rows are ``(sender, dest, lo, hi, count)`` sorted by
    (sender, dest); ``items[lo:hi]`` are the group's items in their
    original order and *count* is the message's entry (or row) count.
    """

    __slots__ = ("groups", "items")

    def __init__(
        self, sender: np.ndarray, dest: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        order, bounds = _grouped((sender, dest))
        lo, hi = bounds[:-1], bounds[1:]
        totals = np.add.reduceat(counts[order], lo)
        first = order[lo]
        self.groups = np.column_stack(
            (sender[first], dest[first], lo, hi, totals)
        ).astype(np.int32)
        self.items = items[order].astype(np.int32)

    def pairs(self) -> set[tuple[int, int]]:
        return {(s, d) for s, d, *_ in self.groups.tolist()}

    def sending(self, rank: int) -> list[list[int]]:
        """Group rows sent by *rank*, destination ascending."""
        return self.groups[self.groups[:, 0] == rank].tolist()

    def receiving(self, rank: int) -> list[list[int]]:
        """Group rows destined to *rank*: its own first, then the other
        senders ascending — the accumulation order of every front entry."""
        rows = self.groups[self.groups[:, 1] == rank].tolist()
        rows.sort(key=lambda g: g[0] != rank)
        return rows


def _block_owners(d: SupernodeDist, bi: np.ndarray, bj: np.ndarray) -> np.ndarray:
    if d.grid is None:
        return np.full(bi.shape, d.group[0], dtype=np.int64)
    g = d.grid
    return np.asarray(g.ranks)[(bi % g.gr) * g.gc + bj % g.gc]


class ChildSchedule:
    """Everything static about moving child *c*'s update (factorization)
    and rhs segments (solves) into and out of its parent."""

    __slots__ = ("parent", "runs", "child_side", "parent_side", "solve", "_ea", "_dists")

    def __init__(self, plan: FactorPlan, c: int) -> None:
        sym = plan.sym
        self.parent = int(sym.sn_parent[c])
        dc, dp = plan.dist[c], plan.dist[self.parent]
        self._dists = (dc, dp)
        # front-local positions in the parent of the child's update rows
        pa = sym.front_plan.rel[c]
        mu = pa.size
        rows = np.arange(dc.width, dc.width + mu)
        cb = np.full(mu, SEQ) if dc.is_seq else dc.block_of(rows)
        pb = np.full(mu, SEQ) if dp.is_seq else dp.block_of(pa)
        i0 = np.concatenate(
            ([0], np.flatnonzero((cb[1:] != cb[:-1]) | (pb[1:] != pb[:-1])) + 1)
        )
        i1 = np.append(i0[1:], mu)
        cb, pb = cb[i0], pb[i0]
        #: (i_start, i_end, child_block, parent_block) per run
        self.runs = np.column_stack((i0, i1, cb, pb)).astype(np.int32)
        # Rows of each run inside its child block and inside its parent
        # block (a slice when contiguous there, else an index array).
        n = (i1 - i0).tolist()
        coff = (i0 if dc.is_seq else rows[i0] - dc.starts[cb]).tolist()
        pa_local = pa if dp.is_seq else pa - np.repeat(dp.starts[pb], n)
        into: list[Index] = [
            slice(o, o + k) if last - o == k - 1 else pa_local[lo:hi]
            for lo, hi, k, o, last in zip(
                i0.tolist(), i1.tolist(), n, pa_local[i0].tolist(), pa_local[i1 - 1].tolist()
            )
        ]
        #: per run: the child block holding it, and its rows there
        self.child_side = (cb.tolist(), [slice(o, o + k) for o, k in zip(coff, n)])
        #: per run: the parent block receiving it, and its rows there
        self.parent_side = (pb.tolist(), into)
        # Solve routes: row-block owners on both sides, one item per run.
        self.solve = Routes(
            np.asarray(dc.group)[cb % len(dc.group)],
            np.asarray(dp.group)[pb % len(dp.group)],
            np.arange(i0.size),
            i1 - i0,
        )
        self._ea: dict[str, Routes] = {}

    def ea(self, triangle: str = "lower") -> Routes:
        """Extend-add routes: items are run pairs ``(a, b)`` — every pair
        with ``b <= a`` for the symmetric lower triangle, all pairs for
        ``triangle="full"`` (LU)."""
        if triangle not in self._ea:
            dc, dp = self._dists
            n_runs = self.runs.shape[0]
            if triangle == "lower":
                a, b = np.tril_indices(n_runs)
            else:
                a, b = (x.ravel() for x in np.indices((n_runs, n_runs)))
            cb, pb = self.runs[:, 2], self.runs[:, 3]
            n = (self.runs[:, 1] - self.runs[:, 0]).astype(np.int64)
            counts = n[a] * n[b]
            if triangle == "lower":
                diag = a == b
                counts[diag] = n[a[diag]] * (n[a[diag]] + 1) // 2
            self._ea[triangle] = Routes(
                _block_owners(dc, cb[a], cb[b]),
                _block_owners(dp, pb[a], pb[b]),
                np.column_stack((a, b)),
                counts,
            )
        return self._ea[triangle]


class ScatterMap:
    """Where the matrix entries of a distributed supernode's pivot columns
    go: ``groups`` rows are ``(owner, bi, bj, lo, hi)`` and entries
    ``lo:hi`` are ``data[src]`` landing at block-local ``(row, col)``."""

    __slots__ = ("groups", "src", "row", "col")

    def __init__(
        self, d: SupernodeDist, src: np.ndarray, row: np.ndarray, col: np.ndarray
    ) -> None:
        bi, bj = d.block_of(row), d.block_of(col)
        owner = _block_owners(d, bi, bj)
        order, bounds = _grouped((owner, bi, bj))
        first = order[bounds[:-1]]
        self.groups = np.column_stack(
            (owner[first], bi[first], bj[first], bounds[:-1], bounds[1:])
        ).astype(np.int32)
        self.src = src[order].astype(np.int32)
        self.row = (row - d.starts[bi])[order].astype(np.int32)
        self.col = (col - d.starts[bj])[order].astype(np.int32)

    def owned_by(self, rank: int) -> list[list[int]]:
        """``(bi, bj, lo, hi)`` of the groups *rank* owns."""
        return self.groups[self.groups[:, 0] == rank, 1:].tolist()
