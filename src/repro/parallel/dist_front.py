"""Front blocks held by one rank, and the executors of the compiled
extend-add schedule over them.

A front (or update matrix) a rank holds is a dict of dense blocks keyed by
block coordinates: the owned ``(bi, bj)`` blocks of a distributed front, or
the single block ``(SEQ, SEQ)`` of a sequential one — so one executor
serves every combination of sequential/distributed child and parent.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.parallel.plan import FactorPlan, SupernodeDist
from repro.parallel.schedule import SEQ, ChildSchedule, ScatterMap
from repro.simmpi.ops import Recv, Send

Blocks = dict[tuple[int, int], np.ndarray]

#: message tag of the extend-add of each update shape: the symmetric lower
#: triangle (Cholesky/LDLᵀ) or the full square (LU)
_TAG = {"lower": "ea", "full": "lea"}


class LocalFront:
    """The blocks of a distributed front owned by one rank (lower-triangle
    blocks only for symmetric fronts, all blocks for LU)."""

    __slots__ = ("d", "me", "blocks")

    def __init__(self, d: SupernodeDist, me: int, lower_only: bool = True):
        self.d = d
        self.me = me
        self.blocks: Blocks = {}
        for bi, bj in d.grid.owned_blocks(me, d.nblocks, lower_only=lower_only):
            r0, r1 = d.block_range(bi)
            c0, c1 = d.block_range(bj)
            self.blocks[(bi, bj)] = np.zeros((r1 - r0, c1 - c0))

    def block(self, bi: int, bj: int) -> np.ndarray:
        return self.blocks[(bi, bj)]

    def owns(self, bi: int, bj: int) -> bool:
        return (bi, bj) in self.blocks

    @property
    def entries(self) -> int:
        return sum(b.size for b in self.blocks.values())

    def update_blocks(self) -> Blocks:
        """The trailing (update-region) blocks: this rank's share of the
        supernode's update matrix once the pivots are eliminated."""
        npb = self.d.npb
        return {k: b for k, b in self.blocks.items() if min(k) >= npb}

    def scatter(self, smap: ScatterMap, data: np.ndarray) -> int:
        """Add this rank's share of the matrix entries *data* into its
        blocks (each position occurs once); returns how many."""
        n = 0
        for bi, bj, lo, hi in smap.owned_by(self.me):
            row, col = smap.row[lo:hi], smap.col[lo:hi]
            self.blocks[(bi, bj)][row, col] += data[smap.src[lo:hi]]
            n += hi - lo
        return n


def ea_message_nbytes(n_vals: int) -> int:
    """Wire size of an extend-add fragment: 8B values + compressed local
    indices (real codes ship block-relative 16-bit offsets)."""
    return 8 * n_vals + 4 * n_vals + 64


def _read_pieces(blocks: Blocks, sched: ChildSchedule, pairs: list[list[int]]) -> list[np.ndarray]:
    """Views of the child-side rectangles of run pairs *pairs*."""
    cb, rows = sched.child_side
    return [blocks[cb[a], cb[b]][rows[a], rows[b]] for a, b in pairs]


def _add_pieces(
    blocks: Blocks,
    sched: ChildSchedule,
    pairs: list[list[int]],
    pieces: list[np.ndarray],
    lower: bool,
) -> None:
    """Add each rectangle into its parent block; a diagonal pair of a
    symmetric update contributes its lower triangle only."""
    pb, rows = sched.parent_side
    for (a, b), piece in zip(pairs, pieces):
        ra, rb = rows[a], rows[b]
        if not (isinstance(ra, slice) or isinstance(rb, slice)):
            ra = ra[:, None]
        blocks[pb[a], pb[b]][ra, rb] += np.tril(piece) if lower and a == b else piece


def send_update(
    plan: FactorPlan, s: int, me: int, blocks: Blocks, triangle: str
) -> Generator[Send, None, None]:
    """Send this rank's share of supernode *s*'s update toward the owners
    of the parent's blocks. The share that stays on this rank is read in
    place by :func:`receive_updates` during the parent's step."""
    if plan.sym.sn_parent[s] < 0:
        return
    sched = plan.schedule(s)
    routes = sched.ea(triangle)
    for _, dest, lo, hi, count in routes.sending(me):
        if dest != me:
            yield Send(
                dest,
                (_TAG[triangle], sched.parent, s),
                _read_pieces(blocks, sched, routes.items[lo:hi].tolist()),
                nbytes=ea_message_nbytes(count),
            )


def receive_updates(
    plan: FactorPlan,
    s: int,
    me: int,
    target: Blocks,
    updates: dict[int, Blocks],
    triangle: str,
) -> Generator[Recv, list[np.ndarray], int]:
    """Extend-add every child of *s* into *target* (this rank's blocks of
    the front): per child the local share first, then the remote senders
    ascending. Consumed child holdings are dropped from *updates*; returns
    the number of entries that freed."""
    freed = 0
    for c in plan.sym.sn_children[s]:
        sched = plan.schedule(c)
        routes = sched.ea(triangle)
        for sender, _, lo, hi, _ in routes.receiving(me):
            pairs = routes.items[lo:hi].tolist()
            if sender == me:
                pieces = _read_pieces(updates[c], sched, pairs)
            else:
                pieces = yield Recv(sender, (_TAG[triangle], s, c))
            _add_pieces(target, sched, pairs, pieces, triangle == "lower")
        freed += sum(b.size for b in updates.pop(c, {}).values())
    return freed


def seq_blocks(a: np.ndarray) -> Blocks:
    """A sequential front or update matrix as a one-block holding."""
    return {(SEQ, SEQ): a}
