"""Factorization statistics: flops, memory high-water marks, front shapes.

The host factorization fills one of these per factorization; benchmarks F6
(memory scaling) and F2 (efficiency breakdown) consume the same fields from
the parallel engine's per-rank accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.util.errors import ShapeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.symbolic.analyze import SymbolicFactor


@dataclass
class FactorStats:
    """Aggregate statistics of one numeric factorization."""

    #: flops actually performed (dense convention of repro.symbolic)
    flops: int = 0
    #: entries stored in factor blocks
    factor_entries: int = 0
    #: peak simultaneous update-stack entries
    peak_stack_entries: int = 0
    #: peak front order seen
    max_front_order: int = 0
    #: number of fronts processed
    n_fronts: int = 0
    #: per-front orders (for histograms)
    front_orders: list[int] = field(default_factory=list)
    #: out-of-core mode: update-matrix entries spilled / reloaded
    spill_entries_written: int = 0
    spill_entries_read: int = 0

    def observe_front(self, order: int, width: int, flops: int) -> None:
        self.n_fronts += 1
        self.front_orders.append(order)
        self.max_front_order = max(self.max_front_order, order)
        self.flops += flops


def stack_accounting(sym: SymbolicFactor, memory_limit_entries: int | None) -> FactorStats:
    """The update-stack fields of a factorization of *sym*, from its
    structure alone: ``peak_stack_entries`` and, under a cap, the spill
    volumes. The stack is the postorder one: step *s* pops its children's
    ``(m−w)²``-entry updates, then pushes its own; the peak is taken at the
    pushes.

    With *memory_limit_entries*, resident updates are spilled oldest first
    until the current front plus the resident stack fit, both before a
    front is assembled and after its update is pushed; a spilled update is
    read back when its parent pops it. Raises :class:`ShapeError` when a
    front alone exceeds the cap.
    """
    plan = sym.front_plan
    order = np.asarray(plan.order, dtype=np.int64)
    size = (order - np.asarray(plan.width, dtype=np.int64)) ** 2
    parent = np.asarray(sym.sn_parent, dtype=np.int64)
    stats = FactorStats()
    if memory_limit_entries is None:
        has = parent >= 0
        popped = np.bincount(parent[has], weights=size[has], minlength=size.size)
        stack = np.cumsum(size - popped.astype(np.int64))
        stats.peak_stack_entries = int(stack.max(initial=0))
        return stats
    cap = memory_limit_entries
    too_big = np.flatnonzero(order * order > cap)
    if too_big.size:
        raise ShapeError(
            f"front of {int(order[too_big[0]]) ** 2} entries exceeds the "
            f"{cap}-entry in-core limit"
        )
    #: live updates in push (= ascending supernode) order -> spilled?
    live: dict[int, bool] = {}
    resident = 0

    def spill(front_entries: int) -> None:
        nonlocal resident
        for c, out in live.items():
            if front_entries + resident <= cap:
                break
            if not out:
                live[c] = True
                stats.spill_entries_written += int(size[c])
                resident -= int(size[c])

    for s in range(size.size):
        spill(int(order[s]) ** 2)
        for c in sym.sn_children[s]:
            if live.pop(c):
                stats.spill_entries_read += int(size[c])
            else:
                resident -= int(size[c])
        if size[s]:
            live[s] = False
            resident += int(size[s])
            stats.peak_stack_entries = max(stats.peak_stack_entries, resident)
            spill(0)
    return stats
