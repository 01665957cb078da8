"""Factorization statistics: flops, memory high-water marks, front shapes.

The host factorization fills one of these per factorization; benchmarks F6
(memory scaling) and F2 (efficiency breakdown) consume the same fields from
the parallel engine's per-rank accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

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

    def observe_front(self, order: int, width: int, flops: int) -> None:
        self.n_fronts += 1
        self.front_orders.append(order)
        self.max_front_order = max(self.max_front_order, order)
        self.flops += flops


def stack_accounting(sym: SymbolicFactor) -> FactorStats:
    """The update-stack field of a factorization of *sym*, from its
    structure alone: ``peak_stack_entries``. The stack is the postorder
    one: step *s* pops its children's ``(m−w)²``-entry updates, then pushes
    its own; the peak is taken at the pushes.
    """
    plan = sym.front_plan
    order = np.asarray(plan.order, dtype=np.int64)
    size = (order - np.asarray(plan.width, dtype=np.int64)) ** 2
    parent = np.asarray(sym.sn_parent, dtype=np.int64)
    has = parent >= 0
    popped = np.bincount(parent[has], weights=size[has], minlength=size.size)
    stack = np.cumsum(size - popped.astype(np.int64))
    return FactorStats(peak_stack_entries=int(stack.max(initial=0)))
