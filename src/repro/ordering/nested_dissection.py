"""Recursive nested dissection ordering.

The ordering underpinning the paper's scalable formulation: recursive graph
bisection produces balanced separator trees whose top separators become the
large distributed fronts, and whose disjoint subtrees become the
independently-factored local subtrees of the subtree-to-subcube mapping.

Leaves below a size threshold are ordered by AMD (the standard hybrid used
by METIS-style ND codes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.graph.bisection import bisect
from repro.graph.separators import vertex_separator_from_bisection
from repro.ordering.amd import amd_order
from repro.util.errors import OrderingError


@dataclass(frozen=True)
class NDOptions:
    """Tuning knobs for nested dissection."""

    #: stop recursing and AMD-order below this many vertices
    leaf_size: int = 32
    #: maximum recursion depth (safety net; None = unlimited)
    max_depth: int | None = None
    #: balance bound passed to the bisector
    balance: float = 0.55
    #: FM refinement sweeps per bisection
    refine_passes: int = 4

    def __post_init__(self) -> None:
        # Checked here, not only in bisect(): a graph no larger than
        # leaf_size never reaches the bisector.
        if not (0.5 < self.balance <= 1.0):
            raise OrderingError(f"balance must be in (0.5, 1]; got {self.balance}")
        if self.leaf_size < 1:
            raise OrderingError(f"leaf_size must be at least 1; got {self.leaf_size}")
        if self.refine_passes < 0:
            raise OrderingError(f"refine_passes must be non-negative; got {self.refine_passes}")
        if self.max_depth is not None and self.max_depth < 0:
            raise OrderingError(f"max_depth must be non-negative; got {self.max_depth}")


def nested_dissection_order(
    g: AdjacencyGraph, options: NDOptions | None = None
) -> np.ndarray:
    """ND permutation: ``perm[k]`` = original vertex eliminated at step k.

    Within each recursion level: both halves (recursively ordered) first,
    separator vertices last — so separators rise to the top of the
    elimination tree.
    """
    opts = options or NDOptions()
    out: list[int] = []
    _nd_recurse(g, np.arange(g.n, dtype=np.int64), out, opts, depth=0)
    perm = np.asarray(out, dtype=np.int64)
    if perm.size != g.n:
        raise OrderingError(f"nested dissection ordered {perm.size} of {g.n} vertices")
    return perm


def _nd_recurse(
    g: AdjacencyGraph,
    vmap: np.ndarray,
    out: list[int],
    opts: NDOptions,
    depth: int,
) -> None:
    """Order the subgraph *g* (original ids in *vmap*), appending to *out*."""
    if g.n == 0:
        return
    depth_stop = opts.max_depth is not None and depth >= opts.max_depth
    if g.n <= opts.leaf_size or depth_stop:
        local = amd_order(g)
        out.extend(int(v) for v in vmap[local])
        return

    # Bisect per connected component implicitly: bisect() already assigns
    # every vertex; the separator cover makes parts edge-disjoint.
    side = bisect(g, balance=opts.balance, refine_passes=opts.refine_passes)
    part0, part1, sep = vertex_separator_from_bisection(g, side)

    if sep.size == 0 and (part0.size == 0 or part1.size == 0):
        # Bisection failed to split (e.g. complete graph collapsed to one
        # side) — fall back to AMD to guarantee progress.
        local = amd_order(g)
        out.extend(int(v) for v in vmap[local])
        return

    for part in (part0, part1):
        if part.size == 0:
            continue
        sub, sub_vmap = g.subgraph(part)
        _nd_recurse(sub, vmap[sub_vmap], out, opts, depth + 1)

    # Separator last (top of the elimination tree). Order the separator
    # internally by AMD on its induced subgraph for a bit of local quality.
    if sep.size:
        if sep.size > 2:
            sep_sub, sep_vmap = g.subgraph(sep)
            local = amd_order(sep_sub)
            out.extend(int(v) for v in vmap[sep_vmap[local]])
        else:
            out.extend(int(v) for v in vmap[sep])


def nd_separator_tree_sizes(g: AdjacencyGraph, options: NDOptions | None = None):
    """Diagnostic: sizes of (part0, part1, sep) at the top split.

    Used in tests and examples to show the separator law (O(n^{1/2}) in 2D,
    O(n^{2/3}) in 3D).
    """
    opts = options or NDOptions()
    side = bisect(g, balance=opts.balance, refine_passes=opts.refine_passes)
    part0, part1, sep = vertex_separator_from_bisection(g, side)
    return part0.size, part1.size, sep.size
