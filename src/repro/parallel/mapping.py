"""Subtree-to-subcube / subforest-to-subcluster mapping.

Assigns every supernode of the assembly tree a group of ranks:

* top supernodes are processed by large groups (distributed fronts);
* going down the tree, groups split between child subforests in proportion
  to subtree work;
* once a group reaches a single rank, the entire remaining subtree is local
  to that rank (zero communication — the property that makes the scheme
  scalable: the vast majority of fronts are processed with no messages at
  all, while the few large separator fronts get all the ranks).

This is the mapping of Gupta–Karypis–Kumar (and WSMP); the paper's headline
scalability rests on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.symbolic.analyze import SymbolicFactor
from repro.util.errors import InvariantError, ShapeError


@dataclass
class TreeMapping:
    """Result of the mapping: per-supernode rank groups.

    ``sn_ranks[s]`` is the sorted tuple of global ranks processing
    supernode s. ``len(sn_ranks[s]) == 1`` means s is sequential on that
    rank.
    """

    n_ranks: int
    sn_ranks: list[tuple[int, ...]]
    #: per-supernode subtree work (flops) used for the split decisions
    subtree_work: np.ndarray
    #: per-supernode own (front) work
    own_work: np.ndarray
    seq_supernodes_by_rank: list[list[int]] = field(init=False)
    dist_supernodes: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.seq_supernodes_by_rank = [[] for _ in range(self.n_ranks)]
        self.dist_supernodes = []
        for s, group in enumerate(self.sn_ranks):
            if len(group) == 1:
                self.seq_supernodes_by_rank[group[0]].append(s)
            else:
                self.dist_supernodes.append(s)

    def is_seq(self, s: int) -> bool:
        return len(self.sn_ranks[s]) == 1

    def supernodes_for_rank(self, rank: int) -> list[int]:
        """All supernodes this rank participates in, ascending (the order
        the rank program processes them)."""
        out = [s for s in self.seq_supernodes_by_rank[rank]]
        out.extend(s for s in self.dist_supernodes if rank in self.sn_ranks[s])
        out.sort()
        return out

    def rank_seq_work(self) -> np.ndarray:
        """Total sequential-supernode work per rank (load-balance metric)."""
        work = np.zeros(self.n_ranks)
        for s, group in enumerate(self.sn_ranks):
            if len(group) == 1:
                work[group[0]] += self.own_work[s]
        return work


def subtree_flops(sym: SymbolicFactor) -> np.ndarray:
    """Total factorization flops in the subtree rooted at each supernode."""
    nsn = sym.n_supernodes
    work = np.zeros(nsn)
    for s in range(nsn):
        work[s] = sym.supernode_flops(s)
        for c in sym.sn_children[s]:
            work[s] += work[c]
    return work


def map_supernodes_to_ranks(
    sym: SymbolicFactor,
    n_ranks: int,
    min_distributed_width: int = 2,
) -> TreeMapping:
    """Compute the subtree-to-subcube mapping.

    Parameters
    ----------
    n_ranks
        Number of ranks (any positive integer; powers of two give the
        cleanest subcube splits, matching the paper's machine sizes).
    min_distributed_width
        A supernode narrower than this is never distributed even when its
        group has several ranks (tiny chain nodes stay on the group leader;
        distributing a 1-column front is pure overhead).
    """
    if n_ranks < 1:
        raise ShapeError("n_ranks must be >= 1")
    nsn = sym.n_supernodes
    work = subtree_flops(sym)
    sn_ranks: list[tuple[int, ...]] = [()] * nsn

    def assign_subtree_to_rank(s: int, rank: int) -> None:
        stack = [s]
        while stack:
            u = stack.pop()
            sn_ranks[u] = (rank,)
            stack.extend(sym.sn_children[u])

    def assign_forest(nodes: list[int], ranks: tuple[int, ...]) -> None:
        if not nodes:
            return
        if len(ranks) == 1:
            for u in nodes:
                assign_subtree_to_rank(u, ranks[0])
            return
        if len(nodes) == 1:
            s = nodes[0]
            if sym.supernode_width(s) < min_distributed_width:
                # Too narrow to distribute: leader processes it; the group
                # still splits across the children.
                sn_ranks[s] = (ranks[0],)
            else:
                sn_ranks[s] = ranks
            children = list(sym.sn_children[s])
            if not children:
                return
            if len(children) == 1:
                assign_forest(children, ranks)
                return
            group_a, group_b = _split_nodes(children, work)
            ranks_a, ranks_b = _split_ranks(
                ranks, float(work[group_a].sum()), float(work[group_b].sum())
            )
            assign_forest(list(group_a), ranks_a)
            assign_forest(list(group_b), ranks_b)
            return
        # A forest with several roots: split roots into two balanced
        # subforests and divide the ranks proportionally.
        group_a, group_b = _split_nodes(nodes, work)
        ranks_a, ranks_b = _split_ranks(
            ranks, float(work[group_a].sum()), float(work[group_b].sum())
        )
        assign_forest(list(group_a), ranks_a)
        assign_forest(list(group_b), ranks_b)

    roots = sym.roots()
    assign_forest(roots, tuple(range(n_ranks)))
    if not all(sn_ranks):
        raise InvariantError("subtree-to-subcube mapping left a supernode without ranks")
    own = np.asarray(
        [sym.supernode_flops(s) for s in range(nsn)], dtype=float
    )
    return TreeMapping(
        n_ranks=n_ranks, sn_ranks=sn_ranks, subtree_work=work, own_work=own
    )


def _split_nodes(
    nodes: list[int], work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy two-way balanced partition of *nodes* by subtree work."""
    order = sorted(nodes, key=lambda u: -work[u])
    wa = wb = 0.0
    a: list[int] = []
    b: list[int] = []
    for u in order:
        if wa <= wb:
            a.append(u)
            wa += float(work[u])
        else:
            b.append(u)
            wb += float(work[u])
    if not b:  # single node ended up alone; force non-empty halves upstream
        b = [a.pop()] if len(a) > 1 else b
    return np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)


def _split_ranks(
    ranks: tuple[int, ...], work_a: float, work_b: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a rank group proportionally to the two work shares (each side
    gets at least one rank)."""
    g = len(ranks)
    total = work_a + work_b
    if total <= 0:
        h = g // 2
    else:
        h = int(round(g * work_a / total))
    h = min(max(h, 1), g - 1)
    return ranks[:h], ranks[h:]
