"""The static factorization plan.

Everything about *who does what* is a pure function of the symbolic
factorization, the rank count, and the distribution policy — no numeric
values involved. Real distributed solvers replicate exactly this data on
every rank after the analysis phase; here the plan object is shared by all
simulated ranks (read-only).

Policies:

* ``"2d"``     — subtree-to-subcube mapping with near-square 2D grids per
  distributed front (the paper's formulation);
* ``"1d"``     — same mapping, but fronts distributed 1D row-cyclic
  (the MUMPS-like baseline: ablation F3 isolates exactly this switch);
* ``"static"`` — no tree-aware mapping: every large front uses all ranks on
  one static grid, small fronts are dealt round-robin to single ranks
  (the SuperLU_DIST-like baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.grid2d import ProcessGrid, block_starts
from repro.parallel.mapping import TreeMapping, map_supernodes_to_ranks, subtree_flops
from repro.parallel.schedule import ChildSchedule, ScatterMap
from repro.symbolic.analyze import SymbolicFactor
from repro.util.errors import InvariantError, ShapeError

POLICIES = ("2d", "1d", "static")


@dataclass(frozen=True)
class PlanOptions:
    """Distribution knobs."""

    #: dense block size of the block-cyclic layout
    nb: int = 48
    #: distribution policy (see module docstring)
    policy: str = "2d"
    #: supernodes narrower than this never get distributed
    min_dist_width: int = 2
    #: "static" policy: fronts smaller than this stay on a single rank
    static_small_front: int = 96

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ShapeError(f"unknown policy {self.policy!r}; known: {POLICIES}")
        if self.nb < 1:
            raise ShapeError("nb must be >= 1")


@dataclass
class SupernodeDist:
    """Distribution of one supernode."""

    s: int
    #: sorted global rank group
    group: tuple[int, ...]
    #: front order and pivot width
    m: int
    width: int
    #: first global column
    c0: int
    #: None for sequential supernodes
    grid: ProcessGrid | None = None
    #: block boundaries (length nblocks+1); None for sequential
    starts: np.ndarray | None = None
    #: number of pivot block-columns
    npb: int = 0

    @property
    def is_seq(self) -> bool:
        return self.grid is None

    @property
    def nblocks(self) -> int:
        return 0 if self.starts is None else self.starts.size - 1

    def block_of(self, local_idx) -> np.ndarray:
        """Block id(s) containing front-local row index/indices."""
        return np.searchsorted(self.starts, local_idx, side="right") - 1

    def block_range(self, b: int) -> tuple[int, int]:
        return int(self.starts[b]), int(self.starts[b + 1])

    def row_owner(self, bi: int) -> int:
        """Rank owning row-block *bi* in the solve-ready layout."""
        return self.group[bi % len(self.group)]


class FactorPlan:
    """Static plan consumed by the factor/solve rank programs."""

    def __init__(
        self,
        sym: SymbolicFactor,
        n_ranks: int,
        options: PlanOptions | None = None,
    ):
        self.sym = sym
        self.n_ranks = int(n_ranks)
        self.opts = options or PlanOptions()
        self.mapping = self._build_mapping()
        self.dist: list[SupernodeDist] = [
            self._build_dist(s) for s in range(sym.n_supernodes)
        ]
        # The compiled communication schedule (see repro.parallel.schedule):
        # filled lazily, shared read-only by all ranks, dropped with the plan.
        self._schedules: dict[int, ChildSchedule] = {}
        self._scatter: dict[tuple[int, str], ScatterMap] = {}

    # -- construction ------------------------------------------------------

    def _build_mapping(self) -> TreeMapping:
        sym, p, opts = self.sym, self.n_ranks, self.opts
        if opts.policy in ("2d", "1d"):
            return map_supernodes_to_ranks(
                sym, p, min_distributed_width=opts.min_dist_width
            )
        # static: large fronts on everyone, small fronts dealt round-robin.
        all_ranks = tuple(range(p))
        sn_ranks: list[tuple[int, ...]] = []
        for s in range(sym.n_supernodes):
            m = sym.front_size(s)
            w = sym.supernode_width(s)
            if p > 1 and m >= opts.static_small_front and w >= opts.min_dist_width:
                sn_ranks.append(all_ranks)
            else:
                sn_ranks.append((s % p,))
        work = subtree_flops(sym)
        own = np.asarray(
            [sym.supernode_flops(s) for s in range(sym.n_supernodes)], dtype=float
        )
        return TreeMapping(
            n_ranks=p, sn_ranks=sn_ranks, subtree_work=work, own_work=own
        )

    def _build_dist(self, s: int) -> SupernodeDist:
        sym, opts = self.sym, self.opts
        group = self.mapping.sn_ranks[s]
        m = sym.front_size(s)
        w = sym.supernode_width(s)
        c0 = int(sym.partition.sn_start[s])
        if len(group) == 1:
            return SupernodeDist(s=s, group=group, m=m, width=w, c0=c0)
        if opts.policy == "1d":
            grid = ProcessGrid.one_d(group)
        else:
            grid = ProcessGrid.for_group(group)
        starts = block_starts(m, w, opts.nb)
        npb = int(np.searchsorted(starts, w, side="left"))
        if starts[npb] != w:
            raise InvariantError(
                f"supernode {s}: block boundaries {starts.tolist()} miss pivot width {w}"
            )
        return SupernodeDist(
            s=s, group=group, m=m, width=w, c0=c0, grid=grid, starts=starts, npb=npb
        )

    # -- queries -----------------------------------------------------------

    def supernodes_for_rank(self, rank: int) -> list[int]:
        return self.mapping.supernodes_for_rank(rank)

    def schedule(self, c: int) -> ChildSchedule:
        """Compiled routes of child *c*'s update and rhs segments into its
        parent (built on first use)."""
        sched = self._schedules.get(c)
        if sched is None:
            if self.sym.sn_parent[c] < 0:
                raise ShapeError(f"supernode {c} has no parent")
            sched = self._schedules[c] = ChildSchedule(self, c)
        return sched

    def scatter(self, s: int, triangle: str = "lower") -> ScatterMap:
        """Where each stored entry of distributed supernode *s*'s pivot
        columns lands, for the whole group: indices into
        ``sym.permuted_lower.data``, or for ``triangle="full"`` (LU, pivot
        rows too) into ``sym.permuted_full.data`` — so it survives
        ``update_values``."""
        smap = self._scatter.get((s, triangle))
        if smap is None:
            fp = self.sym.front_plan
            if triangle == "lower":
                lo, hi = fp.a_ptr[s], fp.a_ptr[s + 1]
                src, pos = np.arange(lo, hi), fp.a_pos[lo:hi]
            else:
                lo, hi = fp.full_ptr[s], fp.full_ptr[s + 1]
                src, pos = fp.full_src[lo:hi], fp.full_pos[lo:hi]
            row, col = np.divmod(pos, fp.order[s])
            smap = self._scatter[s, triangle] = ScatterMap(self.dist[s], src, row, col)
        return smap
