"""Host-side drivers for the simulated parallel factorization and solve.

These run the rank programs under the discrete-event simulator, collect the
per-rank factor pieces, and reassemble/verify results against the
sequential engine. Factor and solve are timed as separate simulations, the
way the paper reports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.model import MachineModel
from repro.mf.numeric import diagonal_inverses, pivot_threshold
from repro.obs.spans import span
from repro.parallel.factor_par import RankFactorData, make_factor_program
from repro.parallel.plan import FactorPlan, PlanOptions
from repro.parallel.solve_par import make_solve_program
from repro.simmpi.scheduler import Simulator, SimResult
from repro.sparse.permute import permute_vector, unpermute_vector
from repro.symbolic.analyze import SymbolicFactor
from repro.util.errors import ShapeError
from repro.util.validation import as_float_array


@dataclass
class ParallelFactorResult:
    """Outcome of one simulated parallel factorization."""

    plan: FactorPlan
    method: str
    sim: SimResult
    datas: list[RankFactorData]
    machine: MachineModel
    threads_per_rank: int

    @property
    def makespan(self) -> float:
        return self.sim.makespan

    @property
    def total_flops(self) -> float:
        return sum(d.flops for d in self.datas)

    @property
    def gflops(self) -> float:
        """Achieved factorization rate on the simulated machine."""
        if self.makespan <= 0:
            return 0.0
        return self.total_flops / self.makespan / 1e9

    @property
    def peak_fraction(self) -> float:
        """Achieved rate as a fraction of the machine's aggregate peak."""
        peak = (
            self.plan.n_ranks
            * self.machine.peak_gflops(self.threads_per_rank)
        )
        return self.gflops / peak if peak else 0.0

    def factor_entries_by_rank(self) -> np.ndarray:
        return np.asarray([d.factor_entries for d in self.datas], dtype=np.int64)

    def peak_entries_by_rank(self) -> np.ndarray:
        return np.asarray(
            [d.peak_entries + d.factor_entries for d in self.datas],
            dtype=np.int64,
        )

    def comm_fraction(self) -> float:
        """Fraction of total rank-time spent sending or waiting."""
        total = sum(s.finish_time for s in self.sim.rank_stats)
        if total <= 0:
            return 0.0
        comm = sum(s.send_time + s.wait_time for s in self.sim.rank_stats)
        return comm / total

    def to_dense_l(self) -> np.ndarray:
        """Reassemble the global factor L (dense; tests/diagnostics)."""
        sym = self.plan.sym
        n = sym.n
        l = np.zeros((n, n))
        for data in self.datas:
            for s, panel in data.seq_panels.items():
                _fill_panel(l, sym, s, panel)
            for s, segs in data.dist_row_panels.items():
                d = self.plan.dist[s]
                rows = sym.sn_rows[s]
                for bi, arr in segs.items():
                    r0, r1 = d.block_range(bi)
                    for li, r in enumerate(range(r0, r1)):
                        gr_ = rows[r]
                        upto = min(r + 1, d.width)
                        l[gr_, sym.partition.sn_start[s]: sym.partition.sn_start[s] + upto] = arr[li, :upto]
        if self.method != "cholesky":
            # Stored diagonals hold D (LDLᵀ) or U's (LU); L is unit-lower.
            np.fill_diagonal(l, 1.0)
        return l

    def to_dense_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factors only: reassemble dense (unit-lower L, U) from the rank
        pieces (tests/diagnostics)."""
        if self.method != "lu":
            raise ShapeError(f"to_dense_lu needs an LU factor, not {self.method!r}")
        sym = self.plan.sym
        u = np.zeros((sym.n, sym.n))
        for data in self.datas:
            for s, panel in data.seq_panels.items():
                w = sym.supernode_width(s)
                c0 = int(sym.partition.sn_start[s])
                u[c0: c0 + w, sym.sn_rows[s]] = np.hstack((np.triu(panel[:w]), data.seq_u12[s]))
            for s, segs in data.dist_row_panels.items():
                d = self.plan.dist[s]
                for bi, arr in segs.items():
                    if bi < d.npb:
                        # a pivot row block holds its whole factor row
                        r0, r1 = d.block_range(bi)
                        u[d.c0 + r0: d.c0 + r1, sym.sn_rows[s]] = np.triu(arr, r0)
        return self.to_dense_l(), u

    def assemble_diag(self) -> np.ndarray | None:
        """Global LDLᵀ pivot vector (None for Cholesky)."""
        if self.method != "ldlt":
            return None
        sym = self.plan.sym
        d_out = np.zeros(sym.n)
        for data in self.datas:
            for s, dv in data.seq_diag.items():
                c0 = int(sym.partition.sn_start[s])
                d_out[c0: c0 + dv.size] = dv
            for s, dmap in data.dist_diag.items():
                dst = self.plan.dist[s]
                for bi, dv in dmap.items():
                    r0, _ = dst.block_range(bi)
                    c0 = int(sym.partition.sn_start[s])
                    d_out[c0 + r0: c0 + r0 + dv.size] = dv
        return d_out


def _fill_panel(l, sym, s, panel) -> None:
    rows = sym.sn_rows[s]
    w = sym.supernode_width(s)
    c0 = int(sym.partition.sn_start[s])
    for k in range(w):
        l[rows[k:], c0 + k] = panel[k:, k]


@dataclass
class ParallelSolveResult:
    """Outcome of one simulated distributed solve."""

    sim: SimResult
    x: np.ndarray

    @property
    def makespan(self) -> float:
        return self.sim.makespan

    @property
    def total_flops(self) -> float:
        return sum(r[1] for r in self.sim.returns)


def build_plan(
    sym: SymbolicFactor, n_ranks: int, options: PlanOptions | None = None
) -> FactorPlan:
    """Construct the static plan (the one place plans are built, so the
    ``parallel.plan`` span and the perf ledger's hook see every one)."""
    with span("parallel.plan", ranks=n_ranks):
        return FactorPlan(sym, n_ranks, options)


def simulate_factorization(
    sym: SymbolicFactor,
    n_ranks: int,
    machine: MachineModel,
    options: PlanOptions | None = None,
    method: str = "cholesky",
    threads_per_rank: int = 1,
    trace: bool = False,
    plan: FactorPlan | None = None,
    pivot_perturbation: float | None = None,
) -> ParallelFactorResult:
    """Run the distributed factorization on the simulated machine.

    *method* and *pivot_perturbation* follow
    :func:`repro.mf.numeric.multifrontal_factor`: ``"lu"`` needs an LU
    analysis (:func:`repro.mf.lu.lu_analyze`) and runs on full fronts.

    With ``trace=True`` the result's ``sim.trace`` carries the per-rank
    event timeline (rendered by :func:`repro.obs.export.chrome_trace`).

    A prebuilt *plan* (for this *sym* and *n_ranks*, and *options* when
    given) skips plan construction — the plan is purely structural, so
    serving layers reuse it across numeric re-factorizations of the same
    pattern.
    """
    perturb_abs = pivot_threshold(sym, method, pivot_perturbation)
    if plan is None:
        plan = build_plan(sym, n_ranks, options)
    elif plan.sym is not sym or plan.n_ranks != n_ranks or options not in (None, plan.opts):
        raise ShapeError("prebuilt plan does not match this symbolic factor / rank count / options")
    program = make_factor_program(plan, method, perturb_abs)
    with span("parallel.factor_sim", ranks=n_ranks, machine=machine.name):
        sim = Simulator(
            machine, n_ranks, threads_per_rank=threads_per_rank, trace=trace
        ).run(program)
    datas = list(sim.returns)
    # Solve preparation on the host, outside the simulated factorization
    # (so not charged): the sequential fronts' diagonal-block inverses of
    # every rank in one batched call, each bitwise the host factor's.
    seq = [(data, s) for data in datas for s in data.seq_panels]
    inverses = diagonal_inverses([data.seq_panels[s] for data, s in seq], method)
    for (data, s), inv in zip(seq, inverses):
        data.seq_inverses[s] = inv
    return ParallelFactorResult(
        plan=plan,
        method=method,
        sim=sim,
        datas=datas,
        machine=machine,
        threads_per_rank=threads_per_rank,
    )


def simulate_solve(
    factor: ParallelFactorResult, b: np.ndarray
) -> ParallelSolveResult:
    """Run the distributed forward+backward solve.

    *b* may be a single right-hand side of shape ``(n,)`` or a block of
    right-hand sides of shape ``(n, k)`` — the distributed sweeps then run
    blocked, amortizing the latency-bound message pattern over k vectors
    the way production solvers do. Each column of ``x`` is bitwise the
    solve of that column alone (see :mod:`repro.parallel.solve_par`).
    """
    b = as_float_array(b, "b")
    sym = factor.plan.sym
    if b.shape[0] != sym.n or b.ndim > 2:
        raise ShapeError(f"b must have shape ({sym.n},) or ({sym.n}, k); got {b.shape}")
    bp = permute_vector(b, sym.perm)
    program = make_solve_program(factor.plan, factor.datas, bp, factor.method)
    with span("parallel.solve_sim", ranks=factor.plan.n_ranks):
        sim = Simulator(
            factor.machine, factor.plan.n_ranks, threads_per_rank=factor.threads_per_rank
        ).run(program)
    xp = np.zeros(b.shape)
    seen = np.zeros(sym.n, dtype=bool)
    for pieces, _fl in sim.returns:
        for rows, vals in pieces:
            xp[rows] = vals
            seen[rows] = True
    if not seen.all():
        missing = np.flatnonzero(~seen)
        raise ShapeError(
            f"solve returned no value for {missing.size} rows (first {missing[:5]})"
        )
    x = unpermute_vector(xp, sym.perm)
    return ParallelSolveResult(sim=sim, x=x)
