"""Scaling metrics derived from simulation results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.model import MachineModel
from repro.parallel.driver import ParallelFactorResult, simulate_factorization
from repro.parallel.plan import PlanOptions
from repro.symbolic.analyze import SymbolicFactor


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a strong-scaling curve."""

    n_ranks: int
    threads_per_rank: int
    #: simulated factorization time [s]
    time: float
    #: achieved factorization rate [Gflop/s]
    gflops: float
    #: fraction of the machine's aggregate peak
    peak_fraction: float
    #: T(1) / (p * T(p)) against the 1-rank reference
    efficiency: float
    #: speedup T(1)/T(p)
    speedup: float
    #: fraction of rank-time spent in communication
    comm_fraction: float
    #: total messages / bytes
    n_messages: int
    total_bytes: int
    #: max per-rank stored + transient factor entries
    peak_entries_per_rank: int


def scaling_point(
    res: ParallelFactorResult, t1: float
) -> ScalingPoint:
    """Build a scaling point from a factorization result and the 1-rank
    reference time *t1*."""
    p = res.plan.n_ranks
    t = res.makespan
    eff = t1 / (p * t) if t > 0 else 0.0
    return ScalingPoint(
        n_ranks=p,
        threads_per_rank=res.threads_per_rank,
        time=t,
        gflops=res.gflops,
        peak_fraction=res.peak_fraction,
        efficiency=eff,
        speedup=t1 / t if t > 0 else 0.0,
        comm_fraction=res.comm_fraction(),
        n_messages=res.sim.ledger.n_messages,
        total_bytes=res.sim.ledger.total_bytes,
        peak_entries_per_rank=int(res.peak_entries_by_rank().max()),
    )


def scaling_series(
    sym: SymbolicFactor,
    rank_counts: list[int],
    machine: MachineModel,
    options: PlanOptions | None = None,
    method: str = "cholesky",
    threads_per_rank: int = 1,
) -> list[ScalingPoint]:
    """Strong-scaling sweep over *rank_counts* (1-rank reference included
    in the efficiency computation, simulated once)."""
    opts = options or PlanOptions()
    ref = simulate_factorization(
        sym, 1, machine, opts, method=method, threads_per_rank=threads_per_rank
    )
    t1 = ref.makespan
    out = []
    for p in rank_counts:
        if p == 1:
            res = ref
        else:
            res = simulate_factorization(
                sym, p, machine, opts, method=method, threads_per_rank=threads_per_rank
            )
        out.append(scaling_point(res, t1))
    return out


def load_imbalance(res: ParallelFactorResult) -> float:
    """max/mean of per-rank busy time (1.0 = perfect balance)."""
    busy = np.asarray(
        [s.compute_time + s.send_time for s in res.sim.rank_stats]
    )
    mean = busy.mean()
    return float(busy.max() / mean) if mean > 0 else 1.0
