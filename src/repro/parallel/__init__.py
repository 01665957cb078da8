"""The paper's contribution: scalable parallel multifrontal factorization.

Pieces:

* :mod:`repro.parallel.mapping` — subtree-to-subcube (subforest-to-
  subcluster) mapping of the assembly tree onto rank groups;
* :mod:`repro.parallel.grid2d` — 2D process grids and block-cyclic front
  distribution;
* :mod:`repro.parallel.plan` — the static factorization plan every rank
  derives from the (replicated) symbolic data: who owns which block, which
  extend-add transfers exist, block partitions;
* :mod:`repro.parallel.factor_par` — the rank program performing the
  distributed numeric factorization (Cholesky, LDLᵀ or LU) under
  :mod:`repro.simmpi`;
* :mod:`repro.parallel.solve_par` — distributed triangular solves;
* :mod:`repro.parallel.driver` — host-side helpers that run the simulated
  factorization/solve and reassemble/verify the results;
* :mod:`repro.parallel.hybrid` — MPI×SMP hybrid execution model.
"""

from repro.parallel.mapping import map_supernodes_to_ranks, TreeMapping
from repro.parallel.grid2d import ProcessGrid, grid_dims, block_starts
from repro.parallel.plan import FactorPlan, PlanOptions
from repro.parallel.driver import (
    simulate_factorization,
    simulate_solve,
    ParallelFactorResult,
    ParallelSolveResult,
)
from repro.parallel.hybrid import hybrid_configurations

__all__ = [
    "map_supernodes_to_ranks",
    "TreeMapping",
    "ProcessGrid",
    "grid_dims",
    "block_starts",
    "FactorPlan",
    "PlanOptions",
    "simulate_factorization",
    "simulate_solve",
    "ParallelFactorResult",
    "ParallelSolveResult",
    "hybrid_configurations",
]
