"""Comparison solvers.

The paper compares WSMP's factorization against contemporaneous distributed
solvers. Under the simulated machine the architectural difference is the
front-distribution policy, so the baselines are the same engine with the
policy switched (see DESIGN.md "Substitutions" for why this isolates the
paper's claim):

* ``wsmp-like``    — subtree-to-subcube mapping + 2D block-cyclic fronts
  (the paper's solver; the reference configuration);
* ``mumps-like``   — subtree mapping + 1D row-cyclic fronts (MUMPS's
  coarser front parallelism);
* ``superlu-like`` — no tree-aware mapping: a static grid for large fronts,
  round-robin small fronts (SuperLU_DIST's static-grid character).

Speedups are measured against the same engine's simulated one-rank run,
which :func:`repro.analysis.scaling_series` makes once per sweep.
"""

from repro.baselines.registry import (
    BaselineSpec,
    BASELINES,
    get_baseline,
    simulate_baseline,
)

__all__ = [
    "BaselineSpec",
    "BASELINES",
    "get_baseline",
    "simulate_baseline",
]
