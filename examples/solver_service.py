"""Transient analysis through the serving layer.

The paper's motivating application — nonlinear/transient finite-element
runs (sheet-metal forming) — factors thousands of matrices that all share
one sparsity pattern. This example drives that workflow through
``repro.service``: a time loop of numeric refactorizations on a fixed
3D-mesh pattern (stiffness values drift each step), interleaved with a
handful of side problems on *new* patterns (which must pay for their own
analysis). With the analysis cache on, every repeat-pattern step skips
ordering + symbolic factorization + parallel planning and goes straight to
the numeric phase.

Run:  PYTHONPATH=src python examples/solver_service.py
"""

import time

import numpy as np

from repro.gen import grid3d_laplacian, random_spd_sparse
from repro.service import COMPLETED, ServiceConfig, SolverService
from repro.sparse.csc import CSCMatrix
from repro.util.rng import make_rng


def main(steps: int = 100, size: int = 6, new_patterns: int = 5) -> None:
    base = grid3d_laplacian(size)
    n = base.shape[0]
    rng = make_rng(7)
    service = SolverService(ServiceConfig(cache_capacity=new_patterns + 1))

    print(
        f"transient loop: {steps} refactor steps on a {size}^3 mesh "
        f"(n={n}), {new_patterns} fresh-pattern side problems\n"
    )
    start = time.perf_counter()
    for step in range(steps):
        # The transient step: same pattern, drifted stiffness values.
        stepped = CSCMatrix(
            base.shape,
            base.indptr,
            base.indices,
            base.data * (1.0 + 0.3 * np.sin(0.1 * step)) ,
            _skip_check=True,
        )
        service.submit(stepped, rng.standard_normal(n))
        # A few side problems on brand-new patterns, spread over the run.
        if new_patterns and step % max(steps // new_patterns, 1) == 0:
            side = random_spd_sparse(
                32 + step, avg_degree=5, seed=1000 + step
            )
            service.submit(
                side, rng.standard_normal(side.shape[0]), priority=1
            )
        results = service.drain()
        bad = [r for r in results.values() if r.status != COMPLETED]
        assert not bad, bad
    elapsed = time.perf_counter() - start

    print(service.metrics_report())
    stats = service.cache.stats
    served = service.metrics.counter("jobs_completed")
    print(
        f"\nserved {served} jobs in {elapsed:.2f} s "
        f"({served / max(elapsed, 1e-9):.1f} jobs/s); "
        f"analysis ran {stats.misses} times for {served} requests "
        f"(hit rate {stats.hit_rate:.0%})"
    )


if __name__ == "__main__":
    main()
