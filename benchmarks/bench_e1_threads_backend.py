"""E1 (execution backend) — threads backend vs sequential, bit for bit.

Design choice probed: the shared-memory backend (`repro.exec`) walks the
same supernodal assembly-tree task graph as the sequential driver, but
executes independent fronts concurrently on worker threads. Parallelism
may never change answer bits: at every measured worker count the threads
backend must produce a factor byte-for-byte identical to the sequential
driver's, and the class sweeps must solve it to the sequential solution,
on the largest paper-suite matrix (cube-xl, 20^3 Laplacian, n=8000).

The speed of the backend is not asserted here: the perf ledger measures it
on every host as ``exec.speedup_w2`` (see ``perf/README.md``).
"""

import numpy as np

from harness import banner

from repro.core.solver import SparseSolver
from repro.exec import multifrontal_factor_threads
from repro.gen import grid3d_laplacian
from repro.mf.numeric import multifrontal_factor
from repro.mf.solve_phase import solve_many
from repro.util.rng import make_rng

SIZE = 20  # cube-xl: 20^3 Laplacian, n = 8000 (largest paper-suite matrix)
WORKER_COUNTS = [1, 2, 4]


def test_e1_threads_backend():
    lower = grid3d_laplacian(SIZE)
    n = lower.shape[0]
    solver = SparseSolver(lower)
    solver.analyze()
    sym = solver.sym
    rng = make_rng(2009)
    b = rng.standard_normal((n, 8))

    ref = multifrontal_factor(sym)
    x_ref = solve_many(ref, b)
    for w in WORKER_COUNTS:
        f = multifrontal_factor_threads(sym, workers=w)
        assert all(
            a.tobytes() == c.tobytes() for a, c in zip(ref.blocks, f.blocks)
        ), f"threads factor differs from sequential at workers={w}"
        assert f.stats.flops == ref.stats.flops
        x = solve_many(f, b)
        assert np.array_equal(x, x_ref), (
            f"threaded factor solves differently from sequential at workers={w}"
        )

    banner(
        "E1",
        f"Threads-backend factorization (cube-xl {SIZE}^3, n={n}, "
        f"nnz(L)={sym.nnz_factor})",
    )
    print(
        f"factors and solutions bitwise identical to sequential at workers "
        f"{WORKER_COUNTS}"
    )
