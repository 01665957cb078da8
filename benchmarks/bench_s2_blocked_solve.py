"""S2 (serving layer) — blocked multi-RHS host solve vs the per-column path.

Design choice probed: the serving layer coalesces same-pattern requests
into one ``(n, k)`` panel, and `repro.mf.solve_phase.solve_many` runs a
*single* permute → forward sweep → diagonal scale → backward sweep →
unpermute pass over the whole panel. The per-column alternative re-runs
the permutation, the full supernode traversal, and every per-front Python
overhead k times — the classic BLAS-2 vs BLAS-3 gap that task-based
sparse solvers treat as table stakes.

Two contracts, asserted so CI catches regressions:

* **bit-identity** — every column of the blocked solve is bitwise
  identical to a stand-alone single-RHS solve of that column (Cholesky
  and LDLᵀ); the blocked path may only amortize overhead, never change
  answer bits;
* **amortization** — the blocked solve at k=16 beats 16 per-column solves
  by >= 3x wall time on the bench matrix.
"""

import statistics
import time

import numpy as np

from harness import banner

from repro.core.solver import SparseSolver
from repro.gen import grid3d_laplacian
from repro.mf.solve_phase import solve, solve_many
from repro.util.rng import make_rng
from repro.util.tables import format_table

SIZE = 10  # 10^3 Laplacian, n = 1000
KS = [1, 2, 4, 8, 16]
REPS = 3
SPEEDUP_FLOOR = 3.0


def _best_of(fn) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_s2_blocked_solve():
    lower = grid3d_laplacian(SIZE)
    n = lower.shape[0]
    rng = make_rng(1302)

    # Contract 1: bit-identity per column, both factorization methods.
    for method in ("cholesky", "ldlt"):
        solver = SparseSolver(lower, method=method)
        solver.factor()
        b = rng.standard_normal((n, 16))
        x_blocked = solve_many(solver.numeric, b)
        for j in range(b.shape[1]):
            x_col = solve(solver.numeric, b[:, j])
            assert np.array_equal(x_blocked[:, j], x_col), (
                f"blocked {method} solve differs from per-column at col {j}"
            )

    # Contract 2: the speedup curve over k.
    solver = SparseSolver(lower)
    solver.factor()
    factor = solver.numeric
    rows = []
    speedups = {}
    for k in KS:
        b = rng.standard_normal((n, k))

        def per_column(b=b, k=k):
            for j in range(k):
                solve(factor, b[:, j])

        t_col = _best_of(per_column)
        t_blk = _best_of(lambda b=b: solve_many(factor, b))
        speedups[k] = t_col / t_blk
        rows.append(
            [k, t_col * 1e3, t_blk * 1e3, speedups[k], t_blk / k * 1e3]
        )

    banner(
        "S2",
        f"Blocked multi-RHS host solve (cube {SIZE}^3, n={n}, "
        f"best of {REPS})",
    )
    print(
        format_table(
            [
                "k",
                "per-column [ms]",
                "blocked [ms]",
                "speedup",
                "blocked/RHS [ms]",
            ],
            rows,
        )
    )
    med = statistics.median(speedups.values())
    print(
        f"\nspeedup at k=16: {speedups[16]:.2f}x (floor {SPEEDUP_FLOOR}x); "
        f"median over k: {med:.2f}x; solutions bitwise identical per column"
    )

    assert speedups[16] >= SPEEDUP_FLOOR
