"""P1 (precision) — fp32 fronts + fp64-recovering refinement vs full fp64.

Design choice probed: storing and factoring fronts in fp32 halves the
factor's memory footprint and moves the flop-dominant inner kernels to
single precision, while fp64 residual accumulation in iterative refinement
recovers full double-precision backward error on well-conditioned systems —
the mixed-precision recipe LAPACK's ``dsgesv`` ships and that the paper's
memory-bound large-scale runs motivate.

Three contracts, asserted so CI catches regressions:

* **accuracy** — the fp32-factored solver path (which auto-refines) reaches
  a normwise backward error <= 1e-12 on every SPD suite matrix, for both
  Cholesky and LDLᵀ, without falling back to an fp64 re-factor;
* **memory** — fp32 factor blocks occupy half the fp64 bytes (ratio >= 1.8
  asserted; exactly 2.0 expected);
* **win** — at least one of: numeric-factorization speedup >= 1.3x, or the
  memory ratio >= 1.8x. The memory half is deterministic, so the gate is
  CI-safe even where BLAS sgemm/dgemm throughput happens to be flat.
"""

import time

from harness import banner

from repro.core.solver import SparseSolver
from repro.gen import grid2d_9pt, grid3d_laplacian
from repro.graph import AdjacencyGraph
from repro.mf.numeric import multifrontal_factor
from repro.ordering import amd_order
from repro.symbolic import analyze
from repro.util.rng import make_rng
from repro.util.tables import format_table

SUITE = [
    ("grid2d-9pt-40", lambda: grid2d_9pt(40)),
    ("grid3d-10", lambda: grid3d_laplacian(10)),
    ("grid3d-13", lambda: grid3d_laplacian(13)),
]
REPS = 3
BERR_CEIL = 1e-12
SPEEDUP_FLOOR = 1.3
MEMORY_FLOOR = 1.8


def _best_of(fn) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _factor_bytes(numeric) -> int:
    diag = numeric.diag.nbytes if numeric.diag is not None else 0
    return sum(blk.nbytes for blk in numeric.blocks) + diag


def test_p1_mixed_precision():
    rng = make_rng(1401)
    rows = []
    speedups = []
    mem_ratios = []
    for name, build in SUITE:
        lower = build()
        n = lower.shape[0]
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, amd_order(g))

        t64 = _best_of(lambda sym=sym: multifrontal_factor(sym))
        t32 = _best_of(
            lambda sym=sym: multifrontal_factor(sym, precision="fp32")
        )
        f64 = multifrontal_factor(sym)
        f32 = multifrontal_factor(sym, precision="fp32")
        mem64 = _factor_bytes(f64)
        mem32 = _factor_bytes(f32)

        # Contract 1: accuracy through the solver path (auto-refinement),
        # both methods, staying at fp32 (no fallback re-factor needed).
        b = rng.standard_normal(n)
        iters = {}
        for method in ("cholesky", "ldlt"):
            solver = SparseSolver(lower, method=method)
            solver.factor(precision="fp32")
            res = solver.solve(b)
            assert res.precision == "fp32", (
                f"{name}/{method}: unexpected fp64 fallback"
            )
            assert res.residual <= BERR_CEIL, (
                f"{name}/{method}: berr {res.residual:.2e} > {BERR_CEIL}"
            )
            iters[method] = res.refinement_iterations

        speedup = t64 / t32
        mem_ratio = mem64 / mem32
        speedups.append(speedup)
        mem_ratios.append(mem_ratio)
        rows.append(
            [
                name,
                n,
                t64 * 1e3,
                t32 * 1e3,
                speedup,
                mem64 / 1e6,
                mem32 / 1e6,
                mem_ratio,
                f"{iters['cholesky']}/{iters['ldlt']}",
            ]
        )

    banner(
        "P1",
        f"Mixed-precision fronts: fp64 vs fp32 numeric factorization "
        f"(best of {REPS}), accuracy via fp64-refined solver path",
    )
    print(
        format_table(
            [
                "matrix",
                "n",
                "fp64 [ms]",
                "fp32 [ms]",
                "speedup",
                "fp64 [MB]",
                "fp32 [MB]",
                "mem ratio",
                "IR iters (chol/ldlt)",
            ],
            rows,
        )
    )
    best_speedup = max(speedups)
    min_mem = min(mem_ratios)
    print(
        f"\nbest factor speedup: {best_speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x), min memory ratio: {min_mem:.2f}x "
        f"(floor {MEMORY_FLOOR}x); backward error <= {BERR_CEIL:.0e} "
        f"on every matrix without fp64 fallback"
    )

    # Contract 2: halved factor storage (deterministic).
    assert min_mem >= MEMORY_FLOOR
    # Contract 3: the mixed-precision regime must win on at least one axis.
    assert best_speedup >= SPEEDUP_FLOOR or min_mem >= MEMORY_FLOOR
