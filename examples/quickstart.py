"""Quickstart: factor and solve a 3D Poisson system, then simulate the
same factorization on a 256-rank Blue Gene/P-style machine.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import SparseSolver, ParallelConfig
from repro.gen import grid3d_laplacian
from repro.machine import BLUEGENE_P

def main() -> None:
    # Lower triangle of the 7-point Laplacian on a 12x12x12 grid (SPD).
    a = grid3d_laplacian(12)
    n = a.shape[0]
    print(f"matrix: n={n}, nnz(tril)={a.nnz}")

    solver = SparseSolver(a, method="cholesky", ordering="nd")

    info = solver.analyze()
    print(
        f"analyze: nnz(L)={info.nnz_factor} (fill {info.fill_ratio:.2f}x), "
        f"{info.factor_flops/1e6:.1f} Mflop, {info.n_supernodes} supernodes, "
        f"{info.wall_time*1e3:.0f} ms"
    )

    solver.factor()
    b = np.ones(n)
    result = solver.solve(b)
    print(
        f"solve: backward error {result.residual:.2e} "
        f"after {result.refinement_iterations} refinement step(s)"
    )

    # Simulate the same factorization on 256 ranks of a BG/P-like machine.
    report = solver.simulate(
        ParallelConfig(n_ranks=256, machine=BLUEGENE_P, nb=32), b=b
    )
    print(
        f"simulated 256-rank BG/P: factor {report.factor_time*1e3:.2f} ms "
        f"({report.factor_gflops:.1f} Gflop/s, "
        f"{report.peak_fraction*100:.1f}% of peak), "
        f"solve {report.solve_time*1e3:.2f} ms, "
        f"{report.n_messages} messages"
    )
    x = report.solve_result.x
    print(f"simulated solve matches host solve: {np.allclose(x, result.x)}")


if __name__ == "__main__":
    main()
