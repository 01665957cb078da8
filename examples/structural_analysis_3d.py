"""Structural-analysis scenario: a 3-dof-per-node elasticity-like operator
(the paper's motivating workload: implicit structural mechanics / sheet
forming), solved for several load cases with iterative refinement, then a
hybrid MPI×SMP capacity check on a POWER5-cluster-style machine.

Run:  python examples/structural_analysis_3d.py
"""

import numpy as np

from repro import SparseSolver, ParallelConfig
from repro.gen import elasticity3d
from repro.machine import POWER5_CLUSTER
from repro.mf.solve_phase import solve_many
from repro.util.rng import make_rng
from repro.util.tables import format_table


def main() -> None:
    # 8x8x8 hex mesh, 3 displacement dofs per vertex -> n = 1536.
    a = elasticity3d(8, seed=42)
    n = a.shape[0]
    solver = SparseSolver(a, method="cholesky", ordering="nd")
    info = solver.analyze()
    print(
        f"elasticity operator: n={n}, nnz={a.nnz}, "
        f"nnz(L)={info.nnz_factor}, {info.factor_flops/1e6:.1f} Mflop"
    )

    solver.factor()

    # Multiple load cases: a gravity-like load plus two point loads.
    rng = make_rng(7)
    loads = np.zeros((n, 3))
    loads[2::3, 0] = -1.0  # uniform z load
    loads[rng.integers(0, n, 5), 1] = 10.0  # point loads, case 2
    loads[rng.integers(0, n, 5), 2] = -10.0  # point loads, case 3

    x = solve_many(solver.numeric, loads)
    rows = []
    for k in range(3):
        res = solver.solve(loads[:, k])
        rows.append(
            [
                f"case {k}",
                float(np.max(np.abs(res.x))),
                res.residual,
                res.refinement_iterations,
            ]
        )
        assert np.allclose(res.x, x[:, k], atol=1e-8)
    print(format_table(["load case", "max |u|", "backward error", "refine iters"], rows))

    # Capacity check: how do hybrid configurations of a 32-core POWER5
    # allocation compare for this model?
    print("\nhybrid configurations on 32 cores (POWER5-cluster model):")
    rows = []
    for ranks, threads in ((32, 1), (8, 4), (2, 16)):
        rep = solver.simulate(
            ParallelConfig(
                n_ranks=ranks,
                machine=POWER5_CLUSTER,
                threads_per_rank=threads,
                nb=32,
            )
        )
        rows.append(
            [
                f"{ranks} x {threads}",
                rep.factor_time * 1e3,
                rep.factor_gflops,
                rep.n_messages,
                rep.comm_fraction * 100,
            ]
        )
    print(
        format_table(
            ["ranks x threads", "factor [ms]", "Gflop/s", "msgs", "comm %"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
