"""F9 — distributed LU scaling next to the symmetric path.

Paper-family analogue: WSMP reports both its symmetric and unsymmetric
solvers on the same platforms. Expected shape: LU does ~2× the flops on
the same (symmetrized) structure, sustains a *higher* aggregate rate (its
fronts are flop-denser), and scales with the same subtree-to-subcube
character.
"""


from harness import banner

from repro.core import SparseSolver
from repro.gen import convection_diffusion2d, grid2d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import BLUEGENE_P
from repro.ordering import nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization
from repro.symbolic import analyze
from repro.util.tables import format_table

RANKS = [1, 4, 16]
MESH = 40


def test_f9_lu_scaling(benchmark):
    # Same mesh: symmetric diffusion (Cholesky) vs convection (LU).
    lower = grid2d_laplacian(MESH)
    g = AdjacencyGraph.from_symmetric_lower(lower)
    sym_chol = analyze(lower, nested_dissection_order(g))

    lu = SparseSolver(convection_diffusion2d(MESH, peclet=1.0), method="lu")
    lu.analyze()

    rows = []
    chol_t = {}
    lu_t = {}
    for p in RANKS:
        rc = simulate_factorization(sym_chol, p, BLUEGENE_P, PlanOptions(nb=16))
        rl = simulate_factorization(
            lu.sym, p, BLUEGENE_P, PlanOptions(nb=16), method="lu"
        )
        chol_t[p] = rc.makespan
        lu_t[p] = rl.makespan
        rows.append(
            [
                p,
                rc.makespan * 1e3,
                rl.makespan * 1e3,
                round(rl.makespan / rc.makespan, 2),
                round(rl.total_flops / max(rc.total_flops, 1), 2),
            ]
        )
    banner("F9", f"Cholesky vs LU distributed scaling ({MESH}x{MESH} mesh, BG/P)")
    print(
        format_table(
            ["ranks", "chol [ms]", "LU [ms]", "LU/chol time", "LU/chol flops"],
            rows,
        )
    )

    # Shape: LU costs roughly 2x at p=1 and both paths speed up somewhere
    # in the sweep (a small 2D problem saturates quickly — see F7).
    assert 1.3 <= lu_t[1] / chol_t[1] <= 3.0
    assert min(lu_t.values()) < lu_t[1]
    assert min(chol_t.values()) < chol_t[1]

    benchmark.pedantic(
        lambda: simulate_factorization(
            lu.sym, 4, BLUEGENE_P, PlanOptions(nb=16), method="lu"
        ),
        rounds=1,
        iterations=1,
    )
