"""A4 (ablation) — LU vs Cholesky on matched structure.

Design fact probed: on the same sparsity pattern the unsymmetric LU path
stores ~2× the entries and performs ~2× the flops of the symmetric
Cholesky path — the reason symmetric solvers exist at all. Checked by
running both engines on a convection–diffusion operator (LU) and its
symmetric diffusion limit (Cholesky) on the same mesh and ordering.
"""


from harness import banner

from repro.core import SparseSolver
from repro.gen import convection_diffusion2d, grid2d_laplacian
from repro.util.tables import format_table

MESHES = [12, 20, 28]


def test_a4_lu_vs_cholesky(benchmark):
    rows = []
    ratios = []
    for nx in MESHES:
        chol = SparseSolver(grid2d_laplacian(nx), ordering="nd")
        chol.factor()
        lu = SparseSolver(
            convection_diffusion2d(nx, peclet=1.0), method="lu", ordering="nd"
        )
        lu.factor()
        f_chol = chol.numeric.stats.flops
        f_lu = lu.numeric.stats.flops
        e_chol = chol.numeric.stats.factor_entries
        e_lu = lu.numeric.stats.factor_entries
        ratios.append((f_lu / f_chol, e_lu / e_chol))
        rows.append(
            [
                f"{nx}x{nx}",
                f_chol / 1e6,
                f_lu / 1e6,
                round(f_lu / f_chol, 2),
                e_chol,
                e_lu,
                round(e_lu / e_chol, 2),
            ]
        )
    banner("A4", "LU vs Cholesky cost on matched structure")
    print(
        format_table(
            [
                "mesh",
                "chol Mflop",
                "LU Mflop",
                "flop ratio",
                "chol entries",
                "LU entries",
                "entry ratio",
            ],
            rows,
        )
    )

    # Shape: both ratios near 2 (within [1.6, 2.6]) at every size — the
    # orderings may differ slightly between the two paths, hence slack.
    for fr, er in ratios:
        assert 1.4 <= fr <= 2.8, fr
        assert 1.4 <= er <= 2.8, er

    a = convection_diffusion2d(20, peclet=1.0)
    benchmark.pedantic(
        lambda: SparseSolver(a, method="lu", ordering="nd").factor(),
        rounds=1,
        iterations=1,
    )
