"""Transport scenario: unsymmetric convection–diffusion solved with the
multifrontal LU path.

Sweeps the Péclet number (convection strength). Upwinding keeps the matrix
row-diagonally dominant at every Péclet, so static-pivoting LU needs no
perturbation and refinement converges immediately — and at pe=0 the
operator degenerates to the symmetric Laplacian, letting us cross-check LU
against the Cholesky solver on the exact same system.

Run:  python examples/transport_lu.py
"""

import numpy as np

from repro.core import SparseSolver
from repro.gen import convection_diffusion2d, grid2d_laplacian
from repro.sparse.ops import matvec_csc
from repro.util.rng import make_rng
from repro.util.tables import format_table


def main(nx: int = 24) -> None:
    n = nx * nx
    b = make_rng(5).standard_normal(n)

    rows = []
    for pe in (0.0, 0.5, 2.0, 8.0):
        a = convection_diffusion2d(nx, wind=(1.0, 0.3), peclet=pe)
        solver = SparseSolver(a, method="lu", ordering="nd")
        res = solver.solve(b)
        r = np.max(np.abs(b - matvec_csc(a, res.x)))
        asym = float(np.max(np.abs(a.to_dense() - a.to_dense().T)))
        rows.append(
            [pe, asym, res.residual, res.refinement_iterations, f"{r:.1e}"]
        )
    print(
        format_table(
            ["Peclet", "max |A-A^T|", "backward error", "refine iters", "abs resid"],
            rows,
            title=f"convection-diffusion {nx}x{nx} (multifrontal LU)",
        )
    )

    # Cross-check at pe=0: LU and Cholesky solve the same symmetric system.
    a0 = convection_diffusion2d(nx, peclet=0.0)
    x_lu = SparseSolver(a0, method="lu").solve(b).x
    x_chol = SparseSolver(grid2d_laplacian(nx)).solve(b).x
    print(
        f"\npe=0 cross-check vs Cholesky path: "
        f"max diff {np.max(np.abs(x_lu - x_chol)):.2e}"
    )
    assert np.allclose(x_lu, x_chol, atol=1e-9)


if __name__ == "__main__":
    main()
