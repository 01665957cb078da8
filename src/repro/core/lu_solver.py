"""`UnsymmetricSolver` — the LU front door.

Same three-phase shape as :class:`~repro.core.solver.SparseSolver`, for
general square matrices: analyze on the symmetrized pattern, multifrontal
static-pivoting LU, solve with iterative refinement. The factor and the
sweeps are the shared ones (``multifrontal_factor(method="lu")``,
:mod:`repro.mf.solve_phase`); only the analysis and the refinement loop
live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.mf.lu import lu_analyze
from repro.mf.numeric import NumericFactor, multifrontal_factor
from repro.mf.solve_phase import solve as factor_solve
from repro.ordering.registry import get_ordering
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import csc_to_coo
from repro.sparse.ops import matvec_csc
from repro.symbolic.analyze import AnalyzeOptions
from repro.util.errors import ReproError, ShapeError
from repro.util.validation import as_float_array


@dataclass(frozen=True)
class LUSolveResult:
    """Solution plus accuracy diagnostics."""

    x: np.ndarray
    residual: float
    refinement_iterations: int


class UnsymmetricSolver:
    """Sparse unsymmetric direct solver (multifrontal LU, static pivoting).

    Parameters
    ----------
    a
        General square CSC matrix.
    ordering
        Ordering name (applied to the symmetrized adjacency graph) or an
        explicit permutation.
    pivot_perturbation
        Static-pivoting threshold relative to ``max |a_ij|``; ``None``
        raises on zero diagonal pivots. Diagonally dominant inputs
        (e.g. upwind discretizations) need neither.
    """

    def __init__(
        self,
        a: CSCMatrix,
        ordering="nd",
        analyze_options: AnalyzeOptions | None = None,
        pivot_perturbation: float | None = None,
    ):
        if a.shape[0] != a.shape[1]:
            raise ShapeError("matrix must be square")
        self.a = a
        self.ordering = ordering
        self.analyze_options = analyze_options
        self.pivot_perturbation = pivot_perturbation
        self.sym = None
        self.permuted_full: CSCMatrix | None = None
        self.factor_data: NumericFactor | None = None

    def analyze(self):
        """Ordering (on A + Aᵀ's graph) + symbolic factorization."""
        if isinstance(self.ordering, str):
            coo = csc_to_coo(self.a)
            graph = AdjacencyGraph.from_edges(self.a.shape[0], coo.row, coo.col)
            perm = get_ordering(self.ordering)(graph)
        else:
            perm = np.asarray(self.ordering, dtype=np.int64)
        self.sym = lu_analyze(self.a, perm, self.analyze_options)
        self.permuted_full = self.sym.permuted_full
        return self.sym

    def factor(self) -> NumericFactor:
        """Numeric multifrontal LU."""
        if self.sym is None:
            self.analyze()
        self.factor_data = multifrontal_factor(
            self.sym, "lu", pivot_perturbation=self.pivot_perturbation
        )
        return self.factor_data

    def solve(
        self, b: np.ndarray, refine: bool = True, max_iter: int = 5, tol: float = 1e-12
    ) -> LUSolveResult:
        """Solve ``A x = b`` with optional iterative refinement."""
        if self.factor_data is None:
            self.factor()
        b = as_float_array(b, "b")
        norm_b = float(np.max(np.abs(b))) if b.size else 0.0
        x = factor_solve(self.factor_data, b)
        if norm_b == 0.0:
            return LUSolveResult(np.zeros_like(b), 0.0, 0)
        iters = 0
        r = b - matvec_csc(self.a, x)
        rel = float(np.max(np.abs(r))) / norm_b
        if refine:
            for iters in range(1, max_iter + 1):
                if rel <= tol:
                    iters -= 1
                    break
                x = x + factor_solve(self.factor_data, r)
                r = b - matvec_csc(self.a, x)
                rel = float(np.max(np.abs(r))) / norm_b
        return LUSolveResult(x=x, residual=rel, refinement_iterations=iters)

    @property
    def perturbed_columns(self) -> tuple[int, ...]:
        if self.factor_data is None:
            raise ReproError("factor() first")
        return self.factor_data.perturbed_columns

    def simulate(self, config, b: np.ndarray | None = None, verify: bool = False):
        """Run the distributed LU factorization (and optionally one solve)
        on the simulated machine described by a
        :class:`~repro.core.solver.ParallelConfig`.

        Returns ``(factor_result, x_or_None)``.
        """
        from repro.parallel.driver import simulate_factorization, simulate_solve

        if self.sym is None:
            self.analyze()
        res = simulate_factorization(
            self.sym,
            config.n_ranks,
            config.machine,
            config.plan_options(),
            method="lu",
            threads_per_rank=config.threads_per_rank,
            pivot_perturbation=self.pivot_perturbation,
        )
        if verify:
            if self.factor_data is None:
                self.factor()
            l_ref, u_ref = self.factor_data.to_dense_lu()
            l_got, u_got = res.to_dense_lu()
            err = max(
                float(np.max(np.abs(l_ref - l_got))),
                float(np.max(np.abs(u_ref - u_got))),
            )
            scale = max(float(np.max(np.abs(u_ref))), 1.0)
            if err > 1e-8 * scale:
                raise ReproError(f"distributed LU mismatch: max err {err:.3e}")
        x = None
        if b is not None:
            x = simulate_solve(res, b).x
        return res, x
