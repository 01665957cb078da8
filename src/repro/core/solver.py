"""`SparseSolver` — the library's front door.

Mirrors the three-phase interface of WSMP (and of every serious sparse
direct solver): symbolic **analyze** once per sparsity pattern, numeric
**factor** once per value set, **solve** per right-hand side. The method
— Cholesky, LDLᵀ or static-pivoting LU — is a setting of the one solver:
after the constructor and ``analyze()`` every method runs the same
factor, sweeps, refinement loop and simulated machine. A fourth
entry point, :meth:`SparseSolver.simulate`, runs the same factorization
distributed over a simulated massively parallel machine and reports its
timing — the reproduction's measurement instrument.

Example
-------
>>> from repro.gen import grid3d_laplacian
>>> from repro.core import SparseSolver
>>> import numpy as np
>>> a = grid3d_laplacian(4)
>>> solver = SparseSolver(a)
>>> info = solver.analyze()
>>> _ = solver.factor()
>>> x = solver.solve(np.ones(a.shape[0])).x
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.machine.model import MachineModel
from repro.machine.presets import GENERIC_CLUSTER
from repro.mf.lu import lu_analyze
from repro.mf.numeric import NumericFactor, multifrontal_factor
from repro.mf.refine import iterative_refinement_many
from repro.mf.solve_phase import solve_many as mf_solve_many
from repro.obs.spans import span, timed
from repro.ordering.registry import get_ordering
from repro.parallel.driver import (
    ParallelFactorResult,
    ParallelSolveResult,
    build_plan,
    simulate_factorization,
    simulate_solve,
)
from repro.parallel.plan import FactorPlan, PlanOptions
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import csc_to_coo, transpose
from repro.sparse.ops import tril, is_structurally_symmetric
from repro.symbolic.analyze import AnalyzeOptions, SymbolicFactor, analyze
from repro.util.errors import PatternMismatchError, ReproError, ShapeError
from repro.util.validation import as_float_array, work_dtype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.pool import TaskPool

#: execution backends of the numeric factorization: ``"seq"`` runs on the
#: host thread, ``"threads"`` on a :mod:`repro.exec` worker pool (bitwise
#: identical factors either way — the sequential path is the oracle)
EXEC_BACKENDS = ("seq", "threads")


def _factor_pool(backend: str, workers: int | None) -> TaskPool | None:
    """The worker pool a factorization on *backend* runs on (None for
    ``"seq"``, which ignores *workers*). Every entry point that takes a
    backend calls this before any work, so a bad one raises the same typed
    error from each: :class:`ShapeError` for an unknown backend,
    :class:`~repro.util.errors.ExecBackendError` for a worker count the
    pool refuses."""
    if backend == "seq":
        return None
    if backend == "threads":
        from repro.exec.pool import TaskPool, default_workers

        return TaskPool(default_workers() if workers is None else workers, name="factor")
    raise ShapeError(
        f"unknown execution backend {backend!r}; expected one of {EXEC_BACKENDS}"
    )


def as_symmetric_lower(a: CSCMatrix) -> CSCMatrix:
    """Reduce *a* to the lower triangle of a symmetric matrix.

    Accepts either the lower triangle directly or a full symmetric CSC
    matrix (verified structurally and numerically, then reduced) — the
    input convention of :class:`SparseSolver` and its ``refactor`` path.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError("matrix must be square")
    lower = tril(a)
    if lower.nnz != a.nnz:
        # Caller passed a full symmetric matrix: verify and reduce.
        if not is_structurally_symmetric(a):
            raise ShapeError(
                "matrix is neither lower-triangular nor structurally "
                "symmetric"
            )
        if not np.allclose(transpose(a).data, a.data, rtol=1e-12, atol=0):
            raise ShapeError(
                "matrix is structurally but not numerically symmetric; "
                "factor it with SparseSolver(method='lu') instead"
            )
    return lower


@dataclass(frozen=True)
class AnalyzeInfo:
    """Summary of the analyze phase."""

    n: int
    nnz_a: int
    nnz_factor: int
    nnz_stored: int
    factor_flops: int
    solve_flops: int
    n_supernodes: int
    fill_ratio: float
    #: host wall time of the analyze phase [s]
    wall_time: float


@dataclass(frozen=True)
class SolveResult:
    """Solution plus accuracy diagnostics."""

    x: np.ndarray
    #: normwise backward error ``‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`` of the
    #: returned solution (worst column), refined or not
    residual: float
    #: refinement iterations performed (0 = plain direct solve)
    refinement_iterations: int
    #: working precision of the factor that produced ``x`` — ``"fp64"``
    #: after an automatic fp32→fp64 fallback, even if ``factor()`` was
    #: called with ``precision="fp32"``
    precision: str = "fp64"


@dataclass(frozen=True)
class ParallelConfig:
    """Configuration of one simulated parallel run."""

    n_ranks: int
    machine: MachineModel = GENERIC_CLUSTER
    threads_per_rank: int = 1
    #: block-cyclic block size
    nb: int = 48
    #: front distribution policy ("2d", "1d", "static")
    policy: str = "2d"

    def plan_options(self) -> PlanOptions:
        return PlanOptions(nb=self.nb, policy=self.policy)


@dataclass(frozen=True)
class ParallelRunReport:
    """Timing report of one simulated parallel factorization (+ solve)."""

    config: ParallelConfig
    factor_time: float
    factor_gflops: float
    peak_fraction: float
    comm_fraction: float
    n_messages: int
    total_bytes: int
    solve_time: float | None = None
    #: full result objects for deeper inspection
    factor_result: ParallelFactorResult | None = field(
        default=None, repr=False, compare=False
    )
    solve_result: ParallelSolveResult | None = field(
        default=None, repr=False, compare=False
    )


class SparseSolver:
    """Sparse direct solver (Cholesky / LDLᵀ / static-pivoting LU).

    Parameters
    ----------
    a
        The matrix. For ``"cholesky"`` and ``"ldlt"``: either the lower
        triangle of a symmetric matrix, or a full symmetric CSC matrix
        (detected and reduced automatically). For ``"lu"``: a general
        square matrix, kept as given.
    method
        ``"cholesky"`` for SPD input, ``"ldlt"`` for symmetric strongly
        regular input, ``"lu"`` for unsymmetric input (ordered and analyzed
        on the pattern of A + Aᵀ; see :mod:`repro.mf.lu`).
    ordering
        Fill-reducing ordering name from :data:`repro.ordering.ORDERINGS`
        (default ``"nd"`` — nested dissection, required for good parallel
        scaling) or an explicit permutation array.
    pivot_perturbation
        LDLᵀ and LU: static-pivoting threshold (see
        :func:`repro.mf.numeric.multifrontal_factor`); ``None`` raises on
        zero pivots. Perturbed columns are reported in
        ``numeric.perturbed_columns``, and refinement recovers accuracy.

    LU has no value-update, Schur-complement or condition-estimate path:
    :meth:`update_values`, :meth:`refactor`, :meth:`schur_complement` and
    :meth:`condition_estimate` raise :class:`ShapeError` for it.
    """

    def __init__(
        self,
        a: CSCMatrix,
        method: str = "cholesky",
        ordering="nd",
        analyze_options: AnalyzeOptions | None = None,
        pivot_perturbation: float | None = None,
    ):
        if method not in ("cholesky", "ldlt", "lu"):
            raise ShapeError(f"unknown method {method!r}")
        if method == "lu" and a.shape[0] != a.shape[1]:
            raise ShapeError("matrix must be square")
        #: the matrix as the solver holds it: the lower triangle for
        #: Cholesky and LDLᵀ, the whole square matrix for LU
        self.lower = a if method == "lu" else as_symmetric_lower(a)
        self.method = method
        self.ordering = ordering
        self.analyze_options = analyze_options
        self.pivot_perturbation = pivot_perturbation
        self.sym: SymbolicFactor | None = None
        self.numeric: NumericFactor | None = None
        #: structural plans of the simulated-parallel path, keyed
        #: ``(n_ranks, PlanOptions)``; value-free, so they outlive
        #: ``update_values``/``refactor`` and are dropped by ``analyze()``
        self.plans: dict[tuple[int, PlanOptions], FactorPlan] = {}
        self._analyze_info: AnalyzeInfo | None = None

    # -- phases ------------------------------------------------------------

    def analyze(self) -> AnalyzeInfo:
        """Ordering + symbolic factorization (once per pattern)."""
        lu = self.method == "lu"
        with timed(
            "solver.analyze", n=self.lower.shape[0], nnz=self.lower.nnz
        ) as t:
            if isinstance(self.ordering, str):
                with span("solver.ordering", ordering=self.ordering):
                    if lu:  # LU orders the graph of A + Aᵀ
                        coo = csc_to_coo(self.lower)
                        graph = AdjacencyGraph.from_edges(coo.shape[0], coo.row, coo.col)
                    else:
                        graph = AdjacencyGraph.from_symmetric_lower(self.lower)
                    perm = get_ordering(self.ordering)(graph)
            else:
                perm = np.asarray(self.ordering, dtype=np.int64)
            with span("solver.symbolic"):
                self.sym = (lu_analyze if lu else analyze)(self.lower, perm, self.analyze_options)
        self.plans.clear()
        s = self.sym
        self._analyze_info = AnalyzeInfo(
            n=s.n,
            nnz_a=self.lower.nnz,
            nnz_factor=s.nnz_factor,
            nnz_stored=s.nnz_stored,
            factor_flops=s.factor_flops,
            solve_flops=s.solve_flops,
            n_supernodes=s.n_supernodes,
            fill_ratio=s.nnz_factor / max(self.lower.nnz, 1),
            wall_time=t.elapsed,
        )
        return self._analyze_info

    def factor(
        self,
        backend: str = "seq",
        workers: int | None = None,
        precision: str = "fp64",
    ) -> NumericFactor:
        """Numeric factorization on the host.

        ``backend="seq"`` (default) runs on the calling thread;
        ``backend="threads"`` runs the same elimination-tree task graph on
        a :mod:`repro.exec` worker pool (*workers* threads, default
        :func:`repro.exec.pool.default_workers`) and returns a **bitwise
        identical** factor for any worker count.

        ``precision="fp32"`` factors in single precision — half the factor
        memory and bandwidth. :meth:`solve` recovers fp64 accuracy through
        iterative refinement and automatically re-factors in fp64 when
        refinement cannot (ill-conditioned systems).
        """
        work_dtype(precision)  # validate early, before any work
        pool = _factor_pool(backend, workers)
        if self.sym is None:
            self.analyze()
        with span(
            "solver.factor",
            method=self.method,
            backend=backend,
            precision=precision,
        ):
            self.numeric = self._factor(pool, precision)
        return self.numeric

    def _factor(self, pool: TaskPool | None, precision: str) -> NumericFactor:
        return multifrontal_factor(
            self.sym,
            method=self.method,
            pivot_perturbation=self.pivot_perturbation,
            precision=precision,
            pool=pool,
        )

    def solve(
        self,
        b: np.ndarray,
        refine: bool = True,
        tol: float = 1e-12,
        backend: str = "seq",
        workers: int | None = None,
    ) -> SolveResult:
        """Solve ``A x = b`` (factors first if needed).

        *b* is one right-hand side ``(n,)`` or a panel ``(n, k)``. A panel
        runs the blocked path — one permute/sweep/unpermute pass for all
        columns, bitwise identical per column to solving each column alone.
        For a panel the reported ``residual`` and ``refinement_iterations``
        are the worst (max) over columns.

        ``refine=True`` refines each column until its normwise backward
        error reaches *tol*. ``refine=False`` is one direct solve with its
        backward error reported: the same refinement loop with an infinite
        tolerance, so no correction step runs. Either way a reduced-
        precision factor that fails to converge on some column (with
        ``refine=False``, one that overflowed) is re-factored in fp64.

        *backend* / *workers* are those of the factorizations this call
        runs, as in :meth:`factor`: the first one when nothing is factored
        yet, and the fp64 re-factor of the precision fallback. They are
        checked before any work. The sweeps themselves are the one class
        sweep of :mod:`repro.mf.solve_phase`, whatever built the factor.
        """
        b = as_float_array(b, "b")
        if b.ndim == 2 and b.shape[1] == 0:
            raise ShapeError(f"b must have at least one column; got {b.shape}")
        pool = _factor_pool(backend, workers)
        if self.numeric is None:
            self.factor(backend, workers)
        n_rhs = 1 if b.ndim == 1 else int(b.shape[1])
        with span(
            "solver.solve",
            refine=refine,
            rhs=n_rhs,
            backend=backend,
            precision=self.numeric.precision,
        ):
            # Unrefined is the same loop with an infinite tolerance: every
            # finite column stops after the direct solve. The sweeps are
            # named through this module's ``mf_solve_many`` (not left to the
            # default) so that perf/trace.py can time them here.
            tol = tol if refine else math.inf
            res = iterative_refinement_many(
                self.numeric, self.lower, b, tol=tol, solve_fn=mf_solve_many
            )
            if self.numeric.precision != "fp64" and not bool(
                np.all(res.converged)
            ):
                # Reduced-precision refinement stalled or diverged on at
                # least one column: re-factor in fp64 (same values, same
                # analysis) and refine against the robust factor — the
                # last rung of the precision degradation ladder.
                with span(
                    "solver.precision_fallback",
                    method=self.method,
                    backend=backend,
                ):
                    self.numeric = self._factor(pool, "fp64")
                res = iterative_refinement_many(
                    self.numeric, self.lower, b, tol=tol, solve_fn=mf_solve_many
                )
            return SolveResult(
                x=res.x[:, 0] if b.ndim == 1 else res.x,
                residual=float(np.max(res.backward_error)),
                refinement_iterations=int(np.max(res.iterations)),
                precision=self.numeric.precision,
            )

    # -- simulated parallel execution ---------------------------------------

    def parallel_plan(self, n_ranks: int, options: PlanOptions) -> FactorPlan:
        """The static plan (mapping, block layout, compiled communication
        schedule) of this analysis for *n_ranks* ranks, built once."""
        if self.sym is None:
            self.analyze()
        key = (n_ranks, options)
        if key not in self.plans:
            self.plans[key] = build_plan(self.sym, n_ranks, options)
        return self.plans[key]

    def simulate(
        self,
        config: ParallelConfig,
        b: np.ndarray | None = None,
        verify: bool = False,
    ) -> ParallelRunReport:
        """Run the distributed factorization (and optionally a solve) on
        the simulated machine described by *config*.

        With ``verify=True`` the distributed factor is reassembled and
        compared against the sequential factor: L, plus the pivots D for
        LDLᵀ and U for LU (tests use this; it defeats the purpose of
        simulating large machines on big problems, so it is off by
        default).
        """
        with span(
            "solver.simulate",
            ranks=config.n_ranks,
            machine=config.machine.name,
        ):
            plan = self.parallel_plan(config.n_ranks, config.plan_options())
            fres = simulate_factorization(
                self.sym,
                config.n_ranks,
                config.machine,
                method=self.method,
                threads_per_rank=config.threads_per_rank,
                plan=plan,
                pivot_perturbation=self.pivot_perturbation,
            )
        if verify:
            if self.numeric is None:
                self.factor()
            # Both dense views carry a unit diagonal for LDLᵀ and LU, so D
            # and U are compared on their own.
            pairs = [(self.numeric.to_dense_l(), fres.to_dense_l(), "factor")]
            if self.method == "ldlt":
                pairs.append((self.numeric.diag, fres.assemble_diag(), "pivots D"))
            if self.method == "lu":
                pairs.append((self.numeric.to_dense_lu()[1], fres.to_dense_lu()[1], "factor U"))
            for ref, got, what in pairs:
                err = float(np.max(np.abs(ref - got)))
                scale = float(np.max(np.abs(ref))) or 1.0
                if err > 1e-8 * scale:
                    raise ReproError(
                        f"distributed {what} mismatch: max err {err:.3e}"
                    )
        sres = None
        if b is not None:
            sres = simulate_solve(fres, as_float_array(b, "b"))
        return ParallelRunReport(
            config=config,
            factor_time=fres.makespan,
            factor_gflops=fres.gflops,
            peak_fraction=fres.peak_fraction,
            comm_fraction=fres.comm_fraction(),
            n_messages=fres.sim.ledger.n_messages,
            total_bytes=fres.sim.ledger.total_bytes,
            solve_time=None if sres is None else sres.makespan,
            factor_result=fres,
            solve_result=sres,
        )

    # -- convenience ---------------------------------------------------------

    def update_values(self, new_a: CSCMatrix) -> None:
        """Install new numeric values on the *same* pattern, no factorization.

        Accepts a full symmetric or lower-triangular matrix, exactly like
        the constructor. The existing analysis (ordering + symbolic) is
        kept; any previously computed numeric factor is invalidated. Both
        :meth:`refactor` and the simulated-parallel path (where the numeric
        phase runs on the distributed engine, not the host) build on this.
        """
        self._symmetric_only("update_values")
        if self.sym is None:
            raise ReproError("call analyze() (or factor()) before refactor()")
        lower = as_symmetric_lower(new_a)
        if lower.shape != self.lower.shape:
            raise PatternMismatchError(
                "refactor requires the same matrix dimension; got "
                f"{lower.shape}, analyzed {self.lower.shape}"
            )
        if not (
            np.array_equal(lower.indptr, self.lower.indptr)
            and np.array_equal(lower.indices, self.lower.indices)
        ):
            raise PatternMismatchError(
                "refactor requires the same sparsity pattern; run a new "
                "SparseSolver (or re-analyze) for a different structure"
            )
        self.lower = lower
        self.sym.update_values(lower.data)
        self.numeric = None

    def refactor(
        self,
        new_a: CSCMatrix,
        backend: str = "seq",
        workers: int | None = None,
        precision: str | None = None,
    ) -> NumericFactor:
        """Numeric re-factorization with new values on the *same* pattern.

        The workhorse of nonlinear/transient workflows (the paper's
        sheet-forming runs factor thousands of matrices with one analysis):
        reuses the symbolic factorization, only the numeric phase reruns.
        Raises :class:`~repro.util.errors.PatternMismatchError` when *new_a*
        has a different structure. *backend* / *workers* as in
        :meth:`factor`. *precision* ``None`` keeps the previous factor's
        working precision (fp64 when nothing was factored yet).
        """
        self._symmetric_only("refactor")
        if precision is None:
            precision = "fp64" if self.numeric is None else self.numeric.precision
        work_dtype(precision)
        pool = _factor_pool(backend, workers)
        self.update_values(new_a)
        with span(
            "solver.refactor",
            method=self.method,
            backend=backend,
            precision=precision,
        ):
            self.numeric = self._factor(pool, precision)
        return self.numeric

    def condition_estimate(self, max_iter: int = 5) -> float:
        """Hager–Higham 1-norm condition estimate (factors if needed)."""
        from repro.mf.condest import condest

        self._symmetric_only("condition_estimate")
        if self.numeric is None:
            self.factor()
        return condest(self.lower, self.numeric, max_iter=max_iter)

    def schur_complement(self, schur_set) -> np.ndarray:
        """Dense Schur complement of this matrix onto *schur_set* (see
        :func:`repro.mf.schur.schur_complement`)."""
        from repro.mf.schur import schur_complement as _schur

        self._symmetric_only("schur_complement")
        ordering = self.ordering if isinstance(self.ordering, str) else "nd"
        return _schur(
            self.lower, schur_set, method=self.method, ordering=ordering
        )

    def _symmetric_only(self, what: str) -> None:
        if self.method == "lu":
            raise ShapeError(f"{what} is not available for method='lu'")

    @property
    def info(self) -> AnalyzeInfo:
        if self._analyze_info is None:
            raise ReproError("call analyze() first")
        return self._analyze_info
