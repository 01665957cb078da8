"""Iterative refinement, blocked over multiple right-hand sides.

One step of refinement after a direct solve recovers the digits lost to
rounding in the factorization — the standard accuracy safeguard sparse
direct solvers ship (WSMP enables it by default for its iterative-refinement
solve mode). With fp32 factors the roles sharpen: the cheap correction
solves run in the factor's working precision while residuals accumulate in
fp64, so a well-conditioned system recovers full fp64 accuracy from a
half-storage factorization.

Stopping test: the **normwise backward error**

    berr = ‖b − A x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)

(Oettli–Prager style), not the bare ‖r‖∞/‖b‖∞ ratio — the denominator
keeps the test meaningful when ‖x‖ dwarfs ‖b‖ and makes it scale-invariant
per column.

Divergence is detected, not looped through: a column whose backward error
goes non-finite or grows past twice its best-so-far value is stopped
immediately, flagged ``diverged``, and handed back its best-so-far iterate
(never a NaN-poisoned one). Columns that merely exhaust ``max_iter`` are
reported as non-converged with ``diverged`` False — the two outcomes ask
for different remedies (re-factor in fp64 vs. raise the budget).

The blocked path (:func:`iterative_refinement_many`) refines a whole
``(n, k)`` panel with **one sweep pair per iteration**: a single blocked
residual matvec and a single blocked correction solve cover every
still-active column. Convergence is tracked per column — a column that
reaches the tolerance (or diverges) is frozen, so each column follows
exactly the iteration trajectory it would follow refined alone, and the
result is bitwise identical per column to the scalar
:func:`iterative_refinement` (which delegates to the same core).

Every method refines through this one loop. The matvec and ‖A‖∞ follow
``factor.method``: Cholesky and LDLᵀ read the lower triangle of the
symmetric matrix, LU the whole square matrix (static pivoting relies on
refinement, as SuperLU_DIST's ``IterRefine`` does). The unrefined solve's
accuracy report, :func:`relative_residuals`, picks its matvec the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mf.numeric import NumericFactor
from repro.mf.solve_phase import solve_many
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import (
    matvec_csc,
    norm_inf_csc,
    sym_matvec_lower_many,
    sym_norm_inf_lower,
)
from repro.util.errors import ShapeError
from repro.util.validation import as_float_array

#: a column whose backward error exceeds this multiple of its best-so-far
#: value is declared diverged (LAPACK's mixed-precision drivers use the
#: same no-longer-halving idea to trigger their fp64 fallback)
DIVERGENCE_GROWTH = 2.0


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of iterative refinement for one right-hand side."""

    x: np.ndarray
    #: normwise backward-error history, one entry per iteration (incl.
    #: the initial direct solve)
    residual_history: tuple[float, ...]
    iterations: int
    converged: bool
    #: True when refinement was stopped early because the backward error
    #: went non-finite or grew; ``x`` is then the best-so-far iterate
    diverged: bool = False
    #: normwise backward error of the *returned* ``x``
    backward_error: float = 0.0


@dataclass(frozen=True)
class PanelRefinementResult:
    """Outcome of blocked iterative refinement for an ``(n, k)`` panel."""

    x: np.ndarray
    #: per-column backward-error history (tuple of tuples, column-major)
    residual_history: tuple[tuple[float, ...], ...]
    #: refinement iterations performed per column
    iterations: np.ndarray
    converged: np.ndarray
    #: per-column early-stop flag (see :class:`RefinementResult.diverged`)
    diverged: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    #: normwise backward error of the returned iterate, per column
    backward_error: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def residuals(self) -> np.ndarray:
        """Normwise backward error of the returned solution, per column."""
        return self.backward_error

    def column(self, j: int) -> RefinementResult:
        """The scalar-result view of column *j*."""
        return RefinementResult(
            x=self.x[:, j],
            residual_history=self.residual_history[j],
            iterations=int(self.iterations[j]),
            converged=bool(self.converged[j]),
            diverged=bool(self.diverged[j]),
            backward_error=float(self.backward_error[j]),
        )


def _matvec(factor: NumericFactor):
    """``matvec(a, x)`` of the matrix as *factor*'s method holds it: the
    whole square matrix for LU, the lower triangle of a symmetric matrix
    otherwise. Looked up per call, so a hook on the module's
    ``sym_matvec_lower_many`` sees every symmetric residual."""
    return matvec_csc if factor.method == "lu" else sym_matvec_lower_many


def relative_residuals(
    factor: NumericFactor, a: CSCMatrix, x: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Per-column ``max|b − A x| / max(max|b|, 1e-300)`` of the panels *x*
    and *b* (``(n, k)``; a vector pair gives a scalar): the accuracy report
    of an unrefined solve. *a* is the matrix as
    :func:`iterative_refinement_many` takes it."""
    r = b - _matvec(factor)(a, x)
    denom = np.maximum(np.max(np.abs(b), axis=0), 1e-300)
    return np.max(np.abs(r), axis=0) / denom


def _refine_panel(
    factor: NumericFactor,
    a: CSCMatrix,
    b: np.ndarray,
    max_iter: int,
    tol: float,
    solve_fn=solve_many,
) -> PanelRefinementResult:
    """Refine all columns of *b* (shape ``(n, k)``) with per-column
    convergence tracking and one blocked sweep pair per iteration.

    *solve_fn* is the blocked direct-solve kernel (default the sequential
    :func:`~repro.mf.solve_phase.solve_many`; the threads backend passes
    :func:`repro.exec.solve_many_threads`, which is bitwise
    identical, so the refinement trajectory is too)."""
    n, k = b.shape
    x = np.zeros((n, k))
    bnorms = np.max(np.abs(b), axis=0) if n else np.zeros(k)
    matvec = _matvec(factor)
    anorm = norm_inf_csc(a) if factor.method == "lu" else sym_norm_inf_lower(a)
    histories: list[list[float]] = [[] for _ in range(k)]
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    diverged = np.zeros(k, dtype=bool)
    backward_error = np.zeros(k)
    # Best-so-far iterate per column. The zero vector's backward error is
    # exactly 1.0 (r = b), so it is a finite universal fallback even when
    # the very first direct solve produces garbage.
    best_x = np.zeros((n, k))
    best_berr = np.ones(k)

    # Zero right-hand sides converge immediately with a zero solution,
    # matching the scalar fast path.
    active = np.flatnonzero(bnorms > 0.0)
    for j in np.flatnonzero(bnorms == 0.0):
        histories[j].append(0.0)
        converged[j] = True

    if active.size:
        x[:, active] = solve_fn(factor, b[:, active])
    for it in range(max_iter + 1):
        if not active.size:
            break
        # A non-finite iterate (a column overflowing the factor's working
        # precision, or a broken solve) must be frozen *here*: the residual
        # matvec validates its input and would reject the whole panel.
        finite_x = np.all(np.isfinite(x[:, active]), axis=0)
        for pos in np.flatnonzero(~finite_x):
            j = active[pos]
            histories[j].append(float("inf"))
            iterations[j] = it
            diverged[j] = True
            x[:, j] = best_x[:, j]
            backward_error[j] = best_berr[j]
        active = active[finite_x]
        if not active.size:
            break
        r = b[:, active] - matvec(a, x[:, active])
        with np.errstate(invalid="ignore", over="ignore"):
            xnorms = np.max(np.abs(x[:, active]), axis=0)
            berr = np.max(np.abs(r), axis=0) / (anorm * xnorms + bnorms[active])
        for pos, j in enumerate(active):
            histories[j].append(float(berr[pos]))
        finite = np.isfinite(berr)
        done = finite & (berr <= tol)
        for pos in np.flatnonzero(done):
            j = active[pos]
            iterations[j] = it
            converged[j] = True
            backward_error[j] = float(berr[pos])
        # Divergence guard: check *before* the correction solve so a
        # NaN/Inf iterate is frozen here instead of crashing (or further
        # poisoning) the blocked solve below.
        bad = ~done & (~finite | (berr > DIVERGENCE_GROWTH * best_berr[active]))
        for pos in np.flatnonzero(bad):
            j = active[pos]
            iterations[j] = it
            diverged[j] = True
            x[:, j] = best_x[:, j]
            backward_error[j] = best_berr[j]
        keep = ~done & ~bad
        for pos in np.flatnonzero(keep & (berr < best_berr[active])):
            j = active[pos]
            best_berr[j] = float(berr[pos])
            best_x[:, j] = x[:, j]
        active = active[keep]
        r = r[:, keep]
        if not active.size:
            break
        if it == max_iter:
            # Budget exhausted without meeting tol: return the best iterate
            # seen, not whatever the last correction happened to produce.
            for j in active:
                iterations[j] = max_iter
                x[:, j] = best_x[:, j]
                backward_error[j] = best_berr[j]
            break
        # One blocked correction solve for every still-active column.
        x[:, active] += solve_fn(factor, r)
    return PanelRefinementResult(
        x=x,
        residual_history=tuple(tuple(h) for h in histories),
        iterations=iterations,
        converged=converged,
        diverged=diverged,
        backward_error=backward_error,
    )


def iterative_refinement(
    factor: NumericFactor,
    a: CSCMatrix,
    b: np.ndarray,
    max_iter: int = 5,
    tol: float = 1e-14,
) -> RefinementResult:
    """Refine the direct solution of ``A x = b`` (one right-hand side).

    Parameters
    ----------
    a
        A in the *original* ordering (the matrix handed to the analyze
        phase): its lower triangle for Cholesky and LDLᵀ factors, the whole
        square matrix for LU.
    tol
        Stop when the normwise backward error
        ``‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`` drops below this.
    """
    b = as_float_array(b, "b")
    if b.ndim != 1:
        raise ShapeError(f"b must be one-dimensional; got {b.shape}")
    res = _refine_panel(factor, a, b[:, None], max_iter, tol)
    return res.column(0)


def iterative_refinement_many(
    factor: NumericFactor,
    a: CSCMatrix,
    b: np.ndarray,
    max_iter: int = 5,
    tol: float = 1e-14,
    solve_fn=solve_many,
) -> PanelRefinementResult:
    """Blocked iterative refinement of ``A X = B`` for a panel *b*.

    Accepts ``(n,)`` (treated as one column) or ``(n, k)``; *a* as in
    :func:`iterative_refinement`. Column *j* of the result is bitwise
    identical to refining ``b[:, j]`` alone with
    :func:`iterative_refinement`.
    """
    b = as_float_array(b, "b")
    if b.ndim == 1:
        b = b[:, None]
    if b.ndim != 2:
        raise ShapeError(f"b must have shape (n,) or (n, k); got {b.shape}")
    n = factor.n
    if b.shape[0] != n:
        raise ShapeError(f"b must have {n} rows; got {b.shape}")
    return _refine_panel(factor, a, b, max_iter, tol, solve_fn=solve_fn)
