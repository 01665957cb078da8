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

One call refines a whole ``(n, k)`` panel with **one sweep pair per
iteration**: a single blocked residual matvec and a single blocked
correction solve cover every still-active column. Convergence is tracked
per column — a column that reaches the tolerance (or diverges) is frozen,
so each column follows exactly the iteration trajectory it would follow
refined alone, and column *j* of the result is bitwise identical to
refining ``b[:, j]`` alone.

Every method refines through this one loop. The matvec and ‖A‖∞ follow
``factor.method``: Cholesky and LDLᵀ read the lower triangle of the
symmetric matrix, LU the whole square matrix (static pivoting relies on
refinement, as SuperLU_DIST's ``IterRefine`` does). An unrefined solve is
the same loop with ``tol=math.inf``: the direct solve and each column's
backward error, with no correction step, so every caller reports the one
quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class PanelRefinementResult:
    """Outcome of blocked iterative refinement for an ``(n, k)`` panel."""

    x: np.ndarray
    #: per-column normwise backward-error history, one entry per iteration
    #: (incl. the initial direct solve); a tuple of tuples, column-major
    residual_history: tuple[tuple[float, ...], ...]
    #: refinement iterations performed per column
    iterations: np.ndarray
    converged: np.ndarray
    #: per column: True when refinement was stopped early because the
    #: backward error went non-finite or grew; ``x`` is then the
    #: best-so-far iterate
    diverged: np.ndarray
    #: normwise backward error of the returned iterate, per column
    backward_error: np.ndarray


def iterative_refinement_many(
    factor: NumericFactor,
    a: CSCMatrix,
    b: np.ndarray,
    max_iter: int = 5,
    tol: float = 1e-14,
    solve_fn=solve_many,
) -> PanelRefinementResult:
    """Blocked iterative refinement of ``A X = B`` for a panel *b*.

    Parameters
    ----------
    a
        A in the *original* ordering (the matrix handed to the analyze
        phase): its lower triangle for Cholesky and LDLᵀ factors, the whole
        square matrix for LU.
    b
        ``(n,)`` (treated as one column) or ``(n, k)``.
    tol
        A column stops when its normwise backward error
        ``‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`` drops to this; ``math.inf``
        stops every finite column after the direct solve.
    solve_fn
        The blocked direct-solve kernel (default
        :func:`~repro.mf.solve_phase.solve_many`, the one class sweep,
        whatever backend built the factor; a bitwise-identical kernel
        gives the same refinement trajectory).
    """
    b = as_float_array(b, "b")
    if b.ndim == 1:
        b = b[:, None]
    if b.ndim != 2:
        raise ShapeError(f"b must have shape (n,) or (n, k); got {b.shape}")
    n, k = b.shape
    if n != factor.n:
        raise ShapeError(f"b must have {factor.n} rows; got {b.shape}")
    x = np.zeros((n, k))
    bnorms = np.max(np.abs(b), axis=0) if n else np.zeros(k)
    # Looked up per call, so a hook on the module's
    # ``sym_matvec_lower_many`` sees every symmetric residual. The plan
    # compiled at analysis is checked against *a* on every call.
    lu = factor.method == "lu"
    plan = factor.sym.matvec_plan
    matvec = matvec_csc if lu else sym_matvec_lower_many
    anorm = norm_inf_csc(a, plan) if lu else sym_norm_inf_lower(a, plan)
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

    def fall_back(cols: np.ndarray) -> None:
        """Hand *cols* back their best-so-far iterate and its error."""
        x[:, cols] = best_x[:, cols]
        backward_error[cols] = best_berr[cols]

    # Zero right-hand sides converge immediately with a zero solution.
    active = np.flatnonzero(bnorms > 0.0)
    for j in np.flatnonzero(bnorms == 0.0):
        histories[j].append(0.0)
        converged[j] = True

    def cols(m: np.ndarray) -> np.ndarray:
        """The active columns of *m*: *m* itself while all are active (a
        fancy index would copy it, into Fortran order)."""
        return m if active.size == k else m[:, active]

    if active.size:
        x[:, active] = solve_fn(factor, cols(b))
    for it in range(max_iter + 1):
        # A non-finite iterate (a column overflowing the factor's working
        # precision, or a broken solve) must be frozen *here*: the residual
        # matvec validates its input and would reject the whole panel.
        finite_x = np.all(np.isfinite(cols(x)), axis=0)
        frozen = active[~finite_x]
        for j in frozen:
            histories[j].append(float("inf"))
        iterations[frozen] = it
        diverged[frozen] = True
        fall_back(frozen)
        active = active[finite_x]
        if not active.size:
            break
        x_act = cols(x)
        r = cols(b) - matvec(a, x_act, plan)
        with np.errstate(invalid="ignore", over="ignore"):
            xnorms = np.max(np.abs(x_act), axis=0)
            berr = np.max(np.abs(r), axis=0) / (anorm * xnorms + bnorms[active])
        for pos, j in enumerate(active):
            histories[j].append(float(berr[pos]))
        done = np.isfinite(berr) & (berr <= tol)
        iterations[active[done]] = it
        converged[active[done]] = True
        backward_error[active[done]] = berr[done]
        active, r, berr = active[~done], r[:, ~done], berr[~done]
        if not active.size:
            break
        # Divergence guard: check *before* the correction solve so a
        # NaN/Inf iterate is frozen here instead of crashing (or further
        # poisoning) the blocked solve below.
        bad = ~np.isfinite(berr) | (berr > DIVERGENCE_GROWTH * best_berr[active])
        iterations[active[bad]] = it
        diverged[active[bad]] = True
        fall_back(active[bad])
        better = ~bad & (berr < best_berr[active])
        best_berr[active[better]] = berr[better]
        best_x[:, active[better]] = x[:, active[better]]
        active, r = active[~bad], r[:, ~bad]
        if not active.size:
            break
        if it == max_iter:
            # Budget exhausted without meeting tol: return the best iterate
            # seen, not whatever the last correction happened to produce.
            iterations[active] = max_iter
            fall_back(active)
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
