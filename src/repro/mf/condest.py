"""1-norm condition estimation (Hager–Higham).

``condest(A) ≈ ‖A‖₁ · ‖A⁻¹‖₁`` with ‖A⁻¹‖₁ estimated from a handful of
solves — the standard cheap conditioning diagnostic direct solvers expose
next to the factorization.
"""

from __future__ import annotations

import numpy as np

from repro.mf.numeric import NumericFactor
from repro.mf.solve_phase import solve
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import sym_norm_inf_lower


def inverse_onenorm_estimate(
    factor: NumericFactor, max_iter: int = 5
) -> float:
    """Hager's estimator for ‖A⁻¹‖₁ using solves with the computed factor.

    For symmetric A the transpose solve equals the plain solve, which
    simplifies the classic algorithm.
    """
    n = factor.n
    if n == 0:
        return 0.0
    x = np.full(n, 1.0 / n)
    est = 0.0
    last_sign = np.zeros(n)
    for _ in range(max_iter):
        y = solve(factor, x)  # y = A^{-1} x
        est_new = float(np.abs(y).sum())
        sign = np.sign(y)
        sign[sign == 0] = 1.0
        if est_new <= est or np.array_equal(sign, last_sign):
            est = max(est, est_new)
            break
        est = est_new
        last_sign = sign
        z = solve(factor, sign)  # z = A^{-1} sign (A symmetric)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    # The alternating-vector refinement guards against the worst cases.
    v = np.ones(n)
    v[1::2] = -1.0
    v *= 1.0 + np.arange(n) / max(n - 1, 1)
    y = solve(factor, v)
    alt = 2.0 * float(np.abs(y).sum()) / (3.0 * n)
    return max(est, alt)


def condest(lower: CSCMatrix, factor: NumericFactor, max_iter: int = 5) -> float:
    """Estimated 1-norm condition number of the symmetric matrix whose
    lower triangle is *lower*, using its computed *factor*. ``‖A‖₁ = ‖A‖∞``
    for symmetric A."""
    return sym_norm_inf_lower(lower) * inverse_onenorm_estimate(
        factor, max_iter=max_iter
    )
