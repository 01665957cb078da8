"""The sweeps on the stored diagonal-block inverses are as accurate as the
column kernels, on matrices where an explicit inverse could hurt.

A factor keeps the inverses of its pivot blocks' diagonal blocks
(``NumericFactor.diag_inverses``), and ``solve_many`` multiplies by them
instead of substituting column by column. ``column_solve`` below is the
substitution those sweeps replaced, kept here on :mod:`repro.dense.trsm`:
it runs on the same factor, so the two solutions differ only in how the
pivot blocks are solved. Each case asserts that the unrefined normwise
backward error of ``solve_many`` is at most ten times the reference's,
column by column, in fp64 and in fp32:

* an SPD operator whose diagonal spans eight orders of magnitude
  (a symmetric scaling of a grid Laplacian), factored with Cholesky;
* an indefinite shifted Laplacian, factored with LDLᵀ.
"""

import functools

import numpy as np
import pytest

from repro.core.solver import SparseSolver
from repro.dense.trsm import (
    solve_lower_inplace,
    solve_lower_transpose_outer_inplace,
    solve_unit_lower_inplace,
    solve_unit_lower_transpose_outer_inplace,
)
from repro.gen import grid3d_laplacian
from repro.mf.solve_phase import solve_many
from repro.sparse.csc import CSCMatrix
from repro.sparse.permute import permute_vector, unpermute_vector
from repro.util.rng import make_rng

#: bound on the backward error of the inverse-block sweeps relative to the
#: column kernels'
FACTOR = 10.0


def scaled_spd():
    """``S A S`` for the cube 10³ Laplacian A and ``S = diag(10^u)``,
    u uniform in [-2, 2]: the diagonal spans eight orders of magnitude."""
    lower = grid3d_laplacian(10)
    s = 10.0 ** make_rng(11).uniform(-2.0, 2.0, lower.shape[0])
    cols = np.repeat(np.arange(lower.shape[1]), np.diff(lower.indptr))
    data = lower.data * s[lower.indices] * s[cols]
    return CSCMatrix(lower.shape, lower.indptr, lower.indices, data)


def shifted_laplacian():
    """The cube 10³ Laplacian minus 0.5·I: its smallest eigenvalues are
    about 0.24 and 0.53, so a handful are negative."""
    lower = grid3d_laplacian(10)
    data = lower.data.copy()
    cols = np.repeat(np.arange(lower.shape[1]), np.diff(lower.indptr))
    data[lower.indices == cols] -= 0.5
    return CSCMatrix(lower.shape, lower.indptr, lower.indices, data)


CASES = {
    "scaled-spd-cholesky": (scaled_spd, "cholesky"),
    "shifted-ldlt": (shifted_laplacian, "ldlt"),
}


@functools.lru_cache(maxsize=None)
def factored(case, precision):
    make, method = CASES[case]
    solver = SparseSolver(make(), method=method)
    solver.factor(precision=precision)
    return solver


def column_solve(factor, b):
    """The column-kernel sweeps on *factor*, ignoring its inverses."""
    sym = factor.sym
    y = permute_vector(b, sym.perm).astype(factor.dtype)
    for s in range(sym.n_supernodes):
        rows, w, block = sym.sn_rows[s], sym.supernode_width(s), factor.blocks[s]
        piv = y[rows[:w]]
        if factor.method == "cholesky":
            solve_lower_inplace(block[:w], piv)
        else:
            solve_unit_lower_inplace(block[:w], piv)
        y[rows[:w]] = piv
        y[rows[w:]] -= block[w:] @ piv
    if factor.method == "ldlt":
        y /= factor.diag[:, None]
    for s in range(sym.n_supernodes - 1, -1, -1):
        rows, w, block = sym.sn_rows[s], sym.supernode_width(s), factor.blocks[s]
        piv = y[rows[:w]] - block[w:].T @ y[rows[w:]]
        if factor.method == "cholesky":
            solve_lower_transpose_outer_inplace(block[:w], piv)
        else:
            solve_unit_lower_transpose_outer_inplace(block[:w], piv)
        y[rows[:w]] = piv
    return unpermute_vector(y.astype(np.float64), sym.perm)


def backward_errors(a, x, b):
    """Per column ``‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)``."""
    r = b - a @ x
    norm_a = np.abs(a).sum(axis=1).max()
    return np.abs(r).max(axis=0) / (norm_a * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_inverse_blocks_keep_the_backward_error(case, precision):
    solver = factored(case, precision)
    factor = solver.numeric
    # the cases must reach the multi-block path, not only one-block fronts
    assert max(len(invs) for invs in factor.diag_inverses if invs) > 1
    lower = solver.lower.to_dense()
    a = lower + np.tril(lower, -1).T
    b = make_rng(5).standard_normal((factor.n, 4))
    got = backward_errors(a, solve_many(factor, b), b)
    ref = backward_errors(a, column_solve(factor, b), b)
    assert np.all(got <= FACTOR * ref), (got, ref)
