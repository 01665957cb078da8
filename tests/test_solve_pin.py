"""The triangular sweeps against a per-column reference kept here, bit for bit.

``ref_solve_many`` is the blocked solve in its plainest width-invariant
form: each supernode gathers its pivot rows by index into a copy, solves
them, writes them back, and runs its off-diagonal panel update as one
``np.matmul(..., out=)`` gemv per right-hand-side column on a
Fortran-ordered buffer; a single vector takes the plain ``a @ x`` product. A pivot block
whose factor kept the inverses of its diagonal blocks
(``NumericFactor.diag_inverses``) is solved block by block with the same
per-column products: the inverse times the block's rows, then the block
column of L11 below it (forward) or above it, transposed (backward). The
other pivot blocks — narrower than four columns, and LU's — run the
column kernels of :mod:`repro.dense.trsm`. The
library's sweeps may be organised any way they like, but every solution
they return — through ``solve_many``, ``SparseSolver.solve`` (with and
without refinement) and the threads backend — must equal this one
``tobytes()`` for ``tobytes()``.

Both sides run on the same BLAS in the same process, so the comparison is
exact on any machine; no hash of ``x`` is recorded, because one depends on
the host's BLAS kernel and thread count.

The matrices are chosen for their fronts: ``grid3d_laplacian(12)`` has
fronts of up to 216 rows, so the panel updates are real gemvs, not the
handful-of-rows products of the small matrices in ``test_blocked_solve``.
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
from repro.gen import convection_diffusion2d, grid2d_9pt, grid3d_laplacian, random_spd_sparse
from repro.mf.refine import iterative_refinement_many
from repro.mf.solve_phase import solve, solve_many
from repro.sparse.permute import permute_vector, unpermute_vector
from repro.util.rng import make_rng

KS = [1, 3, 16]

MATRICES = {
    "cube12": lambda: grid3d_laplacian(12),
    "plate32": lambda: grid2d_9pt(32),
    "random300": lambda: random_spd_sparse(300, seed=1),
}


# --------------------------------------------------------------------------
# Reference sweeps
# --------------------------------------------------------------------------


def ref_gemv(a, x):
    """``a @ x``, one product per column of a panel *x*. ``np.matmul``,
    not ``np.dot``: for a transposed strided view such as L11's block
    column above a diagonal block, ``np.dot`` copies the operand first,
    which changes the gemv and so the bits."""
    if x.ndim == 1:
        return a @ x
    xf = np.asfortranarray(x)
    out = np.empty((a.shape[0], x.shape[1]), dtype=x.dtype, order="F")
    for c in range(x.shape[1]):
        np.matmul(a, xf[:, c], out=out[:, c])
    return out


def block_bounds(inverses):
    """Column ranges of the diagonal blocks the inverses belong to."""
    c0 = 0
    for inv in inverses:
        yield c0, c0 + inv.shape[0], inv
        c0 += inv.shape[0]


def ref_forward(factor, y):
    sym = factor.sym
    for s in range(sym.n_supernodes):
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        block = factor.blocks[s]
        inverses = factor.diag_inverses[s] if factor.diag_inverses is not None else None
        piv = y[rows[:w]]
        if inverses is not None:
            for c0, c1, inv in block_bounds(inverses):
                piv[c0:c1] = ref_gemv(inv, piv[c0:c1])
                if c1 < w:
                    piv[c1:] -= ref_gemv(block[c1:w, c0:c1], piv[c0:c1])
        elif factor.method == "cholesky":
            solve_lower_inplace(block[:w, :], piv)
        else:
            solve_unit_lower_inplace(block[:w, :], piv)
        y[rows[:w]] = piv
        if rows.size > w:
            y[rows[w:]] -= ref_gemv(block[w:, :], piv)


def ref_backward(factor, y):
    sym = factor.sym
    lu = factor.method == "lu"
    for s in range(sym.n_supernodes - 1, -1, -1):
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        block = factor.blocks[s]
        inverses = factor.diag_inverses[s] if factor.diag_inverses is not None else None
        piv = y[rows[:w]]
        if rows.size > w:
            off = factor.u12[s] if lu else block[w:, :].T
            piv -= ref_gemv(off, y[rows[w:]])
        if inverses is not None:
            for c0, c1, inv in reversed(list(block_bounds(inverses))):
                if c1 < w:
                    piv[c0:c1] -= ref_gemv(block[c1:w, c0:c1].T, piv[c1:])
                piv[c0:c1] = ref_gemv(inv.T, piv[c0:c1])
        elif factor.method == "ldlt":
            solve_unit_lower_transpose_outer_inplace(block[:w, :], piv)
        else:
            solve_lower_transpose_outer_inplace(block[:w, :].T if lu else block[:w, :], piv)
        y[rows[:w]] = piv


def ref_solve_many(factor, b):
    """Permute → forward → scale → backward → unpermute; a one-column panel
    runs as a single vector, as the library's dispatch does."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 2 and b.shape[1] == 1:
        return ref_solve_many(factor, b[:, 0])[:, None]
    perm = factor.sym.perm
    y = permute_vector(b, perm).astype(factor.dtype, copy=False)
    ref_forward(factor, y)
    if factor.method == "ldlt":
        y /= factor.diag if y.ndim == 1 else factor.diag[:, None]
    ref_backward(factor, y)
    return unpermute_vector(y.astype(np.float64, copy=False), perm)


# --------------------------------------------------------------------------
# Fixtures
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def factored(name, method, precision):
    solver = SparseSolver(MATRICES[name](), method=method)
    solver.factor(precision=precision)
    return solver


@functools.lru_cache(maxsize=None)
def lu_factored():
    solver = SparseSolver(convection_diffusion2d(20), method="lu")
    solver.factor()
    return solver


def rhs(n, k):
    b = make_rng(300 + k).standard_normal((n, k))
    return b[:, 0] if k == 1 else b


def assert_bitwise(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# Symmetric factors: cholesky and ldlt, fp64 and fp32
# --------------------------------------------------------------------------

SYMMETRIC = pytest.mark.parametrize(
    "name,method,precision",
    [
        (name, method, precision)
        for name in sorted(MATRICES)
        for method in ("cholesky", "ldlt")
        for precision in ("fp64", "fp32")
    ],
)


@SYMMETRIC
@pytest.mark.parametrize("k", KS)
def test_solve_many_matches_reference(name, method, precision, k):
    factor = factored(name, method, precision).numeric
    b = rhs(factor.n, k)
    ref = ref_solve_many(factor, b)
    assert_bitwise(solve_many(factor, b), ref)
    if k == 1:
        assert_bitwise(solve(factor, b), ref)
        assert_bitwise(solve_many(factor, b[:, None]), ref[:, None])


@SYMMETRIC
@pytest.mark.parametrize("k", KS)
def test_solver_front_door_matches_reference(name, method, precision, k):
    solver = factored(name, method, precision)
    factor = solver.numeric
    b = rhs(factor.n, k)
    assert_bitwise(solver.solve(b, refine=False).x, ref_solve_many(factor, b))
    refined = solver.solve(b)
    # a stalled fp32 refinement would re-factor in fp64; none of these do
    assert solver.numeric is factor
    ref = iterative_refinement_many(factor, solver.lower, b, tol=1e-12, solve_fn=ref_solve_many)
    assert_bitwise(refined.x, ref.x[:, 0] if k == 1 else ref.x)


@SYMMETRIC
@pytest.mark.parametrize("k", KS)
def test_threads_backend_matches_reference(name, method, precision, k):
    solver = factored(name, method, precision)
    factor = solver.numeric
    b = rhs(factor.n, k)
    ref = ref_solve_many(factor, b)
    assert_bitwise(solver.solve(b, refine=False, backend="threads", workers=2).x, ref)


# --------------------------------------------------------------------------
# LU (fp64 only): the backward sweep runs with U12
# --------------------------------------------------------------------------


@pytest.mark.parametrize("k", KS)
def test_lu_matches_reference(k):
    solver = lu_factored()
    factor = solver.numeric
    b = rhs(factor.n, k)
    ref = ref_solve_many(factor, b)
    assert_bitwise(solve_many(factor, b), ref)
    if k == 1:
        assert_bitwise(solver.solve(b, refine=False).x, ref)
        assert_bitwise(solve(factor, b), ref)
