"""Supernodal triangular solves, blocked over multiple right-hand sides.

Given a :class:`~repro.mf.numeric.NumericFactor`, solve ``A X = B`` in the
*original* ordering: permute the RHS panel, run the forward sweep, the
diagonal scaling (LDLᵀ), the backward sweep (with Lᵀ, or with U for an LU
factor), and un-permute. One permute → sweep → unpermute pass serves any
number of right-hand sides: the traversal, the Python overhead and the
triangular-substitution inner loops are paid once per *panel*, not once
per column.

A sweep runs one step per *front class* (``sym.front_plan.classes``): the
fronts of one height in the assembly tree, one order m and one pivot
width w, none an ancestor of another. The forward sweep climbs the
classes by height, the backward sweep descends them. A step gathers its
members' pivot rows — ``(w, k)``, or ``(w, k, K)`` for a panel of K
right-hand sides: row by row, the members beside each other — runs the
kernel (:func:`forward_kernel` / :func:`backward_kernel`) on them and the
factor's ``(k, m, w)`` panel stack, and scatters the rows back. One front
is the same kernel on one ``(m, w)`` panel and its ``(w[, K])`` rows,
running the very numpy calls a per-front sweep runs: the simulator's
sequential fronts (:mod:`repro.parallel.solve_par`) call it so; the
simulator's distributed fronts run the same :func:`gemv_columns` and
transpose kernels.

Bitwise reproducibility contract
--------------------------------
``solve_many(factor, B)[:, j]`` is **bitwise identical** to
``solve(factor, B[:, j])`` for every column, no matter how many columns
share the panel, and whatever backend built the factor (a factor's bits
do not depend on its schedule); and each solution is the one a sweep of
one front at a time in supernode order gives. The rules that buy this:

* a Cholesky or LDLᵀ pivot block of w ≥ 4 columns is solved block by
  block on the inverses of its :data:`~repro.dense.chol.SOLVE_BLOCK`-wide
  diagonal blocks (``NumericFactor.inverse_stacks``): one stacked gemv on
  each inverse and one on each block column of L11 beside it, so w pivots
  cost about 2·w/32 numpy calls instead of w Python steps;
* narrower pivot blocks and LU's keep the column kernels of
  :mod:`repro.dense.trsm` (forward kernels and the ``*_outer`` transpose
  kernels), whose elementwise/outer-product updates have a per-column
  operation sequence that does not depend on the panel width or on the
  stack;
* every product — those on the inverses and the off-diagonal panel
  update — is one stacked ``matmul`` per operand, whose call per member
  and column is the single-front, single-RHS gemv: numpy loops over the
  batch in C and gives each contiguous column the exact call a lone front
  and column would issue, whereas a plain BLAS gemm would reorder sums
  with the panel width;
* the class rule: a class's members share (m, w), so a step is one stack
  of the same per-member operations; none of them is an ancestor of
  another, so no member reads a row another member writes in the step;
* the pull rule: a class step publishes its members' update panels, and
  every published row is subtracted from the row it updates before the
  classes of that row's height run, one source per round and the
  sources of each row in ascending supernode order — the per-element
  subtraction sequence of a sweep of one front at a time. A round's rows
  are distinct, so it is one fancy-indexed subtraction.

The serving layer's coalesced batches and the blocked iterative refinement
in :mod:`repro.mf.refine` both lean on this guarantee to stay bit-checkable
against the per-column path.
"""

from __future__ import annotations

import numpy as np

from repro.dense.trsm import (
    solve_lower_inplace,
    solve_lower_transpose_outer_inplace,
    solve_unit_lower_inplace,
    solve_unit_lower_transpose_outer_inplace,
)
from repro.mf.numeric import NumericFactor
from repro.obs.spans import span
from repro.sparse.permute import permute_vector, unpermute_vector
from repro.util.errors import ShapeError
from repro.util.validation import VALUE_DTYPE, as_float_array


def solve(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for one right-hand side (original ordering)."""
    b = as_float_array(b, "b")
    n = factor.n
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},); got {b.shape}")
    return _solve_permuted(factor, b)


def solve_many(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """Blocked solve for multiple right-hand sides (columns of *b*).

    Runs **one** permute → forward → scale → backward → unpermute pass over
    the whole ``(n, k)`` panel; each column's bits match a stand-alone
    :func:`solve` of that column (see the module docstring).
    """
    b = as_float_array(b, "b")
    if b.ndim == 1:
        return solve(factor, b)
    n = factor.n
    if b.ndim != 2 or b.shape[0] != n:
        raise ShapeError(f"b must have shape ({n},) or ({n}, k); got {b.shape}")
    if b.shape[1] == 1:
        # The single-vector path skips the panel bookkeeping; the bitwise
        # contract makes the dispatch invisible to callers.
        return solve(factor, b[:, 0])[:, None]
    return _solve_permuted(factor, b)


def _solve_permuted(factor: NumericFactor, b: np.ndarray) -> np.ndarray:
    """Permute → forward → scale → backward → unpermute."""
    sym = factor.sym
    with span(
        "mf.solve",
        n=factor.n,
        rhs=1 if b.ndim == 1 else int(b.shape[1]),
        method=factor.method,
        precision=factor.precision,
    ):
        # The sweeps run in the factor's working dtype (one rounding of the
        # fp64 RHS on the way in); the result is widened back to fp64 so
        # callers — iterative refinement above all — accumulate in fp64.
        y = permute_vector(b, sym.perm).astype(factor.dtype, copy=False)
        forward_sweep(factor, y)
        if factor.method == "ldlt":
            y /= factor.diag if y.ndim == 1 else factor.diag[:, None]
        backward_sweep(factor, y)
        return unpermute_vector(y.astype(VALUE_DTYPE, copy=False), sym.perm)


def gemv_columns(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for one front's operand *a* ``(r, n)`` and a vector ``(n,)``
    or a panel ``(n, K)`` *x*; or, member by member, for a stack *a*
    ``(k, r, n)`` and *x* ``(n, k)`` or ``(n, k, K)`` (rows first, the
    members beside each other, as the class sweeps gather them).

    Anything wider than one vector is one stacked ``matmul`` with the
    members and the columns as its batch axes: numpy loops over the batch
    in C and gives each contiguous column the gemv that one front and one
    column issue alone, so every column's bits are those of the
    single-front, single-vector path, whatever the stack and the panel
    width. (A plain BLAS gemm would reorder sums with the panel width.)
    """
    if x.ndim == 1:
        return a @ x
    if x.ndim == 2:  # one front and a panel, or a stack and a vector each
        return np.matmul(a, np.ascontiguousarray(x.T)[:, :, None])[:, :, 0].T
    xt = np.ascontiguousarray(x.transpose(1, 2, 0))[..., None]
    return np.matmul(a[:, None], xt)[..., 0].transpose(2, 0, 1)


def _diagonal_blocks(inverses: list[np.ndarray]):
    """``(c0, c1, inverse)`` of each diagonal block of a pivot block."""
    c0 = 0
    for inv in inverses:
        c1 = c0 + inv.shape[-1]
        yield c0, c1, inv
        c0 = c1


def forward_kernel(
    panel: np.ndarray,
    method: str,
    piv: np.ndarray,
    inverses: list[np.ndarray] | None = None,
) -> np.ndarray | None:
    """The forward substitution of one front, or of a class of fronts at
    once: solves the pivot block of the m×w factor *panel* against the
    pivot rows *piv* in place and returns the update ``L21 piv`` for the
    front's update rows (None when it has none). The caller subtracts it
    where the rows live.

    One front passes its panel ``(m, w)`` and rows ``(w,)`` or ``(w, K)``;
    a class passes its panel stack ``(k, m, w)`` and rows ``(w, k)`` or
    ``(w, k, K)``, and gets ``(m − w, k[, K])`` back. With the *inverses*
    of the pivot block's diagonal blocks (``NumericFactor.diag_inverses``,
    or a class's ``inverse_stacks``), each block's rows are one gemv on
    its inverse and the block column of L11 below it is one more;
    without, the column kernels of :mod:`repro.dense.trsm` run."""
    w = panel.shape[-1]
    if inverses is not None:
        for c0, c1, inv in _diagonal_blocks(inverses):
            piv[c0:c1] = gemv_columns(inv, piv[c0:c1])
            if c1 < w:
                piv[c1:] -= gemv_columns(panel[..., c1:w, c0:c1], piv[c0:c1])
    elif method == "cholesky":
        solve_lower_inplace(panel[..., :w, :], piv)
    else:
        solve_unit_lower_inplace(panel[..., :w, :], piv)
    return gemv_columns(panel[..., w:, :], piv) if panel.shape[-2] > w else None


def backward_kernel(
    panel: np.ndarray,
    u12: np.ndarray | None,
    method: str,
    piv: np.ndarray,
    xu: np.ndarray | None,
    inverses: list[np.ndarray] | None = None,
) -> None:
    """The backward substitution of one front, or of a class of fronts
    (operands as in :func:`forward_kernel`), on its pivot rows *piv* in
    place, given the solution *xu* at its update rows (read only when the
    panel has update rows). Cholesky and LDLᵀ solve with the transpose of
    their L panel — on the transposed *inverses* of its diagonal blocks
    when given; LU with U: its upper pivot block (as the transpose of a
    lower one) and *u12*."""
    w = panel.shape[-1]
    if panel.shape[-2] > w:
        piv -= gemv_columns(u12 if method == "lu" else panel[..., w:, :].swapaxes(-1, -2), xu)
    if inverses is not None:
        for c0, c1, inv in reversed(list(_diagonal_blocks(inverses))):
            if c1 < w:
                piv[c0:c1] -= gemv_columns(panel[..., c1:w, c0:c1].swapaxes(-1, -2), piv[c1:])
            piv[c0:c1] = gemv_columns(inv.swapaxes(-1, -2), piv[c0:c1])
    elif method == "ldlt":
        solve_unit_lower_transpose_outer_inplace(panel[..., :w, :], piv)
    else:
        pivot = panel[..., :w, :]
        solve_lower_transpose_outer_inplace(
            pivot.swapaxes(-1, -2) if method == "lu" else pivot, piv
        )


def forward_sweep(factor: NumericFactor, y: np.ndarray) -> None:
    """In-place forward substitution ``y <- L^{-1} y`` in permuted order.

    *y* is a single vector ``(n,)`` or a panel ``(n, k)``. One step per
    front class, in ascending height: the class pulls the published
    updates into its members' pivot rows, gathers the rows, runs
    :func:`forward_kernel` on them and its panel stack, scatters the rows
    back and publishes its members' updates.
    """
    classes = factor.sym.front_plan.classes
    tail = y.shape[1:]
    piv_ptr, pub_ptr = classes.piv_ptr.tolist(), classes.pub_ptr.tolist()
    rounds, round_ptr = classes.class_rounds.tolist(), classes.round_ptr.tolist()
    #: the classes' update panels, in the rows of ``classes.update_rows``
    published = np.empty((classes.update_rows.size,) + tail, dtype=y.dtype)
    for c, (panels, inverses) in enumerate(zip(factor.block_stacks, factor.inverse_stacks)):
        for r in range(rounds[c], rounds[c + 1]):
            lo, hi = round_ptr[r], round_ptr[r + 1]
            y[classes.pull_to[lo:hi]] -= published[classes.pull_from[lo:hi]]
        k, m, w = panels.shape
        pivots = classes.pivots[piv_ptr[c]: piv_ptr[c + 1]]
        piv = y[pivots].reshape((w, k) + tail)
        upd = forward_kernel(panels, factor.method, piv, inverses)
        y[pivots] = piv.reshape((w * k,) + tail)
        if upd is not None:
            published[pub_ptr[c]: pub_ptr[c + 1]].reshape(upd.shape)[...] = upd


def backward_sweep(factor: NumericFactor, y: np.ndarray) -> None:
    """In-place backward substitution ``y <- L^{-T} y`` in permuted order.

    *y* is a single vector ``(n,)`` or a panel ``(n, k)``. One step per
    front class, in descending height: every ancestor row a class reads
    is final by then.
    """
    classes = factor.sym.front_plan.classes
    tail = y.shape[1:]
    piv_ptr, pub_ptr = classes.piv_ptr.tolist(), classes.pub_ptr.tolist()
    u12_stacks = factor.u12_stacks or [None] * len(classes)
    for c in range(len(classes) - 1, -1, -1):
        panels = factor.block_stacks[c]
        k, m, w = panels.shape
        pivots = classes.pivots[piv_ptr[c]: piv_ptr[c + 1]]
        piv = y[pivots].reshape((w, k) + tail)
        xu = None
        if m > w:
            xu = y[classes.update_rows[pub_ptr[c]: pub_ptr[c + 1]]].reshape((m - w, k) + tail)
        backward_kernel(panels, u12_stacks[c], factor.method, piv, xu, factor.inverse_stacks[c])
        y[pivots] = piv.reshape((w * k,) + tail)
