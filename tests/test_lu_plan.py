"""The LU front loop against a reference kept here.

``reference_lu`` is the static-pivoting multifrontal LU loop in its
plainest form: every front position is looked up on the spot (the pivot
columns of the permuted matrix from its CSC arrays, the pivot rows from a
CSR copy), each child's update is added through ``np.ix_`` over the whole
square, and the pivots are eliminated one column at a time. The library's
LU factor must reproduce its panels, perturbed columns and counts bit for
bit: both sides run the same elementwise numpy operations, so the
comparison is exact on any machine. The LU factor's multi-RHS solve keeps
the per-column bitwise contract of the shared sweeps.
"""

import functools
import math

import numpy as np
import pytest

from repro.core import SparseSolver
from repro.gen import convection_diffusion2d
from repro.mf.solve_phase import solve, solve_many
from repro.sparse import CSCMatrix
from repro.sparse.convert import transpose
from repro.symbolic.analyze import dense_partial_factor_flops
from repro.util.errors import SingularMatrixError
from repro.util.rng import make_rng


def random_dd_unsym(n, seed, density=0.15):
    """Random row-diagonally-dominant unsymmetric matrix (dense built)."""
    rng = make_rng(seed)
    a = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    a = a * mask
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    return CSCMatrix.from_dense(a)


MATRICES = {
    "convdiff9": lambda: convection_diffusion2d(9, wind=(1.0, -0.4), peclet=1.5),
    "convdiff14": lambda: convection_diffusion2d(14, peclet=0.7),
    "random-dd": lambda: random_dd_unsym(60, seed=3),
}
#: 0.9 of the largest entry is far above any sane threshold, so that every
#: matrix has pivots replaced
PERTURBATIONS = {"plain": None, "perturbed": 0.9}


@functools.lru_cache(maxsize=None)
def factored(name: str, ordering: str, pivot_perturbation):
    solver = SparseSolver(
        MATRICES[name](), method="lu", ordering=ordering,
        pivot_perturbation=pivot_perturbation,
    )
    solver.factor()
    return solver


def _eliminate(front, w, perturb, col_offset, perturbed):
    m = front.shape[0]
    for j in range(w):
        piv = front[j, j]
        if not math.isfinite(piv):
            raise SingularMatrixError(f"non-finite pivot at column {col_offset + j}")
        if abs(piv) <= max(perturb or 0.0, 1e-300):
            if perturb is None:
                raise SingularMatrixError(f"zero pivot at column {col_offset + j}")
            piv = (1.0 if piv >= 0 else -1.0) * perturb
            front[j, j] = piv
            perturbed.append(col_offset + j)
        if j + 1 < m:
            front[j + 1:, j] /= piv
            front[j + 1:, j + 1:] -= np.outer(front[j + 1:, j], front[j, j + 1:])


def reference_lu(sym, permuted_full, pivot_perturbation):
    """``(panels, perturbed, flops, entries)``; ``panels[s]`` is
    ``(lu11, l21, u12)``."""
    by_rows = transpose(permuted_full)
    perturb = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(permuted_full.data), initial=0.0))
        perturb = pivot_perturbation * max(scale, 1.0)
    panels, perturbed, updates = [], [], {}
    flops = entries = 0
    for s in range(sym.n_supernodes):
        rows = sym.sn_rows[s]
        m = rows.size
        c0 = int(sym.partition.sn_start[s])
        w = int(sym.partition.sn_start[s + 1]) - c0
        front = np.zeros((m, m))
        for k in range(w):
            j = c0 + k
            a_rows, a_vals = permuted_full.col(j)
            keep = a_rows >= j
            front[np.searchsorted(rows, a_rows[keep]), k] = a_vals[keep]
            a_cols, a_vals = by_rows.col(j)
            keep = a_cols > j
            front[k, np.searchsorted(rows, a_cols[keep])] = a_vals[keep]
        for c in sym.sn_children[s]:
            update, update_rows = updates.pop(c)
            ix = np.searchsorted(rows, update_rows)
            front[np.ix_(ix, ix)] += update
        _eliminate(front, w, perturb, c0, perturbed)
        panels.append((front[:w, :w].copy(), front[w:, :w].copy(), front[:w, w:].copy()))
        flops += 2 * dense_partial_factor_flops(m, w)
        entries += w * w + 2 * (m - w) * w
        if m > w:
            updates[s] = (front[w:, w:].copy(), rows[w:])
    assert not updates
    return panels, tuple(perturbed), flops, entries


def library_panels(factor, s):
    """``(lu11, l21, u12)`` of supernode *s* as the library stores them."""
    w = factor.sym.supernode_width(s)
    return factor.blocks[s][:w], factor.blocks[s][w:], factor.u12[s]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("ordering", ["nd", "amd", "natural"])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_lu_factor_matches_the_reference_loop_bitwise(name, ordering, perturbation):
    solver = factored(name, ordering, PERTURBATIONS[perturbation])
    factor = solver.numeric
    panels, perturbed, flops, entries = reference_lu(
        solver.sym, solver.sym.permuted_full, PERTURBATIONS[perturbation]
    )
    for s, want in enumerate(panels):
        for part, got, ref in zip(("lu11", "l21", "u12"), library_panels(factor, s), want):
            assert same_bits(got, ref), f"supernode {s} {part}"
    assert factor.perturbed_columns == perturbed
    assert factor.stats.flops == flops
    assert factor.stats.factor_entries == entries
    if perturbation == "perturbed":
        assert perturbed


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_lu_solve_many_column_is_its_own_solve(name):
    factor = factored(name, "nd", None).numeric
    b = np.random.default_rng(9).standard_normal((factor.n, 3))
    x = solve_many(factor, b)
    for j in range(b.shape[1]):
        assert same_bits(x[:, j].copy(), solve(factor, b[:, j]))
