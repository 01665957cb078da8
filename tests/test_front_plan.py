"""The front loop against a reference kept here, and the front plan's
index tables against the structures they are compiled from.

``reference_factor`` is the multifrontal loop in its plainest form — every
index derived on the spot, nothing planned ahead. The library's sequential
and threaded drivers must reproduce its factor and solution bit for bit:
both sides run the same dense kernels on the same BLAS, so the comparison
is exact on any machine.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.mf.numeric
from repro.dense.partial_factor import partial_cholesky, partial_ldlt
from repro.exec import multifrontal_factor_threads
from repro.gen import (
    grid2d_9pt,
    grid2d_laplacian,
    grid3d_laplacian,
    random_spd_sparse,
    unstructured2d,
)
from repro.graph import AdjacencyGraph
from repro.mf import NumericFactor, multifrontal_factor
from repro.mf.solve_phase import solve_many
from repro.ordering import get_ordering
from repro.symbolic import AnalyzeOptions, analyze
from repro.util.errors import InvariantError
from repro.util.validation import work_dtype

MATRICES = {
    "cube6": lambda: grid3d_laplacian(6),
    "cube9": lambda: grid3d_laplacian(9),
    "plate12": lambda: grid2d_9pt(12),
    "plate24": lambda: grid2d_9pt(24),
    "unstructured": lambda: unstructured2d(300, seed=3),
    "random": lambda: random_spd_sparse(250, avg_degree=5, seed=11),
}
#: (method, pivot_perturbation); 0.9 of the largest diagonal entry is far
#: above any sane setting, so that every matrix has pivots replaced
METHODS = {
    "cholesky": ("cholesky", None),
    "ldlt": ("ldlt", None),
    "ldlt-perturbed": ("ldlt", 0.9),
}


@functools.lru_cache(maxsize=None)
def analyzed(name: str, ordering: str, amalgamate: bool):
    lower = MATRICES[name]()
    graph = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, get_ordering(ordering)(graph), AnalyzeOptions(amalgamate=amalgamate))


def reference_factor(sym, method, pivot_perturbation, precision) -> NumericFactor:
    a = sym.permuted_lower
    dtype = work_dtype(precision)
    perturb = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(a.diagonal()), initial=0.0))
        perturb = pivot_perturbation * max(scale, 1.0)
    blocks, perturbed, updates = [], [], {}
    diag = np.empty(sym.n, dtype=dtype) if method == "ldlt" else None
    for s in range(sym.n_supernodes):
        rows = sym.sn_rows[s]
        m = rows.size
        c0 = int(sym.partition.sn_start[s])
        w = int(sym.partition.sn_start[s + 1]) - c0
        front = np.zeros((m, m), dtype=dtype)
        for k in range(w):
            a_rows, a_vals = a.col(c0 + k)
            keep = a_rows >= c0 + k
            front[np.searchsorted(rows, a_rows[keep]), k] = a_vals[keep]
        for c in sym.sn_children[s]:
            update, update_rows = updates.pop(c)
            ix = np.searchsorted(rows, update_rows)
            front[np.ix_(ix, ix)] += np.tril(update)
        if method == "cholesky":
            partial_cholesky(front, w)
        else:
            diag[c0: c0 + w] = partial_ldlt(
                front, w, perturb=perturb, col_offset=c0, perturbed=perturbed
            )
        blocks.append(front[:, :w].copy())
        if m > w:
            updates[s] = (front[w:, w:].copy(), rows[w:])
    assert not updates
    return NumericFactor(
        sym=sym, method=method, blocks=blocks, diag=diag,
        perturbed_columns=tuple(perturbed), precision=precision,
    )


def assert_same_factor(got: NumericFactor, want: NumericFactor, b: np.ndarray) -> None:
    """Bitwise: every block's lower trapezoid (the strict upper triangle
    of the pivot block is unspecified), the pivots, the perturbed columns
    and the solution."""
    assert got.perturbed_columns == want.perturbed_columns
    for s, (g, r) in enumerate(zip(got.blocks, want.blocks)):
        w = g.shape[1]
        assert g.dtype == r.dtype
        assert np.array_equal(np.tril(g[:w]), np.tril(r[:w])), f"pivot block {s}"
        assert np.array_equal(g[w:], r[w:]), f"panel {s}"
    if want.diag is not None:
        assert np.array_equal(got.diag, want.diag)
    assert np.array_equal(solve_many(got, b), solve_many(want, b))


@pytest.mark.parametrize("amalgamate", [True, False], ids=["amalg", "fundamental"])
@pytest.mark.parametrize("ordering", ["nd", "amd"])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_drivers_match_the_reference_loop_bitwise(name, ordering, amalgamate):
    sym = analyzed(name, ordering, amalgamate)
    b = np.random.default_rng(5).standard_normal((sym.n, 3))
    n_perturbed = 0
    for method, pivot_perturbation in METHODS.values():
        for precision in ("fp64", "fp32"):
            want = reference_factor(sym, method, pivot_perturbation, precision)
            n_perturbed += len(want.perturbed_columns)
            seq = multifrontal_factor(
                sym, method, pivot_perturbation=pivot_perturbation, precision=precision
            )
            assert_same_factor(seq, want, b)
            threads = multifrontal_factor_threads(
                sym, method, pivot_perturbation=pivot_perturbation,
                workers=2, precision=precision,
            )
            assert_same_factor(threads, want, b)
    assert n_perturbed > 0


# -- the compiled tables -------------------------------------------------------

small_matrices = st.one_of(
    st.builds(grid2d_laplacian, st.integers(2, 7)),
    st.builds(grid2d_9pt, st.integers(2, 6)),
    st.builds(grid3d_laplacian, st.integers(2, 4)),
    st.builds(
        random_spd_sparse,
        st.integers(1, 60),
        avg_degree=st.sampled_from([1.0, 3.0, 6.0]),
        seed=st.integers(0, 10**6),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    small_matrices,
    st.sampled_from(["nd", "amd", "rcm", "natural", "random"]),
    st.booleans(),
)
def test_every_entry_and_update_row_has_its_own_place(lower, ordering, amalgamate):
    graph = AdjacencyGraph.from_symmetric_lower(lower)
    sym = analyze(lower, get_ordering(ordering)(graph), AnalyzeOptions(amalgamate=amalgamate))
    plan, a = sym.front_plan, sym.permuted_lower
    col_of = np.repeat(np.arange(sym.n), np.diff(a.indptr))
    for s in range(sym.n_supernodes):
        rows, m, w = sym.sn_rows[s], sym.front_size(s), sym.supernode_width(s)
        c0 = int(sym.partition.sn_start[s])
        assert (plan.start[s], plan.width[s], plan.order[s]) == (c0, w, m)
        # Every stored entry of the pivot columns lands once, on its own
        # row and column of the front.
        lo, hi = plan.a_ptr[s], plan.a_ptr[s + 1]
        assert (lo, hi) == (a.indptr[c0], a.indptr[c0 + w])
        pos = plan.a_pos[lo:hi]
        assert np.unique(pos).size == pos.size
        assert rows[pos // m].tolist() == a.indices[lo:hi].tolist()
        assert (c0 + pos % m).tolist() == col_of[lo:hi].tolist()
        # Update rows sit at increasing, in-range positions of the parent
        # that hold the same global rows.
        rel = plan.rel[s]
        assert rel.size == m - w
        if rel.size:
            parent_rows = sym.sn_rows[int(sym.sn_parent[s])]
            assert 0 <= rel[0] and rel[-1] < parent_rows.size
            assert (np.diff(rel) > 0).all()
            assert parent_rows[rel].tolist() == rows[w:].tolist()
    assert plan.a_ptr[-1] == a.nnz == plan.a_pos.size


def test_drivers_refuse_a_matrix_the_plan_was_not_compiled_for():
    lower = grid2d_laplacian(5)
    graph = AdjacencyGraph.from_symmetric_lower(lower)
    sym = analyze(lower, get_ordering("nd")(graph))
    sym.permuted_lower = grid2d_9pt(5)  # same order, more entries
    with pytest.raises(InvariantError, match="front plan compiled for"):
        multifrontal_factor(sym)
    with pytest.raises(InvariantError, match="front plan compiled for"):
        multifrontal_factor_threads(sym, workers=2)


# -- the strict upper triangle is never read ------------------------------------


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
@pytest.mark.parametrize("method", ["cholesky", "ldlt"])
@pytest.mark.parametrize("name", ["cube6", "plate12", "unstructured"])
def test_nan_above_the_diagonal_of_every_update_changes_nothing(
    name, method, precision, monkeypatch
):
    sym = analyzed(name, "nd", True)
    b = np.random.default_rng(7).standard_normal((sym.n, 2))
    clean = multifrontal_factor(sym, method, precision=precision)
    real_extend_add = repro.mf.numeric.extend_add

    def poisoning_extend_add(front, update, rel, lower=True):
        update[np.triu_indices_from(update, 1)] = np.nan
        real_extend_add(front, update, rel, lower)

    monkeypatch.setattr(repro.mf.numeric, "extend_add", poisoning_extend_add)
    seq = multifrontal_factor(sym, method, precision=precision)
    # the poison did travel: it sits above the diagonal of pivot blocks
    assert any(np.isnan(block).any() for block in seq.blocks)
    assert_same_factor(seq, clean, b)
    assert_same_factor(
        multifrontal_factor_threads(sym, method, workers=2, precision=precision), clean, b
    )
