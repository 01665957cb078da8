"""The sparse layer's conversions against the references kept here, bit for bit.

``coo_to_csc``, ``tril``, ``transpose`` and the ordering graph of the LU
solver feed every analysis, so their outputs are pinned exactly:

* values: ``ref_coo_sum`` sums each coordinate's contributions one at a
  time in input order, starting from ``0.0`` — the assembly semantics of a
  COO matrix with duplicates;
* structure: ``scipy.sparse`` gives the canonical CSC ``indptr`` and
  ``indices`` (explicit zeros kept, duplicates merged).

Every comparison is ``array_equal`` with the same dtype, never "close".
"""

import numpy as np
import pytest
import scipy.sparse as sps

import repro.core.solver as lu_solver_module
from repro.core.solver import SparseSolver
from repro.gen import convection_diffusion2d, grid3d_laplacian
from repro.sparse import COOMatrix, CSCMatrix
from repro.sparse.convert import coo_to_csc, transpose
from repro.sparse.ops import full_symmetric_from_lower, tril


# --------------------------------------------------------------------------
# References
# --------------------------------------------------------------------------


def ref_coo_sum(coo):
    """``{(row, col): value}``, each coordinate summed in input order."""
    out = {}
    for r, c, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        out[(r, c)] = out.get((r, c), 0.0) + v
    return out


def ref_structure(m):
    """Canonical CSC ``(indptr, indices)`` of a scipy matrix."""
    m = m.tocsc()
    m.sum_duplicates()
    m.sort_indices()
    return m.indptr.astype(np.int64), m.indices.astype(np.int64)


def as_scipy(a):
    return sps.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def csc_entries(a):
    """``[(row, col, value)]`` of a CSC matrix in storage order."""
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr)).tolist()
    return list(zip(a.indices.tolist(), cols, a.data.tolist()))


def ref_ordering_graph(a):
    """``(xadj, adjncy)`` of the graph of ``A + Aᵀ`` without self loops."""
    pattern = sps.csc_matrix(
        (np.ones(a.nnz), a.indices, a.indptr), shape=a.shape
    ).tocsr()
    sym = (pattern + pattern.T).tocsr()
    sym.setdiag(0)
    sym.eliminate_zeros()
    sym.sort_indices()
    return sym.indptr.astype(np.int64), sym.indices.astype(np.int64)


def random_coo(seed, shape, nnz):
    """COO with many duplicates, some explicit zeros and a cancelling pair."""
    rng = np.random.default_rng(seed)
    r = rng.integers(0, shape[0], size=nnz)
    c = rng.integers(0, shape[1], size=nnz)
    v = rng.standard_normal(nnz)
    v[rng.random(nnz) < 0.1] = 0.0
    if nnz >= 2:
        r[-1], c[-1], v[-1] = r[0], c[0], -v[0]
    return COOMatrix(shape, r, c, v)


SHAPES = [((1, 1), 3), ((5, 5), 30), ((8, 3), 40), ((3, 9), 40), ((40, 40), 400)]


# --------------------------------------------------------------------------
# coo_to_csc
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("shape,nnz", SHAPES)
def test_coo_to_csc_matches_reference(seed, shape, nnz):
    coo = random_coo(seed, shape, nnz)
    got = coo_to_csc(coo)
    ref_indptr, ref_indices = ref_structure(
        sps.coo_matrix((coo.data, (coo.row, coo.col)), shape=shape)
    )
    assert got.shape == shape
    assert got.indptr.dtype == got.indices.dtype == np.int64
    assert np.array_equal(got.indptr, ref_indptr)
    assert np.array_equal(got.indices, ref_indices)
    sums = ref_coo_sum(coo)
    assert len(sums) == got.nnz
    want = np.array([sums[(r, c)] for r, c, _ in csc_entries(got)])
    assert got.data.dtype == np.float64
    assert np.array_equal(got.data.view(np.int64), want.view(np.int64))


def test_coo_to_csc_empty():
    got = coo_to_csc(COOMatrix.empty((4, 6)))
    assert got.shape == (4, 6)
    assert np.array_equal(got.indptr, np.zeros(7, dtype=np.int64))
    assert got.nnz == 0


# --------------------------------------------------------------------------
# tril and transpose
# --------------------------------------------------------------------------


def canonical_csc(seed, shape, nnz):
    return coo_to_csc(random_coo(seed, shape, nnz))


@pytest.mark.parametrize("k", [-2, -1, 0, 1])
@pytest.mark.parametrize("seed", range(6))
def test_tril_matches_reference(seed, k):
    a = canonical_csc(seed, (30, 30), 300)
    got = tril(a, k)
    ref_indptr, ref_indices = ref_structure(sps.tril(as_scipy(a), k))
    assert got.shape == a.shape
    assert np.array_equal(got.indptr, ref_indptr)
    assert np.array_equal(got.indices, ref_indices)
    assert csc_entries(got) == [e for e in csc_entries(a) if e[1] - e[0] <= k]


def test_tril_of_the_full_matrix_is_the_lower_triangle():
    lower = grid3d_laplacian(6)
    got = tril(full_symmetric_from_lower(lower))
    assert np.array_equal(got.indptr, lower.indptr)
    assert np.array_equal(got.indices, lower.indices)
    assert np.array_equal(got.data.view(np.int64), lower.data.view(np.int64))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape,nnz", SHAPES)
def test_transpose_matches_reference(seed, shape, nnz):
    a = canonical_csc(seed, shape, nnz)
    got = transpose(a)
    ref = as_scipy(a).T.tocsc()
    ref.sort_indices()
    assert np.array_equal(got.indptr, ref.indptr.astype(np.int64))
    assert np.array_equal(got.indices, ref.indices.astype(np.int64))
    assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))


# --------------------------------------------------------------------------
# The LU solver's ordering graph
# --------------------------------------------------------------------------


def captured_ordering_graph(a, monkeypatch):
    seen = []
    real = lu_solver_module.get_ordering

    def spy(name):
        order = real(name)

        def wrapped(graph):
            seen.append(graph)
            return order(graph)

        return wrapped

    monkeypatch.setattr(lu_solver_module, "get_ordering", spy)
    SparseSolver(a, method="lu", ordering="amd").analyze()
    (graph,) = seen
    return graph


def random_unsymmetric(seed, n=25, density=0.12):
    rng = np.random.default_rng(seed)
    m = sps.random(n, n, density=density, random_state=rng, format="csc")
    m = (m + sps.identity(n, format="csc")).tocsc()
    m.sort_indices()
    return CSCMatrix(m.shape, m.indptr, m.indices, m.data)


@pytest.mark.parametrize(
    "make",
    [lambda: convection_diffusion2d(20)]
    + [lambda s=s: random_unsymmetric(s) for s in range(12)],
    ids=["convection_diffusion2d-20"] + [f"random-{s}" for s in range(12)],
)
def test_lu_ordering_graph_is_a_plus_at(make, monkeypatch):
    a = make()
    graph = captured_ordering_graph(a, monkeypatch)
    ref_xadj, ref_adjncy = ref_ordering_graph(a)
    assert graph.n == a.shape[0]
    assert np.array_equal(graph.xadj, ref_xadj)
    assert np.array_equal(graph.adjncy, ref_adjncy)
