"""The simulator's sequential fronts against the host factor, bit for bit.

A supernode the distribution policy gives to one rank (a group of one) is
factored by that rank alone: assembly from A, the extend-add of its
children's updates (local or received), the dense partial factorization.
That is the host front loop's step, so every such front must hold exactly
the bits of ``multifrontal_factor``'s front for that supernode, at every
rank count and under every policy:

* Cholesky / LDLᵀ: the lower triangle of the m×w panel. The strict upper
  triangle of a symmetric pivot block is unspecified (``extend_add`` adds
  the lower triangle only and no code reads the rest), so it is not
  compared.
* LDLᵀ: the pivots too.
* LU: the whole m×w panel and the w×(m−w) panel U12.

Both sides run in one process on the same BLAS, so the comparison is exact
on any machine; the reference is computed here and no hash is recorded.
"""

import functools

import numpy as np
import pytest

from repro.core import SparseSolver
from repro.gen import convection_diffusion2d, grid2d_9pt, grid3d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import GENERIC_CLUSTER
from repro.mf import multifrontal_factor
from repro.ordering import nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization
from repro.sparse.ops import full_symmetric_from_lower
from repro.symbolic import analyze

MATRICES = {
    "cube10": lambda: grid3d_laplacian(10),
    "plate24": lambda: grid2d_9pt(24),
    "cd20": lambda: convection_diffusion2d(20),
}
CASES = [
    ("cube10", "cholesky"),
    ("cube10", "ldlt"),
    ("plate24", "cholesky"),
    ("plate24", "ldlt"),
    ("cube10", "lu"),
    ("plate24", "lu"),
    ("cd20", "lu"),
]
POLICIES = ["2d", "1d", "static"]
RANKS = [1, 2, 4, 16]


@functools.lru_cache(maxsize=None)
def host_factor(name, method):
    a = MATRICES[name]()
    if method == "lu":
        if name != "cd20":
            a = full_symmetric_from_lower(a)
        solver = SparseSolver(a, method="lu")
        solver.analyze()
        return multifrontal_factor(solver.sym, "lu")
    sym = analyze(a, nested_dissection_order(AdjacencyGraph.from_symmetric_lower(a)))
    return multifrontal_factor(sym, method)


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name,method", CASES)
def test_sequential_fronts_match_host_factor(name, method, policy, p):
    host = host_factor(name, method)
    sym = host.sym
    res = simulate_factorization(
        sym, p, GENERIC_CLUSTER, PlanOptions(policy=policy), method=method
    )
    seen = []
    for data in res.datas:
        for s, panel in data.seq_panels.items():
            seen.append(s)
            ref = host.blocks[s]
            assert panel.shape == ref.shape, s
            if method == "lu":
                assert panel.tobytes() == ref.tobytes(), s
                assert data.seq_u12[s].tobytes() == host.u12[s].tobytes(), s
            else:
                assert np.tril(panel).tobytes() == np.tril(ref).tobytes(), s
            if method == "ldlt":
                c0 = sym.front_plan.start[s]
                want = host.diag[c0: c0 + sym.front_plan.width[s]]
                assert data.seq_diag[s].tobytes() == want.tobytes(), s
    # every sequential supernode was factored, by exactly one rank
    assert sorted(seen) == [s for s in range(sym.n_supernodes) if res.plan.dist[s].is_seq]
