"""The simulated solve is width-invariant, and at one rank it is the fan-in
sweep of the host's per-front kernels, bit for bit.

* For every rank count and policy, each column of
  ``simulate_solve(res, B).x`` is bitwise equal to
  ``simulate_solve(res, B[:, j]).x``: the simulated sweeps, like the host's,
  give a column the same bits whatever else rides in the panel.
* At p = 1 every front is sequential, and the simulated ``x`` is bitwise
  equal to ``fan_in_solve`` below: the host factor's panels run through the
  shared kernels :func:`~repro.mf.solve_phase.forward_kernel` /
  :func:`~repro.mf.solve_phase.backward_kernel`, with each front's update
  rows starting at zero, its children's update vectors added at
  ``front_plan.rel[c]`` in ascending child order, and ``f[w:] - L21 y``
  passed up. That is the rank program's summation order. It is not the
  host sweep's, which subtracts each descendant's update straight from
  ``y``, so the simulated ``x`` is not compared with ``solve_many``.

Both sides run in one process on the same BLAS, so the comparisons are
exact on any machine; no hash is recorded.
"""

import functools

import numpy as np
import pytest

from repro.core import SparseSolver
from repro.gen import convection_diffusion2d, grid2d_9pt, grid3d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import GENERIC_CLUSTER
from repro.mf import multifrontal_factor
from repro.mf.solve_phase import backward_kernel, forward_kernel
from repro.ordering import nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization, simulate_solve
from repro.sparse.permute import permute_vector, unpermute_vector
from repro.symbolic import analyze
from repro.util.rng import make_rng

CASES = {
    "cube10-cholesky": (lambda: grid3d_laplacian(10), "cholesky"),
    "cube10-ldlt": (lambda: grid3d_laplacian(10), "ldlt"),
    "plate24-cholesky": (lambda: grid2d_9pt(24), "cholesky"),
    "plate24-ldlt": (lambda: grid2d_9pt(24), "ldlt"),
    "cd20-lu": (lambda: convection_diffusion2d(20), "lu"),
}
POLICIES = ["2d", "1d", "static"]
RANKS = [1, 2, 4, 16]
KMAX = 16


@functools.lru_cache(maxsize=None)
def host_factor(case):
    make, method = CASES[case]
    a = make()
    if method == "lu":
        solver = SparseSolver(a, method="lu")
        solver.analyze()
        return multifrontal_factor(solver.sym, "lu")
    sym = analyze(a, nested_dissection_order(AdjacencyGraph.from_symmetric_lower(a)))
    return multifrontal_factor(sym, method)


@functools.lru_cache(maxsize=None)
def simulated(case, policy, p):
    """The simulated factor, a panel of KMAX right-hand sides and the
    simulated solution of each of its columns alone."""
    host = host_factor(case)
    res = simulate_factorization(
        host.sym, p, GENERIC_CLUSTER, PlanOptions(policy=policy), method=host.method
    )
    b = make_rng(7).standard_normal((host.n, KMAX))
    singles = [simulate_solve(res, b[:, j]).x for j in range(KMAX)]
    return res, b, singles


def fan_in_solve(factor, b):
    """The reference: the fan-in sweeps of the shared per-front kernels."""
    sym = factor.sym
    fp = sym.front_plan
    bp = permute_vector(b, sym.perm)
    tail = bp.shape[1:]
    nsn = sym.n_supernodes
    up = [None] * nsn
    ys = [None] * nsn
    for s in range(nsn):
        rows, w = sym.sn_rows[s], fp.width[s]
        f = np.zeros((rows.size,) + tail)
        f[:w] = bp[rows[:w]]
        for c in sym.sn_children[s]:
            f[fp.rel[c]] += up[c]
        upd = forward_kernel(factor.blocks[s], factor.method, f[:w], factor.diag_inverses[s])
        ys[s] = f[:w]
        if upd is not None:
            up[s] = f[w:] - upd
    xp = np.zeros(bp.shape)
    for s in range(nsn - 1, -1, -1):
        rows, w = sym.sn_rows[s], fp.width[s]
        piv = ys[s].copy()
        if factor.method == "ldlt":
            d = factor.diag[fp.start[s]: fp.start[s] + w]
            piv /= d.reshape((-1,) + (1,) * len(tail))
        u12 = factor.u12[s] if factor.u12 is not None else None
        backward_kernel(
            factor.blocks[s], u12, factor.method, piv, xp[rows[w:]], factor.diag_inverses[s]
        )
        xp[rows[:w]] = piv
    return unpermute_vector(xp, sym.perm)


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("k", [3, 16])
def test_columns_match_single_solves(case, policy, p, k):
    res, b, singles = simulated(case, policy, p)
    x = simulate_solve(res, b[:, :k]).x
    for j in range(k):
        assert x[:, j].tobytes() == singles[j].tobytes(), j


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("k", [1, 3, 16])
def test_one_rank_is_the_fan_in_sweep(case, k):
    res, b, _ = simulated(case, "2d", 1)
    rhs = b[:, 0] if k == 1 else b[:, :k]
    x = simulate_solve(res, rhs).x
    assert x.tobytes() == fan_in_solve(host_factor(case), rhs).tobytes()
