"""Elimination tree of a symmetric sparse matrix (Liu's algorithm).

``parent[j]`` is the smallest row index of an off-diagonal nonzero in
column j of the Cholesky factor L — equivalently the parent of j in the
elimination tree. Roots have parent -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import csc_to_csr
from repro.util.errors import ShapeError


def etree(lower: CSCMatrix) -> np.ndarray:
    """Elimination tree of a symmetric matrix given by its lower triangle.

    Liu's O(nnz · α(n)) algorithm with path compression. Input pattern only;
    values are ignored.
    """
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("etree requires a square lower triangle")
    parent = [-1] * n
    ancestor = [-1] * n
    # Row j of the lower triangle lists the i < j with A[j, i] != 0.
    csr = csc_to_csr(lower)
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    for j in range(n):
        for i in indices[indptr[j]:indptr[j + 1]]:
            if i >= j:
                continue
            # Walk from i to the root of its current subtree, compressing.
            r = i
            a = ancestor[r]
            while a != -1 and a != j:
                ancestor[r] = j
                r = a
                a = ancestor[r]
            if a == -1:
                ancestor[r] = j
                parent[r] = j
    return np.asarray(parent, dtype=np.int64)


@dataclass
class EliminationForest:
    """Elimination tree/forest with children adjacency and convenience
    queries (used by mapping and reporting code)."""

    parent: np.ndarray
    children: list[list[int]] = field(init=False)
    roots: list[int] = field(init=False)

    def __post_init__(self) -> None:
        n = self.parent.size
        self.children = [[] for _ in range(n)]
        self.roots = []
        for j in range(n):
            p = int(self.parent[j])
            if p < 0:
                self.roots.append(j)
            else:
                self.children[p].append(j)

    @property
    def n(self) -> int:
        return self.parent.size

    def subtree_sizes(self) -> np.ndarray:
        """Number of nodes in the subtree rooted at each node (iterative,
        requires no postorder assumption)."""
        size = np.ones(self.n, dtype=np.int64)
        order = self.topological_order()
        # Reversed preorder visits every child before its parent.
        for j in order[::-1]:
            p = int(self.parent[j])
            if p >= 0:
                size[p] += size[j]
        return size

    def topological_order(self) -> list[int]:
        """Parents-before-children order (preorder DFS from the roots)."""
        out: list[int] = []
        stack = list(reversed(self.roots))
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(self.children[u]))
        return out

    def depth(self) -> np.ndarray:
        """Distance from the root for every node."""
        d = np.zeros(self.n, dtype=np.int64)
        for u in self.topological_order():
            p = int(self.parent[u])
            d[u] = 0 if p < 0 else d[p] + 1
        return d
