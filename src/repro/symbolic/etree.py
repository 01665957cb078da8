"""Elimination tree of a symmetric sparse matrix (Liu's algorithm).

``parent[j]`` is the smallest row index of an off-diagonal nonzero in
column j of the Cholesky factor L — equivalently the parent of j in the
elimination tree. Roots have parent -1.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import transpose
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
    # Column j of the upper triangle lists the i < j with A[j, i] != 0.
    upper = transpose(lower)
    indptr = upper.indptr.tolist()
    indices = upper.indices.tolist()
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

