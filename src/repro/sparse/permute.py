"""Symmetric permutation of sparse matrices.

The ordering phase produces a permutation ``perm`` (``perm[k]`` = original
index eliminated at step k); the factorization operates on ``P A P^T`` where
``P`` maps original index ``perm[k]`` to new index ``k``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import coo_to_csc, csc_to_coo
from repro.util.validation import check_permutation


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``inv[perm[k]] = k``."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


def permute_symmetric_lower(lower: CSCMatrix, perm: ArrayLike) -> CSCMatrix:
    """Symmetric permutation of a symmetric matrix stored as its lower
    triangle.

    Given the lower triangle of A and an elimination order ``perm``, return
    the lower triangle of ``P A P^T`` (entry (i, j) of the result is
    ``A[perm[i], perm[j]]``), with entries flipped back below the diagonal
    wherever the permutation moved them above it.
    """
    n = lower.shape[0]
    p = check_permutation(perm, n, "perm")
    inv = invert_permutation(p)
    coo = csc_to_coo(lower)
    new_r = inv[coo.row]
    new_c = inv[coo.col]
    flip = new_r < new_c
    r = np.where(flip, new_c, new_r)
    c = np.where(flip, new_r, new_c)
    return coo_to_csc(COOMatrix((n, n), r, c, coo.data))


def permute_vector(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``y[k] = x[perm[k]]`` — carry a right-hand side into permuted order."""
    return np.asarray(x)[perm]


def unpermute_vector(y: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Inverse of :func:`permute_vector`: ``x[perm[k]] = y[k]``."""
    x = np.empty_like(np.asarray(y))
    x[perm] = y
    return x
