"""Adjacency-graph representation (CSR-like, symmetric, no self loops)."""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.coo import COOMatrix
from repro.sparse.convert import csc_to_coo, coo_to_csr
from repro.util.errors import ShapeError
from repro.util.validation import as_index_array


class AdjacencyGraph:
    """Undirected graph stored as symmetric CSR adjacency (both directions
    of every edge present, rows sorted, no self loops).

    Attributes
    ----------
    n : int
        Number of vertices.
    xadj, adjncy : ndarray
        CSR-style pointers and neighbour lists (METIS naming).
    """

    __slots__ = ("n", "xadj", "adjncy")

    def __init__(self, n: int, xadj, adjncy, *, _skip_check: bool = False):
        self.n = int(n)
        self.xadj = as_index_array(xadj, "xadj")
        self.adjncy = as_index_array(adjncy, "adjncy")
        if not _skip_check:
            self._validate()

    def _validate(self) -> None:
        if self.xadj.shape != (self.n + 1,) or self.xadj[0] != 0:
            raise ShapeError("xadj must have length n+1 and start at 0")
        if np.any(np.diff(self.xadj) < 0) or self.xadj[-1] != self.adjncy.size:
            raise ShapeError("xadj must be non-decreasing and end at len(adjncy)")
        if self.adjncy.size:
            if self.adjncy.min() < 0 or self.adjncy.max() >= self.n:
                raise ShapeError("adjncy entries out of range")
        for u in range(self.n):
            nbrs = self.neighbors(u)
            if np.any(nbrs == u):
                raise ShapeError(f"self loop at vertex {u}")
            if nbrs.size > 1 and np.any(np.diff(nbrs) <= 0):
                raise ShapeError(f"unsorted/duplicate neighbours at vertex {u}")
        # symmetry: every directed edge has its reverse
        deg = np.diff(self.xadj)
        src = np.repeat(np.arange(self.n, dtype=np.int64), deg)
        fwd = set(zip(src.tolist(), self.adjncy.tolist()))
        for u, v in fwd:
            if (v, u) not in fwd:
                raise ShapeError(f"edge ({u},{v}) has no reverse")

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.adjncy.size) // 2

    def degree(self, u: int) -> int:
        return int(self.xadj[u + 1] - self.xadj[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)

    def neighbors(self, u: int) -> np.ndarray:
        """View of the sorted neighbour list of *u*."""
        return self.adjncy[self.xadj[u]: self.xadj[u + 1]]

    @classmethod
    def from_symmetric_lower(cls, lower: CSCMatrix) -> "AdjacencyGraph":
        """Adjacency graph of a symmetric matrix given as its lower triangle
        (diagonal entries ignored)."""
        if lower.shape[0] != lower.shape[1]:
            raise ShapeError("matrix must be square")
        coo = csc_to_coo(lower)
        off = coo.row != coo.col
        r, c = coo.row[off], coo.col[off]
        return cls.from_edges(lower.shape[0], r, c)

    @classmethod
    def from_edges(cls, n: int, a, b) -> "AdjacencyGraph":
        """Build from an undirected edge list (self loops and duplicates
        removed)."""
        a = as_index_array(a, "a")
        b = as_index_array(b, "b")
        keep = a != b
        a, b = a[keep], b[keep]
        rows = np.concatenate([a, b])
        cols = np.concatenate([b, a])
        ones = np.ones(rows.size)
        csr = coo_to_csr(COOMatrix((n, n), rows, cols, ones))
        return cls(n, csr.indptr, csr.indices, _skip_check=True)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour lists of the vertices *rows* (an int array), concatenated
        in that order, and the length of each."""
        starts = self.xadj[rows]
        counts = self.xadj[rows + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.size else 0
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
        return self.adjncy[pos], counts

    def subgraph(self, vertices) -> tuple["AdjacencyGraph", np.ndarray]:
        """Induced subgraph on *vertices*.

        Returns ``(sub, vmap)`` where ``vmap[k]`` is the original id of the
        subgraph vertex ``k``.
        """
        vmap = as_index_array(vertices, "vertices")
        k = vmap.size
        inv = np.full(self.n, -1, dtype=np.int64)
        inv[vmap] = np.arange(k, dtype=np.int64)
        nbrs, counts = self.gather(vmap)
        col = inv[nbrs]
        row = np.repeat(np.arange(k, dtype=np.int64), counts)
        keep = col >= 0
        row, col = row[keep], col[keep]
        # Rows come out grouped already; lexsort sorts each row's columns.
        adj = col[np.lexsort((col, row))]
        xadj = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=k), out=xadj[1:])
        sub = AdjacencyGraph(k, xadj, adj, _skip_check=True)
        return sub, vmap

    def __repr__(self) -> str:
        return f"AdjacencyGraph(n={self.n}, edges={self.n_edges})"
