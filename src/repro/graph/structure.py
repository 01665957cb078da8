"""Adjacency-graph representation (compressed, symmetric, no self loops)."""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.coo import COOMatrix
from repro.sparse.convert import coo_to_csc, csc_to_coo, transpose
from repro.util.errors import ShapeError
from repro.util.validation import as_index_array, check_compressed


class AdjacencyGraph:
    """Undirected graph stored as a symmetric compressed adjacency (both
    directions of every edge present, neighbours sorted, no self loops).

    Attributes
    ----------
    n : int
        Number of vertices.
    xadj, adjncy : ndarray
        Pointers and neighbour lists (METIS naming): the ``indptr`` and
        ``indices`` of the adjacency matrix's CSC, which is also its CSR.
    """

    __slots__ = ("n", "xadj", "adjncy")

    def __init__(self, n: int, xadj, adjncy, *, _skip_check: bool = False):
        self.n = int(n)
        self.xadj = as_index_array(xadj, "xadj")
        self.adjncy = as_index_array(adjncy, "adjncy")
        if not _skip_check:
            self._validate()

    def _validate(self) -> None:
        check_compressed((self.n, self.n), self.xadj, self.adjncy, slice_name="vertex")
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.xadj))
        loops = self.adjncy == src
        if np.any(loops):
            raise ShapeError(f"self loop at vertex {int(src[np.argmax(loops)])}")
        ones = np.ones(self.adjncy.size)
        t = transpose(CSCMatrix((self.n, self.n), self.xadj, self.adjncy, ones, _skip_check=True))
        if not np.array_equal(t.indptr, self.xadj) or not np.array_equal(t.indices, self.adjncy):
            raise ShapeError("adjacency is not symmetric: some edge has no reverse")

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
        # The matrix is symmetric, so its CSC lists each vertex's neighbours.
        adj = coo_to_csc(COOMatrix((n, n), rows, cols, np.ones(rows.size)))
        return cls(n, adj.indptr, adj.indices, _skip_check=True)

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
