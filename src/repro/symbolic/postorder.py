"""Postordering of the elimination tree.

The numeric phase requires a postordered matrix: every node's children have
smaller indices, subtrees occupy contiguous index ranges, and the update
stack of the multifrontal method becomes a real stack.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import InvariantError


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """Children adjacency from a parent array (children in increasing
    order)."""
    n = parent.size
    ch: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        p = int(parent[j])
        if p >= 0:
            ch[p].append(j)
    return ch


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation ``post``: ``post[k]`` = node visited k-th.

    Iterative DFS; children visited in increasing original order, roots in
    increasing original order. For a forest each tree is postordered in
    turn.
    """
    n = parent.size
    ch = children_lists(parent)
    post = np.empty(n, dtype=np.int64)
    k = 0
    roots = [j for j in range(n) if parent[j] < 0]
    for root in roots:
        # Explicit stack of (node, child-cursor).
        stack: list[list[int]] = [[root, 0]]
        while stack:
            node, cursor = stack[-1]
            if cursor < len(ch[node]):
                stack[-1][1] += 1
                stack.append([ch[node][cursor], 0])
            else:
                stack.pop()
                post[k] = node
                k += 1
    if k != n:
        raise InvariantError(f"parent array contains a cycle: {n - k} node(s) reach no root")
    return post


def is_postordered(parent: np.ndarray) -> bool:
    """True when every node's parent has a larger index (the invariant a
    relabeled-by-postorder tree satisfies)."""
    for j in range(parent.size):
        p = int(parent[j])
        if 0 <= p <= j:
            return False
    return True


def relabel_parent(parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Parent array of the tree relabeled by *post* (new label k = old node
    ``post[k]``)."""
    n = parent.size
    inv = np.empty(n, dtype=np.int64)
    inv[post] = np.arange(n, dtype=np.int64)
    new_parent = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        p = int(parent[post[k]])
        new_parent[k] = -1 if p < 0 else inv[p]
    return new_parent


def first_descendants(parent: np.ndarray) -> np.ndarray:
    """For a postordered tree: smallest index in each node's subtree.

    Subtree of node j is exactly the contiguous range
    ``[first[j], j]`` — the property the subtree-to-subcube mapping and the
    update stack rely on.
    """
    n = parent.size
    first = np.arange(n, dtype=np.int64)
    for j in range(n):
        p = int(parent[j])
        if p >= 0 and first[j] < first[p]:
            first[p] = first[j]
    return first
