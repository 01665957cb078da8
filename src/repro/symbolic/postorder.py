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
    ch: list[list[int]] = [[] for _ in range(parent.size)]
    for j, p in enumerate(parent.tolist()):
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
    post: list[int] = []
    roots = [j for j, p in enumerate(parent.tolist()) if p < 0]
    for root in roots:
        # Explicit stack of (node, child-cursor).
        stack: list[list[int]] = [[root, 0]]
        while stack:
            top = stack[-1]
            node, cursor = top
            if cursor < len(ch[node]):
                top[1] += 1
                stack.append([ch[node][cursor], 0])
            else:
                stack.pop()
                post.append(node)
    if len(post) != n:
        raise InvariantError(
            f"parent array contains a cycle: {n - len(post)} node(s) reach no root"
        )
    return np.asarray(post, dtype=np.int64)


def is_postordered(parent: np.ndarray) -> bool:
    """True when every node's parent has a larger index (the invariant a
    relabeled-by-postorder tree satisfies)."""
    below = (parent >= 0) & (parent <= np.arange(parent.size))
    return not bool(below.any())


def relabel_parent(parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Parent array of the tree relabeled by *post* (new label k = old node
    ``post[k]``)."""
    n = parent.size
    inv = np.empty(n, dtype=np.int64)
    inv[post] = np.arange(n, dtype=np.int64)
    old = parent[post]
    root = old < 0
    return np.where(root, -1, inv[np.where(root, 0, old)])

