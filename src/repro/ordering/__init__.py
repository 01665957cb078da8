"""Fill-reducing orderings.

The analysis phase of the solver permutes the matrix symmetrically before
factorization. Orderings provided:

* :func:`natural_order` — identity (the "no ordering" baseline);
* :func:`rcm_order` — Reverse Cuthill–McKee (bandwidth-oriented);
* :func:`amd_order` — Approximate Minimum Degree on a quotient graph with
  element absorption (the local-greedy family);
* :func:`nested_dissection_order` — recursive graph bisection with
  minimum-degree leaves (the ordering the paper's scalable formulation
  requires: ND separators give the balanced elimination trees that
  subtree-to-subcube mapping exploits).

All functions return ``perm`` with ``perm[k]`` = original vertex eliminated
at step ``k``.
"""

from repro.ordering.natural import natural_order, reverse_order, random_order
from repro.ordering.rcm import rcm_order
from repro.ordering.amd import amd_order
from repro.ordering.nested_dissection import nested_dissection_order, NDOptions
from repro.ordering.metrics import ordering_quality, OrderingQuality
from repro.ordering.registry import get_ordering, ORDERINGS
from repro.ordering.compression import (
    compressed_order,
    compress_graph,
    compression_ratio,
    find_indistinguishable_groups,
)

__all__ = [
    "natural_order",
    "reverse_order",
    "random_order",
    "rcm_order",
    "amd_order",
    "nested_dissection_order",
    "NDOptions",
    "ordering_quality",
    "OrderingQuality",
    "get_ordering",
    "ORDERINGS",
    "compressed_order",
    "compress_graph",
    "compression_ratio",
    "find_indistinguishable_groups",
]
