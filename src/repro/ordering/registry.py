"""Name → ordering-function registry.

The solver config and the benchmark harness select orderings by name; this
module is the single source of truth for those names.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.ordering.natural import natural_order, reverse_order, random_order
from repro.ordering.rcm import rcm_order
from repro.ordering.amd import amd_order
from repro.ordering.compression import compressed_order
from repro.ordering.nested_dissection import nested_dissection_order
from repro.util.errors import OrderingError

OrderingFn = Callable[[AdjacencyGraph], np.ndarray]


def _nd_compressed(g: AdjacencyGraph) -> np.ndarray:
    return compressed_order(g, nested_dissection_order)


ORDERINGS: dict[str, OrderingFn] = {
    "natural": natural_order,
    "reverse": reverse_order,
    "random": random_order,
    "rcm": rcm_order,
    "amd": amd_order,
    "nd": nested_dissection_order,
    # indistinguishable-vertex compression before ND (multi-dof problems)
    "nd-c": _nd_compressed,
}


def get_ordering(name: str) -> OrderingFn:
    """Look up an ordering function by registry name."""
    try:
        return ORDERINGS[name]
    except KeyError:
        raise OrderingError(
            f"unknown ordering {name!r}; known: {sorted(ORDERINGS)}"
        ) from None
