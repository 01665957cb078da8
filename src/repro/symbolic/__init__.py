"""Symbolic analysis: elimination tree, postorder, column counts, L-pattern,
supernodes, and the assembly tree.

The analyze phase runs once per sparsity pattern:

1. apply a fill-reducing permutation (:mod:`repro.ordering`);
2. build the elimination tree (:func:`etree`);
3. postorder it and re-permute, making parents larger than children;
4. compute per-column L patterns (:func:`symbolic_cholesky`);
5. detect fundamental supernodes and amalgamate small ones
   (:mod:`repro.symbolic.supernodes`);
6. assemble everything into a :class:`SymbolicFactor` — the object both the
   sequential multifrontal engine and the parallel mapping consume.
"""

from repro.symbolic.etree import etree
from repro.symbolic.postorder import postorder, is_postordered, children_lists
from repro.symbolic.symbolic_chol import column_patterns, symbolic_cholesky
from repro.symbolic.supernodes import (
    fundamental_supernodes,
    amalgamate,
    SupernodePartition,
)
from repro.symbolic.analyze import SymbolicFactor, analyze, AnalyzeOptions

__all__ = [
    "etree",
    "postorder",
    "is_postordered",
    "children_lists",
    "column_patterns",
    "symbolic_cholesky",
    "fundamental_supernodes",
    "amalgamate",
    "SupernodePartition",
    "SymbolicFactor",
    "analyze",
    "AnalyzeOptions",
]
