"""Sequential multifrontal numeric factorization and solve.

The reference engine: factors the permuted matrix described by a
:class:`repro.symbolic.SymbolicFactor` by walking the assembly tree in
postorder, assembling each supernode's frontal matrix, adding the children's
update matrices (extend-add), partially factoring the front, and pushing the
Schur complement onto the update stack.

The simulated-parallel engine (:mod:`repro.parallel`) performs the same
arithmetic distributed over ranks; its results are tested bit-comparable
against this one.
"""

from repro.mf.frontal import assemble_front
from repro.mf.extend_add import extend_add
from repro.mf.numeric import NumericFactor, multifrontal_factor
from repro.mf.solve_phase import solve as factor_solve
from repro.mf.solve_phase import solve_many as factor_solve_many
from repro.mf.refine import iterative_refinement_many, PanelRefinementResult
from repro.mf.accounting import FactorStats
from repro.mf.schur import schur_complement
from repro.mf.condest import condest

__all__ = [
    "assemble_front",
    "extend_add",
    "NumericFactor",
    "multifrontal_factor",
    "factor_solve",
    "factor_solve_many",
    "iterative_refinement_many",
    "PanelRefinementResult",
    "FactorStats",
    "schur_complement",
    "condest",
]
