"""repro — reproduction of "Sparse matrix factorization on massively
parallel computers" (SC 2009).

A from-scratch multifrontal sparse Cholesky/LDLᵀ solver (with a
static-pivoting LU for unsymmetric input) and the Gupta–Karypis–Kumar
scalable parallel formulation (subtree-to-subcube mapping, 2D
block-cyclic front distribution), executed and timed on a deterministic
simulated message-passing machine.

Public entry points
-------------------
:class:`repro.core.SparseSolver`
    WSMP-style analyze / factor / solve API (sequential or simulated
    parallel); ``method`` is ``"cholesky"``, ``"ldlt"`` or ``"lu"``.
:mod:`repro.gen`
    Problem generators (2D/3D meshes, elasticity-like operators, the
    scaled "paper suite").
:mod:`repro.machine`
    Machine models (Blue Gene/P-like, POWER5-cluster-like presets).
:mod:`repro.baselines`
    MUMPS-like and SuperLU_DIST-like comparison solvers.
"""

__version__ = "1.0.0"

__all__ = ["SparseSolver", "ParallelConfig", "SolveResult", "__version__"]


def __getattr__(name):
    # Lazy re-export so that `import repro.sparse` does not pull in the whole
    # solver stack (and to keep subpackage import order acyclic).
    if name in ("SparseSolver", "ParallelConfig", "SolveResult"):
        from repro import core

        return getattr(core, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
