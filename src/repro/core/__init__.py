"""The public solver API (WSMP-style analyze / factor / solve) for
Cholesky, LDLᵀ and static-pivoting LU (``SparseSolver(method=...)``)."""

from repro.core.solver import (
    SparseSolver,
    ParallelConfig,
    SolveResult,
    AnalyzeInfo,
    ParallelRunReport,
)

__all__ = [
    "SparseSolver",
    "ParallelConfig",
    "SolveResult",
    "AnalyzeInfo",
    "ParallelRunReport",
]
