"""Shared utilities: error types, validation helpers, RNG, tables."""

from repro.util.errors import (
    ReproError,
    ShapeError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    OrderingError,
    PatternMismatchError,
    SimulationError,
)
from repro.util.validation import (
    check_index_array,
    check_permutation,
    as_float_array,
    as_index_array,
    work_dtype,
    WORK_DTYPES,
)
from repro.util.rng import make_rng
from repro.util.tables import format_table

__all__ = [
    "ReproError",
    "ShapeError",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "OrderingError",
    "PatternMismatchError",
    "SimulationError",
    "check_index_array",
    "check_permutation",
    "as_float_array",
    "as_index_array",
    "work_dtype",
    "WORK_DTYPES",
    "make_rng",
    "format_table",
]
