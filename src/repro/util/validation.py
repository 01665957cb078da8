"""Input-validation helpers used at public API boundaries.

Internal hot paths skip these checks; constructors and public entry points
call them so user mistakes fail fast with a clear message instead of
corrupting a factorization halfway through.
"""

from __future__ import annotations

import os

import numpy as np

from repro.util.errors import ShapeError

#: Canonical integer dtype for index arrays throughout the library.
INDEX_DTYPE = np.int64
#: Canonical floating dtype for values throughout the library.
VALUE_DTYPE = np.float64

# -- working precision of the numeric pipeline -------------------------------
#
# The numeric phases (frontal factorization, triangular solves) may run in a
# reduced *working* precision: fp32 halves the bytes moved and roughly
# doubles dense-kernel rates, and fp64 accuracy is recovered by iterative
# refinement against the always-fp64 input matrix. Everything structural
# (indices, the sparse input, residuals, refined solutions) stays at the
# canonical dtypes above; only frontal storage and sweep arithmetic follow
# the working dtype.

#: precision names accepted by ``factor(precision=)`` and the service knob,
#: mapped to the numpy working dtype of the frontal kernels
WORK_DTYPES: dict[str, np.dtype] = {
    "fp64": np.dtype(np.float64),
    "fp32": np.dtype(np.float32),
}


def work_dtype(precision: str) -> np.dtype:
    """The numpy working dtype for a *precision* name (``"fp64"``/``"fp32"``).

    Raises :class:`ShapeError` on anything else so a typo fails at the API
    boundary, not deep inside a frontal kernel.
    """
    try:
        return WORK_DTYPES[precision]
    except KeyError:
        raise ShapeError(
            f"unknown precision {precision!r}; expected one of "
            f"{tuple(WORK_DTYPES)}"
        ) from None

# -- debug-mode runtime checks (the REPRO_CHECK switch) ----------------------
#
# Hot paths that normally skip validation (``_skip_check=True`` matrix
# constructors, the analyze pipeline, the simulator teardown) consult this
# switch and run the ``repro.check.sanitize`` invariant checks when it is
# on. The switch lives here — at the bottom of the dependency graph — so
# every layer can read it without import cycles.

_TRUTHY = frozenset({"1", "true", "on", "yes"})
_runtime_checks: bool = os.environ.get("REPRO_CHECK", "").strip().lower() in _TRUTHY


def runtime_checks_enabled() -> bool:
    """True when debug-mode invariant checks are active (``REPRO_CHECK=1``)."""
    return _runtime_checks


def set_runtime_checks(enabled: bool) -> bool:
    """Force the runtime-check switch; returns the previous value.

    Tests use this to exercise sanitizer hooks without re-importing under
    a different environment.
    """
    global _runtime_checks
    previous = _runtime_checks
    _runtime_checks = bool(enabled)
    return previous


def as_index_array(a, name: str = "array") -> np.ndarray:
    """Convert *a* to a contiguous int64 ndarray, validating integrality."""
    arr = np.asarray(a)
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise ShapeError(f"{name} contains non-integer values")
    return np.ascontiguousarray(arr, dtype=INDEX_DTYPE)


def as_float_array(a, name: str = "array") -> np.ndarray:
    """Convert *a* to a contiguous float64 ndarray.

    Raises :class:`ShapeError` for complex input (a cast would keep only
    the real part, so the caller would solve a different system), for
    input numpy cannot cast to float, and for non-finite values.
    """
    try:
        arr = np.asarray(a)
        if arr.dtype.kind != "c":
            arr = np.ascontiguousarray(arr, dtype=VALUE_DTYPE)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} cannot be converted to float64: {exc}") from None
    if arr.dtype.kind == "c":
        raise ShapeError(f"{name} is complex ({arr.dtype}); only real values are supported")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite values")
    return arr


def check_index_array(idx: np.ndarray, upper: int, name: str = "index") -> None:
    """Validate that every entry of *idx* lies in ``[0, upper)``."""
    if idx.size == 0:
        return
    lo = int(idx.min())
    hi = int(idx.max())
    if lo < 0 or hi >= upper:
        raise ShapeError(
            f"{name} entries must lie in [0, {upper}); got range [{lo}, {hi}]"
        )


def check_compressed(
    shape: tuple[int, int],
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None = None,
    slice_name: str = "column",
) -> None:
    """Well-formedness of compressed-column index arrays.

    For a ``shape = (n_rows, n_cols)`` matrix: ``indptr`` has ``n_cols + 1``
    non-decreasing entries from 0 to ``len(indices)``; each column's slice
    of ``indices`` is strictly increasing within ``[0, n_rows)``; ``data``,
    when given, parallels ``indices``. *slice_name* only shapes messages
    (an adjacency graph's slices are vertices).
    """
    n_minor, n_major = shape
    if indptr.shape != (n_major + 1,):
        raise ShapeError(f"indptr must have shape ({n_major + 1},); got {indptr.shape}")
    if indptr[0] != 0:
        raise ShapeError(f"indptr[0] must be 0; got {indptr[0]}")
    steps = np.diff(indptr)
    if np.any(steps < 0):
        raise ShapeError(f"indptr decreases at {slice_name} {int(np.argmax(steps < 0))}")
    if indptr[-1] != indices.size:
        raise ShapeError(f"indptr[-1] = {indptr[-1]} but {indices.size} indices stored")
    if data is not None and data.size != indices.size:
        raise ShapeError(f"{indices.size} indices but {data.size} values stored")
    check_index_array(indices, n_minor, "indices")
    # Sorted and unique within each slice: a step that does not increase is
    # legal only where a new slice starts.
    bad = np.diff(indices) <= 0
    starts = indptr[1:-1]
    bad[starts[(starts > 0) & (starts < indices.size)] - 1] = False
    if np.any(bad):
        k = int(np.argmax(bad))
        j = int(np.searchsorted(indptr, k, side="right")) - 1
        raise ShapeError(
            f"{slice_name} {j} has unsorted or duplicate indices "
            f"(position {k}: {int(indices[k])} then {int(indices[k + 1])})"
        )


def check_permutation(perm: np.ndarray, n: int, name: str = "perm") -> np.ndarray:
    """Validate that *perm* is a permutation of ``range(n)`` and return it
    as an int64 array."""
    p = as_index_array(perm, name)
    if p.shape != (n,):
        raise ShapeError(f"{name} must have shape ({n},); got {p.shape}")
    seen = np.zeros(n, dtype=bool)
    if n:
        if p.min() < 0 or p.max() >= n:
            raise ShapeError(f"{name} entries out of range [0, {n})")
        seen[p] = True
        if not seen.all():
            raise ShapeError(f"{name} is not a permutation (duplicate entries)")
    return p
