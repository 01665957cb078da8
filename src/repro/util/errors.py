"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle any library failure while letting
programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array or matrix had an incompatible shape."""


class NotPositiveDefiniteError(ReproError, ArithmeticError):
    """Cholesky factorization encountered a non-positive pivot."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        #: Global column index of the failing pivot, when known.
        self.column = column


class SingularMatrixError(ReproError, ArithmeticError):
    """LDL^T factorization encountered an (effectively) zero pivot."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class OrderingError(ReproError, ValueError):
    """A fill-reducing ordering could not be computed or is invalid."""


class PatternMismatchError(ShapeError):
    """New numeric values were supplied for a *different* sparsity pattern
    than the one an analysis was computed for.

    Raised by :meth:`repro.core.SparseSolver.refactor` (and
    ``update_values``). Derives from :class:`ShapeError` for backward
    compatibility; the serving layer catches this type specifically to
    distinguish "re-analyze under a new pattern" from a hard failure.
    """


class AdmissionError(ReproError, RuntimeError):
    """The serving layer refused to enqueue a request at submit time.

    Raised by :meth:`repro.service.SolverService.submit` when admission
    control rejects the job — the bounded queue is full (backpressure) or
    the submitting tenant is at its pending-job quota. The request was
    *not* enqueued; the caller should back off and resubmit. ``reason``
    is ``"backpressure"`` or ``"quota"`` so clients and load generators
    can react differently to the two conditions.
    """

    def __init__(self, message: str, reason: str = "backpressure"):
        super().__init__(message)
        self.reason = reason


class SimulationError(ReproError, RuntimeError):
    """The simulated message-passing machine reached an invalid state
    (deadlock, mismatched message, rank failure)."""


class InvariantError(ReproError, RuntimeError):
    """A debug-mode invariant check failed (``repro.check.sanitize``).

    Raised by the sanitizer hooks that run inside hot paths when
    ``REPRO_CHECK=1`` — a corrupted CSC index structure, an invalid
    permutation, an elimination-tree cycle, an uncovered supernode
    partition, or an unbalanced frontal update stack."""


class ExecBackendError(ReproError, RuntimeError):
    """The shared-memory execution backend (``repro.exec``) failed as
    *infrastructure*: an invalid worker configuration, a cancelled run, or
    a stalled task graph (dependency cycle).

    Numeric failures inside tasks — a non-positive pivot, a shape error —
    propagate as their own types, exactly like the sequential path.
    """


class LintError(ReproError, ValueError):
    """Static analysis (``repro.check.lint``) could not process an input
    (unreadable file, syntax error in a linted source)."""


class RaceError(ReproError, RuntimeError):
    """A fuzzed schedule of the threaded backend diverged from the
    sequential bits: :func:`repro.check.schedfuzz.fuzz_smoke` raises it,
    naming each failing case's replayable seed."""
