"""Seeded adversarial schedule fuzzing of the threaded factorization.

The bitwise-oracle contract of :mod:`repro.exec` ("any schedule produces
the sequential bits") is only as strong as the schedules that have been
tried. This module *manufactures* hostile schedules: a
:class:`FuzzPlan` plugs into ``TaskPool(fuzz=...)`` and

* **permutes the ready queue** — ``ready_key`` replaces the natural
  priority key with a pseudo-random one, so heavy-subtree-first order is
  destroyed and unlikely task interleavings run;
* **forces preemption points** — ``defer`` makes a worker put a
  just-popped task back (demoted behind everything currently ready) and
  pick another, up to a bounded number of times per task;
* **injects delays** — ``delay`` stalls a task body for up to a few
  milliseconds before it runs, shifting every downstream completion.

Everything is a pure function of ``(seed, task)`` via a splitmix-style
integer hash — no global RNG state — so a failing seed replays the same
perturbation byte-for-byte. The drivers (:func:`fuzz_factor` /
:func:`fuzz_smoke`) run the threaded factorization under each seed and
assert that the factors are **bitwise identical** to the sequential
oracle. (The solve has no threaded schedule: every factor is solved by
the same class sweeps.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exec.pool import TaskPool
from repro.exec.threads import multifrontal_factor_threads
from repro.mf.numeric import NumericFactor, multifrontal_factor
from repro.util.errors import RaceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.symbolic.analyze import SymbolicFactor

__all__ = [
    "FuzzConfig",
    "FuzzPlan",
    "FuzzCaseResult",
    "fuzz_factor",
    "fuzz_smoke",
]

#: probability a task body gets an injected delay
DELAY_PROB = 0.3
#: longest injected delay in seconds
MAX_DELAY = 0.002


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzed schedule (all deterministic in ``seed``)."""

    seed: int
    #: probability a popped task is deferred (per defer decision)
    defer_prob: float = 0.25
    #: hard cap on defers per task (the pool must stay live)
    max_defers: int = 2


def _mix(seed: int, task: int, salt: int) -> int:
    """Splitmix64-style avalanche of ``(seed, task, salt)`` → 64 bits."""
    z = (seed * 0x9E3779B97F4A7C15 + task * 0xBF58476D1CE4E5B9 + salt) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


_M64 = (1 << 64) - 1
_U01 = float(1 << 53)


def _unit(seed: int, task: int, salt: int) -> float:
    """Deterministic uniform in ``[0, 1)`` from the hash."""
    return (_mix(seed, task, salt) >> 11) / _U01


class FuzzPlan:
    """One seeded schedule perturbation (a ``ScheduleFuzzer``).

    Stateless except for the per-task defer budget, which the pool only
    touches while holding the run's condition lock (see
    :class:`repro.exec.pool.ScheduleFuzzer`), so plain dict mutation is
    safe. A fresh plan should be used per pool run when exact replay
    matters — the defer budget carries across runs otherwise.
    """

    def __init__(self, config: FuzzConfig):
        self.config = config
        self._defers_left: dict[int, int] = {}

    def ready_key(self, task: int, key: float) -> float:
        return _unit(self.config.seed, task, 1)

    def requeue_key(self, task: int) -> float:
        # Demote past every pseudo-random ready key so a deferred task
        # cannot be re-popped ahead of the tasks it was deferred behind.
        return 2.0 + _unit(self.config.seed, task, 2)

    def defer(self, task: int) -> bool:
        left = self._defers_left.get(task, self.config.max_defers)
        if left <= 0:
            return False
        if _unit(self.config.seed, task, 3 + left) >= self.config.defer_prob:
            return False
        self._defers_left[task] = left - 1
        return True

    def delay(self, task: int) -> float:
        if _unit(self.config.seed, task, 4) >= DELAY_PROB:
            return 0.0
        return MAX_DELAY * _unit(self.config.seed, task, 5)


@dataclass(frozen=True)
class FuzzCaseResult:
    """Outcome of one fuzzed schedule."""

    seed: int
    workers: int
    label: str
    bitwise_identical: bool

    @property
    def ok(self) -> bool:
        return self.bitwise_identical

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL (bits DIVERGED)"
        return f"seed={self.seed} workers={self.workers} [{self.label}]: {status}"


def _factors_identical(ref: NumericFactor, got: NumericFactor) -> bool:
    def bits(f: NumericFactor) -> tuple[object, ...]:
        arrays = [*f.blocks, *([] if f.diag is None else [f.diag]), *(f.u12 or [])]
        shape = (len(f.blocks), f.diag is None, f.u12 is None)
        return shape, f.perturbed_columns, [a.tobytes() for a in arrays]

    return bits(ref) == bits(got)


def fuzz_factor(
    sym: SymbolicFactor,
    seeds: list[int],
    workers: int = 4,
    method: str = "cholesky",
) -> list[FuzzCaseResult]:
    """Factor *sym* under every fuzzed schedule in *seeds*; each case is
    compared bitwise against the sequential oracle."""
    reference = multifrontal_factor(sym, method=method)
    results: list[FuzzCaseResult] = []
    for seed in seeds:
        pool = TaskPool(workers, name="factor", fuzz=FuzzPlan(FuzzConfig(seed)))
        factor = multifrontal_factor_threads(sym, method=method, pool=pool)
        results.append(
            FuzzCaseResult(
                seed=seed,
                workers=workers,
                label=f"factor:{method}",
                bitwise_identical=_factors_identical(reference, factor),
            )
        )
    return results


def fuzz_smoke(
    sym: SymbolicFactor,
    n_seeds: int = 25,
    workers: tuple[int, ...] = (2, 4, 8),
    method: str = "cholesky",
    base_seed: int = 0,
) -> list[FuzzCaseResult]:
    """The CI smoke: *n_seeds* fuzzed factor schedules, cycling the
    worker counts in *workers*; raises :class:`RaceError` on any case
    whose bits diverge (its summary names the replayable seed)."""
    results: list[FuzzCaseResult] = []
    for i in range(n_seeds):
        seed = base_seed + i
        w = workers[i % len(workers)]
        results.extend(fuzz_factor(sym, [seed], workers=w, method=method))
    bad = [r for r in results if not r.ok]
    if bad:
        raise RaceError(
            "schedule fuzzing found failing case(s):\n"
            + "\n".join(r.summary() for r in bad)
        )
    return results
