"""Correctness tooling: static analysis, race checking, sanitizers.

One CLI (``python -m repro.cli check``) over these passes:

* :mod:`repro.check.lint` — project-specific AST lint (rules RP001…RP010)
  with inline ``# repro: noqa[RPxxx]`` suppression (comma-separated rule
  lists supported);
* :mod:`repro.check.racecheck` — replays an
  :class:`~repro.exec.trace.ExecTrace` through a happens-before engine
  and flags unordered conflicting slot accesses, conservation violations
  (a contribution not produced/consumed exactly once), and
  schedule-nondeterminism between runs;
* :mod:`repro.check.schedfuzz` — seeded adversarial schedule fuzzing of
  the :class:`~repro.exec.pool.TaskPool` (ready-queue permutations,
  forced preemptions, injected delays), replayable byte-for-byte;
* :mod:`repro.check.sanitize` — debug-mode invariant checks (CSR/CSC
  well-formedness, permutation validity, etree acyclicity/postorder,
  supernode coverage, front-plan and LU assembly tables) hooked into hot
  paths behind ``REPRO_CHECK=1``;
* :mod:`repro.check.selftest` — embedded known-bad fixtures proving every
  checker still fires (the CI gate).

Simulated communication is verified live by the simmpi scheduler
(:mod:`repro.simmpi.scheduler`): deadlock cycles always, same-key races,
lost messages and ledger conservation behind ``REPRO_CHECK=1``.

Submodules are imported lazily: the sanitizer is consulted from low-level
hot paths (sparse constructors, the simulator), so this package must be
importable without dragging in the rest of the library.
"""

from __future__ import annotations

import importlib
from typing import Any

__all__ = ["lint", "racecheck", "schedfuzz", "sanitize", "selftest"]

_SUBMODULES = frozenset(__all__)


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.check.{name}")
    raise AttributeError(f"module 'repro.check' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_SUBMODULES)
