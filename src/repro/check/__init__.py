"""Correctness tooling: static analysis, schedule fuzzing, sanitizers.

One CLI (``python -m repro.cli check``) over these passes:

* :mod:`repro.check.lint` — project-specific AST lint (rules RP001…RP010)
  with inline ``# repro: noqa[RPxxx]`` suppression (comma-separated rule
  lists supported);
* :mod:`repro.check.schedfuzz` — seeded adversarial schedule fuzzing of
  the :class:`~repro.exec.pool.TaskPool` (ready-queue permutations,
  forced preemptions, injected delays), replayable byte-for-byte, with
  the sequential bits as the oracle;
* :mod:`repro.check.sanitize` — debug-mode invariant checks (CSC
  well-formedness, permutation validity, etree acyclicity/postorder,
  supernode coverage, front-plan and LU assembly tables) hooked into hot
  paths behind ``REPRO_CHECK=1``.

``tests/test_check.py`` seeds one violation per lint rule and proves each
checker still fires.

Simulated communication is verified live by the simmpi scheduler
(:mod:`repro.simmpi.scheduler`): deadlock cycles always, same-key races,
lost messages and ledger conservation behind ``REPRO_CHECK=1``.
The threaded backend is verified by its plan, not by a trace of its
runs: its factor graph's edges are the assembly tree's, the sanitizer proves
every update row lands in the parent's rows, and the pool starts a task
only after its prerequisites end; ``schedfuzz`` is the end-to-end guard.

Submodules are imported lazily: the sanitizer is consulted from low-level
hot paths (sparse constructors, the simulator), so this package must be
importable without dragging in the rest of the library.
"""

from __future__ import annotations

import importlib
from typing import Any

__all__ = ["lint", "schedfuzz", "sanitize"]

_SUBMODULES = frozenset(__all__)


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.check.{name}")
    raise AttributeError(f"module 'repro.check' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_SUBMODULES)
