"""Built-in self-test of the check subsystem.

Runs every analysis pass against embedded *known-bad* inputs and verifies
each one is caught (and that known-good twins pass). This is the fast CI
gate proving the checkers themselves work — a linter that silently stops
firing is worse than no linter.

Invoked by ``python -m repro.cli check --self-test``; returns structured
results so tests can assert on individual cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.check import lint, schedfuzz
from repro.check import sanitize
from repro.machine.presets import GENERIC_CLUSTER
from repro.simmpi.comm import Comm
from repro.simmpi.ledger import MessageLedger
from repro.simmpi.scheduler import Simulator
from repro.util.errors import InvariantError, SimulationError

__all__ = ["SelfTestResult", "run_self_test"]


@dataclass(frozen=True)
class SelfTestResult:
    name: str
    passed: bool
    detail: str = ""

    def format(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail and not self.passed else ""
        return f"  [{mark:4s}] {self.name}{tail}"


# -- lint fixtures (seeded violations, one per rule) -------------------------

_LINT_CASES: tuple[tuple[str, str, str, str, int], ...] = (
    # (rule id, module, path, source, expected finding count)
    (
        "RP001",
        "repro.service.fixture",
        "<selftest>",
        "try:\n    risky()\nexcept:\n    pass\n",
        1,
    ),
    (
        "RP001",
        "repro.service.fixture",
        "<selftest>",
        "try:\n    risky()\nexcept Exception:\n    log()\n",
        1,
    ),
    (
        "RP002",
        "repro.mf.fixture",
        "<selftest>",
        "def f(m):\n    m.indptr[0] = 1\n",
        1,
    ),
    (
        "RP003",
        "repro.sparse.fixture",
        "<selftest>",
        "import numpy as np\n\n"
        "def f():\n    return np.zeros(3, dtype=np.int32)\n",
        1,
    ),
    # The two-precision regime: float16 stays banned in kernels…
    (
        "RP003",
        "repro.mf.fixture",
        "<selftest>",
        "import numpy as np\n\n"
        "def f():\n    return np.zeros(3, dtype=np.float16)\n",
        1,
    ),
    # …while float32 (the mixed-precision working dtype) is allowed, both
    # spelled literally and threaded through a `*dtype` variable.
    (
        "RP003",
        "repro.mf.fixture",
        "<selftest>",
        "import numpy as np\n\n"
        "def f():\n    return np.zeros(3, dtype=np.float32)\n",
        0,
    ),
    (
        "RP003",
        "repro.mf.fixture",
        "<selftest>",
        "import numpy as np\n\n"
        "def f(wdtype):\n    return np.zeros(3, dtype=wdtype)\n",
        0,
    ),
    (
        "RP004",
        "repro.mf.fixture",
        "<selftest>",
        "def f(x):\n    print(x)\n",
        1,
    ),
    (
        "RP005",
        "repro.fixture",
        "fixture/__init__.py",
        "from repro.util.errors import ReproError\n",
        1,
    ),
    (
        "RP006",
        "repro.util.fixture",
        "<selftest>",
        "import os\n\n\ndef f() -> int:\n    return 1\n",
        1,
    ),
    (
        "RP007",
        "repro.mf.fixture",
        "<selftest>",
        "import time\n\n\ndef f() -> float:\n    return time.perf_counter()\n",
        1,
    ),
    (
        "RP008",
        "repro.service.fixture",
        "<selftest>",
        "import threading\n\n\ndef f():\n    return threading.Lock()\n",
        1,
    ),
    (
        "RP008",
        "repro.mf.fixture",
        "<selftest>",
        "from concurrent.futures import ThreadPoolExecutor as TPE\n\n\n"
        "def f(tasks):\n    with TPE(4) as ex:\n"
        "        return list(ex.map(str, tasks))\n",
        1,
    ),
    # Shared-mutable-state discipline in the execution backend…
    (
        "RP009",
        "repro.exec.fixture",
        "<selftest>",
        "PENDING = {}\n\n\ndef f(tid):\n    PENDING[tid] = True\n",
        1,
    ),
    (
        "RP009",
        "repro.exec.fixture",
        "<selftest>",
        "COUNT = 0\n\n\ndef f():\n    global COUNT\n    COUNT += 1\n",
        1,
    ),
    # …while immutable module constants stay fine.
    (
        "RP009",
        "repro.exec.fixture",
        "<selftest>",
        "KINDS = ('a', 'b')\nLIMIT = 8\n",
        0,
    ),
    # Lock discipline: bare acquisition, unsanctioned construction…
    (
        "RP010",
        "repro.exec.fixture",
        "<selftest>",
        "def f(lock):\n    lock.acquire()\n    try:\n        pass\n"
        "    finally:\n        lock.release()\n",
        2,
    ),
    (
        "RP010",
        "repro.exec.fixture",
        "<selftest>",
        "import threading\n\n\ndef f():\n    return threading.Lock()\n",
        1,
    ),
    (
        "RP010",
        "repro.service.fixture",
        "<selftest>",
        "from threading import Condition\n\n\ndef f():\n    return Condition()\n",
        1,
    ),
    # …while the pool module itself (and make_lock users) stay clean.
    (
        "RP010",
        "repro.exec.pool",
        "<selftest>",
        "import threading\n\n\ndef make():\n    return threading.Lock()\n",
        0,
    ),
    (
        "RP010",
        "repro.exec.fixture",
        "<selftest>",
        "from repro.exec.pool import make_lock\n\n\n"
        "def f():\n    lock = make_lock()\n    with lock:\n        pass\n",
        0,
    ),
)

_CLEAN_SOURCE = (
    "import os\n\n\n"
    "def f(m) -> str:\n"
    "    try:\n"
    "        return os.fspath(m)\n"
    "    except TypeError:\n"
    "        raise\n"
)

_SUPPRESSED_SOURCE = "def f(x):\n    print(x)  # repro: noqa[RP004]\n"

#: one line violating RP004 *and* RP007, suppressed by a comma-separated
#: rule list (with a space after the comma, the common hand-written form)
_COMMA_SUPPRESSED_SOURCE = (
    "from time import perf_counter\n\n\n"
    "def f(x):\n"
    "    print(x, perf_counter())  # repro: noqa[RP004, RP007]\n"
)

#: same two violations, but the list names only one of them
_PARTIAL_SUPPRESSED_SOURCE = (
    "from time import perf_counter\n\n\n"
    "def f(x):\n"
    "    print(x, perf_counter())  # repro: noqa[RP004]\n"
)

#: malformed bracket contents must suppress nothing (historically the
#: bracket group failed to match and the bare-noqa fallback suppressed
#: every rule on the line)
_MALFORMED_NOQA_SOURCE = "def f(x):\n    print(x)  # repro: noqa[bogus!]\n"


def _lint_results() -> list[SelfTestResult]:
    results = []
    for rule_id, module, path, source, expected in _LINT_CASES:
        found = lint.lint_source(source, path=path, module=module)
        hits = [f for f in found if f.rule == rule_id]
        verb = "catches seeded violation" if expected else "accepts allowed pattern"
        results.append(
            SelfTestResult(
                name=f"lint {rule_id} {verb}",
                passed=len(hits) == expected,
                detail=f"expected {expected} {rule_id}, got {len(hits)} "
                f"({[f.rule for f in found]})",
            )
        )
    clean = lint.lint_source(
        _CLEAN_SOURCE, path="<selftest>", module="repro.util.fixture"
    )
    results.append(
        SelfTestResult(
            name="lint passes clean source",
            passed=not clean,
            detail="; ".join(f.format() for f in clean),
        )
    )
    suppressed = lint.lint_source(
        _SUPPRESSED_SOURCE, path="<selftest>", module="repro.mf.fixture"
    )
    results.append(
        SelfTestResult(
            name="lint honors inline noqa suppression",
            passed=not suppressed,
            detail="; ".join(f.format() for f in suppressed),
        )
    )
    comma = lint.lint_source(
        _COMMA_SUPPRESSED_SOURCE, path="<selftest>", module="repro.mf.fixture"
    )
    results.append(
        SelfTestResult(
            name="lint honors comma-separated noqa rule list",
            passed=not comma,
            detail="; ".join(f.format() for f in comma),
        )
    )
    partial = lint.lint_source(
        _PARTIAL_SUPPRESSED_SOURCE,
        path="<selftest>",
        module="repro.mf.fixture",
    )
    results.append(
        SelfTestResult(
            name="lint noqa list suppresses only the named rules",
            passed=[f.rule for f in partial] == ["RP007"],
            detail="; ".join(f.format() for f in partial) or "nothing fired",
        )
    )
    malformed = lint.lint_source(
        _MALFORMED_NOQA_SOURCE, path="<selftest>", module="repro.mf.fixture"
    )
    results.append(
        SelfTestResult(
            name="lint malformed noqa brackets suppress nothing",
            passed=[f.rule for f in malformed] == ["RP004"],
            detail="; ".join(f.format() for f in malformed) or "nothing fired",
        )
    )
    return results


# -- simulated-communication fixtures (the scheduler's live checks) ----------


def _receive_cycle(comm: Comm) -> Generator[Any, Any, None]:
    """Two ranks, each blocked receiving from the other; nothing sent."""
    yield comm.recv(1 - comm.rank, "t")


def _same_key_pair(comm: Comm) -> Generator[Any, Any, None]:
    """Rank 1 waits on tag "b" while rank 0 queues two "dup" messages."""
    if comm.rank == 0:
        yield comm.send(1, 1, "dup")
        yield comm.send(2, 1, "dup")
        yield comm.send(3, 1, "b")
    else:
        for tag in ("b", "dup", "dup"):
            yield comm.recv(0, tag)


def _lost_message(comm: Comm) -> Generator[Any, Any, None]:
    if comm.rank == 0:
        yield comm.send(1, 1, "x")


def _clean_exchange(comm: Comm) -> Generator[Any, Any, None]:
    if comm.rank == 0:
        yield comm.send(8, 1, "a")
        yield comm.recv(1, "b")
    else:
        yield comm.recv(0, "a")
        yield comm.send(16, 0, "b")


def _simmpi_results() -> list[SelfTestResult]:
    cases: tuple[tuple[str, Callable[[Comm], Generator[Any, Any, None]], str], ...] = (
        ("receive cycle", _receive_cycle, "wait-for cycle"),
        ("same-key pair in flight", _same_key_pair, "same-key race"),
        ("lost message", _lost_message, "never received"),
        ("clean exchange", _clean_exchange, ""),
    )
    results = []
    for name, program, expected in cases:
        error = ""
        try:
            with sanitize.sanitized(True):
                Simulator(GENERIC_CLUSTER, 2).run(program)
        except SimulationError as exc:
            error = str(exc)
        results.append(
            SelfTestResult(
                name=f"scheduler {'flags' if expected else 'passes'} {name}",
                passed=expected in error if expected else not error,
                detail=error or "no SimulationError raised",
            )
        )
    undelivered = MessageLedger(2)
    undelivered.record_send(0, 1, 100, 1)  # sent but never received
    conserving = MessageLedger(2)
    conserving.record_send(0, 1, 100, 1)
    conserving.record_recv(1, 100)
    for name, ledger, expect_raise in (
        ("flags undelivered message", undelivered, True),
        ("passes conserving ledger", conserving, False),
    ):
        try:
            ledger.verify()
            caught = False
        except SimulationError:
            caught = True
        results.append(
            SelfTestResult(name=f"ledger verify {name}", passed=caught == expect_raise)
        )
    return results


# -- schedfuzz fixtures ------------------------------------------------------


def _schedfuzz_results() -> list[SelfTestResult]:
    """The fuzzer's replayability contract: same seed → same perturbation
    (and different seeds actually perturb differently)."""
    results = []
    cfg = schedfuzz.FuzzConfig(seed=42)
    a, b = schedfuzz.FuzzPlan(cfg), schedfuzz.FuzzPlan(cfg)
    tasks = range(64)
    same = all(
        a.ready_key(t, -1.0) == b.ready_key(t, -1.0)
        and a.requeue_key(t) == b.requeue_key(t)
        and a.delay(t) == b.delay(t)
        for t in tasks
    )
    results.append(
        SelfTestResult(name="schedfuzz same seed replays identically", passed=same)
    )
    other = schedfuzz.FuzzPlan(schedfuzz.FuzzConfig(seed=43))
    differs = any(
        a.ready_key(t, -1.0) != other.ready_key(t, -1.0) for t in tasks
    )
    results.append(
        SelfTestResult(name="schedfuzz seeds differ", passed=differs)
    )
    # The defer budget is bounded: a task can never be deferred forever.
    plan = schedfuzz.FuzzPlan(schedfuzz.FuzzConfig(seed=7, defer_prob=1.0))
    defers = sum(1 for _ in range(100) if plan.defer(5))
    results.append(
        SelfTestResult(
            name="schedfuzz defer budget is bounded",
            passed=defers == cfg.max_defers,
            detail=f"{defers} defers granted",
        )
    )
    return results


# -- sanitizer fixtures ------------------------------------------------------


class _FakeCSC:
    """Minimal duck-typed CSC for corruption fixtures."""

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: Sequence[int],
        indices: Sequence[int],
        data: Sequence[float],
    ) -> None:
        self.shape = shape
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)


def _sanitize_cases() -> tuple[tuple[str, Callable[[], None]], ...]:
    good = _FakeCSC((2, 2), [0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0])
    unsorted_csc = _FakeCSC((3, 2), [0, 2, 3], [2, 0, 1], [1.0, 2.0, 3.0])
    ragged = _FakeCSC((2, 2), [0, 5, 3], [0, 1, 1], [1.0, 2.0, 3.0])
    cyclic = np.asarray([1, 2, 0], dtype=np.int64)
    not_post = np.asarray([-1, 0], dtype=np.int64)

    class _Part:
        sn_start = np.asarray([0, 2], dtype=np.int64)  # covers only 2 of 3
        col_to_sn = np.asarray([0, 0], dtype=np.int64)

    return (
        ("unsorted CSC indices", lambda: sanitize.check_csc(unsorted_csc)),
        ("ragged indptr", lambda: sanitize.check_csc(ragged)),
        ("cyclic etree", lambda: sanitize.check_etree(cyclic)),
        ("non-postordered etree", lambda: sanitize.check_postordered(not_post)),
        (
            "uncovered supernode partition",
            lambda: sanitize.check_partition(_Part(), 3),
        ),
        (
            "invalid permutation",
            lambda: sanitize.check_permutation(np.asarray([0, 0, 2]), 3),
        ),
        ("well-formed CSC accepted", lambda: sanitize.check_csc(good)),
    )


def _sanitize_results() -> list[SelfTestResult]:
    results = []
    for name, thunk in _sanitize_cases():
        expect_raise = not name.endswith("accepted")
        try:
            thunk()
            caught = False
            detail = "no InvariantError raised"
        except InvariantError as exc:
            caught = True
            detail = str(exc)
        results.append(
            SelfTestResult(
                name=f"sanitizer: {name}",
                passed=caught == expect_raise,
                detail=detail,
            )
        )
    return results


def run_self_test() -> list[SelfTestResult]:
    """Run all embedded self-tests; the caller decides how to report."""
    return (
        _lint_results()
        + _simmpi_results()
        + _schedfuzz_results()
        + _sanitize_results()
    )
