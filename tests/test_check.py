"""Tests for repro.check: the lint rules (with one seeded violation per
rule), the debug-mode invariant sanitizer, and the scheduler's teardown
checks."""

import numpy as np
import pytest

from repro.check import lint, sanitize
from repro.cli import main as cli_main
from repro.gen import convection_diffusion2d, grid2d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import GENERIC_CLUSTER
from repro.mf.lu import lu_analyze
from repro.ordering import nested_dissection_order
from repro.simmpi import MessageLedger, Simulator, tag_key
from repro.symbolic import analyze
from repro.util.errors import InvariantError, SimulationError
from repro.util.validation import runtime_checks_enabled

pytestmark = pytest.mark.check


def analyzed_grid(n=6):
    lower = grid2d_laplacian(n)
    perm = nested_dissection_order(AdjacencyGraph.from_symmetric_lower(lower))
    return lower, analyze(lower, perm)


# -- lint --------------------------------------------------------------------

_THREADING_LOCK = "import threading\n\n\ndef f():\n    return threading.Lock()\n"
_PRINT_CLOCK = (  # one line violating RP004 and RP007, under a noqa list
    "from time import perf_counter\n\n\n"
    "def f(x):\n    print(x, perf_counter())  # repro: noqa[{}]\n"
)

#: id -> (rule, module, path, source, expected count of that rule's findings);
#: every rule in lint.DEFAULT_RULES needs a row with a count of at least one
SEEDED = {
    "rp001-bare-except": (
        "RP001", "repro.mf.fixture", "<test>", "try:\n    f()\nexcept:\n    pass\n", 1,
    ),
    "rp002-index-mutation": (
        "RP002", "repro.mf.fixture", "<test>", "def f(m):\n    m.indptr[0] = 3\n", 1,
    ),
    "rp003-float16-in-kernel": (
        "RP003", "repro.mf.fixture", "<test>",
        "import numpy as np\n\ndef f():\n    return np.zeros(3, dtype=np.float16)\n", 1,
    ),
    "rp003-float32-allowed": (
        "RP003", "repro.mf.fixture", "<test>",
        "import numpy as np\n\ndef f():\n    return np.zeros(3, dtype=np.float32)\n", 0,
    ),
    "rp003-dtype-variable-allowed": (
        "RP003", "repro.mf.fixture", "<test>",
        "import numpy as np\n\ndef f(wdtype):\n    return np.zeros(3, dtype=wdtype)\n", 0,
    ),
    "rp005-init-without-all": (
        "RP005", "repro.fixture", "fixture/__init__.py",
        "from repro.util.errors import ReproError\n", 1,
    ),
    "rp006-unused-import": (
        "RP006", "repro.mf.fixture", "<test>",
        "import os\n\n\ndef f() -> int:\n    return 1\n", 1,
    ),
    "rp008-lock-in-service": ("RP008", "repro.service.fixture", "<test>", _THREADING_LOCK, 1),
    "rp008-executor-in-mf": (
        "RP008", "repro.mf.fixture", "<test>",
        "from concurrent.futures import ThreadPoolExecutor as TPE\n\n\n"
        "def f(tasks):\n    with TPE(4) as ex:\n        return list(ex.map(str, tasks))\n", 1,
    ),
    "rp009-mutated-module-dict": (
        "RP009", "repro.exec.fixture", "<test>",
        "PENDING = {}\n\n\ndef f(tid):\n    PENDING[tid] = True\n", 1,
    ),
    "rp009-global-rebinding": (
        "RP009", "repro.exec.fixture", "<test>",
        "COUNT = 0\n\n\ndef f():\n    global COUNT\n    COUNT += 1\n", 1,
    ),
    "rp009-constants-allowed": (
        "RP009", "repro.exec.fixture", "<test>", "KINDS = ('a', 'b')\nLIMIT = 8\n", 0,
    ),
    "rp010-bare-acquire-release": (
        "RP010", "repro.exec.fixture", "<test>",
        "def f(lock):\n    lock.acquire()\n    try:\n        pass\n"
        "    finally:\n        lock.release()\n", 2,
    ),
    "rp010-lock-in-exec": ("RP010", "repro.exec.fixture", "<test>", _THREADING_LOCK, 1),
    "rp010-condition-in-service": (
        "RP010", "repro.service.fixture", "<test>",
        "from threading import Condition\n\n\ndef f():\n    return Condition()\n", 1,
    ),
    "rp010-lock-in-pool-allowed": (
        "RP010", "repro.exec.pool", "<test>",
        "import threading\n\n\ndef make():\n    return threading.Lock()\n", 0,
    ),
    "rp010-make-lock-allowed": (
        "RP010", "repro.exec.fixture", "<test>",
        "from repro.exec.pool import make_lock\n\n\n"
        "def f():\n    lock = make_lock()\n    with lock:\n        pass\n", 0,
    ),
    "noqa-comma-list-rp004": (
        "RP004", "repro.mf.fixture", "<test>", _PRINT_CLOCK.format("RP004, RP007"), 0,
    ),
    "noqa-comma-list-rp007": (
        "RP007", "repro.mf.fixture", "<test>", _PRINT_CLOCK.format("RP004, RP007"), 0,
    ),
    "noqa-partial-list-rp004": (
        "RP004", "repro.mf.fixture", "<test>", _PRINT_CLOCK.format("RP004"), 0,
    ),
    "noqa-partial-list-rp007": (
        "RP007", "repro.mf.fixture", "<test>", _PRINT_CLOCK.format("RP004"), 1,
    ),
    "noqa-malformed-suppresses-nothing": (
        "RP004", "repro.mf.fixture", "<test>",
        "def f(x):\n    print(x)  # repro: noqa[bogus!]\n", 1,
    ),
}


class TestLintRules:
    def run(self, source, module="repro.mf.fixture", path="<test>"):
        return lint.lint_source(source, path=path, module=module)

    def codes(self, source, **kw):
        return [f.rule for f in self.run(source, **kw)]

    @pytest.mark.parametrize(
        "rule, module, path, source, expected", list(SEEDED.values()), ids=list(SEEDED)
    )
    def test_seeded_case(self, rule, module, path, source, expected):
        found = self.codes(source, module=module, path=path)
        assert found.count(rule) == expected, found

    def test_every_rule_has_a_seeded_violation(self):
        seeded = {row[0] for row in SEEDED.values() if row[-1] >= 1}
        missing = [r.id for r in lint.DEFAULT_RULES if r.id not in seeded]
        assert not missing, f"no seeded violation in SEEDED for {missing}"

    def test_rp001_swallowed_exception(self):
        src = "try:\n    f()\nexcept Exception:\n    log()\n"
        assert "RP001" in self.codes(src)

    def test_rp001_reraise_is_clean(self):
        src = "try:\n    f()\nexcept Exception:\n    raise\n"
        assert "RP001" not in self.codes(src)

    def test_rp001_typed_catch_is_clean(self):
        src = "try:\n    f()\nexcept ValueError:\n    g()\n"
        assert "RP001" not in self.codes(src)

    def test_rp002_allowed_inside_repro_sparse(self):
        src = "def f(m):\n    m.indptr[0] = 3\n"
        assert "RP002" not in self.codes(src, module="repro.sparse.fixture")

    def test_rp002_self_attribute_construction_exempt(self):
        src = "class C:\n    def __init__(self, p):\n        self.indptr = p\n"
        assert "RP002" not in self.codes(src)

    def test_rp003_narrow_dtype_in_kernel(self):
        src = "import numpy as np\n\ndef f():\n    return np.zeros(4, dtype=np.int32)\n"
        assert "RP003" in self.codes(src, module="repro.sparse.fixture")

    def test_rp003_canonical_dtypes_allowed(self):
        src = (
            "import numpy as np\n\n"
            "def f():\n"
            "    a = np.zeros(4, dtype=np.int64)\n"
            "    b = np.zeros(4, dtype=np.float64)\n"
            "    c = np.zeros(4, dtype=bool)\n"
            "    return a, b, c\n"
        )
        assert "RP003" not in self.codes(src, module="repro.sparse.fixture")

    def test_rp004_print_in_library(self):
        src = "def f(x):\n    print(x)\n"
        assert "RP004" in self.codes(src)

    def test_rp004_print_allowed_in_cli(self):
        src = "def f(x):\n    print(x)\n"
        assert "RP004" not in self.codes(src, module="repro.cli")

    def test_rp005_init_with_all_is_clean(self):
        src = (
            "from repro.util.errors import ReproError\n\n"
            '__all__ = ["ReproError"]\n'
        )
        found = self.codes(src, module="repro.fixture", path="fixture/__init__.py")
        assert "RP005" not in found

    def test_rp006_used_import_is_clean(self):
        src = "import os\n\n\ndef f() -> str:\n    return os.sep\n"
        assert "RP006" not in self.codes(src)

    def test_rp007_direct_perf_counter(self):
        src = (
            "import time\n\n\n"
            "def f() -> float:\n    return time.perf_counter()\n"
        )
        assert "RP007" in self.codes(src)

    def test_rp007_bare_name_and_ns_variant(self):
        src = (
            "from time import perf_counter, perf_counter_ns\n\n\n"
            "def f() -> float:\n    return perf_counter() + perf_counter_ns()\n"
        )
        assert self.codes(src).count("RP007") == 2

    def test_rp007_exempts_timing_and_obs(self):
        # repro.obs is the timing layer; nothing outside it is exempt.
        src = "import time\n\n\ndef f() -> float:\n    return time.perf_counter()\n"
        assert "RP007" not in self.codes(src, module="repro.obs.spans")
        assert "RP007" in self.codes(src, module="repro.util.timing")
        finding = next(f for f in self.run(src) if f.rule == "RP007")
        assert "repro.obs.spans.timed" in finding.message

    def test_rp007_skips_non_repro_code(self):
        src = "import time\n\nt = time.perf_counter()\n"
        assert "RP007" not in self.codes(src, module="")

    def test_noqa_suppression(self):
        src = "def f(x):\n    print(x)  # repro: noqa[RP004]\n"
        assert self.run(src) == []

    def test_noqa_with_other_id_does_not_suppress(self):
        src = "def f(x):\n    print(x)  # repro: noqa[RP001]\n"
        assert "RP004" in self.codes(src)

    def test_findings_carry_location(self):
        src = "def f(x):\n    print(x)\n"
        (finding,) = self.run(src)
        assert finding.line == 2
        assert finding.path == "<test>"


class TestLintRepo:
    def test_repo_is_lint_clean(self):
        findings = lint.lint_paths(["src/repro"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exit_zero_on_clean_tree(self):
        assert cli_main(["check", "--lint", "src/repro"]) == 0

    def test_cli_exit_nonzero_on_seeded_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "mf" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("try:\n    f()\nexcept:\n    pass\n")
        rc = cli_main(["check", "--lint", str(bad)])
        assert rc == 1
        assert "RP001" in capsys.readouterr().out


# -- comm trace tags ----------------------------------------------------------


class TestCommCheck:
    def test_tag_key_canonicalizes(self):
        assert tag_key("t") == "t"
        assert tag_key(("p2p", 0, 1)) == repr(("p2p", 0, 1))


# -- ledger + scheduler teardown ---------------------------------------------


class TestLedgerVerify:
    def test_verify_passes_consistent_ledger(self):
        ledger = MessageLedger(2)
        ledger.record_send(0, 1, 64, 1)
        ledger.record_recv(1, 64)
        ledger.verify()

    def test_verify_flags_tampered_counts(self):
        ledger = MessageLedger(2)
        ledger.record_send(0, 1, 64, 1)
        with pytest.raises(SimulationError):
            ledger.verify()

    def test_scheduler_teardown_flags_unreceived_message(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(b"x" * 32, 1, "orphan")
            return comm.rank

        with sanitize.sanitized(True):
            with pytest.raises(SimulationError):
                Simulator(GENERIC_CLUSTER, 2).run(prog)

    def test_scheduler_teardown_passes_clean_program(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(b"x" * 32, 1, "t")
            elif comm.rank == 1:
                yield comm.recv(0, "t")
            return comm.rank

        with sanitize.sanitized(True):
            result = Simulator(GENERIC_CLUSTER, 2).run(prog)
        assert result.ledger.n_messages == 1


# -- sanitizer ---------------------------------------------------------------


class _Duck:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def duck_csc(shape, indptr, indices, data):
    return _Duck(
        shape=shape,
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        data=np.asarray(data, dtype=np.float64),
    )


class TestSanitizer:
    def test_well_formed_csc_accepted(self):
        sanitize.check_csc(duck_csc((2, 2), [0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0]))

    def test_unsorted_indices_rejected(self):
        with pytest.raises(InvariantError):
            sanitize.check_csc(
                duck_csc((3, 2), [0, 2, 3], [2, 0, 1], [1.0, 2.0, 3.0])
            )

    def test_ragged_indptr_rejected(self):
        with pytest.raises(InvariantError):
            sanitize.check_csc(
                duck_csc((2, 2), [0, 5, 3], [0, 1, 1], [1.0, 2.0, 3.0])
            )

    def test_nonfinite_data_rejected(self):
        with pytest.raises(InvariantError):
            sanitize.check_csc(
                duck_csc((2, 2), [0, 2, 3], [0, 1, 1], [1.0, np.nan, 3.0])
            )

    def test_cyclic_etree_rejected(self):
        with pytest.raises(InvariantError):
            sanitize.check_etree(np.asarray([1, 2, 0], dtype=np.int64))

    def test_valid_etree_accepted(self):
        sanitize.check_etree(np.asarray([1, 2, -1], dtype=np.int64))

    def test_non_postordered_rejected(self):
        with pytest.raises(InvariantError):
            sanitize.check_postordered(np.asarray([-1, 0], dtype=np.int64))

    def test_invalid_permutation_rejected(self):
        with pytest.raises(InvariantError):
            sanitize.check_permutation(np.asarray([0, 0, 2], dtype=np.int64), 3)

    def test_partition_must_cover_columns(self):
        part = _Duck(
            sn_start=np.asarray([0, 2], dtype=np.int64),
            col_to_sn=np.asarray([0, 0], dtype=np.int64),
        )
        with pytest.raises(InvariantError):
            sanitize.check_partition(part, 3)

    def test_symbolic_factor_passes(self):
        _, sym = analyzed_grid(6)
        sanitize.check_symbolic(sym)

    def test_corrupted_symbolic_factor_rejected(self):
        _, sym = analyzed_grid(6)
        sym.partition.sn_start[-1] += 1  # break partition coverage
        with pytest.raises(InvariantError):
            sanitize.check_symbolic(sym)

    @pytest.mark.parametrize(
        "defect",
        [
            "rel_not_increasing", "rel_wrong_row",
            "pos_shared", "pos_above_diagonal", "pos_wrong_row",
        ],
    )
    def test_corrupted_front_plan_rejected(self, defect):
        _, sym = analyzed_grid(6)
        plan = sym.front_plan
        s = next(
            s for s in range(sym.n_supernodes)
            if sym.update_size(s) >= 2 and sym.supernode_width(s) >= 2
        )
        m, w = plan.order[s], plan.width[s]
        mine = plan.a_pos[plan.a_ptr[s]: plan.a_ptr[s + 1]]  # a view: edits land in the plan
        if defect == "rel_not_increasing":
            plan.rel[s][:2] = plan.rel[s][1::-1]
        elif defect == "rel_wrong_row":
            plan.rel[s][-1] += 1  # still increasing, another (or no) parent row
        elif defect == "pos_shared":
            mine[1] = mine[0]
        elif defect == "pos_above_diagonal":
            mine[-1] = 0 * m + (w - 1)  # row 0, last pivot column
        elif defect == "pos_wrong_row":
            # the first diagonal entry, moved down its column to a free row
            mine[0] = next(r * m for r in range(1, m) if r * m not in mine)
        with pytest.raises(InvariantError, match=f"supernode {s}"):
            sanitize.check_symbolic(sym)

    @pytest.mark.parametrize(
        "defect",
        [
            "members_descending", "members_of_two_shapes", "heights_flattened",
            "row_pulled_twice", "sources_descending", "pulled_before_its_source",
        ],
    )
    def test_corrupted_front_classes_rejected(self, defect):
        _, sym = analyzed_grid(8)
        sanitize.check_symbolic(sym)
        cl = sym.front_plan.classes  # the tables are arrays: edits land in the plan
        size = np.diff(cl.ptr)
        if defect == "members_descending":
            c = int(np.argmax(size >= 2))
            lo = cl.ptr[c]
            cl.members[lo:lo + 2] = cl.members[lo:lo + 2][::-1].copy()
            match = "not ascending"
        elif defect == "members_of_two_shapes":
            # two one-member classes of one height trade members
            a, b = next(
                (a, b) for a in range(len(cl)) for b in range(len(cl))
                if a != b and cl.height[a] == cl.height[b] and size[a] == size[b] == 1
                and (cl.order[a], cl.width[a]) != (cl.order[b], cl.width[b])
            )
            i, j = cl.ptr[a], cl.ptr[b]
            cl.members[i], cl.members[j] = cl.members[j], cl.members[i]
            match = "members of"
        elif defect == "heights_flattened":
            cl.height[:] = 0
            match = "parent is not higher"
        else:
            # a class that pulls in at least two rounds, and its first two
            c = next(c for c in range(len(cl)) if cl.class_rounds[c + 1] - cl.class_rounds[c] >= 2)
            r = cl.class_rounds[c]
            (lo0, hi0), (lo1, hi1) = cl.round_ptr[r: r + 2], cl.round_ptr[r + 1: r + 3]
            if defect == "row_pulled_twice":
                cl.pull_to[lo0 + 1] = cl.pull_to[lo0]
                match = "updates a row twice"
            elif defect == "sources_descending":
                # a row's first two sources trade rounds
                row = next(t for t in cl.pull_to[lo1:hi1] if t in cl.pull_to[lo0:hi0])
                i = lo0 + int(np.flatnonzero(cl.pull_to[lo0:hi0] == row)[0])
                j = lo1 + int(np.flatnonzero(cl.pull_to[lo1:hi1] == row)[0])
                cl.pull_from[i], cl.pull_from[j] = cl.pull_from[j], cl.pull_from[i]
                match = "ascending order"
            else:
                # the first class runs every round, before their sources
                cl.class_rounds[1:-1] = cl.class_rounds[-1]
                match = "outside the classes between"
        with pytest.raises(InvariantError, match=match):
            sanitize.check_symbolic(sym)

    @pytest.mark.parametrize(
        "defect", ["entry_listed_twice", "pos_wrong_row", "pos_outside_pivots"]
    )
    def test_corrupted_lu_table_rejected(self, defect):
        a = convection_diffusion2d(6, peclet=1.0)
        sym = lu_analyze(a, np.arange(a.shape[0]))
        sanitize.check_full_table(sym)
        plan = sym.front_plan
        s = next(
            s for s in range(sym.n_supernodes)
            if sym.update_size(s) >= 1 and sym.supernode_width(s) >= 2
        )
        m = plan.order[s]
        lo, hi = plan.full_ptr[s], plan.full_ptr[s + 1]
        mine = plan.full_pos[lo:hi]  # a view: edits land in the plan
        if defect == "entry_listed_twice":
            plan.full_src[lo + 1] = plan.full_src[lo]
            match = "exactly once"
        elif defect == "pos_wrong_row":
            mine[0] = next(r * m for r in range(1, m) if r * m not in mine)
            match = f"supernode {s}"
        else:
            mine[0] = m * m - 1  # the last update entry: no pivot row or column
            match = f"supernode {s}"
        with pytest.raises(InvariantError, match=match):
            sanitize.check_full_table(sym)

    def test_sanitized_context_toggles_flag(self):
        before = runtime_checks_enabled()
        with sanitize.sanitized(True):
            assert runtime_checks_enabled()
        assert runtime_checks_enabled() == before

    def test_end_to_end_factorization_under_sanitizer(self):
        from repro import SparseSolver

        lower = grid2d_laplacian(5)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(lower.shape[0])
        with sanitize.sanitized(True):
            result = SparseSolver(lower).solve(b)
        assert np.all(np.isfinite(result.x))
        assert result.residual < 1e-8
