"""Tests for repro.check.racecheck and repro.check.schedfuzz.

Two kinds of evidence: hand-built traces with *seeded violations* prove
the happens-before checker actually detects each defect class (a checker
that never fires is worthless), and live traced runs of the threaded
backend prove the real schedules are clean, deterministic across worker
counts, and survive adversarial schedule fuzzing bitwise-intact.
"""

import subprocess
import sys

import pytest

from repro.check import racecheck, schedfuzz
from repro.check.racecheck import check_determinism, check_exec_trace
from repro.core import UnsymmetricSolver
from repro.core.solver import SparseSolver
from repro.exec import (
    ExecTrace,
    TaskPool,
    multifrontal_factor_threads,
    solve_many_threads,
    solve_threads,
)
from repro.exec.trace import ExecEvent
from repro.gen import convection_diffusion2d, grid2d_laplacian, grid3d_laplacian
from repro.mf.numeric import multifrontal_factor
from repro.util.errors import RaceError
from repro.util.rng import make_rng

pytestmark = pytest.mark.check


def _trace(*specs):
    """Hand-build an ExecTrace from (kind, field=value, ...) tuples."""
    events = []
    for i, (kind, kw) in enumerate(specs):
        events.append(ExecEvent(seq=i, kind=kind, time=float(i), **kw))
    return ExecTrace.from_events(events)


def _seg(*body, n_tasks, label="g", aborted=False):
    """Wrap *body* specs in graph_begin/graph_end markers."""
    end = "graph_abort" if aborted else "graph_end"
    return _trace(
        ("graph_begin", {"target": n_tasks, "label": label}),
        *body,
        (end, {"target": n_tasks, "label": label}),
    )


def _analyzed(lower, method="cholesky"):
    solver = SparseSolver(lower, method=method)
    solver.analyze()
    return solver.sym


# -- seeded violations: each defect class must be detected --------------------


def test_clean_chain_trace_passes():
    tr = _seg(
        ("task_start", {"task": 0, "worker": 0}),
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("task_end", {"task": 0, "worker": 0}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("task_start", {"task": 1, "worker": 1}),
        ("slot_consume", {"task": 1, "slot": "upd:0"}),
        ("task_end", {"task": 1, "worker": 1}),
        n_tasks=2,
    )
    report = check_exec_trace(tr)
    assert report.ok
    assert report.n_segments == 1
    assert report.n_hb_pairs_checked == 1


def test_dropped_dep_edge_is_a_race():
    # Same accesses as the clean chain, but the dep_dec edge never fired:
    # nothing orders the write against the consume.
    tr = _seg(
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("slot_consume", {"task": 1, "slot": "upd:0"}),
        n_tasks=2,
    )
    report = check_exec_trace(tr)
    codes = {f.code for f in report.errors}
    assert "race" in codes
    assert "consume-before-write" in codes
    with pytest.raises(RaceError, match="race"):
        racecheck.verify_exec_trace(tr)


def test_double_consume_detected():
    tr = _seg(
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("dep_dec", {"task": 1, "target": 2, "remaining": 0}),
        ("slot_consume", {"task": 1, "slot": "upd:0"}),
        ("slot_consume", {"task": 2, "slot": "upd:0"}),
        n_tasks=3,
    )
    report = check_exec_trace(tr)
    assert [f.code for f in report.errors] == ["double-consume"]
    assert report.errors[0].tasks == (1, 2)


def test_unconsumed_contribution_detected():
    tr = _seg(
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        n_tasks=2,
    )
    report = check_exec_trace(tr)
    assert [f.code for f in report.errors] == ["unconsumed"]


def test_aborted_segment_skips_conservation():
    tr = _seg(
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        n_tasks=2,
        aborted=True,
    )
    assert check_exec_trace(tr).ok


def test_double_write_detected():
    tr = _seg(
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("slot_write", {"task": 1, "slot": "upd:0"}),
        ("dep_dec", {"task": 1, "target": 2, "remaining": 0}),
        ("slot_consume", {"task": 2, "slot": "upd:0"}),
        n_tasks=3,
    )
    assert "double-write" in {f.code for f in check_exec_trace(tr).errors}


def test_missing_write_detected():
    tr = _seg(
        ("slot_consume", {"task": 0, "slot": "upd:9"}),
        n_tasks=1,
    )
    assert [f.code for f in check_exec_trace(tr).errors] == ["missing-write"]


def test_row_run_consumes_do_not_conflict():
    # Two pure row-run reads of disjoint ranges (the forward solve's
    # pattern) conflict with the write but not with each other.
    tr = _seg(
        ("slot_write", {"task": 0, "slot": "fwd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("dep_dec", {"task": 0, "target": 2, "remaining": 0}),
        ("slot_consume", {"task": 1, "slot": "fwd:0", "lo": 0, "hi": 3}),
        ("slot_consume", {"task": 2, "slot": "fwd:0", "lo": 3, "hi": 5}),
        n_tasks=3,
    )
    report = check_exec_trace(tr)
    assert report.ok
    # write-vs-consume pairs checked; consume-vs-consume never conflicts
    assert report.n_hb_pairs_checked == 2


def test_events_outside_segment_are_malformed():
    tr = _trace(("slot_write", {"task": 0, "slot": "upd:0"}))
    report = check_exec_trace(tr)
    assert [f.code for f in report.errors] == ["malformed"]


def test_cyclic_dep_log_is_malformed():
    tr = _seg(
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("dep_dec", {"task": 1, "target": 0, "remaining": 0}),
        n_tasks=2,
    )
    report = check_exec_trace(tr)
    assert any(f.code == "malformed" and "cycle" in f.message
               for f in report.errors)


# -- determinism audit --------------------------------------------------------


def test_determinism_audit_flags_divergence():
    a = _seg(
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("slot_consume", {"task": 1, "slot": "upd:0"}),
        n_tasks=2,
    )
    b = _seg(
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        # extra read task 1 never did in run a
        ("slot_read", {"task": 1, "slot": "upd:0"}),
        ("slot_consume", {"task": 1, "slot": "upd:0"}),
        n_tasks=2,
    )
    assert check_determinism([a, a]).ok
    report = check_determinism([a, b], labels=["w1", "w4"])
    assert not report.ok
    assert "w4 diverges from w1" in report.errors[0].message


def test_normalization_drops_schedule_noise():
    # Same logical run logged with different seq/worker/time stamps.
    a = _seg(
        ("task_start", {"task": 0, "worker": 0}),
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("slot_consume", {"task": 1, "slot": "upd:0"}),
        n_tasks=2,
    )
    b = _seg(
        ("task_start", {"task": 0, "worker": 3}),
        ("slot_write", {"task": 0, "slot": "upd:0"}),
        ("dep_dec", {"task": 0, "target": 1, "remaining": 0}),
        ("slot_consume", {"task": 1, "slot": "upd:0"}),
        n_tasks=2,
    )
    assert racecheck.normalize_trace(a) == racecheck.normalize_trace(b)


# -- live traces of the real backend ------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_live_factor_and_solve_traces_are_clean(workers):
    sym = _analyzed(grid2d_laplacian(8))
    pool = TaskPool(workers, name="factor", trace=True)
    factor = multifrontal_factor_threads(sym, pool=pool)
    b = make_rng(1).standard_normal(sym.n)
    spool = TaskPool(workers, name="solve", trace=pool.trace)
    solve_threads(factor, b, pool=spool)
    report = check_exec_trace(pool.trace)
    assert report.ok, report.summary()
    # factor + forward + backward
    assert report.n_segments == 3
    assert report.n_hb_pairs_checked > 0


def test_live_traces_deterministic_across_worker_counts():
    sym = _analyzed(grid3d_laplacian(4))
    bp = make_rng(2).standard_normal((sym.n, 3))
    traces = []
    for w in (1, 2, 4):
        pool = TaskPool(w, name="factor", trace=True)
        factor = multifrontal_factor_threads(sym, pool=pool)
        spool = TaskPool(w, name="solve", trace=pool.trace)
        solve_many_threads(factor, bp, pool=spool)
        traces.append(pool.trace)
    report = check_determinism(traces, labels=["w1", "w2", "w4"])
    assert report.ok, report.summary()


def test_aborted_live_run_still_checkable():
    # An indefinite matrix aborts the factor run mid-graph; the partial
    # trace must parse as an aborted segment with no race findings.
    from repro.sparse.csc import CSCMatrix
    from repro.util.errors import NotPositiveDefiniteError

    lower = grid2d_laplacian(6)
    data = lower.data.copy()
    for j in range(lower.shape[0]):
        k = lower.indptr[j]
        if lower.indices[k] == j:
            data[k] = -abs(data[k])
    bad = CSCMatrix(lower.shape, lower.indptr, lower.indices, data)
    sym = _analyzed(bad)
    pool = TaskPool(4, name="factor", trace=True)
    with pytest.raises(NotPositiveDefiniteError):
        multifrontal_factor_threads(sym, pool=pool)
    report = check_exec_trace(pool.trace)
    assert report.ok, report.summary()
    kinds = {e.kind for e in pool.trace.events}
    assert "graph_abort" in kinds


def test_trace_jsonl_round_trip(tmp_path):
    sym = _analyzed(grid2d_laplacian(6))
    pool = TaskPool(2, name="factor", trace=True)
    multifrontal_factor_threads(sym, pool=pool)
    path = str(tmp_path / "trace.jsonl")
    pool.trace.dump(path)
    loaded = ExecTrace.load(path)
    assert loaded.sorted_events() == pool.trace.sorted_events()
    assert check_exec_trace(loaded).ok


# -- schedule fuzzing ---------------------------------------------------------


def test_fuzz_plan_is_deterministic_in_seed():
    cfg = schedfuzz.FuzzConfig(seed=7)
    a, b = schedfuzz.FuzzPlan(cfg), schedfuzz.FuzzPlan(cfg)
    for t in range(50):
        assert a.ready_key(t, -1.0) == b.ready_key(t, -1.0)
        assert a.delay(t) == b.delay(t)
        assert a.defer(t) == b.defer(t)
    other = schedfuzz.FuzzPlan(schedfuzz.FuzzConfig(seed=8))
    keys_a = [a.ready_key(t, -1.0) for t in range(50)]
    keys_o = [other.ready_key(t, -1.0) for t in range(50)]
    assert keys_a != keys_o


def test_fuzz_defer_budget_is_bounded():
    cfg = schedfuzz.FuzzConfig(seed=3, defer_prob=1.0, max_defers=2)
    plan = schedfuzz.FuzzPlan(cfg)
    assert sum(plan.defer(11) for _ in range(10)) == 2


def test_fuzzed_factor_and_solve_stay_bitwise_identical():
    sym = _analyzed(grid2d_laplacian(7))
    results = schedfuzz.fuzz_factor(sym, seeds=[0, 1, 2], workers=3)
    factor = multifrontal_factor(sym)
    b = make_rng(4).standard_normal((sym.n, 2))
    results += schedfuzz.fuzz_solve(factor, b, seeds=[0, 1], workers=3)
    assert results, "no fuzz cases ran"
    for r in results:
        assert r.ok, r.summary()
        assert r.race_report.n_hb_pairs_checked > 0


def test_fuzzed_lu_factor_is_race_free():
    sym = UnsymmetricSolver(convection_diffusion2d(8, peclet=1.2)).analyze()
    results = schedfuzz.fuzz_factor(sym, seeds=[0, 1], workers=3, method="lu")
    assert results, "no fuzz cases ran"
    for r in results:
        assert r.ok, r.summary()
        assert r.race_report.n_hb_pairs_checked > 0


def test_fuzz_smoke_raises_on_failure(monkeypatch):
    sym = _analyzed(grid2d_laplacian(6))
    # Sabotage the bitwise comparison so every case "fails": fuzz_smoke
    # must surface the replayable seeds in a RaceError.
    monkeypatch.setattr(
        schedfuzz, "_factors_identical", lambda ref, got: False
    )
    with pytest.raises(RaceError, match="seed="):
        schedfuzz.fuzz_smoke(sym, n_seeds=2, workers=(2,))


def test_fuzz_smoke_small_clean():
    sym = _analyzed(grid2d_laplacian(6))
    results = schedfuzz.fuzz_smoke(sym, n_seeds=3, workers=(2, 4))
    assert len(results) == 6  # factor + solve per seed
    assert all(r.ok for r in results)


# -- CLI end to end -----------------------------------------------------------


def test_cli_race_and_sched_fuzz(tmp_path):
    out = str(tmp_path / "exec_trace.jsonl")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "check",
            "--race", "plate:6:2", "--sched-fuzz", "2",
            "--fuzz-workers", "2", "--dump-trace", out,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "racecheck:" in proc.stdout
    assert "0 error(s)" in proc.stdout
    assert "normalize identically" in proc.stdout
    assert "zero races" in proc.stdout
    assert check_exec_trace(ExecTrace.load(out)).ok


def test_cli_race_rejects_bad_spec():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", "--race", "cube:8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
