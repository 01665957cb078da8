"""Tests for repro.check.schedfuzz and the pool's ordering guarantee.

The threaded factorization is race-free because its task graph's edges
are the assembly tree's and the pool starts a task only after every
prerequisite has ended. The first is pinned in
``tests/test_exec_backend.py``; here, live runs under seeded adversarial
schedules check the second from the recorded task timeline, and the
fuzz runs check the end-to-end consequence: every schedule reproduces
the sequential factor bits. (The solve has no threaded schedule.)
"""

import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.check import schedfuzz
from repro.cli import main
from repro.core.solver import SparseSolver
from repro.exec import (
    TaskGraph,
    TaskPool,
    factor_task_graph,
    multifrontal_factor_threads,
)
from repro.gen import convection_diffusion2d, grid2d_laplacian, grid3d_laplacian
from repro.mf.numeric import multifrontal_factor
from repro.mf.solve_phase import solve, solve_many
from repro.obs import recording
from repro.sparse.csc import CSCMatrix
from repro.util.errors import ExecBackendError, NotPositiveDefiniteError, RaceError
from repro.util.rng import make_rng

pytestmark = pytest.mark.check


def _analyzed(lower, method="cholesky"):
    solver = SparseSolver(lower, method=method)
    solver.analyze()
    return solver.sym


def _fuzzed_pool(workers, seed):
    return TaskPool(workers, fuzz=schedfuzz.FuzzPlan(schedfuzz.FuzzConfig(seed)))


# -- the pool's ordering guarantee --------------------------------------------


def _timeline(spans):
    """Recorded pool task spans grouped as ``{label: {task: span}}``."""
    runs = {}
    for s in spans:
        if s.name.startswith("exec."):
            runs.setdefault(s.name.removeprefix("exec."), {})[s.attrs["task"]] = s
    return runs


def _order_violations(graph, events):
    """(prerequisite, dependent) pairs of *graph* whose recorded dependent
    started before the prerequisite ended."""
    return [
        (t, d)
        for t in range(graph.n_tasks)
        for d in graph.dependents[t]
        if events[d].start < events[t].end
    ]


def _assert_runs_ordered(events, graphs, context):
    runs = _timeline(events)
    assert runs.keys() == graphs.keys()
    for label, graph in graphs.items():
        assert len(runs[label]) == graph.n_tasks
        bad = _order_violations(graph, runs[label])
        assert not bad, (
            f"{label}: tasks started before their prerequisites ended "
            f"(prerequisite, dependent) {bad[:5]} ({context})"
        )


def test_pool_starts_tasks_after_prerequisites_end():
    sym = _analyzed(grid3d_laplacian(8))
    graphs = {"factor": factor_task_graph(sym)}
    for workers in (2, 4):
        for seed in (0, 1, 2):
            with recording() as rec:
                multifrontal_factor_threads(sym, pool=_fuzzed_pool(workers, seed))
            _assert_runs_ordered(
                rec.spans, graphs, f"workers={workers}, seed={seed}"
            )


@pytest.mark.parametrize("workers", [1, 4])
def test_live_factor_and_solve_start_after_prerequisites(workers):
    # An unfuzzed pool: the schedule the backend really runs. The solve
    # after it runs no pool task at all.
    sym = _analyzed(grid2d_laplacian(8))
    b = make_rng(1).standard_normal(sym.n)
    with recording() as rec:
        factor = multifrontal_factor_threads(sym, pool=TaskPool(workers))
        solve(factor, b)
    _assert_runs_ordered(rec.spans, {"factor": factor_task_graph(sym)}, f"workers={workers}")


def test_dropped_dep_edge_shows_in_task_timeline():
    # Run the factor graph with one tree edge child -> parent dropped, and
    # hold the child until the parent has started: the timeline check
    # against the real graph must name exactly that edge.
    sym = _analyzed(grid2d_laplacian(6))
    graph = factor_task_graph(sym)
    child = next(s for s in range(sym.n_supernodes) if sym.sn_parent[s] >= 0)
    parent = int(sym.sn_parent[child])
    dependents = [list(d) for d in graph.dependents]
    dependents[child].remove(parent)
    n_deps = graph.n_deps.copy()
    n_deps[parent] -= 1
    dropped = TaskGraph(
        n_tasks=graph.n_tasks,
        dependents=dependents,
        n_deps=n_deps,
        priority=graph.priority,
        label=graph.label,
    )
    parent_started = threading.Event()

    def run_task(t):
        if t == parent:
            parent_started.set()
        elif t == child:
            assert parent_started.wait(timeout=10.0), "parent never started"

    with recording() as rec:
        TaskPool(2).run(dropped, run_task)
    events = _timeline(rec.spans)["factor"]
    assert _order_violations(dropped, events) == []
    assert _order_violations(graph, events) == [(child, parent)]


def test_fuzzed_pool_reports_stall_on_cyclic_graph():
    # Task 0 is free and unblocks 1; 1 and 2 wait on each other. Forced
    # deferrals must not hide the cycle: task 0 runs, then the pool fails.
    graph = TaskGraph(
        n_tasks=3,
        dependents=[[1], [2], [1]],
        n_deps=np.asarray([0, 2, 1], dtype=np.int64),
        priority=np.zeros(3),
        label="cycle",
    )
    for seed in range(3):
        plan = schedfuzz.FuzzPlan(
            schedfuzz.FuzzConfig(seed, defer_prob=1.0, max_defers=2)
        )
        ran = []
        with pytest.raises(ExecBackendError, match="stalled"):
            TaskPool(2, fuzz=plan).run(graph, ran.append)
        assert ran == [0]


def test_aborted_fuzzed_run_leaves_pool_reusable():
    # An indefinite matrix aborts a fuzzed factor mid-graph; the error
    # surfaces verbatim and the drained pool then runs a clean factor to
    # the sequential bits.
    lower = grid2d_laplacian(6)
    data = lower.data.copy()
    for j in range(lower.shape[0]):
        k = lower.indptr[j]
        if lower.indices[k] == j:
            data[k] = -abs(data[k])
    bad = _analyzed(CSCMatrix(lower.shape, lower.indptr, lower.indices, data))
    good = _analyzed(lower)
    pool = _fuzzed_pool(4, seed=0)
    with pytest.raises(NotPositiveDefiniteError):
        multifrontal_factor_threads(bad, pool=pool)
    factor = multifrontal_factor_threads(good, pool=pool)
    assert schedfuzz._factors_identical(multifrontal_factor(good), factor)


# -- the fuzz plan ------------------------------------------------------------


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


# -- the bitwise oracle under fuzzed schedules --------------------------------


def test_fuzzed_factor_and_solve_stay_bitwise_identical():
    # Every fuzzed factor is bitwise the sequential one, so the class
    # sweeps solve it to the sequential x.
    sym = _analyzed(grid2d_laplacian(7))
    results = schedfuzz.fuzz_factor(sym, seeds=[0, 1, 2], workers=3)
    assert len(results) == 3
    for r in results:
        assert r.ok, r.summary()
    b = make_rng(4).standard_normal((sym.n, 2))
    x = solve_many(multifrontal_factor_threads(sym, pool=_fuzzed_pool(3, 0)), b)
    assert x.tobytes() == solve_many(multifrontal_factor(sym), b).tobytes()


def test_fuzzed_lu_factor_stays_bitwise_identical():
    solver = SparseSolver(convection_diffusion2d(8, peclet=1.2), method="lu")
    solver.analyze()
    sym = solver.sym
    results = schedfuzz.fuzz_factor(sym, seeds=[0, 1], workers=3, method="lu")
    assert len(results) == 2
    for r in results:
        assert r.ok, r.summary()


def test_fuzz_smoke_raises_on_failure(monkeypatch):
    sym = _analyzed(grid2d_laplacian(6))
    # Sabotage the bitwise comparison so every case "fails": fuzz_smoke
    # must surface the replayable seeds in a RaceError.
    monkeypatch.setattr(
        schedfuzz, "_factors_identical", lambda ref, got: False
    )
    with pytest.raises(RaceError, match="seed="):
        schedfuzz.fuzz_smoke(sym, n_seeds=2, workers=(2,))


def test_fuzz_cases_flag_bitwise_divergence(monkeypatch):
    # A threaded run that moves one bit must fail its fuzz case.
    sym = _analyzed(grid2d_laplacian(6))

    def skewed_factor(*args, **kwargs):
        f = multifrontal_factor_threads(*args, **kwargs)
        f.blocks[-1][0, 0] = np.nextafter(f.blocks[-1][0, 0], np.inf)
        return f

    assert all(r.ok for r in schedfuzz.fuzz_factor(sym, seeds=[0], workers=2))
    monkeypatch.setattr(schedfuzz, "multifrontal_factor_threads", skewed_factor)
    results = schedfuzz.fuzz_factor(sym, seeds=[0, 1], workers=2)
    assert len(results) == 2
    for r in results:
        assert not r.ok
        assert "DIVERGED" in r.summary()


def test_fuzz_smoke_small_clean():
    sym = _analyzed(grid2d_laplacian(6))
    results = schedfuzz.fuzz_smoke(sym, n_seeds=3, workers=(2, 4))
    assert len(results) == 3  # one factor per seed
    assert all(r.ok for r in results)


# -- CLI end to end -----------------------------------------------------------


def test_cli_sched_fuzz():
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "check",
            "--sched-fuzz", "2", "--fuzz-workers", "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "sched-fuzz cube:8: 2 fuzzed factor schedule(s)" in proc.stdout
    assert "all bitwise-identical" in proc.stdout


def test_cli_fuzz_workers_rejects_empty_list(capsys):
    assert main(["check", "--sched-fuzz", "1", "--fuzz-workers", ""]) == 2
    assert "--fuzz-workers must contain positive integers" in capsys.readouterr().err


def test_cli_fuzz_workers_rejects_non_integer(capsys):
    assert main(["check", "--sched-fuzz", "1", "--fuzz-workers", "2,x"]) == 2
    assert "--fuzz-workers must be comma-separated ints" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_cli_sched_fuzz_rejects_non_positive_count(n, capsys):
    assert main(["check", "--sched-fuzz", n]) == 2
    assert "--sched-fuzz must be a positive integer" in capsys.readouterr().err
