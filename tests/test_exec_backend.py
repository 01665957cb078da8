"""Tests for repro.exec: the real shared-memory execution backend.

The headline contract is the **bitwise oracle**: for any worker count,
the threads backend produces byte-for-byte the factors of the sequential
path, and so, through the one class sweep, its solutions. The rest covers
the pool machinery itself — dependency scheduling, exception propagation
(drains cleanly, no deadlock), cancellation, stall detection — and the
factor task graph.
"""

import functools

import numpy as np
import pytest

from repro.core.solver import SparseSolver
from repro.exec import (
    MAX_DEFAULT_WORKERS,
    TaskGraph,
    TaskPool,
    default_workers,
    factor_task_graph,
    multifrontal_factor_threads,
)
from repro.gen import (
    convection_diffusion2d,
    elasticity3d,
    grid2d_anisotropic,
    grid2d_laplacian,
    grid3d_laplacian,
    random_spd_sparse,
    unstructured2d,
)
from repro.mf.numeric import multifrontal_factor
from repro.mf.solve_phase import solve, solve_many
from repro.util.errors import (
    ExecBackendError,
    InvariantError,
    NotPositiveDefiniteError,
    ShapeError,
)
from repro.util.rng import make_rng

pytestmark = pytest.mark.exec

WORKER_COUNTS = [1, 2, 4, 8]

#: SPD generator suite for identity checks (name -> lower triangle)
SUITE = {
    "grid2d": lambda: grid2d_laplacian(9),
    "grid3d": lambda: grid3d_laplacian(5),
    "aniso": lambda: grid2d_anisotropic(8),
    "elast": lambda: elasticity3d(3),
    "random": lambda: random_spd_sparse(160, avg_degree=6, seed=7),
    "unstructured": lambda: unstructured2d(120, seed=11),
}


def _analyzed(lower, method="cholesky"):
    solver = SparseSolver(lower, method=method)
    solver.analyze()
    return solver.sym


def _assert_factors_identical(ref, got):
    assert len(ref.blocks) == len(got.blocks)
    for s, (a, b) in enumerate(zip(ref.blocks, got.blocks)):
        assert a.tobytes() == b.tobytes(), f"block {s} differs"
    if ref.diag is None:
        assert got.diag is None
    else:
        assert ref.diag.tobytes() == got.diag.tobytes()
    assert ref.perturbed_columns == got.perturbed_columns
    assert ref.stats.flops == got.stats.flops
    assert ref.stats.factor_entries == got.stats.factor_entries
    assert ref.stats.front_orders == got.stats.front_orders
    if ref.u12 is None:
        assert got.u12 is None
    else:
        assert [u.tobytes() for u in ref.u12] == [u.tobytes() for u in got.u12]
    # every field, the update-stack telemetry included
    assert ref.stats == got.stats


# -- bitwise identity ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SUITE))
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_factor_bitwise_identity(name, workers):
    lower = SUITE[name]()
    sym = _analyzed(lower)
    ref = multifrontal_factor(sym)
    got = multifrontal_factor_threads(sym, workers=workers)
    _assert_factors_identical(ref, got)
    assert got.exec_stats is not None
    assert got.exec_stats.completed == sym.n_supernodes
    assert got.exec_stats.workers == workers


@pytest.mark.parametrize("name", sorted(SUITE))
@pytest.mark.parametrize("workers", [1, 4])
def test_solve_bitwise_identity(name, workers):
    # A threaded factor feeds the class sweeps exactly as a sequential one:
    # its panel stacks and diagonal-block inverses hold the same bits.
    lower = SUITE[name]()
    sym = _analyzed(lower)
    ref = multifrontal_factor(sym)
    got = multifrontal_factor_threads(sym, workers=workers)
    rng = make_rng(42)
    b1 = rng.standard_normal(sym.n)
    bp = rng.standard_normal((sym.n, 7))
    assert solve(got, b1).tobytes() == solve(ref, b1).tobytes()
    assert solve_many(got, bp).tobytes() == solve_many(ref, bp).tobytes()
    assert solve_many(got, bp[:, :1]).tobytes() == solve_many(ref, bp[:, :1]).tobytes()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_ldlt_bitwise_identity(workers):
    lower = grid2d_laplacian(8)
    sym = _analyzed(lower, method="ldlt")
    ref = multifrontal_factor(sym, method="ldlt")
    got = multifrontal_factor_threads(sym, method="ldlt", workers=workers)
    _assert_factors_identical(ref, got)
    b = make_rng(3).standard_normal((sym.n, 4))
    assert solve_many(got, b).tobytes() == solve_many(ref, b).tobytes()


def test_ldlt_perturbation_bitwise_identity():
    # Near-singular LDLᵀ: perturbed pivot columns must match exactly too.
    from repro.sparse.csc import CSCMatrix

    lower = grid2d_laplacian(7)
    data = lower.data.copy()
    for j in range(lower.shape[0]):
        k = lower.indptr[j]
        if lower.indices[k] == j:
            data[k] *= 1e-300  # crush one diagonal entry -> tiny pivot
            break
    tiny = CSCMatrix(lower.shape, lower.indptr, lower.indices, data)
    sym = _analyzed(tiny, method="ldlt")
    ref = multifrontal_factor(sym, method="ldlt", pivot_perturbation=1e-12)
    got = multifrontal_factor_threads(
        sym, method="ldlt", pivot_perturbation=1e-12, workers=4
    )
    assert ref.perturbed_columns, "fixture failed to trigger a perturbation"
    _assert_factors_identical(ref, got)


@functools.lru_cache(maxsize=None)
def _lu_analyzed():
    solver = SparseSolver(
        convection_diffusion2d(12, wind=(1.0, -0.4), peclet=1.5), method="lu"
    )
    solver.analyze()
    return solver.sym


@pytest.mark.parametrize("pivot_perturbation", [None, 0.9])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_lu_bitwise_identity(workers, pivot_perturbation):
    sym = _lu_analyzed()
    ref = multifrontal_factor(sym, "lu", pivot_perturbation=pivot_perturbation)
    got = multifrontal_factor_threads(
        sym, "lu", pivot_perturbation=pivot_perturbation, workers=workers
    )
    # 0.9 of the largest entry is far above any sane threshold
    assert bool(ref.perturbed_columns) == (pivot_perturbation is not None)
    _assert_factors_identical(ref, got)
    b = make_rng(6).standard_normal((sym.n, 3))
    assert solve_many(got, b).tobytes() == solve_many(ref, b).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_lu_front_door_threads_bitwise(workers):
    """SparseSolver(method="lu") on the threads backend: factor, refined
    solve and its diagnostics are bitwise the sequential ones."""
    a = convection_diffusion2d(12, wind=(1.0, -0.4), peclet=1.5)
    s_seq = SparseSolver(a, method="lu")
    s_thr = SparseSolver(a, method="lu")
    s_seq.factor()
    s_thr.factor(backend="threads", workers=workers)
    _assert_factors_identical(s_seq.numeric, s_thr.numeric)
    b = make_rng(10).standard_normal((a.shape[0], 3))
    r_seq = s_seq.solve(b)
    r_thr = s_thr.solve(b, backend="threads", workers=workers)
    assert r_seq.x.tobytes() == r_thr.x.tobytes()
    assert r_seq.residual == r_thr.residual
    assert r_seq.refinement_iterations == r_thr.refinement_iterations


@pytest.mark.parametrize("workers", [None, 2])
def test_unconsumed_update_slot_raises(workers):
    sym = _analyzed(grid2d_laplacian(6))
    # a parent that forgets its first child never consumes that update
    p = next(s for s in range(sym.n_supernodes) if sym.sn_children[s])
    sym.sn_children = [list(kids) for kids in sym.sn_children]
    sym.sn_children[p].pop(0)
    pool = None if workers is None else TaskPool(workers)
    with pytest.raises(InvariantError, match="unconsumed update"):
        multifrontal_factor(sym, pool=pool)


def test_repeated_runs_deterministic():
    sym = _analyzed(grid3d_laplacian(5))
    b = make_rng(0).standard_normal((sym.n, 3))
    baseline_factor = multifrontal_factor_threads(sym, workers=4)
    baseline_solve = solve_many(baseline_factor, b)
    for _ in range(3):
        f = multifrontal_factor_threads(sym, workers=4)
        _assert_factors_identical(baseline_factor, f)
        assert solve_many(f, b).tobytes() == baseline_solve.tobytes()


def test_runs_bitwise_identical_across_worker_counts():
    sym = _analyzed(grid3d_laplacian(4))
    b = make_rng(2).standard_normal((sym.n, 3))
    base_factor = multifrontal_factor_threads(sym, workers=1)
    base_x = solve_many(base_factor, b)
    for w in (2, 4):
        f = multifrontal_factor_threads(sym, workers=w)
        _assert_factors_identical(base_factor, f)
        assert solve_many(f, b).tobytes() == base_x.tobytes()


def test_solver_facade_backend():
    lower = grid3d_laplacian(5)
    s_seq = SparseSolver(lower)
    s_thr = SparseSolver(lower)
    s_seq.factor()
    s_thr.factor(backend="threads", workers=4)
    _assert_factors_identical(s_seq.numeric, s_thr.numeric)
    b = make_rng(9).standard_normal((lower.shape[0], 5))
    r_seq = s_seq.solve(b)
    r_thr = s_thr.solve(b, backend="threads", workers=4)
    assert r_seq.x.tobytes() == r_thr.x.tobytes()
    assert r_seq.residual == r_thr.residual
    assert r_seq.refinement_iterations == r_thr.refinement_iterations


@pytest.mark.parametrize(
    "backend, workers, error",
    [
        ("gpu", None, ShapeError),
        ("threads", 0, ExecBackendError),
        ("threads", 2.5, ExecBackendError),
    ],
)
@pytest.mark.parametrize("entry", ["factor", "refactor", "solve"])
def test_bad_backend_raises_before_any_work(entry, backend, workers, error):
    """An unknown backend, or a worker count the pool refuses, raises the
    same typed error from every entry point that takes a backend, before
    any work: nothing is factored and no new values are installed."""
    from repro.sparse.csc import CSCMatrix

    lower = grid2d_laplacian(6)
    solver = SparseSolver(lower)
    solver.analyze()
    held = solver.lower
    doubled = CSCMatrix(lower.shape, lower.indptr, lower.indices, 2.0 * lower.data)
    calls = {
        "factor": lambda: solver.factor(backend=backend, workers=workers),
        "refactor": lambda: solver.refactor(doubled, backend=backend, workers=workers),
        "solve": lambda: solver.solve(np.ones(lower.shape[0]), backend=backend, workers=workers),
    }
    with pytest.raises(error):
        calls[entry]()
    assert solver.numeric is None
    assert solver.lower is held


# -- pool machinery -----------------------------------------------------------


def _chain_graph(n, label="chain"):
    """n tasks in a straight dependency line 0 -> 1 -> ... -> n-1."""
    dependents = [[t + 1] if t + 1 < n else [] for t in range(n)]
    n_deps = np.asarray([0] + [1] * (n - 1), dtype=np.int64)
    return TaskGraph(
        n_tasks=n,
        dependents=dependents,
        n_deps=n_deps,
        priority=np.zeros(n),
        label=label,
    )


def test_pool_runs_all_tasks_in_dependency_order():
    order = []
    pool = TaskPool(4)
    stats = pool.run(_chain_graph(20), lambda t: order.append(t))
    assert order == list(range(20))
    assert stats.completed == 20
    assert stats.n_tasks == 20


def test_pool_exception_propagates_and_drains():
    ran = []

    def boom(t):
        ran.append(t)
        if t == 3:
            raise NotPositiveDefiniteError("pivot -1 at column 3")

    pool = TaskPool(4)
    with pytest.raises(NotPositiveDefiniteError, match="column 3"):
        pool.run(_chain_graph(10), boom)
    # Tasks after the failing one never ran; the pool returned (no deadlock).
    assert max(ran) == 3
    # The pool is NOT shut down by a task failure: a later run works.
    out = []
    pool.run(_chain_graph(4, label="retry"), lambda t: out.append(t))
    assert out == [0, 1, 2, 3]


def test_pool_cancel_from_task():
    pool = TaskPool(2)
    seen = []

    def body(t):
        seen.append(t)
        if t == 2:
            pool.cancel()

    with pytest.raises(ExecBackendError, match="cancelled"):
        pool.run(_chain_graph(50), body)
    assert len(seen) < 50
    # cancel() is a permanent shutdown: further runs are refused.
    with pytest.raises(ExecBackendError, match="shut down"):
        pool.run(_chain_graph(2), lambda t: None)
    assert pool.cancelled


def test_pool_cancel_races_inflight_completion():
    # cancel() while a task body is mid-flight: the straggler finishes
    # *after* the shutdown, its completion bookkeeping must not resurrect
    # the run, and run() still reports the cancellation.
    import threading

    pool = TaskPool(2)
    release = threading.Event()
    started = threading.Event()

    def body(t):
        if t == 0:
            started.set()
            assert release.wait(timeout=10)

    outcome = []

    def runner():
        try:
            pool.run(_chain_graph(40), body)
            outcome.append(None)
        except ExecBackendError as exc:
            outcome.append(exc)

    th = threading.Thread(target=runner)
    th.start()
    assert started.wait(timeout=10)
    pool.cancel()  # task 0 is still in flight right now
    release.set()  # ... and only completes after the shutdown
    th.join(timeout=10)
    assert not th.is_alive()
    assert outcome and isinstance(outcome[0], ExecBackendError)
    assert "cancelled" in str(outcome[0])
    assert pool.cancelled
    with pytest.raises(ExecBackendError, match="shut down"):
        pool.run(_chain_graph(2), lambda t: None)


def test_pool_two_simultaneous_failures_propagate_one():
    # Two workers fail in the same drain: exactly one exception wins,
    # it propagates verbatim, and the pool stays usable afterwards.
    import threading

    barrier = threading.Barrier(2, timeout=10)
    graph = TaskGraph(
        n_tasks=4,
        dependents=[[1, 2], [3], [3], []],
        n_deps=np.asarray([0, 1, 1, 2], dtype=np.int64),
        priority=np.zeros(4),
        label="diamond",
    )

    def body(t):
        if t in (1, 2):
            barrier.wait()  # both failures are in flight together
            raise NotPositiveDefiniteError(f"pivot failed in task {t}")

    pool = TaskPool(2)
    with pytest.raises(NotPositiveDefiniteError, match="pivot failed"):
        pool.run(graph, body)
    # A task failure is not a shutdown: the pool accepts the next run.
    out = []
    pool.run(_chain_graph(3, label="after"), lambda t: out.append(t))
    assert out == [0, 1, 2]


def test_pool_stall_detection_on_cyclic_graph():
    # 0 and 1 depend on each other: no task is ever ready.
    graph = TaskGraph(
        n_tasks=2,
        dependents=[[1], [0]],
        n_deps=np.asarray([1, 1], dtype=np.int64),
        priority=np.zeros(2),
        label="cycle",
    )
    pool = TaskPool(2)
    with pytest.raises(ExecBackendError, match="stalled"):
        pool.run(graph, lambda t: None)


def test_pool_rejects_bad_worker_counts():
    with pytest.raises(ExecBackendError):
        TaskPool(0)
    with pytest.raises(ExecBackendError):
        TaskPool(-1)
    with pytest.raises(ExecBackendError):
        TaskPool(2.5)  # type: ignore[arg-type]


def test_default_workers_bounded():
    w = default_workers()
    assert 1 <= w <= MAX_DEFAULT_WORKERS


def test_factor_threads_validates_like_sequential():
    sym = _analyzed(grid2d_laplacian(4))
    with pytest.raises(ShapeError):
        multifrontal_factor_threads(sym, method="qr")
    with pytest.raises(ShapeError):
        multifrontal_factor_threads(sym, pivot_perturbation=1e-10)


def test_not_positive_definite_propagates_through_pool():
    lower = grid2d_laplacian(6)
    data = lower.data.copy()
    # Flip every diagonal entry negative: guaranteed indefinite.
    for j in range(lower.shape[0]):
        k = lower.indptr[j]
        if lower.indices[k] == j:
            data[k] = -abs(data[k])
    from repro.sparse.csc import CSCMatrix

    bad = CSCMatrix(lower.shape, lower.indptr, lower.indices, data)
    sym = _analyzed(bad)
    with pytest.raises(NotPositiveDefiniteError):
        multifrontal_factor_threads(sym, workers=4)


# -- task graphs --------------------------------------------------------------


def test_task_graphs_mirror_tree():
    sym = _analyzed(grid2d_laplacian(7))
    up = factor_task_graph(sym)
    assert up.n_tasks == sym.n_supernodes
    for s in range(sym.n_supernodes):
        p = int(sym.sn_parent[s])
        if p >= 0:
            assert p in up.dependents[s]
    # The initially ready tasks are exactly the leaves of the tree.
    assert set(up.roots()) == {
        s for s in range(sym.n_supernodes) if not sym.sn_children[s]
    }


def test_each_update_slot_has_one_consumer():
    # The factor graph hands supernode s's update only to parent(s), which
    # waits on exactly its children.
    sym = _analyzed(grid3d_laplacian(5))
    up = factor_task_graph(sym)
    for s in range(sym.n_supernodes):
        p = int(sym.sn_parent[s])
        assert up.dependents[s] == ([p] if p >= 0 else [])
        assert up.n_deps[s] == len(sym.sn_children[s])


def test_update_row_missing_from_parent_fails_symbolic_check():
    # An update row with no place in the parent's front is never consumed;
    # the symbolic check rejects the structure before any task runs.
    from repro.check import sanitize

    sym = _analyzed(grid2d_laplacian(6))
    sanitize.check_symbolic(sym)
    s = next(
        s for s in range(sym.n_supernodes)
        if sym.sn_parent[s] >= 0 and sym.update_size(s) > 0
    )
    p = int(sym.sn_parent[s])
    row = sym.sn_rows[s][sym.supernode_width(s)]
    sym.sn_rows = list(sym.sn_rows)
    sym.sn_rows[p] = sym.sn_rows[p][sym.sn_rows[p] != row]
    with pytest.raises(InvariantError, match="front plan maps update rows"):
        sanitize.check_symbolic(sym)


def test_task_graph_validates_shapes():
    with pytest.raises(ExecBackendError):
        TaskGraph(
            n_tasks=3,
            dependents=[[]],
            n_deps=np.zeros(3, dtype=np.int64),
            priority=np.zeros(3),
        )


# -- observability ------------------------------------------------------------


def test_exec_events_recorded_and_exported():
    from repro.obs import chrome_trace, recording, validate_chrome_trace
    from repro.obs.export import HOST_PID

    lower = grid3d_laplacian(4)
    solver = SparseSolver(lower)
    with recording() as rec:
        solver.factor(backend="threads", workers=2)
        solver.solve(
            np.ones(lower.shape[0]), refine=False, backend="threads", workers=2
        )
    tasks = [s for s in rec.spans if s.name.startswith("exec.")]
    assert tasks, "worker task spans missing"
    # the solve runs the class sweeps on the calling thread: no pool tasks
    assert {s.name for s in tasks} == {"exec.factor"}
    assert all(s.end >= s.start for s in tasks)
    assert {s.attrs["worker"] for s in tasks} <= {0, 1}
    (caller,) = rec.by_name("solver.factor")
    assert caller.lane not in {s.lane for s in tasks}
    obj = chrome_trace(rec)
    validate_chrome_trace(obj)
    rows = [
        e
        for e in obj["traceEvents"]
        if e["pid"] == HOST_PID and e["ph"] == "X" and e["name"].startswith("exec.")
    ]
    assert len(rows) == len(tasks)
    assert {e["tid"] for e in rows} == {s.lane for s in tasks}


def test_pool_stats_publish():
    from repro.obs.metrics import MetricsRegistry

    sym = _analyzed(grid2d_laplacian(6))
    registry = MetricsRegistry()
    multifrontal_factor_threads(sym, workers=2, registry=registry)
    assert registry.counter("exec_tasks") == sym.n_supernodes
    assert registry.gauge_values()["exec_workers"] == 2.0
    assert "exec_queue_depth_peak" in registry.gauge_values()
