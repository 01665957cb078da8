"""Observability layer tests: spans, metrics, exporters, and front reports."""

import json
import math
import sys
import threading

import numpy as np
import pytest

from repro.core.solver import SparseSolver
from repro.exec import multifrontal_factor_threads
from repro.gen import convection_diffusion2d, grid2d_laplacian, grid3d_laplacian
from repro.machine import get_machine
from repro.mf.numeric import multifrontal_factor
from repro.obs import export as obs_export
from repro.obs import spans as obs_spans
from repro.obs.export import (
    gflops_comparison,
    render_gflops_comparison,
    render_top_fronts,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import NULL_SPAN, Span, SpanRecorder, recording, span, timed
from repro.parallel import PlanOptions, simulate_factorization
from repro.util.errors import ReproError

pytestmark = pytest.mark.obs


# -- spans -------------------------------------------------------------------


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        assert obs_spans.current_recorder() is None
        s1 = span("anything", key=1)
        s2 = span("else")
        assert s1 is NULL_SPAN and s2 is NULL_SPAN
        with s1 as s:
            assert s.set(more=2) is NULL_SPAN

    def test_recording_collects_nested_spans(self):
        with recording() as rec:
            with span("outer", kind="test"):
                with span("inner") as sp:
                    sp.set(found=3)
            with span("outer"):
                pass
        assert [s.name for s in rec.spans] == ["inner", "outer", "outer"]
        inner = rec.by_name("inner")[0]
        outer_first = rec.by_name("outer")[0]
        assert inner.depth == 1
        assert inner.parent_id == outer_first.span_id
        assert outer_first.depth == 0 and outer_first.parent_id == -1
        assert inner.attrs == {"found": 3}
        assert outer_first.attrs == {"kind": "test"}
        assert inner.elapsed >= 0.0
        counts = rec.phase_totals()
        assert counts["outer"][0] == 2 and counts["inner"][0] == 1
        assert rec.total("outer") >= 0.0

    def test_recording_restores_previous_state(self):
        assert obs_spans.current_recorder() is None
        outer_rec = SpanRecorder()
        with recording(outer_rec):
            assert obs_spans.current_recorder() is outer_rec
            with recording() as inner_rec:
                assert obs_spans.current_recorder() is inner_rec
            assert obs_spans.current_recorder() is outer_rec
        assert obs_spans.current_recorder() is None
        assert not obs_spans.obs_enabled()

    def test_span_records_on_exception(self):
        with recording() as rec:
            with pytest.raises(ValueError):
                with span("failing"):
                    raise ValueError("boom")
        assert [s.name for s in rec.spans] == ["failing"]

    @pytest.mark.fleet
    def test_nesting_is_per_thread(self):
        # Two threads hold overlapping spans and exit in the order they
        # opened, not the reverse; neither nests under the other, and a
        # later main-thread span is top level again.
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))

        def hold_a():
            with span("a"):
                a_open.set()
                b_open.wait(5)
            a_closed.set()

        def hold_b():
            a_open.wait(5)
            with span("b"):
                b_open.set()
                a_closed.wait(5)

        with recording() as rec:
            workers = [threading.Thread(target=f) for f in (hold_a, hold_b)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(10)
                assert not t.is_alive()
            with span("main"):
                pass
        by_name = {s.name: s for s in rec.spans}
        assert set(by_name) == {"a", "b", "main"}
        for s in rec.spans:
            assert (s.depth, s.parent_id) == (0, -1)
        assert by_name["a"].lane != by_name["b"].lane
        assert sorted(s.span_id for s in rec.spans) == [0, 1, 2]
        assert obs_spans._open.get() == ()

    def test_pool_task_spans_under_contention(self):
        # More workers than cores and a tiny switch interval: every task
        # span and every span opened inside a task is recorded once, with
        # a unique id, on its worker's lane.
        from repro.exec import TaskGraph, TaskPool

        n = 400
        graph = TaskGraph(
            n_tasks=n,
            dependents=[[] for _ in range(n)],
            n_deps=np.zeros(n, dtype=np.int64),
            priority=np.zeros(n),
            label="stress",
        )

        def body(t):
            with span("inner", task=t):
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with recording() as rec:
                stats = TaskPool(8).run(graph, body)
        finally:
            sys.setswitchinterval(interval)
        tasks = {s.span_id: s for s in rec.by_name("exec.stress")}
        inner = rec.by_name("inner")
        assert sorted(s.attrs["task"] for s in tasks.values()) == list(range(n))
        assert len({s.span_id for s in rec.spans}) == len(rec.spans) == 2 * n
        for s in inner:
            task = tasks[s.parent_id]
            assert task.attrs["task"] == s.attrs["task"] and task.lane == s.lane
        assert sorted(stats.task_seconds) == sorted(s.elapsed for s in tasks.values())
        assert obs_export.validate_trace_events(obs_export.chrome_trace_events(rec)) == []

    def test_timed_without_recorder_measures_only(self):
        assert obs_spans.current_recorder() is None
        with timed("phase", k=1) as t:
            assert obs_spans._open.get() == ()
        assert t.elapsed >= 0.0

    def test_timed_span_duration_is_elapsed(self):
        with recording() as rec:
            with timed("outer", k=1) as t:
                with span("inner"):
                    pass
        (outer,) = rec.by_name("outer")
        assert outer is t
        assert outer.attrs == {"k": 1}
        assert rec.by_name("inner")[0].parent_id == outer.span_id

    def test_solver_phases_recorded(self, small_spd_lower):
        lower, _ = small_spd_lower
        with recording() as rec:
            solver = SparseSolver(lower)
            solver.analyze()
            solver.factor()
            solver.solve(np.ones(lower.shape[0]))
        names = {s.name for s in rec.spans}
        assert {
            "solver.analyze",
            "solver.ordering",
            "solver.symbolic",
            "solver.factor",
            "mf.factor",
            "solver.solve",
        } <= names


# -- bit-identical results with obs on/off -----------------------------------


class TestNoBehaviorChange:
    def test_factor_bits_identical_with_obs_on(self, small_spd_lower):
        lower, _ = small_spd_lower
        s_off = SparseSolver(lower)
        s_off.analyze()
        s_off.factor()
        with recording():
            s_on = SparseSolver(lower)
            s_on.analyze()
            s_on.factor()
        for b_off, b_on in zip(s_off.numeric.blocks, s_on.numeric.blocks):
            assert np.array_equal(b_off, b_on)


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.inc("jobs")
        reg.inc("jobs", 2)
        reg.gauge("depth").set(5)
        reg.gauge("depth").inc(-2)
        assert reg.counter("jobs") == 3
        assert reg.counter("missing") == 0
        assert reg.gauge_values() == {"depth": 3.0}
        with pytest.raises(ValueError):
            reg.inc("jobs", -1)

    def test_histogram_buckets(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap.counts == (1, 2, 1, 1)
        assert snap.cumulative() == (1, 3, 4, 5)
        assert snap.count == 5
        assert snap.sum == pytest.approx(56.05)
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 0.5))

    def test_report_percentile_bounds(self):
        reg = MetricsRegistry()
        # 20 samples over buckets (0.1, 1, 10, +Inf): 10 / 8 / 1 / 1
        for v in (0.05,) * 10 + (0.5,) * 8 + (5.0, 50.0):
            reg.observe("lat", v, buckets=(0.1, 1.0, 10.0))
        reg.histogram("idle")
        snap = reg.snapshot().histograms
        lat = snap["lat"]
        assert lat.quantile_bound(0.5) == 0.1  # rank 10 is the 10th 0.05
        assert lat.quantile_bound(0.55) == 1.0  # rank 11
        assert lat.quantile_bound(0.95) == 10.0  # rank 19
        assert lat.quantile_bound(1.0) == math.inf
        assert snap["idle"].quantile_bound(0.95) == 0.0
        text = reg.report()
        assert "p50<=0.1 p95<=10" in text
        assert "p50<=0 p95<=0" in text

    def test_report_renders(self):
        reg = MetricsRegistry()
        reg.inc("jobs")
        reg.observe("wait", 0.2)
        text = reg.report()
        assert "jobs" in text and "wait" in text and "histogram" in text

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.inc("jobs_total", 4)
        reg.gauge("queue_depth").set(2)
        reg.observe("wait_seconds", 0.002)
        text = obs_export.prometheus_text(reg)
        assert "# TYPE repro_jobs_total counter" in text
        assert "repro_jobs_total 4" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert '# TYPE repro_wait_seconds histogram' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_wait_seconds_count 1" in text
        # one bucket line per upper bound plus +Inf
        n_buckets = text.count("repro_wait_seconds_bucket")
        assert n_buckets == len(DEFAULT_LATENCY_BUCKETS) + 1


# -- service metrics ---------------------------------------------------------


class TestServiceRegistry:
    def test_service_metrics_are_the_registry(self):
        from repro.service import COMPLETED, SolverService

        svc = SolverService()
        a = grid2d_laplacian(4)
        ids = [svc.submit(a, np.full(16, i + 1.0)) for i in range(3)]
        svc.submit(grid2d_laplacian(5), np.ones(25))
        res = svc.drain()
        assert all(r.status == COMPLETED for r in res.values())
        reg = svc.metrics
        assert isinstance(reg, MetricsRegistry)
        # every latency is recorded once per job, in the registry only
        hists = reg.snapshot().histograms
        for phase in ("queue_wait", "factor", "solve", "job_total", "analyze"):
            assert hists[phase].count == len(res)
        assert set(res[ids[0]].timings) | {"queue_wait"} == set(hists)
        done = reg.counter("jobs_completed")
        assert done == len(res) and isinstance(done, int)
        text = svc.metrics_report()
        assert "job_total" in text and "p95<=" in text
        assert "queue_wait" in obs_export.prometheus_text(reg)


# -- front spans -------------------------------------------------------------


def _analyzed(method):
    """Symbolic factor of a small cube (an unsymmetric plate for LU)."""
    if method == "lu":
        solver = SparseSolver(convection_diffusion2d(10, peclet=0.7), method="lu")
    else:
        solver = SparseSolver(grid3d_laplacian(5), method=method)
    solver.analyze()
    return solver.sym


def _front(supernode, m, width, flops, seconds):
    """A closed ``mf.front`` span with the given attributes and duration."""
    attrs = {"supernode": supernode, "m": m, "width": width, "flops": flops}
    f = Span(None, "mf.front", attrs)
    f.start, f.end = 1.0, 1.0 + seconds
    return f


class TestProfile:
    def test_numeric_factor_profiles_every_front(self, small_spd_lower):
        lower, _ = small_spd_lower
        with recording() as rec:
            solver = SparseSolver(lower)
            solver.analyze()
            solver.factor()
        fronts = rec.by_name("mf.front")
        assert len(fronts) == solver.sym.n_supernodes
        assert sum(f.attrs["flops"] for f in fronts) > 0
        assert all(f.elapsed >= 0 for f in fronts)
        top = obs_export.hottest_fronts(fronts, 3)
        assert len(top) == min(3, len(fronts))
        assert top == sorted(
            fronts, key=lambda f: (f.elapsed, f.attrs["flops"]), reverse=True
        )[:3]

    @pytest.mark.parametrize("method", ["cholesky", "ldlt", "lu"])
    def test_front_spans_cover_supernodes_and_nest_under_factor(self, method):
        sym = _analyzed(method)
        with recording() as rec:
            nf = multifrontal_factor(sym, method)
        fronts = rec.by_name("mf.front")
        assert sorted(f.attrs["supernode"] for f in fronts) == list(
            range(sym.n_supernodes)
        )
        assert sum(f.attrs["flops"] for f in fronts) == nf.stats.flops
        for f in fronts:
            s = f.attrs["supernode"]
            assert (f.attrs["m"], f.attrs["width"]) == (
                sym.front_plan.order[s],
                sym.front_plan.width[s],
            )
        (factor,) = rec.by_name("mf.factor")
        assert all(f.parent_id == factor.span_id for f in fronts)
        assert {f.lane for f in fronts} == {factor.lane}

    @pytest.mark.parametrize("method", ["cholesky", "ldlt", "lu"])
    def test_front_spans_nest_under_their_pool_task(self, method):
        sym = _analyzed(method)
        with recording() as rec:
            with span("caller") as caller:
                nf = multifrontal_factor_threads(sym, method, workers=2)
        fronts = rec.by_name("mf.front")
        assert sorted(f.attrs["supernode"] for f in fronts) == list(
            range(sym.n_supernodes)
        )
        assert sum(f.attrs["flops"] for f in fronts) == nf.stats.flops
        tasks = {t.span_id: t for t in rec.by_name("exec.factor")}
        assert sorted(t.attrs["task"] for t in tasks.values()) == list(
            range(sym.n_supernodes)
        )
        for f in fronts:
            task = tasks[f.parent_id]
            assert task.attrs["task"] == f.attrs["supernode"]
            assert f.lane == task.lane != caller.lane
            assert task.start <= f.start <= f.end <= task.end
        assert {t.attrs["worker"] for t in tasks.values()} <= {0, 1}
        assert sorted(t.elapsed for t in tasks.values()) == sorted(
            nf.exec_stats.task_seconds
        )

    def test_gflops_comparison_tables(self):
        fronts = [_front(0, 32, 8, 10_000, 1e-4), _front(1, 16, 4, 2_000, 5e-5)]
        machine = get_machine("generic-cluster")
        rows = gflops_comparison(fronts, machine, k=2)
        assert [r["supernode"] for r in rows] == [0, 1, -1]  # overall row last
        assert rows[0]["measured_gflops"] == pytest.approx(0.1)
        assert rows[-1]["measured_gflops"] == pytest.approx(12_000 / 1.5e-4 / 1e9)
        assert all(r["modeled_gflops"] > 0 for r in rows)
        text = render_top_fronts(fronts, 2)
        assert "hottest fronts" in text
        text2 = render_gflops_comparison(fronts, machine, k=2)
        assert "measured vs modeled" in text2


# -- chrome trace exporter ---------------------------------------------------


class TestChromeTrace:
    def _observed_sim(self, small_spd_lower, n_ranks=3):
        lower, _ = small_spd_lower
        solver = SparseSolver(lower)
        with recording() as rec:
            solver.analyze()
            solver.factor()
            fres = simulate_factorization(
                solver.sym,
                n_ranks,
                get_machine("generic-cluster"),
                PlanOptions(nb=8),
                trace=True,
            )
        return rec, fres

    def test_merged_trace_valid_and_complete(self, small_spd_lower, tmp_path):
        n_ranks = 3
        rec, fres = self._observed_sim(small_spd_lower, n_ranks)
        path = str(tmp_path / "trace.json")
        obj = obs_export.write_chrome_trace(
            path, recorder=rec, sim_trace=fres.sim.trace
        )
        # round-trip through the file: valid JSON and structurally clean
        loaded = obs_export.validate_chrome_trace_file(path)
        assert loaded == json.loads(json.dumps(obj))
        events = loaded["traceEvents"]
        assert obs_export.validate_trace_events(events) == []
        # monotone timestamps
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        # all simulated ranks present as threads of the sim process
        sim_tids = {
            e["tid"]
            for e in events
            if e["pid"] == obs_export.SIM_PID and e["ph"] == "X"
        }
        assert sim_tids == set(range(n_ranks))
        # host spans present under the host process
        host_names = {
            e["name"]
            for e in events
            if e["pid"] == obs_export.HOST_PID and e["ph"] == "X"
        }
        assert "solver.analyze" in host_names
        assert "parallel.factor_sim" in host_names

    def test_comm_instant_events(self, small_spd_lower):
        rec, fres = self._observed_sim(small_spd_lower)
        events = obs_export.chrome_trace_events(
            recorder=rec, sim_trace=fres.sim.trace, include_comm=True
        )
        assert any(e["ph"] == "i" for e in events)
        assert obs_export.validate_trace_events(events) == []

    def test_pool_run_before_any_span_exports_valid_trace(self):
        from repro.exec import TaskPool, factor_task_graph

        solver = SparseSolver(grid2d_laplacian(8))
        solver.analyze()
        with recording() as rec:
            TaskPool(2).run(factor_task_graph(solver.sym), lambda t: None)
            with span("later"):
                pass
        obs_export.validate_chrome_trace(obs_export.chrome_trace(rec))

    def test_validation_rejects_garbage(self, tmp_path):
        assert obs_export.validate_trace_events("nope")
        assert obs_export.validate_trace_events([{"name": "x"}])
        bad = [
            {"name": "a", "ph": "X", "ts": 5.0, "dur": 1.0, "pid": 0, "tid": 0},
            {"name": "b", "ph": "X", "ts": 1.0, "dur": 1.0, "pid": 0, "tid": 0},
        ]
        problems = obs_export.validate_trace_events(bad)
        assert any("monotone" in p for p in problems)
        with pytest.raises(ReproError):
            obs_export.validate_chrome_trace({"no": "events"})
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ReproError):
            obs_export.validate_chrome_trace_file(str(p))

    def test_report_combines_sections(self, small_spd_lower):
        rec, _ = self._observed_sim(small_spd_lower)
        reg = MetricsRegistry()
        reg.inc("runs")
        text = obs_export.report(
            rec, reg, get_machine("generic-cluster"), top_fronts=3
        )
        assert "host phases" in text
        assert "runs" in text
        assert "hottest fronts" in text
        assert "measured vs modeled" in text
        assert obs_export.report() == "(nothing recorded)"


# -- CLI ---------------------------------------------------------------------


class TestObsCli:
    def test_cli_obs_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "trace.json")
        prom_path = str(tmp_path / "metrics.prom")
        rc = main(
            [
                "obs",
                "--mesh",
                "plate:6",
                "--ranks",
                "2",
                "--trace-out",
                trace_path,
                "--metrics",
                "--top-fronts",
                "3",
                "--prom-out",
                prom_path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "host phases" in out
        assert "metrics" in out
        assert "hottest fronts" in out
        assert "measured vs modeled" in out
        assert "host residual" in out
        obj = obs_export.validate_chrome_trace_file(trace_path)
        assert any(
            e["pid"] == obs_export.SIM_PID for e in obj["traceEvents"]
        )
        assert "# TYPE" in (tmp_path / "metrics.prom").read_text()

    def test_cli_obs_leaves_recorder_uninstalled(self):
        from repro.cli import main

        main(["obs", "--mesh", "plate:4", "--ranks", "2"])
        assert obs_spans.current_recorder() is None


# -- grid fixture sanity (the matrix obs examples run on) --------------------


def test_plate_mesh_is_spd_seed():
    lower = grid2d_laplacian(6)
    assert lower.shape[0] == 36
