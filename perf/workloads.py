"""The seven workloads of the perf ledger, run one per process.

``python perf/workloads.py NAME --seed N --seconds S --trace 0|1`` runs
workload NAME in this process and prints its result as one JSON line.
``perf/run.py`` is the front end: it pins the BLAS threads, clears
``REPRO_OBS``/``REPRO_CHECK`` and starts this file in a fresh subprocess.

Every workload drives the program through its front door only
(``SparseSolver``, ``SolverService``, ``SparseSolver.simulate``), in a
closed loop with one caller, checks every answer itself, and counts
failures instead of stopping at them. Timings are in calibrated seconds
(see ``calibrate.py``); the per-layer numbers come from requests run
under the hook table of ``trace.py``, which alternate with untraced
requests in a traced run so that ``trace.overhead_share`` is a paired
measurement.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from calibrate import Calibrator, host_fingerprint
from trace import HOOK_METRICS, Tracer, layer_totals

from repro import ParallelConfig, SparseSolver
from repro.exec import multifrontal_factor_threads
from repro.gen import grid2d_9pt, grid3d_laplacian
from repro.machine import BLUEGENE_P
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import recording, span
from repro.service import COMPLETED, ServiceConfig, SolverService
from repro.sparse.csc import CSCMatrix

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: interval kinds that make up the timed window (not set-up, not probes)
WINDOW_KINDS = frozenset({"request", "k1", "wave"})
#: a solve fails above this harness-computed normwise backward error
BERR_MAX = 1e-10
#: a distributed solution must match the host solve this closely
SIM_X_TOL = 1e-8
#: size of a coalescing wave, and how many waves of that size a served
#: trace has per SERVED_ROUND_S of ``--seconds`` (the ISSUE's draw
#: probabilities .30/.25/.20/.15/.10 as fixed quotas: 46 waves, 208
#: requests, ten latencies beyond the 95th percentile)
WAVE_QUOTAS = ((1, 14), (2, 11), (4, 9), (8, 7), (16, 5))
WAVE_QUOTAS_QUICK = ((1, 3), (2, 2), (4, 2), (8, 1))
SERVED_ROUND_S = 6.0
#: untimed waves, one request per pattern, that a served workload plays
#: before its timed window. Two fleet workers run in one of two states (see
#: README, "Fleet"): packed on one core, or spread over two and twice as
#: slow, where they stay. Launches start in either; the change comes within
#: the first 1.5 s in which both workers are busy, so the warm-up is longer.
WARM_UP_WAVES = 5
#: hooks go on every other request of a traced run; each side needs this many
MIN_TRACED = 3
#: the template of a served trace (which pattern and value version each
#: slot of each wave holds) is drawn once from this seed; ``--seed`` then
#: orders the waves and draws the numbers. See README, "Seeds".
TEMPLATE_SEED = 7
ZIPF_EXPONENT = 1.1


# -- inputs and oracles ------------------------------------------------------


class Oracle:
    """Normwise backward error from the CSC arrays of a lower triangle.

    ``‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)``, worst column. Shares no code
    with the program it checks.
    """

    def __init__(self, lower: CSCMatrix) -> None:
        n = lower.shape[0]
        cols = np.repeat(np.arange(n), np.diff(lower.indptr))
        rows = lower.indices
        if np.any(rows < cols):
            raise ValueError("oracle expects the lower triangle")
        off = np.flatnonzero(rows != cols)
        self.n = n
        self.rows = np.concatenate([rows, cols[off]])
        self.cols = np.concatenate([cols, rows[off]])
        self.pick = np.concatenate([np.arange(rows.size), off])

    def berr(self, data: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
        if x is None or x.shape != b.shape or not np.all(np.isfinite(x)):
            return math.inf
        vals = data[self.pick]
        x2 = x.reshape(self.n, -1)
        b2 = b.reshape(self.n, -1)
        ax = np.zeros_like(x2)
        np.add.at(ax, self.rows, vals[:, None] * x2[self.cols])
        norm_a = np.bincount(self.rows, weights=np.abs(vals), minlength=self.n).max()
        num = np.abs(b2 - ax).max(axis=0)
        den = norm_a * np.abs(x2).max(axis=0) + np.abs(b2).max(axis=0)
        return float(np.max(num / den))


def drifted(base: CSCMatrix, rng: np.random.Generator) -> CSCMatrix:
    """Same pattern, new values: off-diagonals shrink by up to 5 %.

    Shrinking the couplings of a diagonally dominant matrix keeps it SPD.
    Built through the public, validating constructor.
    """
    cols = np.repeat(np.arange(base.shape[1]), np.diff(base.indptr))
    shrink = np.where(base.indices != cols, 1.0 - 0.05 * rng.random(base.nnz), 1.0)
    return CSCMatrix(base.shape, base.indptr, base.indices, base.data * shrink)


# -- one run -----------------------------------------------------------------


@dataclass
class Interval:
    """One timed stretch of a run."""

    kind: str
    start: float
    end: float
    traced: bool
    #: user requests it stands for (a wave: its size; a k=1 rider: 0)
    weight: int


class Run:
    """Clock, tracer, failure counts and samples of one workload run."""

    def __init__(self, seed: int, seconds: float, trace: bool, quick: bool) -> None:
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.calib = Calibrator()
        self.calib.sample()
        self.tracer = Tracer() if trace else None
        self.intervals: list[Interval] = []
        #: kind -> [(raw seconds, index of the interval that scales it)]
        self.latencies: dict[str, list[tuple[float, int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.setup_end: float | None = None
        #: layer metrics a workload measured or read itself
        self.layers: dict[str, float | None] = {}
        self.maxima: dict[str, float] = {}

    # sizing

    def n_requests(self, per_second: float, floor: int) -> int:
        """Requests in the timed window: fixed by ``--seconds`` alone, so
        every count repeats from run to run."""
        if self.quick:
            floor = 2
        if self.trace:
            floor = max(floor, 2 * MIN_TRACED)
        return max(floor, round(per_second * self.seconds))

    def traced_turn(self, i: int) -> bool:
        """Even requests of a traced run carry the hooks; odd ones do not."""
        return self.trace and i % 2 == 0

    # timing

    def setup_done(self) -> None:
        self.setup_end = time.perf_counter()
        self.calib.sample()

    def timed(self, kind: str, fn, traced: bool = False, weight: int = 1):
        """Run ``fn()`` as one timed interval; returns ``(index, result)``.

        A raising request is a failed request, never a failed run: the
        traceback goes to stderr and the result is None.
        """
        index = len(self.intervals)
        out = None
        hooks = self.tracer.hooks(index) if traced else contextlib.nullcontext()
        try:
            with hooks:
                start = time.perf_counter()
                try:
                    out = fn()
                finally:
                    end = time.perf_counter()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        self.intervals.append(Interval(kind, start, end, traced, weight))
        self.calib.worked(end - start)
        return index, out

    def request(self, kind: str, fn, verify, traced: bool = False, weight: int = 1):
        """One request: time ``fn()``, then ``verify(result)`` untimed."""
        index, out = self.timed(kind, fn, traced, weight)
        self.latencies.setdefault(kind, []).append(
            (self.intervals[index].end - self.intervals[index].start, index)
        )
        self.check(out is not None and verify(out))
        return out

    def probe(self, fn) -> tuple[float, object]:
        """Time ``fn()`` outside the timed window (traced runs, after it):
        ``(calibrated seconds, result)``."""
        index, out = self.timed("probe", fn, weight=0)
        self.calib.sample()  # closes the bracket of this interval
        iv = self.intervals[index]
        return (iv.end - iv.start) * self.scale(index), out

    def verify_solve(self, oracle: "Oracle", data: np.ndarray, b: np.ndarray):
        """Verifier of one ``SolveResult`` against ``A(data) x = b``."""

        def verify(res) -> bool:
            err = oracle.berr(data, res.x, b)
            self.note_max("mf.refine.backward_error_max", err)
            self.note_max("mf.refine.iterations", res.refinement_iterations)
            return err <= BERR_MAX

        return verify

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # results

    def scale(self, index: int) -> float:
        iv = self.intervals[index]
        return self.calib.scale(iv.start, iv.end)

    def calibrated(self, kind: str, traced: bool) -> list[float]:
        return [
            raw * self.scale(i)
            for raw, i in self.latencies.get(kind, [])
            if self.intervals[i].traced == traced
        ]

    def window(self, traced: bool, kinds=WINDOW_KINDS) -> tuple[float, int]:
        """Calibrated seconds and user requests of the timed intervals of
        *kinds* that ran with (or without) hooks."""
        ivs = [iv for iv in self.intervals if iv.kind in kinds and iv.traced == traced]
        seconds = sum((iv.end - iv.start) * self.calib.scale(iv.start, iv.end) for iv in ivs)
        return seconds, sum(iv.weight for iv in ivs)

    def end_to_end(self) -> dict[str, float]:
        """The user-visible metrics, from untraced requests only."""
        req = self.calibrated("request", traced=False)
        k1 = self.calibrated("k1", traced=False) or req
        window_s, _ = self.window(traced=False)
        done = len(req) + len(self.calibrated("k1", traced=False))
        return {
            "setup_s": (self.setup_end - PROCESS_START)
            * self.calib.scale(PROCESS_START, self.setup_end),
            "request_s": statistics.median(req),
            "request_k1_s": statistics.median(k1),
            "throughput_rps": done / window_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float | None]:
        """Layer metrics of a traced run: hooks, then what the workload
        put into ``self.layers``, then the harness's own."""
        tr = self.tracer
        traced = [i for i, iv in enumerate(self.intervals) if iv.traced]
        units = sum(self.intervals[i].weight for i in traced)
        inclusive, self_time, calls = layer_totals(
            tr.spans, {i: self.scale(i) for i in traced}
        )

        def per_unit(table, metric, kind=None):
            if metric in tr.missing:
                return None
            return (
                sum(
                    v
                    for (m, i), v in table.items()
                    if m == metric and kind in (None, self.intervals[i].kind)
                )
                / units
            )

        out: dict[str, float | None] = {
            m: per_unit(inclusive, m) for m in HOOK_METRICS
        }
        for name, parent in SELF_TIMES.items():
            out[name] = per_unit(self_time, parent)
        for name, source in CALL_COUNTS.items():
            out[name] = self.exact_count(calls, source, traced)
        # the solve hook, split by the width of the request that called it
        solve_s = "mf.solve_phase.solve_s"
        if "k1" in self.latencies:
            k1 = per_unit(inclusive, solve_s, "k1")
            k16 = per_unit(inclusive, solve_s, "request")
            out["mf.solve_phase.solve_k16_s"] = k16
            out["mf.solve_phase.k16_per_rhs_speedup"] = (
                None if k1 is None else 16.0 * k1 / k16
            )
        else:
            k1 = per_unit(inclusive, solve_s)
        out["mf.solve_phase.solve_k1_s"] = k1
        del out[solve_s], out["mf.refine.refine_s"]
        out.update(self.maxima)
        out.update(self.layers)

        out.update(self.calib.host_metrics())
        out["host.raw_request_s"] = statistics.median(
            raw
            for raw, i in self.latencies["request"]
            if not self.intervals[i].traced
        )
        # window seconds per request, with hooks over without
        (on_s, on_n), (off_s, off_n) = self.window(True), self.window(False)
        out["trace.overhead_share"] = (on_s / on_n) / (off_s / off_n) - 1.0
        out["trace.missing_hooks"] = tr.missing_hooks
        return out

    def exact_count(self, calls, source: str, traced: list[int]) -> float | None:
        """Calls of *source* per traced request; all requests must agree,
        and a disagreement is a failure of the run's count oracle."""
        if source in self.tracer.missing:
            return None
        per_request = [
            calls.get((source, i), 0)
            for i in traced
            if self.intervals[i].kind == "request" and self.intervals[i].weight == 1
        ]
        if not per_request:
            return 0
        self.check(len(set(per_request)) == 1)
        return per_request[0]


#: layer metric <- self time of the spans booked to this hook metric
SELF_TIMES = {
    "ordering.self_s": "ordering.nd_s",
    "symbolic.self_s": "symbolic.analyze_s",
    "mf.numeric.self_s": "mf.numeric.factor_s",
    "mf.refine.self_s": "mf.refine.refine_s",
}
#: count metric <- number of calls of this hook metric per request
CALL_COUNTS = {
    "graph.bisect_calls": "graph.bisect_s",
    "ordering.amd_calls": "ordering.amd_s",
    "mf.numeric.fronts": "mf.frontal.assemble_s",
}


def paired(run: Run, fn_a, fn_b, pairs: int) -> tuple[float, float]:
    """Median calibrated seconds of ``fn_a`` and ``fn_b``, interleaved."""
    a, b = [], []
    for _ in range(pairs):
        a.append(run.probe(fn_a)[0])
        b.append(run.probe(fn_b)[0])
    return statistics.median(a), statistics.median(b)


# -- layer probes (traced runs only, after the timed window) ------------------


def quality_metrics(solver: SparseSolver) -> dict[str, float]:
    """Ordering/symbolic quality: the T2 guard an ordering speed-up must
    not trade away."""
    info, sym = solver.info, solver.sym
    widths = [sym.supernode_width(s) for s in range(sym.n_supernodes)]
    return {
        "symbolic.n_supernodes": info.n_supernodes,
        "symbolic.nnz_factor": info.nnz_factor,
        "symbolic.nnz_stored": info.nnz_stored,
        "symbolic.factor_flops": info.factor_flops,
        "symbolic.fill_ratio": info.fill_ratio,
        "symbolic.mean_width": statistics.fmean(widths),
        "symbolic.max_front": max(sym.front_size(s) for s in range(sym.n_supernodes)),
    }


def factor_size_metrics(numeric) -> dict[str, float]:
    """Work and fp64 storage of one numeric factor, from its own stats."""
    return {
        "dense.flops": numeric.stats.flops,
        "mf.numeric.factor_mb": numeric.stats.factor_entries * 8 / 2**20,
    }


def numeric_probes(run: Run, solver: SparseSolver, a: CSCMatrix, pairs: int) -> None:
    """fp32, threads-backend and tracing-cost numbers of the warm path."""
    n = a.shape[0]
    layers = run.layers
    layers.update(factor_size_metrics(solver.refactor(a)))

    fp64_s, fp32_s = paired(
        run,
        lambda: solver.refactor(a, precision="fp64"),
        lambda: solver.refactor(a, precision="fp32"),
        pairs,
    )
    layers["mf.numeric.factor_fp32_s"] = fp32_s
    layers["mf.numeric.fp32_speedup"] = fp64_s / fp32_s
    seq = solver.refactor(a, precision="fp64")

    w1_s, w2_s = paired(
        run,
        lambda: solver.refactor(a, backend="threads", workers=1),
        lambda: solver.refactor(a, backend="threads", workers=2),
        pairs,
    )
    layers["exec.factor_w1_s"] = w1_s
    layers["exec.factor_w2_s"] = w2_s
    layers["exec.speedup_w2"] = w1_s / w2_s
    threaded = solver.numeric
    panel = run.rng.standard_normal((n, 16))
    layers["exec.solve_k16_w2_s"], x_threads = run.probe(
        lambda: solver.solve(panel, backend="threads", workers=2).x
    )
    x_seq = solver.solve(panel).x
    bitwise = (
        all(np.array_equal(p, q) for p, q in zip(seq.blocks, threaded.blocks))
        and x_threads is not None
        and np.array_equal(x_seq, x_threads)
    )
    layers["exec.bitwise_ok"] = int(bitwise)
    run.check(bitwise)
    # a registry is what makes the pool time its tasks
    t0 = time.perf_counter()
    pooled = multifrontal_factor_threads(
        solver.sym, workers=2, registry=MetricsRegistry()
    )
    wall = time.perf_counter() - t0
    layers["exec.busy_share_w2"] = sum(pooled.exec_stats.busy_seconds) / (2 * wall)
    layers["exec.queue_depth_peak_w2"] = pooled.exec_stats.max_queue_depth

    def recorded():
        with recording():
            solver.refactor(a)

    off_s, on_s = paired(run, lambda: solver.refactor(a), recorded, pairs)
    layers["obs.enabled_overhead_share"] = on_s / off_s - 1.0
    calls = 100_000
    t0 = time.perf_counter()
    for _ in range(calls):
        with span("perf.disabled"):
            pass
    layers["obs.disabled_span_ns"] = (time.perf_counter() - t0) / calls * 1e9


def derive(out: dict) -> None:
    """Ratios of one run's layer numbers, on the workloads that measured
    their inputs; None when a hook they need is missing."""
    if "dense.flops" in out:
        factor, dense = out["mf.numeric.factor_s"], out["dense.partial_factor_s"]
        fronts = out["mf.numeric.fronts"]
        missing = None in (factor, dense, fronts)
        out["mf.numeric.us_per_front"] = (
            None if missing else (factor - dense) / fronts * 1e6
        )
        out["dense.gflops"] = None if missing else out["dense.flops"] / dense / 1e9
    if "simmpi.messages" in out:
        sims = out["parallel.factor_sim_s"], out["parallel.solve_sim_s"]
        out["simmpi.msgs_per_host_s"] = (
            None if None in sims else out["simmpi.messages"] / sum(sims)
        )


# -- workloads ---------------------------------------------------------------


def small_warm_up() -> None:
    """The untimed first request of a workload whose real request is slow:
    a 5³ cube through the same calls pays the imports and lazy set-up."""
    a = grid3d_laplacian(5)
    SparseSolver(a).solve(np.ones(a.shape[0]))


def cold_cube_l(run: Run) -> None:
    a = grid3d_laplacian(8 if run.quick else 16)
    n = a.shape[0]
    oracle = Oracle(a)
    small_warm_up()
    run.setup_done()
    solver = None
    for i in range(run.n_requests(0.4, 5)):
        b = run.rng.standard_normal(n)

        def request():
            s = SparseSolver(a)
            s.analyze()
            s.factor()
            return s, s.solve(b)

        verify = run.verify_solve(oracle, a.data, b)
        out = run.request(
            "request", request, lambda out: verify(out[1]), run.traced_turn(i)
        )
        solver = out[0] if out else solver
    if run.trace and solver is not None:
        run.layers.update(quality_metrics(solver))
        run.layers.update(factor_size_metrics(solver.numeric))


def resident_solver(run: Run, a: CSCMatrix) -> SparseSolver:
    """Set-up of the workloads that start from a factor: analyze, factor,
    one warm-up solve."""
    solver = SparseSolver(a)
    solver.analyze()
    run.calib.sample()
    solver.factor()
    solver.solve(np.ones(a.shape[0]))
    run.setup_done()
    return solver


def warm(run: Run, a: CSCMatrix, per_second: float, floor: int, pairs: int) -> None:
    """Analyze once, then ``refactor(a_i)`` → ``solve(b_i)`` per request."""
    n = a.shape[0]
    oracle = Oracle(a)
    solver = resident_solver(run, a)
    for i in range(run.n_requests(per_second, floor)):
        a_i = drifted(a, run.rng)
        b = run.rng.standard_normal(n)

        def request():
            solver.refactor(a_i)
            return solver.solve(b)

        run.request(
            "request", request, run.verify_solve(oracle, a_i.data, b), run.traced_turn(i)
        )
    if run.trace:
        run.layers.update(quality_metrics(solver))
        numeric_probes(run, solver, a, pairs)


def warm_cube_xl(run: Run) -> None:
    warm(run, grid3d_laplacian(9 if run.quick else 20), 1.0, 5, pairs=1)


def warm_plate_64(run: Run) -> None:
    warm(run, grid2d_9pt(24 if run.quick else 64), 3.0, 16, pairs=2)


def solve_cube_l(run: Run) -> None:
    a = grid3d_laplacian(8 if run.quick else 16)
    n = a.shape[0]
    oracle = Oracle(a)
    solver = resident_solver(run, a)
    for i in range(run.n_requests(5.0, 24)):
        b1 = run.rng.standard_normal(n)
        b16 = run.rng.standard_normal((n, 16))
        traced = run.traced_turn(i)
        for kind, b, weight in (("k1", b1, 0), ("request", b16, 1)):
            run.request(
                kind,
                lambda: solver.solve(b),
                run.verify_solve(oracle, a.data, b),
                traced,
                weight,
            )
    if run.trace:
        run.layers.update(quality_metrics(solver))


# served workloads


def served_patterns(quick: bool) -> list[CSCMatrix]:
    """The eight patterns, most popular first. The order interleaves sizes
    so that Zipf popularity does not sort the trace by cost; it is fixed
    (not seeded) because the rank of the dearest pattern alone would move
    every served metric by more than its bound."""
    if quick:
        return [grid3d_laplacian(k) for k in (5, 4, 6)] + [grid2d_9pt(12)]
    return [
        grid3d_laplacian(9),
        grid2d_9pt(32),
        grid3d_laplacian(7),
        grid3d_laplacian(11),
        grid2d_9pt(24),
        grid3d_laplacian(8),
        grid3d_laplacian(12),
        grid3d_laplacian(10),
    ]


def served_trace(run: Run, patterns: list[CSCMatrix], halve: bool):
    """Waves of ``(pattern index, matrix, rhs)`` requests.

    Wave sizes and Zipf pattern counts are fixed quotas; a pattern's
    values change every third request it receives, so neighbours in a
    wave coalesce. ``--seed`` orders the waves and draws every number.
    """
    quotas = WAVE_QUOTAS_QUICK if run.quick else WAVE_QUOTAS
    template = np.random.default_rng(TEMPLATE_SEED)
    rounds = max(1, round(run.seconds / SERVED_ROUND_S))
    sizes = np.repeat([s for s, _ in quotas], [c * rounds for _, c in quotas])
    total = int(sizes.sum())
    weights = 1.0 / np.arange(1, len(patterns) + 1) ** ZIPF_EXPONENT
    counts = np.floor(weights / weights.sum() * total).astype(int)
    counts[0] += total - counts.sum()
    slots = template.permutation(np.repeat(np.arange(len(patterns)), counts))
    sizes = template.permutation(sizes)
    if halve:
        # a traced run plays the first half of the waves twice (with and
        # without hooks) in the time an untraced run plays all of them once
        sizes = sizes[: len(sizes) // 2]
    seen = [0] * len(patterns)
    versions: dict[tuple[int, int], CSCMatrix] = {}
    waves = []
    at = 0
    for size in sizes:
        wave = []
        for p in slots[at: at + size]:
            p = int(p)
            key = (p, seen[p] // 3)
            seen[p] += 1
            if key not in versions:
                versions[key] = drifted(patterns[p], run.rng)
            wave.append((p, versions[key], run.rng.standard_normal(patterns[p].shape[0])))
        waves.append(wave)
        at += size
    return [waves[i] for i in run.rng.permutation(len(waves))]


@dataclass
class Replay:
    """What the plays of one kind (hooks on, or off) produced."""

    #: per request, in trace order: JobResult (None if the wave raised)
    results: list = field(default_factory=list)
    #: per request: raw seconds from wave start to its submit returning
    submit_offsets: list = field(default_factory=list)
    #: per request: index of its wave's interval
    wave_index: list = field(default_factory=list)
    submit_raw: float = 0.0
    drain_raw: float = 0.0
    #: growth of `service_counts` over these plays
    counts: list = field(default_factory=lambda: [0, 0, 0, 0])


def service_counts(svc: SolverService) -> tuple[int, ...]:
    """(batches, coalesced jobs, cache hits, cache misses) so far."""
    stats = svc.cache.stats
    return (
        svc.metrics.counter("batches"),
        svc.metrics.counter("coalesced_jobs"),
        stats.hits,
        stats.misses,
    )


def replay(run: Run, svc: SolverService, plays, kind: str = "wave") -> dict[bool, Replay]:
    """Play ``(wave, traced)`` pairs in order: each wave is ``submit()`` × W
    then one ``drain()``, timed as one interval. Returns the untraced and
    the traced plays' records, keyed by the flag."""
    out = {False: Replay(), True: Replay()}
    for wave, traced in plays:
        offsets: list[float] = []
        walls = [0.0, 0.0]

        def play():
            t0 = time.perf_counter()
            ids = []
            for _, a, b in wave:
                ids.append(svc.submit(a, b))
                offsets.append(time.perf_counter() - t0)
            t1 = time.perf_counter()
            done = svc.drain()
            walls[0], walls[1] = t1 - t0, time.perf_counter() - t1
            return [done.get(j) for j in ids]

        rep = out[traced]
        before = service_counts(svc)
        index, results = run.timed(kind, play, traced, weight=len(wave))
        rep.counts = [c + a - b for c, a, b in zip(rep.counts, service_counts(svc), before)]
        rep.results.extend(results or [None] * len(wave))
        rep.submit_offsets.extend(offsets + [0.0] * (len(wave) - len(offsets)))
        rep.wave_index.extend([index] * len(wave))
        rep.submit_raw += walls[0]
        rep.drain_raw += walls[1]
    return out


def served(run: Run, config: ServiceConfig, reference_config: ServiceConfig | None) -> None:
    patterns = served_patterns(run.quick)
    oracles = [Oracle(a) for a in patterns]
    waves = served_trace(run, patterns, halve=run.trace)
    requests = [r for wave in waves for r in wave]
    plain = [(wave, False) for wave in waves]

    def warmed(cfg: ServiceConfig) -> SolverService:
        svc = SolverService(cfg, clock=time.perf_counter)
        for a in patterns:
            svc.solve(a, np.ones(a.shape[0]))
        run.calib.sample()
        return svc

    svc = warmed(config)
    for _ in range(WARM_UP_WAVES):
        for a in patterns:
            svc.submit(drifted(a, run.rng), np.ones(a.shape[0]))
        svc.drain()
    run.calib.sample()
    reference = None
    if reference_config is not None:
        # the single executor's answers are what the fleet must reproduce
        reference = replay(run, warmed(reference_config), plain, kind="reference")[False]
    run.setup_done()

    def same_as_reference(k: int, res) -> bool:
        ref = reference.results[k]
        return ref is not None and res is not None and np.array_equal(ref.x, res.x)

    def score(rep: Replay) -> None:
        for k, ((p, a, b), res) in enumerate(zip(requests, rep.results)):
            ok = res is not None and res.status == COMPLETED
            if ok:
                err = oracles[p].berr(a.data, res.x, b)
                run.note_max("mf.refine.backward_error_max", err)
                ok = err <= BERR_MAX
                run.latencies.setdefault("request", []).append(
                    (
                        rep.submit_offsets[k] + res.queue_wait + res.timings["job_total"],
                        rep.wave_index[k],
                    )
                )
            if ok and reference is not None:
                ok = same_as_reference(k, res)
            run.check(ok)

    if not run.trace:
        score(replay(run, svc, plain)[False])
        return
    # Each wave twice, back to back, once with hooks and once without, the
    # order alternating: the two plays of a wave see the same host speed,
    # which is what makes trace.overhead_share a paired measurement.
    first = len(run.intervals)
    both = replay(
        run,
        svc,
        [
            (wave, traced)
            for i, wave in enumerate(waves)
            for traced in ((False, True) if i % 2 == 0 else (True, False))
        ],
    )
    run.calib.sample()
    score(both[False])
    rep = both[True]
    score(rep)

    layers = run.layers
    done = [r for r in rep.results if r is not None and r.status == COMPLETED]
    n = len(requests)
    scale = statistics.fmean(
        run.scale(i) for i in range(first, len(run.intervals)) if run.intervals[i].traced
    )
    for name, key in (
        ("service.values_update_s", "values_update"),
        ("service.factor_s", "factor"),
        ("service.solve_s", "solve"),
        ("service.job_total_s", "job_total"),
    ):
        # a batch's phase times are copied to each of its jobs
        layers[name] = sum(r.timings.get(key, 0.0) / r.batched_rhs for r in done) * scale / n
    layers["service.queue_wait_s"] = statistics.fmean(r.queue_wait for r in done) * scale
    untraced = sorted(run.calibrated("request", traced=False))
    layers["service.request_p95_s"] = untraced[math.ceil(0.95 * len(untraced)) - 1]
    layers["service.submit_s"] = rep.submit_raw * scale / n
    layers["service.drain_s"] = rep.drain_raw * scale / n
    in_executor = sum(r.timings["job_total"] / r.batched_rhs for r in done)
    layers["service.overhead_share"] = 1.0 - in_executor / (
        rep.drain_raw * config.fleet_workers
    )
    batches, coalesced, hits, misses = rep.counts
    layers["service.batches"] = batches
    layers["service.coalesced_jobs"] = coalesced
    layers["service.mean_batch_rhs"] = n / batches
    layers["service.cache_hit_share"] = hits / (hits + misses)
    layers["service.cache_evictions"] = svc.cache.stats.evictions

    # one request on a warmed and one on an unseen pattern
    unseen = grid3d_laplacian(6)
    for name, a in (
        ("service.cache.hit_request_s", patterns[0]),
        ("service.cache.miss_request_s", unseen),
    ):
        b = np.ones(a.shape[0])
        layers[name], res = run.probe(lambda: svc.solve(a, b))
        run.check(res is not None and res.status == COMPLETED)

    if reference is not None:
        single_s, _ = run.window(False, kinds={"reference"})
        fleet_s, _ = run.window(False, kinds={"wave"})
        layers["exec.fleet.speedup_w2"] = single_s / fleet_s
        layers["exec.fleet.bitwise_ok"] = int(
            all(same_as_reference(k, res) for k, res in enumerate(rep.results))
        )


def served_single(run: Run) -> None:
    served(run, ServiceConfig(), None)


def served_fleet_w2(run: Run) -> None:
    served(run, ServiceConfig(fleet_workers=2, shards=2), ServiceConfig())


def sim_cube_l_p64(run: Run) -> None:
    a = grid3d_laplacian(7 if run.quick else 16)
    n = a.shape[0]
    b = np.ones(n)
    config = ParallelConfig(n_ranks=64, machine=BLUEGENE_P, nb=32)
    solver = SparseSolver(a)
    solver.analyze()
    run.calib.sample()
    x_host = solver.solve(b).x
    small = SparseSolver(grid3d_laplacian(5))
    small.simulate(config, b=np.ones(125))
    run.setup_done()
    first = None
    report = None
    for i in range(run.n_requests(0.28, 4)):

        def verify(rep):
            nonlocal first
            outputs = (rep.factor_time, rep.solve_time, rep.n_messages, rep.total_bytes)
            first = first or outputs
            close = np.max(np.abs(rep.solve_result.x - x_host)) <= SIM_X_TOL * np.max(
                np.abs(x_host)
            )
            return outputs == first and bool(close)

        report = run.request(
            "request", lambda: solver.simulate(config, b=b), verify, run.traced_turn(i)
        ) or report
    if run.trace and report is not None:
        run.layers.update(quality_metrics(solver))
        run.layers.update(
            {
                "simmpi.messages": report.n_messages,
                "simmpi.bytes": report.total_bytes,
                "parallel.makespan_factor_us": report.factor_time * 1e6,
                "parallel.makespan_solve_us": report.solve_time * 1e6,
                "parallel.comm_fraction": report.comm_fraction,
            }
        )


WORKLOADS = {
    "cold-cube-l": cold_cube_l,
    "warm-cube-xl": warm_cube_xl,
    "warm-plate-64": warm_plate_64,
    "solve-cube-l": solve_cube_l,
    "served-single": served_single,
    "served-fleet-w2": served_fleet_w2,
    "sim-cube-l-p64": sim_cube_l_p64,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    run = Run(args.seed, args.seconds, bool(args.trace), args.quick)
    WORKLOADS[args.workload](run)
    if run.intervals and run.calib.times[-1] < run.intervals[-1].end:
        run.calib.sample()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "traced": bool(args.trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": run.end_to_end(),
        "samples": {k: len(run.calibrated(k, False)) for k in run.latencies},
        "host": {**host_fingerprint(REPO_ROOT), **run.calib.host_metrics()},
        "calib_samples": run.calib.durations,
    }
    if args.trace:
        layers = run.per_layer()
        derive(layers)
        result["per_layer"] = layers
        # the count oracle inside per_layer() may have added a check
        result["attempted"], result["failed"] = run.attempted, run.failed
        path = os.path.join("artifacts", "perf", f"trace-{args.workload}.json")
        run.tracer.write(path)
        result["trace_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
