"""Command-line interface.

Subcommands mirror the workflow of the library:

* ``info``     — analyze a problem and print the symbolic statistics;
* ``solve``    — factor and solve, print accuracy diagnostics;
* ``scale``    — simulated strong-scaling sweep on a machine model;
* ``compare``  — baseline solver comparison at given rank counts;
* ``suite``    — print the paper-suite inventory table (T1);
* ``serve-sim``— replay a synthetic transient-FE request trace through the
  serving layer (``repro.service``) and print its metrics report;
* ``check``    — correctness tooling (``repro.check``): project lint,
  comm-trace race/deadlock analysis, happens-before race checking and
  seeded schedule fuzzing of the threaded factorization;
* ``obs``      — observability run (``repro.obs``): solve + simulate one
  problem under span recording, print phase/metrics/hot-front reports,
  and export a merged Chrome trace (``--trace-out``).

Problems come from ``--mesh KIND:SIZE`` (generators) or ``--matrix FILE``
(Matrix Market). Run ``python -m repro.cli <cmd> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.solver import SparseSolver
from repro.gen import (
    convection_diffusion2d,
    elasticity3d,
    grid2d_9pt,
    grid2d_anisotropic,
    grid2d_laplacian,
    grid3d_27pt,
    grid3d_laplacian,
    paper_suite,
    random_spd_sparse,
    unstructured2d,
)
from repro.machine import get_machine
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import coo_to_csc
from repro.sparse.io_mm import read_matrix_market
from repro.sparse.ops import full_symmetric_from_lower
from repro.util.errors import RaceError, ReproError, ShapeError
from repro.util.rng import make_rng
from repro.util.tables import format_table

MESH_KINDS = {
    "cube": grid3d_laplacian,
    "cube27": grid3d_27pt,
    "plate": grid2d_laplacian,
    "plate9": grid2d_9pt,
    "aniso": grid2d_anisotropic,
    "elast": elasticity3d,
    "random": lambda n: random_spd_sparse(n, avg_degree=5, seed=0),
    "unstructured": lambda n: unstructured2d(n, seed=0),
    "convdiff": lambda n: convection_diffusion2d(n, peclet=1.0),
}

#: mesh kinds producing unsymmetric matrices (handled by the LU solver)
UNSYM_KINDS = {"convdiff"}


def build_matrix(args) -> CSCMatrix:
    """Resolve --mesh / --matrix into the whole square CSC matrix.

    A symmetric mesh is expanded from the lower triangle its generator
    builds, as a ``symmetric`` Matrix Market file is when read; an
    unsymmetric mesh and a file are returned as built or read. The
    symmetric solvers reduce a symmetric matrix to its lower triangle and
    reject an unsymmetric one, and the LU path factors the whole matrix.
    """
    if args.matrix:
        coo, _ = read_matrix_market(args.matrix)
        return coo_to_csc(coo)
    if not args.mesh:
        raise ShapeError("provide --mesh KIND:SIZE or --matrix FILE")
    try:
        kind, size_s = args.mesh.split(":", 1)
        size = int(size_s)
    except ValueError:
        raise ShapeError(
            f"--mesh must look like cube:12; got {args.mesh!r}"
        ) from None
    try:
        builder = MESH_KINDS[kind]
    except KeyError:
        raise ShapeError(
            f"unknown mesh kind {kind!r}; known: {sorted(MESH_KINDS)}"
        ) from None
    a = builder(size)
    return a if kind in UNSYM_KINDS else full_symmetric_from_lower(a)


def cmd_info(args) -> int:
    a = build_matrix(args)
    solver = SparseSolver(a, method=args.method, ordering=args.ordering)
    info = solver.analyze()
    print(
        format_table(
            ["field", "value"],
            [
                ["n", info.n],
                ["nnz(tril A)", info.nnz_a],
                ["nnz(L)", info.nnz_factor],
                ["stored entries", info.nnz_stored],
                ["fill ratio", round(info.fill_ratio, 3)],
                ["factor Mflop", round(info.factor_flops / 1e6, 3)],
                ["solve Mflop", round(info.solve_flops / 1e6, 3)],
                ["supernodes", info.n_supernodes],
                ["analyze wall [s]", round(info.wall_time, 3)],
            ],
            title=f"analysis ({args.ordering} ordering)",
        )
    )
    return 0


def cmd_solve(args) -> int:
    a = build_matrix(args)
    n = a.shape[0]
    unsym = args.lu or (args.mesh and args.mesh.split(":", 1)[0] in UNSYM_KINDS)
    method = "lu" if unsym else args.method
    if args.rhs == "ones":
        b = np.ones(n)
    else:
        b = make_rng(args.seed).standard_normal(n)
    solver = SparseSolver(a, method=method, ordering=args.ordering)
    solver.factor(
        backend=args.backend, workers=args.workers, precision=args.precision
    )
    res = solver.solve(
        b,
        refine=not args.no_refine,
        backend=args.backend,
        workers=args.workers,
    )
    print(
        f"n={n}  solver={method}  residual={res.residual:.3e}  "
        f"refine_iters={res.refinement_iterations}  precision={res.precision}"
    )
    if args.condest:
        print(f"condition estimate (1-norm): {solver.condition_estimate():.3e}")
    # A working solve's backward error sits a few units of roundoff above
    # the working precision's: 1e-8 for fp64, 64 units of 2^-24 for fp32.
    return 0 if res.residual < (1e-8 if res.precision == "fp64" else 64 * 2.0**-24) else 1


def _parse_ranks(spec: str, flag: str = "--ranks") -> list[int]:
    """A non-empty comma-separated list of positive counts (``1,2,8``)."""
    try:
        ranks = [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ShapeError(f"{flag} must be comma-separated ints; got {spec!r}")
    if not ranks or any(r < 1 for r in ranks):
        raise ShapeError(f"{flag} must contain positive integers")
    return ranks


def cmd_scale(args) -> int:
    from repro.analysis import render_scaling_table, scaling_series
    from repro.parallel import PlanOptions

    a = build_matrix(args)
    solver = SparseSolver(a, method=args.method, ordering=args.ordering)
    solver.analyze()
    machine = get_machine(args.machine)
    pts = scaling_series(
        solver.sym,
        _parse_ranks(args.ranks),
        machine,
        PlanOptions(nb=args.nb, policy=args.policy),
        method=args.method,
        threads_per_rank=args.threads,
    )
    print(
        render_scaling_table(
            pts,
            title=(
                f"strong scaling on {machine.name} "
                f"(policy={args.policy}, nb={args.nb}, threads={args.threads})"
            ),
        )
    )
    return 0


def cmd_compare(args) -> int:
    from repro.baselines import BASELINES, simulate_baseline

    a = build_matrix(args)
    solver = SparseSolver(a, method=args.method, ordering=args.ordering)
    solver.analyze()
    machine = get_machine(args.machine)
    names = list(BASELINES)
    rows = []
    for p in _parse_ranks(args.ranks):
        row = [p]
        for name in names:
            res = simulate_baseline(
                name, solver.sym, p, machine, nb=args.nb, method=args.method
            )
            row.append(round(res.makespan * 1e3, 4))
        rows.append(row)
    print(
        format_table(
            ["ranks"] + names,
            rows,
            title=f"factor time [ms] by solver on {machine.name}",
        )
    )
    return 0


def cmd_suite(args) -> int:
    rows = []
    for m in paper_suite():
        lower = m.build()
        rows.append([m.name, m.mesh, lower.shape[0], lower.nnz, m.archetype])
    print(
        format_table(
            ["name", "mesh", "n", "nnz(tril)", "archetype"],
            rows,
            title="paper suite",
        )
    )
    return 0


def cmd_serve_sim(args) -> int:
    """Drive the serving layer with a synthetic transient-analysis trace:
    repeated numeric refactorizations on one base pattern (values drift per
    step, the nonlinear/transient workflow), interleaved with a handful of
    fresh patterns that must miss the analysis cache."""
    from repro.obs.spans import timed
    from repro.service import AdmissionError, COMPLETED, ServiceConfig, SolverService

    service = SolverService(
        ServiceConfig(
            cache_enabled=not args.no_cache,
            coalesce=not args.no_coalesce,
            ordering=args.ordering,
            precision=args.precision,
            fleet_workers=args.fleet_workers,
            shards=args.shards,
            max_pending=args.max_pending,
            tenant_quota=args.tenant_quota,
        )
    )
    if not args.mesh and not args.matrix:
        args.mesh = "plate:8"
    base = build_matrix(args)
    n = base.shape[0]
    rng = make_rng(args.seed)
    fresh = [
        random_spd_sparse(24 + 8 * i, avg_degree=5, seed=args.seed + i)
        for i in range(args.new_patterns)
    ]
    results = {}
    rejected = 0

    def submit(matrix, rhs, priority, tenant):
        nonlocal rejected
        try:
            service.submit(matrix, rhs, method=args.method, priority=priority,
                           tenant=tenant)
        except AdmissionError:
            # Trace driver's backpressure response: drain the queue to make
            # room, then resubmit once (the request is not dropped).
            rejected += 1
            results.update(service.drain())
            service.submit(matrix, rhs, method=args.method, priority=priority,
                           tenant=tenant)

    with timed("cli.serve_sim", steps=args.steps) as t:
        for step in range(args.steps):
            scaled = CSCMatrix(
                base.shape,
                base.indptr,
                base.indices,
                base.data * (1.0 + 0.5 * step / max(args.steps, 1)),
                _skip_check=True,
            )
            submit(
                scaled,
                rng.standard_normal(n),
                priority=0,
                tenant=f"tenant{step % max(args.tenants, 1)}",
            )
            if args.new_patterns and step % max(args.steps // args.new_patterns, 1) == 1:
                i = min(step * args.new_patterns // args.steps, args.new_patterns - 1)
                submit(
                    fresh[i],
                    rng.standard_normal(fresh[i].shape[0]),
                    priority=1,
                    tenant=f"tenant{(step + 1) % max(args.tenants, 1)}",
                )
            results.update(service.drain())
    completed = sum(1 for r in results.values() if r.status == COMPLETED)
    print(service.metrics_report())
    print()
    served = service.metrics.counter("jobs_completed")
    print(
        f"served {served} jobs in {t.elapsed:.3f} s "
        f"({served / max(t.elapsed, 1e-9):.1f} jobs/s, "
        f"cache {'on' if not args.no_cache else 'off'}, "
        f"{args.fleet_workers} fleet worker(s), {args.shards} shard(s), "
        f"{rejected} admission retries)"
    )
    if args.shards > 1:
        print(f"cache shard sizes: {service.cache.shard_sizes()}")
    return 0 if completed else 1


def cmd_check(args) -> int:
    """Run the requested check passes; exit 0 only if every pass is clean.

    Without mode flags, ``--lint`` is implied. ``--sched-fuzz N`` runs N
    seeded adversarial schedules of the threaded factorization on cube 8³,
    each compared bitwise against the sequential factor. Simulated
    communication has no mode here: the simulator checks it live (run
    ``scale`` with ``REPRO_CHECK=1``).
    """
    from repro.check import lint

    if args.sched_fuzz is not None and args.sched_fuzz < 1:
        raise ShapeError(f"--sched-fuzz must be a positive integer; got {args.sched_fuzz}")
    do_lint = args.lint or not args.sched_fuzz
    failed = False
    fuzz_workers = tuple(_parse_ranks(args.fuzz_workers, "--fuzz-workers"))

    if do_lint:
        paths = args.paths or ["src/repro"]
        findings = lint.lint_paths(paths)
        for f in findings:
            print(f.format())
        print(
            f"lint: {len(findings)} finding(s) in {', '.join(paths)}"
        )
        failed |= bool(findings)

    if args.sched_fuzz:
        from repro.check import schedfuzz

        solver = SparseSolver(
            MESH_KINDS["cube"](8), method=args.method, ordering=args.ordering
        )
        solver.analyze()
        try:
            results = schedfuzz.fuzz_smoke(
                solver.sym,
                n_seeds=args.sched_fuzz,
                workers=fuzz_workers,
                method=args.method,
            )
        except RaceError as exc:
            print(f"sched-fuzz: FAIL\n{exc}")
            failed = True
        else:
            print(
                f"sched-fuzz cube:8: {len(results)} fuzzed factor schedule(s) "
                f"over {args.sched_fuzz} seed(s) x workers "
                f"{list(fuzz_workers)}: all bitwise-identical"
            )

    return 1 if failed else 0


def cmd_obs(args) -> int:
    """One observed end-to-end run: analyze/factor/solve on the host plus a
    traced parallel simulation, all under span recording; then report and
    export."""
    from repro.obs import export as obs_export
    from repro.obs import spans as obs_spans
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import PlanOptions, simulate_factorization, simulate_solve

    if not args.mesh and not args.matrix:
        args.mesh = "plate:8"
    a = build_matrix(args)
    n = a.shape[0]
    machine = get_machine(args.machine)
    b = np.ones(n)
    with obs_spans.recording() as rec:
        solver = SparseSolver(a, method=args.method, ordering=args.ordering)
        solver.analyze()
        solver.factor(backend=args.backend, workers=args.workers)
        res = solver.solve(b, backend=args.backend, workers=args.workers)
        fres = simulate_factorization(
            solver.sym,
            args.ranks,
            machine,
            PlanOptions(nb=args.nb),
            method=args.method,
            threads_per_rank=args.threads,
            trace=True,
        )
        sres = simulate_solve(fres, b)

    registry = MetricsRegistry()
    registry.gauge("problem_n").set(n)
    registry.gauge("problem_nnz").set(solver.lower.nnz)
    registry.gauge("sim_ranks").set(args.ranks)
    registry.inc("sim_messages", fres.sim.ledger.n_messages)
    registry.inc("factor_flops", fres.total_flops)
    for name, (_count, total) in rec.phase_totals().items():
        registry.observe(name, total)
    front_buckets = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
    for front in rec.by_name("mf.front"):
        registry.observe("front_order", float(front.attrs["m"]), buckets=front_buckets)

    print(
        obs_export.report(
            rec,
            registry if args.metrics else None,
            machine,
            top_fronts=args.top_fronts,
            threads=args.threads,
        )
    )
    print()
    print(
        f"host residual {res.residual:.3e}; simulated factor "
        f"{fres.makespan * 1e3:.3f} ms on {args.ranks} ranks of "
        f"{machine.name} ({fres.gflops:.2f} GF/s, "
        f"{fres.peak_fraction * 100:.1f}% of peak), solve "
        f"{sres.makespan * 1e3:.3f} ms"
    )
    if args.trace_out:
        obs_export.write_chrome_trace(
            args.trace_out,
            recorder=rec,
            sim_trace=fres.sim.trace,
            include_comm=args.comm_events,
        )
        print(f"chrome trace written to {args.trace_out}")
    if args.prom_out:
        obs_export.write_prometheus(args.prom_out, registry)
        print(f"prometheus metrics written to {args.prom_out}")
    return 0 if res.residual < 1e-8 else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", help="generator problem, e.g. cube:12")
    p.add_argument("--matrix", help="Matrix Market file")
    p.add_argument("--method", default="cholesky", choices=["cholesky", "ldlt"])
    p.add_argument("--ordering", default="nd")


def _add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        default="seq",
        choices=["seq", "threads"],
        help="numeric execution backend: sequential host, or the "
        "shared-memory worker pool (bitwise identical results)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for --backend threads (default: auto)",
    )
    _add_precision(p)


def _add_precision(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--precision",
        default="fp64",
        choices=["fp64", "fp32"],
        help="working precision of the numeric factor; fp32 halves factor "
        "memory and recovers fp64 accuracy via iterative refinement "
        "(automatic fp64 re-factor when refinement stalls)",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="analyze and print symbolic statistics")
    _add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("solve", help="factor + solve, print diagnostics")
    _add_common(p)
    _add_backend(p)
    p.add_argument("--rhs", default="ones", choices=["ones", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-refine",
        action="store_true",
        help="one direct solve, no correction step (residual is still its "
        "normwise backward error)",
    )
    p.add_argument("--condest", action="store_true")
    p.add_argument(
        "--lu",
        action="store_true",
        help="use the unsymmetric LU solver (implied by convdiff meshes)",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("scale", help="simulated strong-scaling sweep")
    _add_common(p)
    p.add_argument("--ranks", default="1,2,4,8,16")
    p.add_argument("--machine", default="generic-cluster")
    p.add_argument("--policy", default="2d", choices=["2d", "1d", "static"])
    p.add_argument("--nb", type=int, default=32)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("compare", help="baseline solver comparison")
    _add_common(p)
    p.add_argument("--ranks", default="4,16")
    p.add_argument("--machine", default="bluegene-p")
    p.add_argument("--nb", type=int, default=32)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("suite", help="print the paper-suite inventory")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "serve-sim",
        help="replay a synthetic transient-FE trace through repro.service",
    )
    _add_common(p)
    _add_precision(p)
    p.add_argument(
        "--steps",
        type=int,
        default=20,
        help="refactor requests on the base pattern (values drift per step)",
    )
    p.add_argument(
        "--new-patterns",
        type=int,
        default=3,
        help="interleaved fresh-pattern requests (analysis-cache misses)",
    )
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--no-coalesce", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fleet-workers",
        type=int,
        default=1,
        metavar="N",
        help="serving worker slots draining the queue concurrently "
        "(1 = classic single-executor loop; results are bitwise "
        "identical at any worker count)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="analysis-cache shards (pattern-fingerprint hash)",
    )
    p.add_argument(
        "--tenants",
        type=int,
        default=1,
        help="synthetic tenants the trace round-robins submissions over",
    )
    p.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="max pending jobs per tenant (admission control; default: none)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="max pending jobs queue-wide (backpressure; default: unbounded)",
    )
    p.set_defaults(func=cmd_serve_sim)

    p = sub.add_parser(
        "check",
        help="static analysis and schedule fuzzing",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro)",
    )
    p.add_argument("--lint", action="store_true", help="run the AST lint rules")
    p.add_argument(
        "--sched-fuzz",
        type=int,
        metavar="N",
        help="run N seeded adversarial schedules of the threaded "
        "factorization on cube:8, asserting bitwise identity",
    )
    p.add_argument(
        "--fuzz-workers",
        default="2,4",
        metavar="W1,W2,...",
        help="worker counts the schedule fuzzer cycles through (default 2,4)",
    )
    p.add_argument("--method", default="cholesky", choices=["cholesky", "ldlt"])
    p.add_argument("--ordering", default="nd")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "obs",
        help="observed end-to-end run: span report, metrics, Chrome trace",
    )
    _add_common(p)
    _add_backend(p)
    p.add_argument("--ranks", type=int, default=4, help="simulated rank count")
    p.add_argument("--machine", default="generic-cluster")
    p.add_argument("--nb", type=int, default=32)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the merged Chrome trace-event JSON (host + sim ranks)",
    )
    p.add_argument(
        "--comm-events",
        action="store_true",
        help="include per-message instant events in the trace",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry report",
    )
    p.add_argument(
        "--top-fronts",
        type=int,
        default=0,
        metavar="K",
        help="print the K hottest fronts and measured-vs-modeled GFLOPS",
    )
    p.add_argument(
        "--prom-out",
        metavar="FILE",
        help="write Prometheus text exposition of the metrics",
    )
    p.set_defaults(func=cmd_obs)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
