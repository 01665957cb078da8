"""T6 — phase breakdown: analysis vs numeric factorization vs solve.

Paper analogue: the phase-cost table solver papers report (one symbolic
analysis amortizes over many factorizations; one factorization over many
solves). Host wall time for the (Python) analysis phase; simulated
machine time for the numeric phases.
"""

import time

import numpy as np

from harness import NB, analyzed, banner

from repro.gen import get_paper_matrix
from repro.graph import AdjacencyGraph
from repro.machine import BLUEGENE_P
from repro.ordering import nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization, simulate_solve
from repro.symbolic import analyze as run_analyze
from repro.util.tables import format_table

MATRICES = ["cube-s", "cube-m", "elast-m", "plate-l"]


def test_t6_phase_breakdown(benchmark):
    rows = []
    for name in MATRICES:
        lower = get_paper_matrix(name).build()
        start = time.perf_counter()
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = run_analyze(lower, nested_dissection_order(g))
        elapsed = time.perf_counter() - start
        fres = simulate_factorization(sym, 1, BLUEGENE_P, PlanOptions(nb=NB))
        sres = simulate_solve(fres, np.ones(sym.n))
        rows.append(
            [
                name,
                sym.n,
                round(elapsed, 3),
                round(fres.makespan * 1e3, 3),
                round(sres.makespan * 1e3, 4),
                round(fres.makespan / sres.makespan, 1),
            ]
        )
    banner("T6", "Phase breakdown: analyze (host) vs factor vs solve (sim, p=1)")
    print(
        format_table(
            [
                "matrix",
                "n",
                "analyze [s, host]",
                "factor [ms, sim]",
                "solve [ms, sim]",
                "factor/solve",
            ],
            rows,
        )
    )

    # Shape: factorization dominates a single solve on every 3D matrix.
    for r in rows:
        if r[0].startswith("cube") or r[0].startswith("elast"):
            assert r[5] > 3

    sym = analyzed("cube-m")
    fres = simulate_factorization(sym, 1, BLUEGENE_P, PlanOptions(nb=NB))
    benchmark.pedantic(
        lambda: simulate_solve(fres, np.ones(sym.n)), rounds=1, iterations=1
    )
