"""R1 (schedule verification) — fuzzed-schedule sweep of the threaded factor.

Design choice probed: the shared-memory backend's bitwise-oracle contract
("any schedule produces the sequential bits") rests on the factor task
graph's edges being the assembly tree's, on every update row landing in
the parent's rows, and on dependency-counted scheduling — not on luck of
the schedule. This experiment manufactures 25 adversarial schedules
(seeded ready-queue permutations, forced preemptions, injected delays)
cycling workers through {2, 4, 8}, and asserts for every one that the
factor is **bitwise identical** to the sequential one. (The solve has no
threaded schedule: every factor is solved by the same class sweeps.)

Any failing case prints its replayable seed — re-running with that seed
reproduces the schedule byte-for-byte.
"""

import time
from collections import Counter

from harness import banner

from repro.check import schedfuzz
from repro.core.solver import SparseSolver
from repro.gen import grid3d_laplacian
from repro.util.tables import format_table

SIZE = 10  # 10^3 Laplacian, n = 1000: big enough for real task overlap
N_SEEDS = 25
WORKERS = (2, 4, 8)


def test_r1_sched_fuzz_sweep():
    lower = grid3d_laplacian(SIZE)
    solver = SparseSolver(lower)
    solver.analyze()
    sym = solver.sym

    start = time.perf_counter()
    results = schedfuzz.fuzz_smoke(
        sym, n_seeds=N_SEEDS, workers=WORKERS
    )  # raises RaceError (with replayable seeds) on any divergence
    elapsed = time.perf_counter() - start

    assert len(results) == N_SEEDS  # one factor per seed
    assert all(r.ok for r in results)

    by_workers = Counter(r.workers for r in results)
    rows = [[f"workers={w}", by_workers[w], "yes"] for w in WORKERS]
    banner(
        "R1",
        f"Fuzzed-schedule sweep (cube {SIZE}^3, n={sym.n}, "
        f"{N_SEEDS} seeds x factor, {elapsed:.2f} s)",
    )
    print(format_table(["schedule", "cases", "bitwise"], rows))
    print(
        f"\n{len(results)} fuzzed factor schedules: all bitwise-identical to "
        "sequential"
    )
