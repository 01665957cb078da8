"""Cross-commit pin of the simulated machine.

The T/F/A shape claims rest on simulated outputs that are a pure function
of structure and machine model, so they must not move by one bit when the
host-side code that produces them is refactored. Each case asserts exact
equality (``float.hex``) of ``(factor_time, solve_time, n_messages,
total_bytes)`` — plus the solve simulation's own message count and bytes —
with values recorded at commit f65200c.

To re-record after an *intended* change of the simulated machine, run
``PYTHONPATH=src python tests/test_sim_golden.py`` and paste the output
over ``GOLDEN`` — and say in the PR which tables move.
"""

import itertools

import numpy as np
import pytest

from repro.core import ParallelConfig, SparseSolver
from repro.gen import convection_diffusion2d, grid2d_9pt, grid3d_laplacian
from repro.machine import BLUEGENE_P, GENERIC_CLUSTER
from repro.parallel import simulate_solve
from repro.util.rng import make_rng

MESHES = {"cube8": lambda: grid3d_laplacian(8), "plate24": lambda: grid2d_9pt(24)}

GRID = [
    f"{mesh}-p{p}-{policy}-{method}"
    for mesh, p, policy, method in itertools.product(
        MESHES, (4, 16), ("2d", "1d", "static"), ("cholesky", "ldlt")
    )
]

GOLDEN = {
    "cube8-p4-2d-cholesky": ("0x1.cd07b034b4d1ep-10", "0x1.d48d9dd821be2p-12", 298, 303212, 174, 35192),
    "cube8-p4-2d-ldlt": ("0x1.ec97d517290c6p-10", "0x1.d48d9dd821be2p-12", 343, 309372, 174, 35192),
    "cube8-p4-1d-cholesky": ("0x1.eaf742034a9ebp-10", "0x1.d48d9dd821be2p-12", 361, 300100, 174, 35192),
    "cube8-p4-1d-ldlt": ("0x1.04b70a56272aap-9", "0x1.d48d9dd821be2p-12", 406, 308308, 174, 35192),
    "cube8-p4-static-cholesky": ("0x1.1ab299370542fp-9", "0x1.db5a3882a06f6p-11", 274, 404464, 342, 71616),
    "cube8-p4-static-ldlt": ("0x1.1e319808f62a4p-9", "0x1.db5a3882a06f6p-11", 289, 406512, 342, 71616),
    "cube8-p16-2d-cholesky": ("0x1.c8247630f4b68p-10", "0x1.a43cc5faa4073p-11", 1560, 883272, 901, 160216),
    "cube8-p16-2d-ldlt": ("0x1.06dd6e42da892p-9", "0x1.a43cc5faa4073p-11", 1832, 918920, 901, 160216),
    "cube8-p16-1d-cholesky": ("0x1.7cd743d7ce1bap-9", "0x1.a43cc5faa4073p-11", 2282, 1299340, 901, 160216),
    "cube8-p16-1d-ldlt": ("0x1.a04091350aca0p-9", "0x1.a43cc5faa4073p-11", 2554, 1347884, 901, 160216),
    "cube8-p16-static-cholesky": ("0x1.d33f41188fc94p-10", "0x1.60bcd79575e58p-11", 599, 550940, 537, 104872),
    "cube8-p16-static-ldlt": ("0x1.e13b3c6053666p-10", "0x1.60bcd79575e58p-11", 674, 560636, 537, 104872),
    "plate24-p4-2d-cholesky": ("0x1.25ab65d48eeacp-12", "0x1.5897c84d00226p-13", 54, 33804, 69, 12024),
    "plate24-p4-2d-ldlt": ("0x1.4fa972c1e9d92p-12", "0x1.5897c84d00226p-13", 71, 36132, 69, 12024),
    "plate24-p4-1d-cholesky": ("0x1.4c7d3bf7e001cp-12", "0x1.5897c84d00226p-13", 67, 38976, 69, 12024),
    "plate24-p4-1d-ldlt": ("0x1.75c506b52e03ep-12", "0x1.5897c84d00226p-13", 84, 41968, 69, 12024),
    "plate24-p4-static-cholesky": ("0x1.a4a59259a77adp-11", "0x1.5ffc579ce1447p-11", 136, 143884, 272, 54056),
    "plate24-p4-static-ldlt": ("0x1.a4a59259a77adp-11", "0x1.5ffc579ce1447p-11", 136, 143884, 272, 54056),
    "plate24-p16-2d-cholesky": ("0x1.2f4353fdfeea6p-11", "0x1.92cdcf5a5e3e3p-12", 503, 227004, 494, 80000),
    "plate24-p16-2d-ldlt": ("0x1.74a315e624a9fp-11", "0x1.92cdcf5a5e3e3p-12", 641, 244076, 494, 80000),
    "plate24-p16-1d-cholesky": ("0x1.8bb97e2b351e7p-11", "0x1.92cdcf5a5e3e3p-12", 634, 296020, 494, 80000),
    "plate24-p16-1d-ldlt": ("0x1.d31135ac4a664p-11", "0x1.92cdcf5a5e3e3p-12", 772, 319428, 494, 80000),
    "plate24-p16-static-cholesky": ("0x1.0ba06cde81271p-11", "0x1.6978fd33165e9p-12", 146, 158252, 292, 58408),
    "plate24-p16-static-ldlt": ("0x1.0ba06cde81271p-11", "0x1.6978fd33165e9p-12", 146, 158252, 292, 58408),
    "panel-k4": ("0x1.8307ab8b4bde3p-12", "0x1.ef5b9e5e26103p-13", 302, 490800, 287, 213472),
    "lu": ("0x1.ef8baf1c9507cp-13", "0x1.c8c1e88e911c7p-13", 150, 49724, 168, 19344),
    "ledger-cube16-p64": ("0x1.c6cab86e6589cp-7", "0x1.86011abc93214p-10", 4769, 31169104, 3710, 1907512),
}


def pin(factor_sim, solve_sim):
    fl, sl = factor_sim.ledger, solve_sim.ledger
    return (
        float(factor_sim.makespan).hex(),
        float(solve_sim.makespan).hex(),
        fl.n_messages,
        fl.total_bytes,
        sl.n_messages,
        sl.total_bytes,
    )


def pin_report(rep):
    assert (rep.n_messages, rep.total_bytes) == (
        rep.factor_result.sim.ledger.n_messages,
        rep.factor_result.sim.ledger.total_bytes,
    )
    assert (rep.factor_time, rep.solve_time) == (
        rep.factor_result.makespan,
        rep.solve_result.makespan,
    )
    return pin(rep.factor_result.sim, rep.solve_result.sim)


_solvers = {}


def solver_for(mesh, method):
    if (mesh, method) not in _solvers:
        s = SparseSolver(MESHES[mesh](), method=method)
        s.analyze()
        _solvers[mesh, method] = s
    return _solvers[mesh, method]


def run_grid(case):
    mesh, p, policy, method = case.split("-")
    solver = solver_for(mesh, method)
    config = ParallelConfig(
        n_ranks=int(p[1:]), machine=BLUEGENE_P, nb=8, policy=policy
    )
    return pin_report(solver.simulate(config, b=np.ones(solver.lower.shape[0])))


def run_panel_k4():
    solver = solver_for("cube8", "cholesky")
    n = solver.lower.shape[0]
    config = ParallelConfig(n_ranks=8, machine=GENERIC_CLUSTER, nb=16)
    fres = solver.simulate(config).factor_result
    sres = simulate_solve(fres, make_rng(4).standard_normal((n, 4)))
    return pin(fres.sim, sres.sim)


def run_lu():
    a = convection_diffusion2d(12, wind=(1.0, -0.4), peclet=1.5)
    solver = SparseSolver(a, method="lu")
    config = ParallelConfig(n_ranks=8, machine=BLUEGENE_P, nb=8)
    res = solver.simulate(config).factor_result
    return pin(res.sim, simulate_solve(res, np.ones(a.shape[0])).sim)


def run_ledger():
    """The perf ledger's own sim-cube-l-p64 configuration."""
    a = grid3d_laplacian(16)
    config = ParallelConfig(n_ranks=64, machine=BLUEGENE_P, nb=32)
    return pin_report(SparseSolver(a).simulate(config, b=np.ones(a.shape[0])))


SINGLES = {"panel-k4": run_panel_k4, "lu": run_lu, "ledger-cube16-p64": run_ledger}


@pytest.mark.parametrize("case", GRID)
def test_grid(case):
    assert run_grid(case) == GOLDEN[case]


@pytest.mark.parametrize("case", SINGLES)
def test_single(case):
    assert SINGLES[case]() == GOLDEN[case]


def test_ledger_values_match_the_issue():
    """The four numbers the perf ledger reports for sim-cube-l-p64."""
    ft, st, msgs, nbytes = GOLDEN["ledger-cube16-p64"][:4]
    assert float.fromhex(ft) == 0.013879146627726428
    assert float.fromhex(st) == 0.0014877483910310562
    assert (msgs, nbytes) == (4769, 31169104)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in GRID:
        print(f"    {case!r}: {run_grid(case)!r},")
    for case, fn in SINGLES.items():
        print(f"    {case!r}: {fn()!r},")
    print("}")
