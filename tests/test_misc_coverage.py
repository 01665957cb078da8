"""Small-surface tests for corners not covered elsewhere."""

import pytest

from repro.machine import BLUEGENE_P, GENERIC_CLUSTER, MachineModel, Torus3D
from repro.mf.accounting import FactorStats
from repro.parallel import hybrid_configurations
from repro.util.errors import ShapeError


class TestHybridConfigurations:
    def test_bgp_64_cores(self):
        cfgs = hybrid_configurations(64, BLUEGENE_P)
        assert (64, 1) in cfgs
        assert (16, 4) in cfgs  # BG/P has 4 hw threads
        assert all(r * t == 64 for r, t in cfgs)

    def test_thread_cap_respected(self):
        cfgs = hybrid_configurations(32, BLUEGENE_P)
        assert max(t for _, t in cfgs) <= BLUEGENE_P.max_threads_per_rank

    def test_invalid_cores(self):
        with pytest.raises(ShapeError):
            hybrid_configurations(0, BLUEGENE_P)

    def test_single_core(self):
        assert hybrid_configurations(1, GENERIC_CLUSTER) == [(1, 1)]


class TestFactorStats:
    def test_observe_front(self):
        s = FactorStats()
        s.observe_front(10, 2, 100)
        s.observe_front(20, 4, 400)
        assert s.front_orders == [10, 20]
        assert s.max_front_order == 20
        assert s.flops == 500
        assert s.n_fronts == 2


class TestTorusEdges:
    def test_single_rank(self):
        assert Torus3D().hops(0, 0, 1) == 0

    def test_prime_rank_count(self):
        t = Torus3D()
        # 7 ranks folds into 7x1x1; max wraparound distance is 3.
        assert t.hops(0, 3, 7) == 3
        assert t.hops(0, 4, 7) == 3


class TestMachineCompare:
    def test_smp_speedup_floor(self):
        m = MachineModel(
            name="x",
            flop_rate=1e9,
            dense_efficiency=0.5,
            small_kernel_efficiency=0.1,
            kernel_crossover=10,
            mem_bandwidth=1e9,
            alpha=1e-6,
            alpha_hop=0.0,
            beta=1e-9,
            max_threads_per_rank=64,
            smp_efficiency_slope=0.5,
        )
        # Efficiency clamps at 0.1 per thread, never negative speedup.
        assert m.smp_speedup(64) > 0
