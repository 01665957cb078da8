"""Tests for repro.machine: model arithmetic, topologies, presets."""

import pytest

from repro.machine import (
    MachineModel,
    FlatTopology,
    Torus3D,
    FatTree,
    BLUEGENE_P,
    POWER5_CLUSTER,
    GENERIC_CLUSTER,
    get_machine,
)
from repro.util.errors import ShapeError


def simple_machine(**over):
    kw = dict(
        name="t",
        flop_rate=1e9,
        dense_efficiency=0.8,
        small_kernel_efficiency=0.1,
        kernel_crossover=64,
        mem_bandwidth=1e9,
        alpha=1e-6,
        alpha_hop=1e-7,
        beta=1e-9,
    )
    kw.update(over)
    return MachineModel(**kw)


class TestTopologies:
    def test_flat(self):
        t = FlatTopology()
        assert t.hops(0, 0, 8) == 0
        assert t.hops(0, 7, 8) == 1

    def test_torus_self(self):
        assert Torus3D().hops(3, 3, 64) == 0

    def test_torus_neighbors(self):
        t = Torus3D()
        # 64 ranks -> 4x4x4; ranks 0 and 1 differ by one x step.
        assert t.hops(0, 1, 64) == 1

    def test_torus_wraparound(self):
        t = Torus3D()
        # 8 ranks -> 2x2x2: max distance is 3 (1 per dim)
        dmax = max(t.hops(0, b, 8) for b in range(8))
        assert dmax == 3

    def test_torus_symmetry(self):
        t = Torus3D()
        for a in range(0, 27, 5):
            for b in range(0, 27, 7):
                assert t.hops(a, b, 27) == t.hops(b, a, 27)

    def test_torus_dims_cover(self):
        for p in (1, 2, 6, 17, 64, 100):
            x, y, z = Torus3D._dims(p)
            assert x * y * z == p

    def test_fattree_same_switch(self):
        t = FatTree(radix=4)
        assert t.hops(0, 3, 64) == 2
        assert t.hops(0, 0, 64) == 0

    def test_fattree_deeper(self):
        t = FatTree(radix=4)
        assert t.hops(0, 4, 64) == 4
        assert t.hops(0, 16, 64) == 6

    def test_fattree_bad_radix(self):
        with pytest.raises(ValueError):
            FatTree(radix=1)


class TestMachineModel:
    def test_compute_time_scaling(self):
        m = simple_machine()
        assert m.compute_time(2e9) == pytest.approx(2 * m.compute_time(1e9))

    def test_kernel_efficiency_monotone(self):
        m = simple_machine()
        effs = [m.kernel_efficiency(k) for k in (1, 10, 100, 1000, 100000)]
        assert all(b >= a for a, b in zip(effs, effs[1:]))
        assert effs[0] >= m.small_kernel_efficiency
        assert effs[-1] <= m.dense_efficiency

    def test_small_front_slower(self):
        m = simple_machine()
        assert m.compute_time(1e6, front_order=4) > m.compute_time(1e6, front_order=4096)

    def test_smp_speedup(self):
        m = simple_machine(max_threads_per_rank=4, smp_efficiency_slope=0.05)
        assert m.smp_speedup(1) == 1.0
        assert 1.0 < m.smp_speedup(2) <= 2.0
        assert m.smp_speedup(8) == m.smp_speedup(4)  # capped

    def test_smp_invalid_threads(self):
        with pytest.raises(ShapeError):
            simple_machine().smp_speedup(0)

    def test_validation(self):
        with pytest.raises(ShapeError):
            simple_machine(flop_rate=-1)
        with pytest.raises(ShapeError):
            simple_machine(dense_efficiency=1.5)
        with pytest.raises(ShapeError):
            simple_machine(small_kernel_efficiency=0.9)
        with pytest.raises(ShapeError):
            simple_machine(alpha=-1e-6)

    def test_peak_gflops(self):
        m = simple_machine()
        assert m.peak_gflops() == pytest.approx(1.0)


class TestPresets:
    def test_lookup(self):
        assert get_machine("bluegene-p") is BLUEGENE_P
        assert get_machine("power5-cluster") is POWER5_CLUSTER
        assert get_machine("generic-cluster") is GENERIC_CLUSTER

    def test_unknown(self):
        with pytest.raises(ShapeError):
            get_machine("cray-xt5")

    def test_power5_faster_core_than_bgp(self):
        # The paper's contrast: fewer fat cores vs many slim ones.
        assert POWER5_CLUSTER.flop_rate > BLUEGENE_P.flop_rate

    def test_bgp_lower_latency_network(self):
        assert BLUEGENE_P.alpha < POWER5_CLUSTER.alpha
