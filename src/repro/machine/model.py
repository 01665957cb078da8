"""The α-β-γ machine model.

Times charged by the simulated runtime:

* compute: ``flops · γ_eff`` where ``γ_eff`` accounts for the kernel's
  arithmetic intensity (small fronts run at memory-bound rates, large
  fronts approach peak — the roll-off the paper's GFLOPS plots show);
* memory traffic: ``bytes / mem_bandwidth`` (assembly, packing);
* messages: ``α + hops·α_hop + bytes·β``, which the simulator's scheduler
  charges as an injection ``α + bytes·β`` and a flight ``hops·α_hop``.

An SMP efficiency curve models hybrid MPI+threads ranks: ``t`` threads give
``t · smp_efficiency(t)`` times the single-thread flop rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.topology import Topology, FlatTopology
from repro.util.errors import ShapeError


@dataclass(frozen=True)
class MachineModel:
    """A simulated parallel machine.

    Parameters are per *process* (MPI rank); ``threads_per_rank`` scales
    the effective flop rate through the SMP efficiency curve.
    """

    name: str
    #: peak flop rate of one core [flop/s]
    flop_rate: float
    #: achievable fraction of peak for large dense kernels (0..1]
    dense_efficiency: float
    #: fraction of peak for latency/memory-bound small kernels
    small_kernel_efficiency: float
    #: front order at which efficiency is halfway between the two regimes
    kernel_crossover: int
    #: memory bandwidth per rank [bytes/s]
    mem_bandwidth: float
    #: message startup latency [s]
    alpha: float
    #: extra latency per network hop [s]
    alpha_hop: float
    #: inverse bandwidth [s/byte]
    beta: float
    topology: Topology = field(default_factory=FlatTopology)
    #: hardware threads usable per rank
    max_threads_per_rank: int = 1
    #: parallel efficiency lost per extra thread (linear model)
    smp_efficiency_slope: float = 0.03

    def __post_init__(self) -> None:
        if self.flop_rate <= 0 or self.mem_bandwidth <= 0:
            raise ShapeError("rates must be positive")
        if not (0 < self.dense_efficiency <= 1):
            raise ShapeError("dense_efficiency must be in (0, 1]")
        if not (0 < self.small_kernel_efficiency <= self.dense_efficiency):
            raise ShapeError(
                "small_kernel_efficiency must be in (0, dense_efficiency]"
            )
        if self.alpha < 0 or self.beta < 0 or self.alpha_hop < 0:
            raise ShapeError("latency parameters must be non-negative")

    # -- compute ---------------------------------------------------------

    def kernel_efficiency(self, front_order: int) -> float:
        """Fraction of peak achieved by a dense kernel on a front of the
        given order (smooth interpolation between the two regimes)."""
        lo = self.small_kernel_efficiency
        hi = self.dense_efficiency
        x = front_order / max(self.kernel_crossover, 1)
        blend = x / (1.0 + x)
        return lo + (hi - lo) * blend

    def compute_time(self, flops: float, front_order: int = 1_000_000, threads: int = 1) -> float:
        """Seconds to execute *flops* on a kernel of the given front order
        with *threads* SMP threads."""
        eff = self.kernel_efficiency(front_order)
        rate = self.flop_rate * eff * self.smp_speedup(threads)
        return flops / rate

    def mem_time(self, nbytes: float) -> float:
        """Seconds for *nbytes* of streaming memory traffic."""
        return nbytes / self.mem_bandwidth

    def smp_speedup(self, threads: int) -> float:
        """Effective speedup of *threads* threads within one rank."""
        if threads < 1:
            raise ShapeError("threads must be >= 1")
        t = min(threads, self.max_threads_per_rank)
        eff = max(1.0 - self.smp_efficiency_slope * (t - 1), 0.1)
        return t * eff

    def peak_gflops(self, threads: int = 1) -> float:
        """Peak rate of one rank in Gflop/s (for %-of-peak reporting)."""
        return self.flop_rate * self.smp_speedup(threads) / 1e9
