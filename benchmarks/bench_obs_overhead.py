"""OBS — observability overhead guard.

Two contracts from the observability layer, asserted (loosely) so CI
catches regressions:

* **bit-identity** — the numeric factor with span recording enabled
  (phase spans plus one ``mf.front`` span per front) is bitwise
  identical to the factor with observability off;
* **~zero disabled cost** — with no recorder installed, the instrumented
  phases pay one global read per ``span()`` call (a shared no-op object),
  so a disabled ``span()`` call must stay within a microsecond-scale
  budget and the end-to-end factor time must not blow up relative to an
  enabled run.
"""

import statistics
import time

import numpy as np

from harness import analyzed, banner

from repro.mf.numeric import multifrontal_factor
from repro.obs.spans import recording, span
from repro.util.tables import format_table

MATRIX = "cube-s"
REPS = 5


def _factor_seconds(sym, enabled: bool) -> tuple[float, list[np.ndarray]]:
    times = []
    blocks = None
    for _ in range(REPS):
        # Plain clock reads: a timer span would land in the recording
        # being measured.
        start = time.perf_counter()
        if enabled:
            with recording():
                nf = multifrontal_factor(sym)
        else:
            nf = multifrontal_factor(sym)
        times.append(time.perf_counter() - start)
        blocks = nf.blocks
    return statistics.median(times), blocks


def test_obs_overhead_and_bit_identity():
    sym = analyzed(MATRIX)

    t_off, blocks_off = _factor_seconds(sym, enabled=False)
    t_on, blocks_on = _factor_seconds(sym, enabled=True)

    # Contract 1: observability never changes answer bits.
    assert len(blocks_off) == len(blocks_on)
    for b_off, b_on in zip(blocks_off, blocks_on):
        assert np.array_equal(b_off, b_on), "obs changed factor bits"

    # Contract 2a: a disabled span() call is a cheap no-op.
    n_calls = 200_000
    start = time.perf_counter()
    for _ in range(n_calls):
        with span("bench.noop", k=1):
            pass
    elapsed = time.perf_counter() - start
    ns_per_call = elapsed / n_calls * 1e9
    assert ns_per_call < 10_000, (
        f"disabled span() costs {ns_per_call:.0f} ns/call — the no-op path "
        "regressed (budget 10 µs, typical <1 µs)"
    )

    # Contract 2b: the disabled factor is not slower than the enabled one
    # beyond noise (loose 1.5x: same code path minus recording).
    assert t_off <= t_on * 1.5 + 0.05, (
        f"factor with obs OFF ({t_off:.4f}s) much slower than ON "
        f"({t_on:.4f}s) — disabled path regressed"
    )

    banner("OBS", "Observability overhead (median of %d reps)" % REPS)
    print(
        format_table(
            ["config", "factor [s]", "relative"],
            [
                ["obs off", round(t_off, 4), 1.0],
                [
                    "obs on (spans+fronts)",
                    round(t_on, 4),
                    round(t_on / t_off, 3) if t_off > 0 else float("nan"),
                ],
            ],
            title=f"multifrontal factor on {MATRIX}",
        )
    )
    print(f"disabled span() cost: {ns_per_call:.0f} ns/call")
