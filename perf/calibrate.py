"""Host-speed calibration: the unit every timing of the perf ledger is in.

Raw wall time on a small shared VM does not repeat within a tenth: the
same factor call swings by 20 % between back-to-back launches because the
host itself speeds up and slows down. The ratio of that call to a fixed
kernel run next to it is steady to a few percent. So every timed interval
is bracketed by samples of the kernel below and reported as

    calibrated = wall * CALIB_REF_S / mean(bracketing samples)

i.e. in seconds of a reference host on which the kernel takes exactly
``CALIB_REF_S``. The unit string of such a value is ``s_ref``.

The kernel mixes what the solver's hot paths are made of — fancy-index
gathers, small dense products, sorted searches, scalar extraction — and
imports nothing from ``repro``, so a change to the program cannot move
the yardstick it is measured with.
"""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import time

import numpy as np

#: seconds the kernel takes on the reference host (defines ``s_ref``)
CALIB_REF_S = 0.050
#: raw seconds of timed work after which the next sample is due
SAMPLE_EVERY_S = 0.5
#: most samples taken back to back
MAX_BURST = 3
#: kernel iterations per sample
KERNEL_ITERATIONS = 4000

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((40, 40))
_B = _rng.standard_normal((20, 20))
_IDX = np.sort(_rng.choice(40, size=24, replace=False))
_SORTED = np.sort(_rng.standard_normal(512))
_KEYS = _rng.standard_normal(16)


def kernel() -> float:
    """Run the calibration kernel once; returns its wall seconds."""
    a, b, idx, grid, keys = _A, _B, _IDX, _SORTED, _KEYS
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(KERNEL_ITERATIONS):
        sub = a[np.ix_(idx, idx)]
        prod = b @ b.T
        pos = np.searchsorted(grid, keys)
        acc += float(sub[0, 0]) + float(prod[0, 0]) + float(pos[0])
    return time.perf_counter() - t0


class Calibrator:
    """Kernel samples along one run and the scale they give an interval."""

    def __init__(self) -> None:
        #: perf_counter time each sample ended, and its duration
        self.times: list[float] = []
        self.durations: list[float] = []
        self._work_since_sample = 0.0

    def sample(self) -> None:
        d = kernel()
        self.times.append(time.perf_counter())
        self.durations.append(d)
        self._work_since_sample = 0.0

    def worked(self, raw_seconds: float) -> None:
        """Account timed work: one sample per ``SAMPLE_EVERY_S`` of it, at
        most ``MAX_BURST`` in a row (after a long request).

        Called between timed intervals only, so the kernel never runs
        inside one.
        """
        self._work_since_sample += raw_seconds
        due = min(int(self._work_since_sample / SAMPLE_EVERY_S), MAX_BURST)
        for _ in range(due):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor turning raw seconds of [start, end] into ``s_ref``.

        Averages every sample within one interval length of the interval,
        and always the two that bracket it. Host speed on a shared VM
        moves in bursts shorter than a second: a short request is judged
        by its immediate neighbours, a long one, which averages over many
        bursts itself, by proportionally more of them.
        """
        reach = end - start
        # A sample's own run time lies before its timestamp, so the last
        # sample that *ended* by `start` is the one just before the interval.
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = bisect.bisect_left(self.times, end)
        first = min(before, bisect.bisect_left(self.times, start - reach))
        last = max(after, bisect.bisect_right(self.times, end + reach) - 1)
        around = self.durations[first: last + 1]
        if not around:
            raise RuntimeError("interval has no calibration sample around it")
        return CALIB_REF_S / statistics.fmean(around)

    def host_metrics(self) -> dict[str, float]:
        """``host.calib_s`` (median) and ``host.calib_spread`` (IQR/median)."""
        med = statistics.median(self.durations)
        spread = 0.0
        if len(self.durations) >= 4:
            q1, _, q3 = statistics.quantiles(self.durations, n=4)
            spread = (q3 - q1) / med
        return {"host.calib_s": med, "host.calib_spread": spread}


def host_fingerprint(repo_root: str) -> dict[str, object]:
    """What a reader needs to know about the machine behind the numbers."""
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    commit = "unknown"  # the driver's checkout is not a git repository
    head = os.path.join(repo_root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(repo_root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "calib_ref_s": CALIB_REF_S,
    }
