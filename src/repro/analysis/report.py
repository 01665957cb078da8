"""Plain-text rendering of scaling results (the benchmark harness output)."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.metrics import ScalingPoint
from repro.util.tables import format_table


def render_scaling_table(
    points: Sequence[ScalingPoint], title: str | None = None
) -> str:
    """The canonical strong-scaling table: one row per rank count."""
    headers = [
        "ranks",
        "threads",
        "time [ms]",
        "speedup",
        "eff",
        "Gflop/s",
        "%peak",
        "comm%",
        "msgs",
        "MB moved",
    ]
    rows = []
    for pt in points:
        rows.append(
            [
                pt.n_ranks,
                pt.threads_per_rank,
                pt.time * 1e3,
                pt.speedup,
                pt.efficiency,
                pt.gflops,
                pt.peak_fraction * 100,
                pt.comm_fraction * 100,
                pt.n_messages,
                pt.total_bytes / 1e6,
            ]
        )
    return format_table(headers, rows, title=title)


def render_series(
    x_label: str,
    xs: Sequence,
    columns: dict[str, Sequence],
    title: str | None = None,
) -> str:
    """Generic x-vs-columns table (figure-as-text output)."""
    headers = [x_label] + list(columns)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [col[i] for col in columns.values()])
    return format_table(headers, rows, title=title)
