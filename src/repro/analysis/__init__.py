"""Performance analysis and reporting.

Turns simulation results into the rows the paper's tables and figures
report: scaling series (time, GFLOPS, efficiency, communication fraction,
memory), load-imbalance statistics, and plain-text tables.
"""

from repro.analysis.metrics import (
    ScalingPoint,
    scaling_point,
    scaling_series,
    load_imbalance,
)
from repro.analysis.report import (
    render_scaling_table,
    render_series,
)
from repro.analysis.model import (
    predict_factor_time,
    predict_factor_time_from_plan,
    predict_scaling,
)
from repro.analysis.memory import (
    predict_rank_entries,
    predict_peak_bytes_per_rank,
    min_feasible_ranks,
)

__all__ = [
    "ScalingPoint",
    "scaling_point",
    "scaling_series",
    "load_imbalance",
    "render_scaling_table",
    "render_series",
    "predict_factor_time",
    "predict_factor_time_from_plan",
    "predict_scaling",
    "predict_rank_entries",
    "predict_peak_bytes_per_rank",
    "min_feasible_ranks",
]
