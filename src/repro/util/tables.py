"""Plain-text table formatting for benchmark output.

The benchmark harness prints the same rows the paper's tables report; this
module renders them in aligned monospace without any third-party dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        a = abs(value)
        if a >= 1e5 or a < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str | None = None,
) -> str:
    """Render *rows* under *headers* as an aligned ASCII table string."""
    str_rows = [[_fmt_cell(c) for c in row] for row in rows]
    ncol = len(headers)
    for r in str_rows:
        if len(r) != ncol:
            raise ValueError(f"row has {len(r)} cells, expected {ncol}")
    widths = [len(h) for h in headers]
    for r in str_rows:
        for j, c in enumerate(r):
            widths[j] = max(widths[j], len(c))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
