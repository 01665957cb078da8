"""Column counts and factor cost metrics.

Counts derive from the symbolic patterns; the flop counter follows the
standard dense-Cholesky convention (n³/3-type counts) applied per column:
eliminating column j with ``c = colcount[j]`` entries (diagonal included)
costs

* 1 square root,
* ``c - 1`` divisions,
* ``(c - 1) * c / 2`` multiply-add pairs for the outer-product update,

counted as ``(c - 1)² + 3(c - 1) + 1 ≈`` 2·madds + divs + sqrt flops. We
report "flops" as ``divisions + 2 * madds`` which matches the common
"factor operations" figure papers in this family quote (≈ n³/3 · 2 for
dense).
"""

from __future__ import annotations

import numpy as np


def factor_flops_from_counts(col_counts: np.ndarray) -> int:
    """Total factorization flops from per-column counts (see module doc)."""
    below = col_counts.astype(np.int64) - 1
    divisions = below
    madds = below * (below + 1) // 2
    return int(np.sum(divisions + 2 * madds))


def solve_flops_from_counts(col_counts: np.ndarray) -> int:
    """Flops of one forward+backward substitution pair (2 madd-flops per
    stored off-diagonal entry per sweep, plus a division per column per
    sweep)."""
    below = col_counts.astype(np.int64) - 1
    per_sweep = int(np.sum(2 * below + 1))
    return 2 * per_sweep
