"""Frontal-matrix assembly.

A supernode's front is a dense symmetric matrix of order
``len(sn_rows[s])`` whose leading ``width`` columns correspond to the
supernode's own columns; only the lower triangle is meaningful. Assembly
scatters the supernode's columns of the permuted input matrix into the
front, to the positions the analysis compiled
(:mod:`repro.symbolic.front_plan`); children's update matrices are added
by :func:`repro.mf.extend_add.extend_add`. An LU front is the full square
instead (:func:`assemble_full_front`).
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.analyze import SymbolicFactor
from repro.symbolic.front_plan import FrontPlan
from repro.util.validation import VALUE_DTYPE


def assemble_front(
    sym: SymbolicFactor, s: int, dtype: np.dtype = VALUE_DTYPE
) -> np.ndarray:
    """Allocate and fill the front of supernode *s* from ``sym.permuted_lower``.

    *dtype* is the working dtype of the front (fp32 for mixed-precision
    fronts; the always-fp64 input entries are rounded once, here, at
    assembly).

    Returns the m×m front with A's entries scattered into the leading
    *width* columns of its lower triangle and zeros elsewhere.
    """
    plan = sym.front_plan
    m = plan.order[s]
    lo, hi = plan.a_ptr[s], plan.a_ptr[s + 1]
    front = np.zeros((m, m), dtype=dtype)
    front.reshape(-1)[plan.a_pos[lo:hi]] = sym.permuted_lower.data[lo:hi]
    return front


def assemble_full_front(
    plan: FrontPlan, s: int, data: np.ndarray, dtype: np.dtype = VALUE_DTYPE
) -> np.ndarray:
    """LU's front of supernode *s*: the full m×m matrix with the entries of
    its pivot rows and pivot columns scattered in through the plan's LU
    table. *data* is the ``data`` of the permuted full matrix the table was
    compiled for."""
    m = plan.order[s]
    lo, hi = plan.full_ptr[s], plan.full_ptr[s + 1]
    front = np.zeros((m, m), dtype=dtype)
    front.reshape(-1)[plan.full_pos[lo:hi]] = data[plan.full_src[lo:hi]]
    return front
