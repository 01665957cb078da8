"""The extend-add operation.

Adds a child's update (Schur complement) matrix into its parent's front at
the positions the analysis compiled: ``rel[i]`` is the row (and column) of
the parent's front that row ``i`` of the update lands on
(:attr:`repro.symbolic.front_plan.FrontPlan.rel`). ``rel`` is increasing,
so lower-triangle entries map to lower-triangle entries.

Both matrices follow the lower-triangle-meaningful convention, and the
strict upper triangle of either is *unspecified*: the dense kernels write
it and never read it, and so does this module — a symmetric update is
added in row tiles that each cover the lower triangle and whatever of the
upper triangle the tile's rectangle happens to include.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ShapeError

#: most entries one step of the add touches. The index tile, the gathered
#: front entries and their sum are temporaries of this many entries, so the
#: add costs the same small working memory for every update size.
CHUNK_ENTRIES = 4096


def extend_add(
    front: np.ndarray, update: np.ndarray, rel: np.ndarray, lower: bool = True
) -> None:
    """``front[rel[i], rel[j]] += update[i, j]``, in place.

    With *lower* (symmetric fronts) every ``j <= i`` is added exactly once
    and the strict upper triangle of *front* is left unspecified; without
    it (LU fronts) the whole square is added. *rel* must hold distinct
    in-range positions — the analysis guarantees it, nothing is re-checked
    here.
    """
    mu = rel.size
    if update.shape != (mu, mu):
        raise ShapeError(f"update shape {update.shape} != ({mu}, {mu}) of its row map")
    if not front.flags.c_contiguous:
        # reshape would hand back a copy and the add would be lost
        raise ShapeError("extend_add needs a C-contiguous front")
    if mu == 0:
        return
    flat = front.reshape(-1)
    cols = rel.astype(np.intp)
    row_base = cols * front.shape[1]
    step = max(1, CHUNK_ENTRIES // mu)
    for r0 in range(0, mu, step):
        r1 = min(r0 + step, mu)
        nc = r1 if lower else mu
        flat[row_base[r0:r1, None] + cols[:nc]] += update[r0:r1, :nc]
