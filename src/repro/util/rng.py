"""Deterministic random-number handling.

All randomized code paths in the library accept either a seed or a
``numpy.random.Generator`` and normalize through :func:`make_rng`, so every
experiment is reproducible from a single integer.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20090101  # SC'09 vintage


def make_rng(seed=None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts ``None`` (library default seed, for reproducible experiments),
    an integer seed, or an existing Generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)
