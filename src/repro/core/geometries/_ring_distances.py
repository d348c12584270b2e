"""Shared helper for geometries whose distance is measured in ring *phases*.

For the ring (Chord) and small-world (Symphony) geometries the paper counts
distance in phases: a node at clockwise distance in ``[2^(h-1), 2^h)`` is
``h`` phases away, so ``n(h) = 2^(h-1)`` and the phases run from 1 to ``d``.
"""

from __future__ import annotations

import math

import numpy as np

from ...validation import check_identifier_length

__all__ = ["log_ring_distance_distribution"]

LN2 = math.log(2.0)


def log_ring_distance_distribution(d: int) -> np.ndarray:
    """``log n(h) = (h - 1) log 2`` for ``h = 1 .. d``."""
    d = check_identifier_length(d)
    h = np.arange(1, d + 1, dtype=float)
    return (h - 1.0) * LN2
