"""Survivor-pair sampling for the Monte-Carlo static-resilience simulator.

Routability is defined over *ordered pairs of surviving nodes*;
:func:`sample_survivor_pair_arrays` samples such pairs uniformly given a
survival mask, as the two int64 arrays the batch engine routes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..validation import check_positive_int

__all__ = ["sample_survivor_pair_arrays"]


def sample_survivor_pair_arrays(
    alive: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` ordered (source, destination) pairs as two int64 arrays.

    Sampling is uniform over ordered pairs of distinct surviving nodes, with
    replacement across pairs (the same pair may be drawn twice), matching how
    simulation studies such as Gummadi et al. estimate the fraction of failed
    paths.

    Raises
    ------
    InvalidParameterError
        If fewer than two nodes survive — no pairs exist in that case and
        the caller should treat the trial as degenerate.
    """
    count = check_positive_int(count, "count")
    alive = np.asarray(alive, dtype=bool)
    survivors = np.flatnonzero(alive)
    if survivors.size < 2:
        raise InvalidParameterError(
            f"cannot sample pairs: only {survivors.size} node(s) survived"
        )
    sources = survivors[rng.integers(0, survivors.size, size=count)].astype(np.int64)
    destinations = survivors[rng.integers(0, survivors.size, size=count)].astype(np.int64)
    # Only colliding pairs need scalar redraws; resolving them in pair order,
    # one draw at a time, consumes the random stream exactly like redrawing
    # inside a per-pair loop would, so seeded results are stream-stable.
    for index in np.flatnonzero(destinations == sources):
        destination = destinations[index]
        while destination == sources[index]:
            destination = survivors[int(rng.integers(0, survivors.size))]
        destinations[index] = destination
    return sources, destinations
