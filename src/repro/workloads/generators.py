"""Workload and sweep generators shared by experiments and benchmarks.

The paper's figures are parameter sweeps; these helpers generate the sweep
grids (failure probabilities, system sizes) with the same ranges the paper
uses, plus scaled-down "fast" variants for CI and benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..validation import check_failure_probability, check_identifier_length, check_positive_int

__all__ = [
    "failure_probability_grid",
    "paper_failure_probabilities",
    "system_size_grid",
    "paper_system_sizes",
    "PairWorkload",
    "DEFAULT_BASE_SEED",
]

#: The default base seed of every seeded sweep (the paper's arXiv
#: submission date): the runner, the library sweeps, the CLI and the service.
DEFAULT_BASE_SEED = 20060328


def failure_probability_grid(start: float = 0.0, stop: float = 0.9, step: float = 0.1) -> Tuple[float, ...]:
    """An inclusive, evenly spaced grid of failure probabilities.

    Values are rounded to 10 decimal places so grids built with float steps
    compare equal across call sites.
    """
    start = check_failure_probability(start)
    stop = check_failure_probability(stop)
    if step <= 0.0:
        raise InvalidParameterError(f"step must be positive, got {step}")
    if stop < start:
        raise InvalidParameterError("stop must not be smaller than start")
    count = int(round((stop - start) / step)) + 1
    values = [round(start + i * step, 10) for i in range(count)]
    return tuple(v for v in values if v <= 1.0)


def paper_failure_probabilities(*, fast: bool = False) -> Tuple[float, ...]:
    """The q sweep of the paper's Figures 6 and 7(a): 0% to 90% node failure.

    ``fast=True`` thins the grid to every 15 percentage points for quick
    benchmark runs; the shape of the curves is preserved.
    """
    if fast:
        return (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
    return failure_probability_grid(0.0, 0.9, 0.05)


def system_size_grid(min_exponent: int, max_exponent: int) -> Tuple[int, ...]:
    """Power-of-two system sizes ``2^min_exponent .. 2^max_exponent``.

    The grid is always exact powers of two (the paper assumes fully
    populated spaces).
    """
    min_exponent = check_identifier_length(min_exponent)
    max_exponent = check_identifier_length(max_exponent)
    if max_exponent < min_exponent:
        raise InvalidParameterError("max_exponent must not be smaller than min_exponent")
    return tuple(1 << e for e in range(min_exponent, max_exponent + 1))


def paper_system_sizes(*, fast: bool = False) -> Tuple[int, ...]:
    """The N sweep of Figure 7(b): from tiny networks up to ~10^10 nodes (2^34).

    ``fast=True`` uses every fourth exponent.
    """
    exponents = range(4, 35, 4 if fast else 1)
    return tuple(1 << e for e in exponents)


@dataclass(frozen=True)
class PairWorkload:
    """A Monte-Carlo pair-sampling workload specification.

    Attributes
    ----------
    pairs:
        Surviving (source, destination) pairs sampled per failure pattern.
    trials:
        Independent failure patterns per parameter point.
    seed:
        Base random seed; experiments derive per-geometry seeds from it so
        curves for different geometries are independent but reproducible.
    """

    pairs: int = 2000
    trials: int = 3
    seed: int = DEFAULT_BASE_SEED

    def __post_init__(self) -> None:
        check_positive_int(self.pairs, "pairs")
        check_positive_int(self.trials, "trials")
        check_positive_int(self.seed, "seed")

    def derived_seed(self, label: str) -> int:
        """A deterministic per-label seed derived from the base seed."""
        offset = sum((index + 1) * ord(character) for index, character in enumerate(str(label)))
        return (self.seed + offset) % (2**31 - 1)

    def scaled(self, factor: float) -> "PairWorkload":
        """A workload with the pair budget scaled by ``factor`` (at least one pair)."""
        if factor <= 0.0:
            raise InvalidParameterError(f"factor must be positive, got {factor}")
        return PairWorkload(
            pairs=max(1, int(round(self.pairs * factor))),
            trials=self.trials,
            seed=self.seed,
        )
