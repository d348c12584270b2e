"""Shared helpers for geometries whose distance distribution is binomial.

The tree, hypercube and XOR geometries all have ``n(h) = C(d, h)`` — there
are ``C(d, h)`` identifiers at Hamming distance ``h`` from any root in a
fully populated ``d``-bit space.  Evaluating the binomial coefficients in
log space keeps the routability ratio finite for the asymptotic settings of
Figure 7 (``d = 100`` and beyond).
"""

from __future__ import annotations

import math

import numpy as np

from ...validation import check_identifier_length

__all__ = ["log_binomial_distance_distribution", "binomial_distance_distribution"]


def log_binomial_distance_distribution(d: int) -> np.ndarray:
    """``log C(d, h)`` for ``h = 1 .. d``."""
    d = check_identifier_length(d)
    log_d_factorial = math.lgamma(d + 1.0)
    return np.array(
        [
            log_d_factorial - math.lgamma(h + 1.0) - math.lgamma(d - h + 1.0)
            for h in range(1, d + 1)
        ]
    )


def binomial_distance_distribution(d: int) -> np.ndarray:
    """``C(d, h)`` for ``h = 1 .. d`` (exact integers up to float64 precision)."""
    return np.exp(log_binomial_distance_distribution(d))
