"""Input-validation helpers shared across the library.

Every public entry point funnels its numeric arguments through these helpers
so error messages are consistent and tests can rely on the exact exception
type (:class:`repro.exceptions.InvalidParameterError`).
"""

from __future__ import annotations

import math
from typing import Iterable

from .exceptions import InvalidParameterError

__all__ = [
    "check_probability",
    "check_failure_probability",
    "check_identifier_length",
    "check_positive_int",
    "check_non_negative_int",
    "check_hop_count",
    "check_node_count",
    "check_fraction_open",
]


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` is a probability in the closed interval [0, 1].

    Returns the value as a ``float`` so callers can pass ints or numpy
    scalars and receive a plain Python float back.
    """
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from exc
    if math.isnan(value) or value < 0.0 or value > 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_failure_probability(q: float) -> float:
    """Validate a node-failure probability ``q`` (the paper's ``q``)."""
    return check_probability(q, name="failure probability q")


def check_fraction_open(value: float, name: str = "value") -> float:
    """Validate a probability strictly inside (0, 1)."""
    value = check_probability(value, name=name)
    if value in (0.0, 1.0):
        raise InvalidParameterError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value


def _check_int(value: int, name: str, minimum: int) -> int:
    """Validate an integer ``>= minimum`` (0 or 1), returned as a plain ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        # Accept integral floats and numpy integers that round-trip exactly.
        try:
            as_int = int(value)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from exc
        if as_int != value:
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        value = as_int
    if value < minimum:
        rule = "positive" if minimum else "non-negative"
        raise InvalidParameterError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def check_positive_int(value: int, name: str = "value") -> int:
    """Validate a strictly positive integer."""
    return _check_int(value, name, 1)


def check_non_negative_int(value: int, name: str = "value") -> int:
    """Validate a non-negative integer."""
    return _check_int(value, name, 0)


def check_identifier_length(d: int) -> int:
    """Validate an identifier length ``d`` (number of bits / phases).

    The paper assumes fully populated identifier spaces with
    ``d = log2(N)``.  We cap ``d`` at 4096 bits: beyond that the float64
    evaluation of the closed forms loses meaning and is almost certainly a
    caller bug (the paper's asymptotic figure uses ``d = 100``).
    """
    d = check_positive_int(d, name="identifier length d")
    if d > 4096:
        raise InvalidParameterError(
            f"identifier length d={d} is unreasonably large (maximum supported is 4096 bits)"
        )
    return d


def check_hop_count(h: int, d: int) -> int:
    """Validate a hop/phase count ``h`` against the identifier length ``d``."""
    h = check_positive_int(h, name="hop count h")
    d = check_identifier_length(d)
    if h > d:
        raise InvalidParameterError(f"hop count h={h} exceeds identifier length d={d}")
    return h


def check_node_count(n: int) -> int:
    """Validate a system size ``N`` (number of nodes), must be >= 2."""
    n = check_positive_int(n, name="system size N")
    if n < 2:
        raise InvalidParameterError(f"system size N must be at least 2, got {n}")
    return n


def check_all_probabilities(values: Iterable[float], name: str = "probabilities") -> list:
    """Validate an iterable of probabilities, returning them as a list of floats."""
    return [check_probability(v, name=name) for v in values]
