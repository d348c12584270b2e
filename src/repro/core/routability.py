"""High-level routability functions — the library's main analytical entry points.

These wrap :mod:`repro.core.geometry` into the one-liners most users need::

    from repro import routability, failed_path_percent

    routability("xor", q=0.3, d=16)          # Kademlia at N = 2^16, 30% failures
    failed_path_percent("ring", q=0.5, d=16) # Chord's Figure 6(b) curve point

plus the sweep helpers that the figure experiments are built from:
:func:`failed_path_curve` (Figure 6 / 7(a) shape) and
:func:`routability_scaling_curve` (Figure 7(b) shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..exceptions import InvalidParameterError
from ..validation import check_failure_probability, check_node_count
from .geometry import RoutingGeometry, resolve_geometry

__all__ = [
    "routability",
    "failed_path_percent",
    "GeometryCurve",
    "failed_path_curve",
    "routability_scaling_curve",
    "compare_geometries",
]


def routability(
    geometry: Union[str, RoutingGeometry],
    q: float,
    *,
    d: int,
    **geometry_parameters,
) -> float:
    """Analytical routability ``r(N, q)`` of a DHT routing geometry (Eq. 1/3).

    Parameters
    ----------
    geometry:
        Geometry name ("tree", "hypercube", "xor", "ring", "smallworld"),
        a system alias ("plaxton", "can", "kademlia", "chord", "symphony"),
        or an already-instantiated :class:`~repro.core.geometry.RoutingGeometry`.
    q:
        Uniform node-failure probability.
    d:
        Identifier length (``N = 2^d`` nodes).
    geometry_parameters:
        Extra constructor arguments (e.g. ``near_neighbors=2`` for Symphony).
    """
    return resolve_geometry(geometry, **geometry_parameters).routability(q, d=d)


def failed_path_percent(
    geometry: Union[str, RoutingGeometry],
    q: float,
    *,
    d: int,
    **geometry_parameters,
) -> float:
    """``100 (1 - r(N, q))`` — percent of failed paths, the paper's Figure 6 y-axis."""
    return resolve_geometry(geometry, **geometry_parameters).failed_path_percent(q, d=d)


@dataclass(frozen=True)
class GeometryCurve:
    """One analytical curve: a geometry evaluated over a sweep of ``q`` or ``N``.

    ``x_values`` are failure probabilities (for failed-path curves) or
    system sizes (for scaling curves); ``y_values`` are the corresponding
    metric values in the same order.
    """

    geometry: str
    system: str
    x_label: str
    y_label: str
    x_values: Tuple[float, ...]
    y_values: Tuple[float, ...]

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows of ``{x_label: x, y_label: y}`` for tabular reports."""
        return [
            {self.x_label: x, self.y_label: y}
            for x, y in zip(self.x_values, self.y_values)
        ]


def failed_path_curve(
    geometry: Union[str, RoutingGeometry],
    failure_probabilities: Sequence[float],
    *,
    d: int,
    **geometry_parameters,
) -> GeometryCurve:
    """Percent of failed paths versus ``q`` at fixed system size — Figure 6 / 7(a) shape."""
    if len(failure_probabilities) == 0:
        raise InvalidParameterError("failure_probabilities must not be empty")
    model = resolve_geometry(geometry, **geometry_parameters)
    qs = tuple(check_failure_probability(q) for q in failure_probabilities)
    values = tuple(model.failed_path_percent(q, d=d) for q in qs)
    return GeometryCurve(
        geometry=model.name,
        system=model.system_name,
        x_label="q",
        y_label="failed_path_percent",
        x_values=qs,
        y_values=values,
    )


def routability_scaling_curve(
    geometry: Union[str, RoutingGeometry],
    system_sizes: Sequence[int],
    *,
    q: float,
    **geometry_parameters,
) -> GeometryCurve:
    """Routability (in percent) versus system size at fixed ``q`` — Figure 7(b) shape."""
    if len(system_sizes) == 0:
        raise InvalidParameterError("system_sizes must not be empty")
    model = resolve_geometry(geometry, **geometry_parameters)
    q = check_failure_probability(q)
    sizes = tuple(check_node_count(n) for n in system_sizes)
    values = tuple(100.0 * model.routability_for_size(n, q) for n in sizes)
    return GeometryCurve(
        geometry=model.name,
        system=model.system_name,
        x_label="n_nodes",
        y_label="routability_percent",
        x_values=tuple(float(n) for n in sizes),
        y_values=values,
    )


def compare_geometries(
    geometries: Sequence[Union[str, RoutingGeometry]],
    q: float,
    *,
    d: int,
) -> List[Dict[str, object]]:
    """Side-by-side routability comparison of several geometries at one (``N``, ``q``).

    Returns one row per geometry with its routability, failed-path percent
    and scalability verdict — the programmatic version of the comparison the
    paper's conclusion draws.
    """
    if len(geometries) == 0:
        raise InvalidParameterError("geometries must not be empty")
    rows: List[Dict[str, object]] = []
    for geometry in geometries:
        model = resolve_geometry(geometry)
        value = model.routability(q, d=d)
        rows.append(
            {
                "geometry": model.name,
                "system": model.system_name,
                "routability": value,
                "failed_path_percent": 100.0 * (1.0 - value),
                "scalable": model.scalability().scalable,
            }
        )
    return rows
