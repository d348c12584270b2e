"""Percolation substrate: connected vs reachable components, threshold estimation.

Supports the paper's framing that routability is *not* plain percolation
connectivity: pairs can share a connected component yet be unroutable under
the DHT's routing rule.
"""

from .components import (
    ComponentSummary,
    component_size_distribution,
    connected_component,
    empirical_routability,
    largest_component_fraction,
    reachable_component,
    routable_pair_counts,
)
from .thresholds import (
    PercolationEstimate,
    estimate_critical_failure_probability,
    giant_component_curve,
    mean_field_percolation_threshold,
)

__all__ = [
    "ComponentSummary",
    "component_size_distribution",
    "connected_component",
    "empirical_routability",
    "largest_component_fraction",
    "reachable_component",
    "routable_pair_counts",
    "PercolationEstimate",
    "estimate_critical_failure_probability",
    "giant_component_curve",
    "mean_field_percolation_threshold",
]
