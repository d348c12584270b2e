"""Connected-component and reachable-component analysis of failed overlays.

The paper distinguishes two notions (Section 4.1):

* the **connected component** of a node — the nodes it could reach if
  messages were allowed to follow arbitrary overlay paths, and
* the **reachable component** of a node — the nodes it can actually route
  to under the DHT's routing algorithm (no back-tracking, greedy rules).

The reachable component is always a subset of the connected component; the
gap between the two is what makes routability a different quantity from
plain percolation connectivity, and this module lets experiments and tests
measure both on the same failed overlay.

Both graph quantities are computed with numpy over the overlay's cached
routing table (:meth:`~repro.dht.network.Overlay.neighbor_array`)
restricted to the survival mask: the connected component is a frontier
breadth-first search along surviving links, and the weak components come
from min-label propagation over the surviving links taken in both
directions.  The routing quantities — the reachable component,
:func:`empirical_routability` and :func:`routable_pair_counts` — route
their pairs in one call of the batch engine
(:func:`~repro.sim.engine.route_pairs` or
:func:`~repro.sim.engine.route_pairs_stacked`), whose kernels the
conformance harness checks pair for pair against the scalar
:meth:`~repro.dht.network.Overlay.route` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from ..dht.network import Overlay
from ..exceptions import InvalidParameterError
from ..sim.engine import route_pairs, route_pairs_stacked

__all__ = [
    "ComponentSummary",
    "reachable_component",
    "connected_component",
    "component_size_distribution",
    "largest_component_fraction",
    "empirical_routability",
    "routable_pair_counts",
]

#: Most pairs one :func:`routable_pair_counts` call routes at once: a slab of
#: masks whose pairs, counted as if every node survived, fit this bound.
_SLAB_PAIRS = 1 << 18


@dataclass(frozen=True)
class ComponentSummary:
    """Sizes of the graph-theoretic components of a failed overlay.

    Attributes
    ----------
    survivor_count:
        Number of surviving nodes.
    largest_component:
        Size of the largest weakly connected component among survivors.
    component_sizes:
        Sorted (descending) sizes of all weakly connected components.
    """

    survivor_count: int
    largest_component: int
    component_sizes: tuple

    @property
    def largest_fraction(self) -> float:
        """Largest component size as a fraction of surviving nodes."""
        if self.survivor_count == 0:
            return 0.0
        return self.largest_component / self.survivor_count


def _validated_mask(overlay: Overlay, alive: np.ndarray) -> np.ndarray:
    alive = np.asarray(alive, dtype=bool)
    if alive.shape != (overlay.n_nodes,):
        raise InvalidParameterError(
            f"survival mask has shape {alive.shape}, expected ({overlay.n_nodes},)"
        )
    return alive


def reachable_component(overlay: Overlay, root: int, alive: np.ndarray) -> FrozenSet[int]:
    """The set of surviving nodes that ``root`` can route to under the overlay's algorithm.

    This is the paper's "reachable component of node *i*": every surviving
    destination is attempted with the overlay's actual routing rule under
    the given survival mask, in one :func:`~repro.sim.engine.route_pairs`
    call.  The root itself is not included.
    """
    alive = _validated_mask(overlay, alive)
    root = overlay.space.validate(root)
    if not alive[root]:
        raise InvalidParameterError(f"root node {root} did not survive")
    destinations = np.flatnonzero(alive)
    destinations = destinations[destinations != root]
    outcome = route_pairs(overlay, np.full(destinations.size, root), destinations, alive)
    return frozenset(destinations[outcome.succeeded].tolist())


def connected_component(overlay: Overlay, root: int, alive: np.ndarray) -> FrozenSet[int]:
    """The surviving nodes reachable from ``root`` along *any* path of surviving overlay links.

    A breadth-first search of the surviving directed overlay graph; the root
    itself is excluded even when a cycle leads back to it.  The reachable
    component of the same root is always a subset of this set.
    """
    alive = _validated_mask(overlay, alive)
    root = overlay.space.validate(root)
    if not alive[root]:
        raise InvalidParameterError(f"root node {root} did not survive")
    table = overlay.neighbor_array()
    seen = np.zeros(overlay.n_nodes, dtype=bool)
    seen[root] = True
    frontier = np.array([root])
    while frontier.size:
        candidates = table[frontier].ravel()
        candidates = candidates[alive[candidates] & ~seen[candidates]]
        seen[candidates] = True
        frontier = candidates
    seen[root] = False
    return frozenset(np.flatnonzero(seen).tolist())


def _weak_component_labels(overlay: Overlay, alive: np.ndarray) -> np.ndarray:
    """Per-survivor component label: the smallest survivor of its weak component.

    Min-label propagation over the surviving links in both directions: each
    round hooks the larger label of every link whose ends disagree onto the
    smaller one, then pointer-jumps every label to its root, until the two
    ends of every link agree.
    """
    table = overlay.neighbor_array()
    survivors = np.flatnonzero(alive)
    sources = np.repeat(survivors, table.shape[1])
    targets = table[survivors].ravel()
    keep = alive[targets]
    sources, targets = sources[keep], targets[keep]
    labels = np.arange(overlay.n_nodes)
    while True:
        source_labels, target_labels = labels[sources], labels[targets]
        differ = source_labels != target_labels
        if not differ.any():
            return labels[survivors]
        source_labels, target_labels = source_labels[differ], target_labels[differ]
        np.minimum.at(
            labels,
            np.maximum(source_labels, target_labels),
            np.minimum(source_labels, target_labels),
        )
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def component_size_distribution(overlay: Overlay, alive: np.ndarray) -> ComponentSummary:
    """Weakly-connected component sizes of the surviving overlay graph."""
    alive = _validated_mask(overlay, alive)
    survivor_count = int(alive.sum())
    if survivor_count == 0:
        return ComponentSummary(survivor_count=0, largest_component=0, component_sizes=())
    counts = np.bincount(_weak_component_labels(overlay, alive))
    sizes = sorted(counts[counts > 0].tolist(), reverse=True)
    return ComponentSummary(
        survivor_count=survivor_count,
        largest_component=sizes[0],
        component_sizes=tuple(sizes),
    )


def largest_component_fraction(overlay: Overlay, alive: np.ndarray) -> float:
    """Fraction of surviving nodes inside the largest weakly connected component."""
    return component_size_distribution(overlay, alive).largest_fraction


def empirical_routability(
    overlay: Overlay,
    alive: np.ndarray,
    *,
    max_roots: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Exhaustive (or root-sampled) routability of a failed overlay.

    Computes the RCM definition directly: the number of routable ordered
    pairs among survivors divided by the number of ordered survivor pairs.
    When ``max_roots`` is given, only that many randomly chosen roots are
    expanded (an unbiased estimate); otherwise every surviving root is used.
    The roots' pairs to every other survivor are routed in one
    :func:`~repro.sim.engine.route_pairs` call.

    Only intended for small overlays — the experiments use
    :mod:`repro.sim.static_resilience` for large ones.
    """
    alive = _validated_mask(overlay, alive)
    survivors = np.flatnonzero(alive)
    if survivors.size < 2:
        raise InvalidParameterError("empirical routability needs at least two survivors")
    roots = survivors
    if max_roots is not None and max_roots < survivors.size:
        generator = rng if rng is not None else np.random.default_rng()
        roots = survivors[generator.choice(survivors.size, size=max_roots, replace=False)]
    sources = np.repeat(roots, survivors.size)
    destinations = np.tile(survivors, roots.size)
    distinct = sources != destinations
    outcome = route_pairs(overlay, sources[distinct], destinations[distinct], alive)
    return int(np.count_nonzero(outcome.succeeded)) / (roots.size * (survivors.size - 1))


def routable_pair_counts(overlay: Overlay, alive_stack: np.ndarray) -> np.ndarray:
    """Routable ordered survivor pairs under each survival mask of a stack.

    ``alive_stack`` is a ``(n_masks, n_nodes)`` boolean matrix.  Entry ``i``
    of the result is the numerator of Definition 1 for mask ``i``: how many
    ordered pairs of distinct survivors the overlay's routing rule delivers.
    Every such pair of every mask is routed through
    :func:`~repro.sim.engine.route_pairs_stacked`, one slab of masks per
    call, of at most :data:`_SLAB_PAIRS` pairs (or one mask's pairs, when
    more), so memory stays bounded however many masks the stack holds.  The
    cost grows with ``n_masks * n_nodes^2``: an exact enumeration of all
    ``2^N`` patterns is meant for overlays of at most 16 nodes.  Nothing is
    sampled.
    """
    alive_stack = np.asarray(alive_stack, dtype=bool)
    if alive_stack.ndim != 2 or alive_stack.shape[1] != overlay.n_nodes:
        raise InvalidParameterError(
            f"survival mask stack has shape {alive_stack.shape}, expected (n_masks, {overlay.n_nodes})"
        )
    n_nodes = overlay.n_nodes
    distinct = ~np.eye(n_nodes, dtype=bool)
    slab = max(1, _SLAB_PAIRS // max(1, n_nodes * (n_nodes - 1)))
    counts = np.zeros(alive_stack.shape[0], dtype=np.int64)
    for start in range(0, alive_stack.shape[0], slab):
        masks = alive_stack[start : start + slab]
        cells, sources, destinations = np.nonzero(
            masks[:, :, np.newaxis] & masks[:, np.newaxis, :] & distinct
        )
        outcome = route_pairs_stacked(overlay, sources, destinations, masks, cells)
        counts[start : start + masks.shape[0]] = np.bincount(
            cells[outcome.succeeded], minlength=masks.shape[0]
        )
    return counts
