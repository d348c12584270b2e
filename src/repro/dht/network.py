"""Overlay base class shared by all DHT overlay simulators.

An :class:`Overlay` bundles a fully populated identifier space with the
static routing tables of every node and knows how to route a message from a
source to a destination given a survival mask (see
:mod:`repro.dht.failures`).  Concrete overlays — Plaxton tree, CAN
hypercube, Kademlia, Chord, Symphony and the de Bruijn (Koorde) extension
— live in their own self-registering modules and implement two methods:
:meth:`Overlay.neighbors` and :meth:`Overlay.route`.

Routing tables are *static*: they are built once for the pristine overlay
and are not repaired after failures, which is exactly the paper's static
resilience model.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple, Type

import numpy as np

from ..exceptions import RoutingError, TopologyError
from .failures import in_degree_ranking_from_table
from .identifiers import IdentifierSpace
from .routing import RouteResult

__all__ = ["Overlay", "OVERLAY_CLASSES", "register_overlay", "make_rng"]

#: Overlay classes keyed by the paper's geometry label.  A *live* registry:
#: each overlay module registers its class at import time (next to the
#: scalar oracle and its kernel spec), so shipping a new geometry is one
#: self-registering file — the simulation stack, sweeps and CLI all read
#: this dict.
OVERLAY_CLASSES: Dict[str, Type["Overlay"]] = {}


def register_overlay(cls: Type["Overlay"]) -> Type["Overlay"]:
    """Class decorator adding an overlay simulator to :data:`OVERLAY_CLASSES`."""
    if not cls.geometry_name:
        raise TopologyError(f"{cls.__name__} does not define a geometry_name")
    if cls.geometry_name in OVERLAY_CLASSES:
        raise TopologyError(f"overlay geometry {cls.geometry_name!r} is already registered")
    OVERLAY_CLASSES[cls.geometry_name] = cls
    return cls


def make_rng(rng: Optional[np.random.Generator] = None, seed: Optional[int] = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from either an existing generator or a seed.

    All overlay builders and simulators accept both so experiments can share
    one generator while tests pin exact seeds.
    """
    if rng is not None and seed is not None:
        raise TopologyError("pass either an rng or a seed, not both")
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def _frozen_table(table: np.ndarray) -> np.ndarray:
    """``table`` as the overlay's routing-table storage: C-contiguous, int32 and
    read-only, copied only when it is not already int32 and C-contiguous."""
    table = np.ascontiguousarray(table, dtype=np.int32)
    table.setflags(write=False)
    return table


class Overlay(abc.ABC):
    """Base class for a static DHT overlay over a fully populated ``d``-bit space.

    Subclasses must define the class attributes ``geometry_name`` (the
    paper's geometry label, e.g. ``"hypercube"``) and ``system_name`` (the
    representative deployed system, e.g. ``"CAN"``), and implement
    :meth:`neighbors` and :meth:`route`.
    """

    #: Paper geometry label ("tree", "hypercube", "xor", "ring", "smallworld").
    geometry_name: str = ""
    #: Representative system from the paper ("Plaxton", "CAN", "Kademlia", "Chord", "Symphony").
    system_name: str = ""

    def __init__(self, space: IdentifierSpace, table: Optional[np.ndarray] = None) -> None:
        if not self.geometry_name or not self.system_name:
            raise TopologyError(
                f"{type(self).__name__} must define geometry_name and system_name"
            )
        self._space = space
        self._table = None if table is None else _frozen_table(table)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def space(self) -> IdentifierSpace:
        """The identifier space the overlay is built over."""
        return self._space

    @property
    def d(self) -> int:
        """Identifier length in bits."""
        return self._space.d

    @property
    def n_nodes(self) -> int:
        """Number of nodes, ``N = 2^d`` (fully populated space)."""
        return self._space.size

    @abc.abstractmethod
    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Outgoing routing-table entries of ``node`` in the pristine overlay."""

    def neighbor_array(self) -> np.ndarray:
        """Every node's routing table as one ``(n_nodes, degree)`` int32 array.

        Row ``i`` lists the neighbours of node ``i`` in the same order
        :meth:`neighbors` returns them (for the tree and XOR geometries that
        order is the bit/bucket index).  This is the overlay's one copy of
        its table, returned without copying: overlays that draw their tables
        at build time (Plaxton, Kademlia, Chord, Symphony) hand it to the
        constructor and their scalar oracles read the same array; the
        others (hypercube, de Bruijn) build it here once, on first use.
        Every kernel backend routes over it as it is, the fused multi-cell
        path included (a virtual identifier ``cell * 2^d + node`` reads row
        ``node``), so it is C-contiguous and read-only: a buggy kernel must
        fault loudly rather than silently corrupt the shared table.

        int32 holds every identifier an overlay can route: a node id is
        below ``2^d``, which int32 holds up to ``d = 31``, where the table
        alone would take at least 8 GiB, so no larger overlay is built; a
        fused stack of several cells is routed in sub-unions of ``2^31 >> d``
        cells, so its virtual ids stay below ``2^31``
        (``repro.sim.engine._cells_per_union``).  Only defined for
        overlays whose nodes all have the same out-degree, which holds for
        every registered geometry.
        """
        if self._table is None:
            self._table = _frozen_table(self._build_neighbor_array())
        return self._table

    def _build_neighbor_array(self) -> np.ndarray:
        """Materialise the table for :meth:`neighbor_array` (overridden by the
        overlays that compute their tables, unused by those built with one)."""
        rows = [self.neighbors(node) for node in self._space.identifiers()]
        if len({len(row) for row in rows}) != 1:
            raise TopologyError(
                "neighbor_array requires every node to have the same out-degree"
            )
        return np.asarray(rows, dtype=np.int32)

    @abc.abstractmethod
    def route(self, source: int, destination: int, alive: np.ndarray) -> RouteResult:
        """Route a message from ``source`` to ``destination`` under the survival mask ``alive``.

        ``alive`` is a boolean array of length ``n_nodes``; entry ``i`` is
        ``True`` when node ``i`` survived.  Both end-points are required to
        be alive (routability is defined over surviving pairs).  The method
        never raises for ordinary routing failures — those are reported in
        the returned :class:`~repro.dht.routing.RouteResult`.
        """

    # ------------------------------------------------------------------ #
    # shared helpers for subclasses
    # ------------------------------------------------------------------ #
    def hop_limit(self) -> int:
        """Defensive per-message hop budget.

        Every registered geometry delivers within ``O(d)`` or ``O(d^2)`` hops; the
        budget is generous enough never to bite for correct implementations
        while still terminating a buggy routing loop.
        """
        return max(16, 4 * self.d * self.d)

    def _check_route_arguments(self, source: int, destination: int, alive: np.ndarray) -> np.ndarray:
        """Validate routing end-points and the survival mask; returns the mask as bool array."""
        source = self._space.validate(source)
        destination = self._space.validate(destination)
        if source == destination:
            raise RoutingError("source and destination must differ")
        alive = np.asarray(alive)
        if alive.dtype != np.bool_:
            alive = alive.astype(bool)
        if alive.shape != (self.n_nodes,):
            raise RoutingError(
                f"survival mask has shape {alive.shape}, expected ({self.n_nodes},)"
            )
        if not alive[source] or not alive[destination]:
            raise RoutingError(
                "routability is defined over surviving pairs: both end-points must be alive"
            )
        return alive

    def validate_tables(self) -> None:
        """Check every routing-table entry refers to a valid identifier.

        Raises :class:`~repro.exceptions.TopologyError` on the first
        malformed entry.  Intended for tests and for sanity-checking custom
        overlays.
        """
        for node in self._space.identifiers():
            for neighbor in self.neighbors(node):
                if not self._space.contains(neighbor):
                    raise TopologyError(
                        f"node {node} has a routing-table entry {neighbor!r} outside the identifier space"
                    )
                if neighbor == node:
                    raise TopologyError(f"node {node} lists itself as a neighbour")

    def in_degree_ranking(self) -> np.ndarray:
        """Node identifiers sorted by pristine-overlay in-degree, most-referenced first.

        The in-degree of a node is the number of routing-table entries across
        the whole overlay that point at it — the natural "importance" measure
        an adversary would target (see
        :class:`~repro.dht.failures.DegreeTargetedFailure` and the
        EXT-FAILMODES experiment).  Ties are broken by ascending identifier
        so the ranking is deterministic; the read-only array is cached on the
        overlay like :meth:`neighbor_array`.
        """
        cached = getattr(self, "_in_degree_ranking_cache", None)
        if cached is None:
            cached = in_degree_ranking_from_table(self.neighbor_array(), self.n_nodes)
            self._in_degree_ranking_cache = cached
        return cached

    def degree_statistics(self) -> Dict[str, float]:
        """Out-degree statistics of the pristine overlay (min / mean / max)."""
        degrees = np.array([len(self.neighbors(node)) for node in self._space.identifiers()])
        return {
            "min": float(degrees.min()),
            "mean": float(degrees.mean()),
            "max": float(degrees.max()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(d={self.d}, n_nodes={self.n_nodes}, "
            f"geometry={self.geometry_name!r}, system={self.system_name!r})"
        )
