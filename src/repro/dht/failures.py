"""Failure models for the static-resilience experiments.

The paper analyses DHT routing under *uniform random node failure with
probability q* ("static resilience": routing tables are frozen after the
failures occur, no repair happens).  The central object here is a survival
mask — a boolean array with one entry per identifier, ``True`` meaning the
node is alive.

Beyond the paper's uniform model, this module ships a scenario library of
adversarial and correlated failure models — degree-targeted
(:class:`DegreeTargetedFailure`), contiguous ring regions
(:class:`RegionalFailure`), aligned identifier subtrees
(:class:`PrefixSubtreeFailure`) and compositions (:class:`CompositeFailure`)
— all runnable through the same measurement stack (``failure_model=`` /
``failure_models=`` arguments, ``rcm simulate --failure-model`` and the
``SweepRunner`` grid).  The EXT-FAILMODES experiment compares all six
simulated geometries (the paper's five plus the de Bruijn extension) under
uniform vs targeted vs regional failure; run it with
``rcm run EXT-FAILMODES``.

Two invariants every model must honour:

* ``sample`` is the only mask generator: a static sweep draws each
  trial's mask with one ``sample`` call on that trial's own random stream
  (:func:`repro.sim.engine._sample_cell`), so a mask must be a pure
  function of the bound model and the stream.
* Models are plain picklable values; anything overlay-dependent (e.g. the
  in-degree ranking behind the targeted model) is resolved by
  :meth:`FailureModel.bind`, which the measurement drivers call before
  sampling a cell.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..validation import check_failure_probability, check_node_count

__all__ = [
    "FailureModel",
    "UniformNodeFailure",
    "DegreeTargetedFailure",
    "RegionalFailure",
    "PrefixSubtreeFailure",
    "CompositeFailure",
    "FAILURE_MODEL_KINDS",
    "check_failure_model_kind",
    "make_failure_model",
    "survival_mask",
    "surviving_identifiers",
    "in_degree_ranking_from_table",
]


def survival_mask(n_nodes: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Sample a survival mask for ``n_nodes`` under uniform failure probability ``q``.

    Entry ``i`` is ``True`` when node ``i`` survives, which happens
    independently with probability ``1 - q``.
    """
    n_nodes = check_node_count(n_nodes)
    q = check_failure_probability(q)
    return rng.random(n_nodes) >= q


def surviving_identifiers(mask: np.ndarray) -> np.ndarray:
    """Identifiers of surviving nodes given a survival mask."""
    mask = np.asarray(mask, dtype=bool)
    return np.flatnonzero(mask)


def in_degree_ranking_from_table(table: np.ndarray, n_nodes: int) -> np.ndarray:
    """Node identifiers sorted by overlay in-degree, most-referenced first.

    ``table`` is a ``(n_nodes, degree)`` neighbour table
    (:meth:`repro.dht.network.Overlay.neighbor_array`).  Ties are broken by
    ascending identifier, so the ranking is a deterministic function of the
    table — the property that keeps targeted-failure measurements
    bit-identical whichever process builds the overlay.
    """
    n_nodes = check_node_count(n_nodes)
    in_degrees = np.bincount(np.asarray(table).ravel(), minlength=n_nodes)
    ranking = np.lexsort((np.arange(n_nodes), -in_degrees)).astype(np.int64)
    ranking.setflags(write=False)
    return ranking


class FailureModel(abc.ABC):
    """Strategy that turns an identifier-space size into a survival mask."""

    @abc.abstractmethod
    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean survival mask of length ``n_nodes``.

        Called once per trial, on that trial's own stream; the mask must be
        a pure function of the model and ``rng``.
        """

    def bind(self, overlay) -> "FailureModel":
        """Resolve overlay-dependent inputs, returning a ready-to-sample model.

        Most models are overlay-independent and return ``self``; models that
        need structural information (e.g. :class:`DegreeTargetedFailure`
        needs the overlay's in-degree ranking) return a concrete bound
        model.  The measurement drivers call this before sampling a cell, so
        the model objects handed to them stay picklable.
        """
        return self


@dataclass(frozen=True)
class UniformNodeFailure(FailureModel):
    """The paper's failure model: every node fails independently with probability ``q``."""

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_failure_probability(self.q))

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """One survival mask: each node survives independently with probability ``1 - q``."""
        return survival_mask(n_nodes, self.q, rng)


@dataclass(frozen=True)
class DegreeTargetedFailure(FailureModel):
    """Adversarial model: fail the top ``fraction`` of nodes by overlay in-degree.

    :meth:`bind` reads the ranking from the overlay's per-node in-degrees
    (:meth:`repro.dht.network.Overlay.in_degree_ranking`), so the model can
    travel through sweep grids and worker processes as a plain
    ``(kind, severity)`` value and still target the structurally most
    referenced nodes of whichever overlay each cell builds.
    """

    fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "fraction", check_failure_probability(self.fraction))

    def bind(self, overlay) -> FailureModel:
        """Target ``overlay``'s own (cached, read-only) in-degree ranking."""
        return _RankedFailure(self.fraction, overlay.in_degree_ranking())

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Unbound models cannot sample — :meth:`bind` an overlay first."""
        raise InvalidParameterError(
            "degree-targeted failure needs an overlay ranking: call bind(overlay) first "
            "(the measurement drivers do this automatically)"
        )


# eq=False: the ranking is an array (no value equality), and a bound model
# is sampled, never used as a cell or cache key.
@dataclass(frozen=True, eq=False)
class _RankedFailure(FailureModel):
    """A :class:`DegreeTargetedFailure` bound to one overlay's ranking.

    ``ranking`` lists node identifiers most-referenced first; the top
    ``fraction`` of them fail.  Sampling is deterministic and consumes no
    randomness.
    """

    fraction: float
    ranking: np.ndarray

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Fail the top ``fraction`` of ranked nodes."""
        n_nodes = check_node_count(n_nodes)
        if self.ranking.size != n_nodes:
            raise InvalidParameterError(
                f"ranking has {self.ranking.size} entries but the overlay has {n_nodes} nodes"
            )
        mask = np.ones(n_nodes, dtype=bool)
        to_fail = int(round(self.fraction * n_nodes))
        mask[self.ranking[:to_fail]] = False
        return mask


@dataclass(frozen=True)
class RegionalFailure(FailureModel):
    """Correlated model: fail a contiguous identifier region (regional outage).

    A region of ``fraction * N`` consecutive identifiers (wrapping around
    the ring) starting at a random offset is removed.  This stresses
    ring-based geometries far more than the uniform model.
    """

    fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "fraction", check_failure_probability(self.fraction))

    def _region_size(self, n_nodes: int) -> int:
        return int(round(self.fraction * n_nodes))

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Fail one contiguous wrapped region starting at a random offset."""
        n_nodes = check_node_count(n_nodes)
        mask = np.ones(n_nodes, dtype=bool)
        region = self._region_size(n_nodes)
        if region == 0:
            return mask
        start = int(rng.integers(0, n_nodes))
        indices = (start + np.arange(region)) % n_nodes
        mask[indices] = False
        return mask


@dataclass(frozen=True)
class PrefixSubtreeFailure(FailureModel):
    """Correlated model: fail one aligned identifier subtree (prefix outage).

    All identifiers sharing one randomly chosen bit-prefix go down together
    — the block is the power of two nearest to ``fraction * N`` identifiers,
    aligned to its own size, so the failed set is exactly a subtree of the
    identifier trie.  This is the failure mode that stresses the tree and
    XOR geometries: a whole branch of their routing structure disappears at
    once instead of thinning uniformly.
    """

    fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "fraction", check_failure_probability(self.fraction))

    def _subtree_size(self, n_nodes: int) -> int:
        region = int(round(self.fraction * n_nodes))
        if region == 0:
            return 0
        return min(1 << int(round(math.log2(region))), n_nodes)

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Fail one size-aligned identifier block (a subtree of the identifier trie)."""
        n_nodes = check_node_count(n_nodes)
        mask = np.ones(n_nodes, dtype=bool)
        size = self._subtree_size(n_nodes)
        if size == 0:
            return mask
        block = int(rng.integers(0, n_nodes // size))
        mask[block * size : (block + 1) * size] = False
        return mask


@dataclass(frozen=True)
class CompositeFailure(FailureModel):
    """Intersection of several failure models: a node survives only if it
    survives every component model.

    Components are sampled in declaration order, so the random stream is
    deterministic.
    """

    models: Tuple[FailureModel, ...]

    def __post_init__(self) -> None:
        models = tuple(self.models)
        if not models:
            raise InvalidParameterError("CompositeFailure needs at least one component model")
        for model in models:
            if not isinstance(model, FailureModel):
                raise InvalidParameterError(
                    f"CompositeFailure components must be FailureModels, got {model!r}"
                )
        object.__setattr__(self, "models", models)

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Intersect the component masks, sampling components in declaration order."""
        n_nodes = check_node_count(n_nodes)
        mask = np.ones(n_nodes, dtype=bool)
        for model in self.models:
            mask &= model.sample(n_nodes, rng)
        return mask

    def bind(self, overlay) -> FailureModel:
        """Bind every component model to ``overlay``."""
        return CompositeFailure(tuple(model.bind(overlay) for model in self.models))


# --------------------------------------------------------------------- #
# the named scenario library
# --------------------------------------------------------------------- #
#: Registry kinds accepted by the sweep grids and ``rcm simulate
#: --failure-model``.  Each kind maps one *severity* value to a model:
#: the failure probability for "uniform", the failed fraction for
#: "targeted"/"regional"/"subtree", and a half/half split between an
#: independent and a regional component for "uniform+regional".
FAILURE_MODEL_KINDS = ("uniform", "targeted", "regional", "subtree", "uniform+regional")


def check_failure_model_kind(kind: str) -> str:
    """Validate a failure-model registry kind."""
    if kind not in FAILURE_MODEL_KINDS:
        raise InvalidParameterError(
            f"unknown failure model {kind!r}; expected one of {FAILURE_MODEL_KINDS}"
        )
    return kind


def make_failure_model(kind: str, severity: float) -> FailureModel:
    """Instantiate the registry model ``kind`` at the given severity."""
    kind = check_failure_model_kind(kind)
    severity = check_failure_probability(severity)
    if kind == "uniform":
        return UniformNodeFailure(severity)
    if kind == "targeted":
        return DegreeTargetedFailure(severity)
    if kind == "regional":
        return RegionalFailure(severity)
    if kind == "subtree":
        return PrefixSubtreeFailure(severity)
    return CompositeFailure(
        (UniformNodeFailure(severity / 2.0), RegionalFailure(severity / 2.0))
    )
