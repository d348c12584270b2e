"""Failure models for the static-resilience experiments.

The paper analyses DHT routing under *uniform random node failure with
probability q* ("static resilience": routing tables are frozen after the
failures occur, no repair happens).  The central object here is a survival
mask — a boolean array with one entry per identifier, ``True`` meaning the
node is alive.

Beyond the paper's uniform model, this module ships a scenario library of
adversarial and correlated failure models — degree-targeted
(:class:`DegreeTargetedFailure` / :class:`TargetedNodeFailure`), contiguous
ring regions (:class:`RegionalFailure`), aligned identifier subtrees
(:class:`PrefixSubtreeFailure`) and compositions (:class:`CompositeFailure`)
— all runnable through the same measurement stack (``failure_model=`` /
``failure_models=`` arguments, ``rcm simulate --failure-model`` and the
``SweepRunner`` grid).  The EXT-FAILMODES experiment compares all six
simulated geometries (the paper's five plus the de Bruijn extension) under
uniform vs targeted vs regional failure; run it with
``rcm run EXT-FAILMODES``.

Two invariants every model must honour:

* ``sample`` is the scalar reference for mask generation, exactly as
  ``Overlay.route`` is for routing; ``sample_batch`` may vectorize across
  trials but must consume the random stream **identically** to calling
  ``sample`` once per trial, so scalar, batch and fused measurements stay
  bit-identical (``tests/test_failures.py`` property-tests this for every
  model).
* Models are plain picklable values; anything overlay-dependent (e.g. the
  in-degree ranking behind the targeted model) is resolved by
  :meth:`FailureModel.bind`, which the measurement drivers call once per
  overlay before sampling.
"""

from __future__ import annotations

import abc
import copy
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..validation import check_failure_probability, check_node_count, check_positive_int

__all__ = [
    "FailureModel",
    "UniformNodeFailure",
    "TargetedNodeFailure",
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
    "cached_in_degree_ranking",
    "overlay_in_degree_ranking",
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
    bit-identical across worker processes and shared-memory overlay views.
    """
    n_nodes = check_node_count(n_nodes)
    in_degrees = np.bincount(np.asarray(table).ravel(), minlength=n_nodes)
    ranking = np.lexsort((np.arange(n_nodes), -in_degrees)).astype(np.int64)
    ranking.setflags(write=False)
    return ranking


def cached_in_degree_ranking(overlay) -> np.ndarray:
    """Compute-and-cache the table-derived ranking on any overlay-like object.

    The single home of the ``_in_degree_ranking_cache`` protocol:
    :meth:`repro.dht.network.Overlay.in_degree_ranking` and the fallback for
    light-weight kernel views (shared-memory tables in worker processes)
    both delegate here, so the in-process and worker paths can never
    desynchronize.
    """
    cached = getattr(overlay, "_in_degree_ranking_cache", None)
    if cached is None:
        cached = in_degree_ranking_from_table(overlay.neighbor_array(), int(overlay.n_nodes))
        try:
            overlay._in_degree_ranking_cache = cached
        except AttributeError:  # pragma: no cover - read-only view objects
            pass
    return cached


def overlay_in_degree_ranking(overlay) -> np.ndarray:
    """The in-degree ranking of any overlay-like object.

    Prefers the overlay's own :meth:`~repro.dht.network.Overlay.in_degree_ranking`
    (which may be overridden); objects that only expose
    ``neighbor_array()``/``n_nodes`` get the table-derived ranking via
    :func:`cached_in_degree_ranking`.
    """
    method = getattr(overlay, "in_degree_ranking", None)
    if method is not None:
        return method()
    return cached_in_degree_ranking(overlay)


class FailureModel(abc.ABC):
    """Strategy that turns an identifier-space size into a survival mask."""

    @abc.abstractmethod
    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean survival mask of length ``n_nodes``.

        This is the scalar reference implementation of the model; any
        vectorized path (:meth:`sample_batch`) must reproduce its masks
        bit-for-bit from the same random stream.
        """

    def sample_batch(self, n_nodes: int, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Return a ``(trials, n_nodes)`` boolean mask stack for ``trials`` patterns.

        The contract: the returned stack must equal — and consume the random
        stream identically to — calling :meth:`sample` once per trial in
        order.  The base implementation is that loop; subclasses override it
        with a genuinely vectorized draw only where NumPy's array sampling
        is stream-identical to the per-trial scalar draws (verified by
        property tests), so the choice of path can never change a measured
        number.
        """
        trials = check_positive_int(trials, "trials")
        return np.stack([self.sample(n_nodes, rng) for _ in range(trials)])

    def bind(self, overlay) -> "FailureModel":
        """Resolve overlay-dependent inputs, returning a ready-to-sample model.

        Most models are overlay-independent and return ``self``; models that
        need structural information (e.g. :class:`DegreeTargetedFailure`
        needs the overlay's in-degree ranking) return a concrete bound
        model.  The measurement drivers call this once per overlay before
        sampling, so the model objects handed to them stay picklable.
        """
        return self

    @property
    @abc.abstractmethod
    def description(self) -> str:
        """Short human-readable description used in experiment reports."""


@dataclass(frozen=True)
class UniformNodeFailure(FailureModel):
    """The paper's failure model: every node fails independently with probability ``q``."""

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_failure_probability(self.q))

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """One survival mask: each node survives independently with probability ``1 - q``."""
        return survival_mask(n_nodes, self.q, rng)

    def sample_batch(self, n_nodes: int, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized trials: one ``(trials, n)`` uniform draw.

        Filling the buffer in C order yields the same doubles, in the same
        order, as ``trials`` successive ``rng.random(n)`` calls, so this is
        stream-identical to the scalar per-trial loop.
        """
        n_nodes = check_node_count(n_nodes)
        trials = check_positive_int(trials, "trials")
        return rng.random((trials, n_nodes)) >= self.q

    @property
    def description(self) -> str:
        """Report label: uniform failure at this ``q``."""
        return f"uniform node failure, q={self.q:g}"


@dataclass(frozen=True)
class TargetedNodeFailure(FailureModel):
    """Fail a fixed *fraction* of nodes chosen by an external ranking.

    The ranking (e.g. descending overlay in-degree — see
    :class:`DegreeTargetedFailure` for the overlay-bound convenience) is
    supplied at construction and validated once there; the top ``fraction``
    of ranked nodes are removed.  Sampling is deterministic and consumes no
    randomness.
    """

    fraction: float
    ranking: Sequence[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fraction", check_failure_probability(self.fraction))
        if len(self.ranking) == 0:
            raise InvalidParameterError("ranking must not be empty")
        try:
            array = np.asarray(self.ranking, dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                "ranking must be a sequence of integer identifiers"
            ) from exc
        if array.ndim != 1:
            raise InvalidParameterError("ranking must be one-dimensional")
        if (array < 0).any():
            raise InvalidParameterError(
                f"ranking contains invalid identifier {int(array.min())}"
            )
        if np.unique(array).size != array.size:
            raise InvalidParameterError("ranking must not contain duplicate identifiers")
        array.setflags(write=False)
        # The dataclass field stays a hashable tuple (cells and model specs
        # are used as dict keys and travel through pickling); the validated
        # array is what sampling indexes with, and the precomputed maximum
        # makes the per-sample range check O(1).
        object.__setattr__(self, "ranking", tuple(int(r) for r in array))
        object.__setattr__(self, "_ranking_array", array)
        object.__setattr__(self, "_ranking_max", int(array.max()))

    def with_fraction(self, fraction: float) -> "TargetedNodeFailure":
        """The same, already validated ranking at another ``fraction``.

        Skips re-validating and re-converting the ranking, which costs
        O(n log n) per call; :meth:`DegreeTargetedFailure.bind` uses it so an
        overlay's ranking is validated once for all severities.
        """
        model = copy.copy(self)
        object.__setattr__(model, "fraction", check_failure_probability(fraction))
        return model

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Fail the top ``fraction`` of ranked nodes; deterministic, consumes no randomness."""
        n_nodes = check_node_count(n_nodes)
        ranking: np.ndarray = self._ranking_array
        if ranking.size != n_nodes:
            raise InvalidParameterError(
                f"ranking has {ranking.size} entries but the overlay has {n_nodes} nodes"
            )
        if self._ranking_max >= n_nodes:
            raise InvalidParameterError(
                f"ranking contains invalid identifier {self._ranking_max}"
            )
        mask = np.ones(n_nodes, dtype=bool)
        to_fail = int(round(self.fraction * n_nodes))
        mask[ranking[:to_fail]] = False
        return mask

    def sample_batch(self, n_nodes: int, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized trials: every trial fails the same nodes, no randomness consumed.

        Exactly like the per-trial loop, hence trivially stream-identical.
        """
        trials = check_positive_int(trials, "trials")
        return np.tile(self.sample(n_nodes, rng), (trials, 1))

    @property
    def description(self) -> str:
        """Report label: targeted removal of the top ranked fraction."""
        return f"targeted failure of the top {self.fraction:.0%} ranked nodes"


@dataclass(frozen=True)
class DegreeTargetedFailure(FailureModel):
    """Adversarial model: fail the top ``fraction`` of nodes by overlay in-degree.

    This is the overlay-bound convenience over :class:`TargetedNodeFailure`:
    :meth:`bind` derives the ranking from the overlay's per-node in-degrees
    (:meth:`repro.dht.network.Overlay.in_degree_ranking`), so the model can
    travel through sweep grids and worker processes as a plain
    ``(kind, severity)`` value and still target the structurally most
    referenced nodes of whichever overlay each cell builds.
    """

    fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "fraction", check_failure_probability(self.fraction))

    def bind(self, overlay) -> FailureModel:
        """Derive the concrete ranking from ``overlay``'s per-node in-degrees.

        The ranking is validated and converted once per overlay (cached on
        it, like the ranking itself); every severity reuses it.
        """
        validated = getattr(overlay, "_targeted_failure_cache", None)
        if validated is None:
            validated = TargetedNodeFailure(
                fraction=self.fraction, ranking=overlay_in_degree_ranking(overlay)
            )
            try:
                overlay._targeted_failure_cache = validated
            except AttributeError:  # pragma: no cover - read-only view objects
                pass
        return validated.with_fraction(self.fraction)

    def sample(self, n_nodes: int, rng: np.random.Generator) -> np.ndarray:
        """Unbound models cannot sample — :meth:`bind` an overlay first."""
        raise InvalidParameterError(
            "degree-targeted failure needs an overlay ranking: call bind(overlay) first "
            "(the measurement drivers do this automatically)"
        )

    @property
    def description(self) -> str:
        """Report label: in-degree-targeted removal."""
        return f"targeted failure of the top {self.fraction:.0%} nodes by overlay in-degree"


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

    def sample_batch(self, n_nodes: int, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized trials: one sized ``rng.integers`` draw of the region starts.

        ``rng.integers`` fills its output element-by-element from the same
        bit stream as successive scalar draws, so one sized draw is
        stream-identical to the per-trial loop (and, like the loop, a
        zero-size region consumes no randomness at all).
        """
        n_nodes = check_node_count(n_nodes)
        trials = check_positive_int(trials, "trials")
        region = self._region_size(n_nodes)
        masks = np.ones((trials, n_nodes), dtype=bool)
        if region == 0:
            return masks
        starts = rng.integers(0, n_nodes, size=trials)
        indices = (starts[:, None] + np.arange(region)[None, :]) % n_nodes
        masks[np.arange(trials)[:, None], indices] = False
        return masks

    @property
    def description(self) -> str:
        """Report label: contiguous identifier-region outage."""
        return f"regional failure of a contiguous {self.fraction:.0%} of the identifier ring"


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

    def sample_batch(self, n_nodes: int, trials: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized trials: same stream-identity argument as :meth:`RegionalFailure.sample_batch`."""
        n_nodes = check_node_count(n_nodes)
        trials = check_positive_int(trials, "trials")
        masks = np.ones((trials, n_nodes), dtype=bool)
        size = self._subtree_size(n_nodes)
        if size == 0:
            return masks
        blocks = rng.integers(0, n_nodes // size, size=trials)
        indices = blocks[:, None] * size + np.arange(size)[None, :]
        masks[np.arange(trials)[:, None], indices] = False
        return masks

    @property
    def description(self) -> str:
        """Report label: aligned-subtree outage."""
        return (
            f"failure of one aligned identifier subtree "
            f"(~{self.fraction:.0%} of the space)"
        )


@dataclass(frozen=True)
class CompositeFailure(FailureModel):
    """Intersection of several failure models: a node survives only if it
    survives every component model.

    Components are sampled in declaration order within each trial, so the
    random stream is deterministic; ``sample_batch`` deliberately keeps the
    base class's per-trial loop — vectorizing across trials would reorder
    the components' draws and break stream-identity with :meth:`sample`.
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

    @property
    def description(self) -> str:
        """Report label: the components' labels joined with ``+``."""
        return " + ".join(model.description for model in self.models)


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
