"""Exact small-N enumeration of survival patterns through the batch engine.

:func:`repro.percolation.routable_pair_counts` routes every ordered survivor
pair of every mask in a stack with one ``route_pairs_stacked`` call.  Over
all ``2^N`` patterns of a tiny overlay it gives the exact distribution of
one trial's routability estimate.  This module checks:

* **oracle parity (d=3):** for every registered geometry, the counts over
  all 256 patterns equal the scalar ``Overlay.route`` oracle's successes
  over every ordered survivor pair of each pattern;
* **slabs (d=3, d=4):** the stack is routed one bounded slab of masks per
  engine call, and the counts equal those of a single call;
* **layout (d=3):** FIG1-3's exact Definition-1 value is the same whether
  its columns are strided views or contiguous copies;
* **sampler check (d=4):** on one overlay per geometry, each point of a
  seeded ``sweep_failure_probabilities`` run lies within four standard
  errors of the exact mean of its estimator (FIG1-3's
  ``estimator_moments`` over all 2^16 patterns).  The seed was fixed before
  the first run; a failure is a finding about the sampler, not a reason to
  re-seed or widen the bound.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from repro.dht import OVERLAY_CLASSES
from repro.dht.can import HypercubeOverlay
from repro.experiments import fig123_hypercube_example as fig123
from repro.experiments.fig123_hypercube_example import enumerate_patterns, estimator_moments
from repro.percolation import components, routable_pair_counts
from repro.sim.conformance import (
    OVERLAY_VARIANTS,
    _oracle_metrics,
    build_conformance_overlay,
    conformance_geometries,
)
from repro.sim.static_resilience import sweep_failure_probabilities

#: Every registered geometry's default build, plus each overlay variant the
#: conformance harness also runs (Chord's deterministic fingers).
PARITY_OVERLAYS = [(geometry, {}) for geometry in conformance_geometries()] + [
    (geometry, options)
    for geometry, variants in OVERLAY_VARIANTS.items()
    for options in variants
]

SAMPLER_D = 4
SAMPLER_QS = (0.1, 0.3, 0.5)
SAMPLER_PAIRS = 200
SAMPLER_TRIALS = 200
SAMPLER_SEED = 2024
SAMPLER_MAX_Z = 4.0


def oracle_counts(overlay, alive_stack):
    """Scalar-oracle successes over every ordered survivor pair of each mask."""
    counts = []
    for alive in alive_stack:
        survivors = np.flatnonzero(alive)
        sources = np.repeat(survivors, survivors.size)
        destinations = np.tile(survivors, survivors.size)
        distinct = sources != destinations
        metrics = _oracle_metrics(overlay, alive, sources[distinct], destinations[distinct])
        counts.append(metrics.successes)
    return counts


class TestOracleParity:
    @pytest.mark.parametrize(
        ("geometry", "options"),
        PARITY_OVERLAYS,
        ids=[geometry + "".join(f"-{v}" for v in options.values()) for geometry, options in PARITY_OVERLAYS],
    )
    def test_every_pattern_at_d3_matches_the_scalar_oracle(self, geometry, options):
        overlay = build_conformance_overlay(geometry, d=3, **options)
        alive_stack = np.array(list(itertools.product((True, False), repeat=overlay.n_nodes)))
        expected = oracle_counts(overlay, alive_stack)
        assert routable_pair_counts(overlay, alive_stack).tolist() == expected
        # FIG1-3's enumeration lists the same patterns in the same order.
        outcomes = enumerate_patterns(overlay)
        assert outcomes[:, 0].tolist() == alive_stack.sum(axis=1).tolist()
        assert outcomes[:, 1].tolist() == expected


class TestSlabs:
    """The stack is routed in slabs of at most ``components._SLAB_PAIRS`` pairs."""

    SLAB_PAIRS = 4096

    @pytest.mark.parametrize("d", (3, 4))
    @pytest.mark.parametrize("geometry", conformance_geometries())
    def test_slabbed_counts_equal_one_call(self, geometry, d):
        overlay = build_conformance_overlay(geometry, d=d)
        alive_stack = np.array(list(itertools.product((True, False), repeat=overlay.n_nodes)))
        if d == 4:  # 1024 of the 2^16 patterns keep the one-call reference small
            alive_stack = alive_stack[np.random.default_rng(d).choice(alive_stack.shape[0], 1024)]
        calls = []
        route_pairs_stacked = components.route_pairs_stacked

        def recording(overlay, sources, *arguments):
            calls.append(len(sources))
            return route_pairs_stacked(overlay, sources, *arguments)

        with mock.patch.object(components, "route_pairs_stacked", recording):
            with mock.patch.object(components, "_SLAB_PAIRS", alive_stack.size * overlay.n_nodes):
                one_call = routable_pair_counts(overlay, alive_stack)
            assert len(calls) == 1
            calls.clear()
            with mock.patch.object(components, "_SLAB_PAIRS", self.SLAB_PAIRS):
                slabbed = routable_pair_counts(overlay, alive_stack)
        assert len(calls) > 1
        assert max(calls) <= self.SLAB_PAIRS
        assert slabbed.tolist() == one_call.tolist()


class TestSamplerAgainstExactMoments:
    @pytest.mark.parametrize("geometry", conformance_geometries())
    def test_sweep_points_lie_within_four_standard_errors(self, geometry):
        overlay = OVERLAY_CLASSES[geometry].build(SAMPLER_D, rng=np.random.default_rng(1))
        outcomes = enumerate_patterns(overlay)
        sweep = sweep_failure_probabilities(
            overlay, SAMPLER_QS, pairs=SAMPLER_PAIRS, trials=SAMPLER_TRIALS, seed=SAMPLER_SEED
        )
        z_scores = {}
        for point in sweep.results:
            mean, variance = estimator_moments(outcomes, overlay.n_nodes, point.q, SAMPLER_PAIRS)
            measured_trials = point.trials - point.degenerate_trials
            z_scores[point.q] = (point.routability - mean) / math.sqrt(variance / measured_trials)
        assert all(abs(z) <= SAMPLER_MAX_Z for z in z_scores.values()), z_scores


class TestExactDefinitionLayout:
    @pytest.mark.parametrize("q", (0.1, 0.3, 0.5))
    def test_strided_and_contiguous_columns_give_equal_values(self, q):
        outcomes = enumerate_patterns(HypercubeOverlay.build(3))
        columns = fig123._non_degenerate(outcomes, 8, q)
        # The survivor and routable columns are strided views of one array.
        assert not any(column.flags.c_contiguous for column in columns[1:])
        copies = tuple(np.ascontiguousarray(column) for column in columns)
        with mock.patch.object(fig123, "_non_degenerate", return_value=copies):
            from_copies = fig123.exact_definition_routability(outcomes, 8, q)
        assert fig123.exact_definition_routability(outcomes, 8, q) == from_copies
