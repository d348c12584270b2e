"""Tests for the failure models used by the static-resilience simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dht.failures import (
    FAILURE_MODEL_KINDS,
    CompositeFailure,
    DegreeTargetedFailure,
    FailureModel,
    PrefixSubtreeFailure,
    RegionalFailure,
    UniformNodeFailure,
    check_failure_model_kind,
    in_degree_ranking_from_table,
    make_failure_model,
    survival_mask,
    surviving_identifiers,
)
from repro.exceptions import InvalidParameterError


class _RankedOverlay:
    """Stands in for an overlay whose in-degree ranking is ``ranking``."""

    def __init__(self, ranking):
        self._ranking = np.asarray(ranking, dtype=np.int64)

    def in_degree_ranking(self):
        return self._ranking


def bound_targeted(fraction, ranking):
    """The degree-targeted model at ``fraction``, bound to ``ranking``."""
    return DegreeTargetedFailure(fraction).bind(_RankedOverlay(ranking))


class TestSurvivalMask:
    def test_zero_failure_keeps_everyone(self, rng):
        mask = survival_mask(100, 0.0, rng)
        assert mask.all()

    def test_certain_failure_kills_everyone(self, rng):
        mask = survival_mask(100, 1.0, rng)
        assert not mask.any()

    def test_survival_rate_is_close_to_expectation(self, rng):
        q = 0.3
        mask = survival_mask(20000, q, rng)
        assert mask.mean() == pytest.approx(1.0 - q, abs=0.02)

    def test_rejects_invalid_probability(self, rng):
        with pytest.raises(InvalidParameterError):
            survival_mask(10, 1.5, rng)

    def test_rejects_tiny_population(self, rng):
        with pytest.raises(InvalidParameterError):
            survival_mask(1, 0.5, rng)

    def test_surviving_identifiers(self):
        mask = np.array([True, False, True, True, False])
        assert list(surviving_identifiers(mask)) == [0, 2, 3]


class TestUniformNodeFailure:
    def test_sample_shape_and_dtype(self, rng):
        model = UniformNodeFailure(0.25)
        mask = model.sample(64, rng)
        assert mask.shape == (64,)
        assert mask.dtype == np.bool_

    def test_rejects_invalid_q(self):
        with pytest.raises(InvalidParameterError):
            UniformNodeFailure(-0.1)


class TestBoundTargetedFailure:
    def test_fails_top_ranked_nodes(self, rng):
        ranking = list(range(10))  # nodes 0..9 ranked most to least important
        mask = bound_targeted(0.3, ranking).sample(10, rng)
        assert not mask[0] and not mask[1] and not mask[2]
        assert mask[3:].all()

    def test_zero_fraction_keeps_everyone(self, rng):
        assert bound_targeted(0.0, list(range(10))).sample(10, rng).all()

    def test_rejects_mismatched_ranking_length(self, rng):
        model = bound_targeted(0.5, [0, 1, 2])
        with pytest.raises(InvalidParameterError):
            model.sample(10, rng)


class TestRegionalFailure:
    def test_fails_a_contiguous_fraction(self, rng):
        model = RegionalFailure(fraction=0.25)
        mask = model.sample(64, rng)
        assert int((~mask).sum()) == 16

    def test_failed_region_is_contiguous_on_the_ring(self, rng):
        model = RegionalFailure(fraction=0.25)
        mask = model.sample(64, rng)
        failed = np.flatnonzero(~mask)
        # On a ring, a contiguous block either has consecutive indices or wraps around.
        gaps = np.diff(failed)
        assert (gaps == 1).sum() >= len(failed) - 2

    def test_zero_fraction_keeps_everyone(self, rng):
        model = RegionalFailure(fraction=0.0)
        assert model.sample(32, rng).all()


def legacy_targeted_sample(fraction, ranking, n_nodes):
    """The pre-vectorization per-entry loop of the targeted model's sample,
    kept verbatim as the reference the fancy-indexing rewrite must match."""
    mask = np.ones(n_nodes, dtype=bool)
    to_fail = int(round(fraction * n_nodes))
    for identifier in list(ranking)[:to_fail]:
        mask[identifier] = False
    return mask


class TestTargetedVectorization:
    """The vectorized sample is mask-identical to the old per-entry loop."""

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.33, 0.5, 0.99, 1.0])
    def test_matches_legacy_loop(self, fraction):
        for seed in range(5):
            ranking = np.random.default_rng(seed).permutation(64)
            model = bound_targeted(fraction, ranking)
            expected = legacy_targeted_sample(fraction, ranking, 64)
            assert np.array_equal(
                model.sample(64, np.random.default_rng(0)), expected
            ), (fraction, seed)

    def test_sample_consumes_no_randomness(self, rng):
        model = bound_targeted(0.5, list(range(16)))
        before = rng.bit_generator.state
        model.sample(16, rng)
        assert rng.bit_generator.state == before


class TestPrefixSubtreeFailure:
    def test_fails_one_aligned_power_of_two_block(self, rng):
        model = PrefixSubtreeFailure(fraction=0.25)
        mask = model.sample(64, rng)
        failed = np.flatnonzero(~mask)
        assert failed.size == 16
        assert failed[0] % 16 == 0  # aligned to its own size -> a subtree
        assert np.array_equal(failed, np.arange(failed[0], failed[0] + 16))

    def test_zero_fraction_keeps_everyone_and_draws_nothing(self, rng):
        model = PrefixSubtreeFailure(fraction=0.0)
        before = rng.bit_generator.state
        assert model.sample(64, rng).all()
        assert rng.bit_generator.state == before

    def test_full_fraction_kills_everyone(self, rng):
        assert not PrefixSubtreeFailure(fraction=1.0).sample(64, rng).any()


class TestDegreeTargetedFailure:
    def test_bind_targets_highest_in_degree_nodes(self, small_overlays):
        overlay = small_overlays["smallworld"]
        model = DegreeTargetedFailure(fraction=0.25).bind(overlay)
        mask = model.sample(overlay.n_nodes, np.random.default_rng(0))
        in_degrees = np.bincount(
            overlay.neighbor_array().ravel(), minlength=overlay.n_nodes
        )
        # Every failed node has in-degree >= every surviving node's in-degree.
        assert in_degrees[~mask].min() >= in_degrees[mask].max()
        assert int((~mask).sum()) == round(0.25 * overlay.n_nodes)

    def test_bind_reads_the_overlays_own_ranking(self, small_overlays):
        overlay = small_overlays["xor"]
        ranking = overlay.in_degree_ranking()
        for fraction in (0.1, 0.4):
            bound = DegreeTargetedFailure(fraction=fraction).bind(overlay)
            assert bound.ranking is ranking  # the overlay's read-only cache, not a copy
            np.testing.assert_array_equal(
                bound.sample(overlay.n_nodes, np.random.default_rng(0)),
                legacy_targeted_sample(fraction, ranking, overlay.n_nodes),
            )

    def test_sample_without_bind_is_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            DegreeTargetedFailure(fraction=0.2).sample(64, rng)


class TestInDegreeRanking:
    def test_ranking_is_sorted_by_in_degree_with_id_tiebreak(self):
        table = np.array([[1], [0], [1], [1]])  # in-degrees: 1, 3, 0, 0
        ranking = in_degree_ranking_from_table(table, 4)
        assert list(ranking) == [1, 0, 2, 3]

    def test_overlay_method_is_cached_and_read_only(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        ranking = overlay.in_degree_ranking()
        assert ranking is overlay.in_degree_ranking()
        assert sorted(ranking.tolist()) == list(range(overlay.n_nodes))
        with pytest.raises(ValueError):
            ranking[0] = 0


class TestCompositeFailure:
    def test_node_survives_only_if_it_survives_every_component(self, rng):
        composite = CompositeFailure(
            (UniformNodeFailure(0.3), RegionalFailure(0.25))
        )
        mask = composite.sample(64, rng)
        replay = np.random.default_rng(12345)
        expected = UniformNodeFailure(0.3).sample(64, replay)
        expected &= RegionalFailure(0.25).sample(64, replay)
        assert np.array_equal(mask, expected)

    def test_empty_composite_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompositeFailure(())

    def test_non_model_component_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompositeFailure((UniformNodeFailure(0.1), "regional"))


class TestModelRegistry:
    def test_every_kind_instantiates(self):
        for kind in FAILURE_MODEL_KINDS:
            model = make_failure_model(kind, 0.3)
            assert isinstance(model, FailureModel)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_failure_model_kind("meteor")
        with pytest.raises(InvalidParameterError):
            make_failure_model("meteor", 0.3)

    def test_invalid_severity_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_failure_model("regional", 1.5)

    def test_composite_kind_splits_severity(self):
        model = make_failure_model("uniform+regional", 0.4)
        assert isinstance(model, CompositeFailure)
        assert model.models[0].q == pytest.approx(0.2)
        assert model.models[1].fraction == pytest.approx(0.2)


class TestSampleIsAFunctionOfTheStream:
    """A sweep draws each trial's mask with one ``sample`` call on that
    trial's own stream, so the mask must depend on nothing but the model and
    the stream's state (no global RNG, no state carried between calls)."""

    MODELS = {
        "uniform-0": UniformNodeFailure(0.0),
        "uniform-0.37": UniformNodeFailure(0.37),
        "uniform-1": UniformNodeFailure(1.0),
        "targeted-0.3": bound_targeted(0.3, list(range(64))),
        "regional-0": RegionalFailure(0.0),
        "regional-0.28": RegionalFailure(0.28),
        "regional-1": RegionalFailure(1.0),
        "subtree-0": PrefixSubtreeFailure(0.0),
        "subtree-0.25": PrefixSubtreeFailure(0.25),
        "subtree-1": PrefixSubtreeFailure(1.0),
        "composite-0.2+0.15": CompositeFailure((UniformNodeFailure(0.2), RegionalFailure(0.15))),
        "uniform+regional-0.5": make_failure_model("uniform+regional", 0.5),
    }

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_equal_streams_give_equal_masks_and_positions(self, model):
        first_rng, second_rng = np.random.default_rng(99), np.random.default_rng(99)
        first = model.sample(64, first_rng)
        model.sample(64, np.random.default_rng(7))  # an unrelated call in between
        second = model.sample(64, second_rng)
        assert first.shape == (64,)
        assert first.dtype == np.bool_
        assert np.array_equal(first, second)
        # Pair sampling continues on the same stream, so both must stop in one place.
        assert np.array_equal(first_rng.random(8), second_rng.random(8))
