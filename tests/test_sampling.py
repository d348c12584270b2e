"""Tests for survivor-pair sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sim.sampling import sample_survivor_pair_arrays


class TestSampleSurvivorPairArrays:
    def test_returns_int64_arrays(self, rng):
        sources, destinations = sample_survivor_pair_arrays(np.ones(16, dtype=bool), 30, rng)
        assert sources.dtype == np.int64 and destinations.dtype == np.int64
        assert sources.shape == destinations.shape == (30,)

    def test_pairs_are_distinct_and_alive(self, rng):
        alive = np.zeros(32, dtype=bool)
        alive[[0, 7, 21, 30]] = True
        sources, destinations = sample_survivor_pair_arrays(alive, 200, rng)
        assert (sources != destinations).all()
        assert alive[sources].all() and alive[destinations].all()

    def test_two_survivors_always_give_the_same_pair(self, rng):
        alive = np.zeros(16, dtype=bool)
        alive[[3, 12]] = True
        sources, destinations = sample_survivor_pair_arrays(alive, 20, rng)
        assert set(zip(sources.tolist(), destinations.tolist())) <= {(3, 12), (12, 3)}

    def test_fewer_than_two_survivors_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            sample_survivor_pair_arrays(np.zeros(8, dtype=bool), 5, rng)

    def test_zero_count_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            sample_survivor_pair_arrays(np.ones(8, dtype=bool), 0, rng)

    def test_sampling_is_roughly_uniform(self, rng):
        sources, _ = sample_survivor_pair_arrays(np.ones(8, dtype=bool), 8000, rng)
        counts = np.bincount(sources, minlength=8)
        assert counts.min() > 0.7 * counts.mean()
