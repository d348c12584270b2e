"""Tests for the one shard executor, :func:`repro.sim.request.run_shard`.

Both doors (``rcm simulate`` and ``POST /v1/sweeps``) hand a shard to
``run_shard`` and read everything they report from the :class:`ShardResult`
it returns: the result document, the cell accounting, the phase profile and
the adaptive report.  A static shard's runner, and any worker pool it
started, is gone once the call returns.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.service.store import ResultStore
from repro.sim import request as request_module
from repro.sim.engine import PROFILE_PHASES, SweepRunner
from repro.sim.request import SweepRequest, run_shard

D, PAIRS, TRIALS, SEED = 6, 40, 2, 5
Q = [0.1, 0.4]
DEFAULTS = {"pairs": PAIRS, "trials": TRIALS, "seed": SEED}


def static_request(**fields) -> SweepRequest:
    return SweepRequest.from_mapping(
        {"geometries": ["ring"], "d": D, "q": Q, **fields}, defaults=DEFAULTS
    )


def direct_runner(**options) -> SweepRunner:
    return SweepRunner(pairs=PAIRS, replicates=TRIALS, base_seed=SEED, backend="numpy", **options)


class TestChurnShard:
    STEPS = 5

    @pytest.fixture(scope="class")
    def shard(self):
        request = SweepRequest.from_mapping(
            {"geometries": ["xor"], "d": D, "churn": {"generator": "markov", "steps": self.STEPS}},
            defaults=DEFAULTS,
        )
        return run_shard(request, "xor", "churn", backend="numpy")

    def test_every_step_is_one_computed_cell(self, shard):
        stats = shard.stats
        assert stats.requested == stats.computed == self.STEPS == len(shard.document["rows"])
        assert stats.cached == 0

    def test_profile_has_exactly_the_churn_phases(self, shard):
        assert set(shard.profile) == {"mask_generation", "kernel_hops", "reduction"}
        assert all(seconds >= 0.0 for seconds in shard.profile.values())

    def test_no_adaptive_report(self, shard):
        assert shard.adaptive_report is None
        assert shard.document["failure_model"] == "churn"


class TestStaticShard:
    def test_stats_rows_and_profile_match_a_direct_runner(self):
        shard = run_shard(static_request(), "ring", "uniform", backend="numpy")
        with direct_runner() as runner:
            sweep = runner.sweep("ring", D, Q)
        assert shard.stats == runner.last_run_stats
        assert shard.document["rows"] == sweep.as_rows()
        assert set(shard.profile) == set(PROFILE_PHASES)
        assert shard.adaptive_report is None
        assert "adaptive" not in shard.document

    def test_adaptive_shard_returns_its_report(self):
        request = static_request(trials=4, adaptive={"ci_target": 0.1, "min_trials": 1})
        shard = run_shard(request, "ring", "uniform", backend="numpy")
        report = shard.adaptive_report
        assert report is not None and not report.replayed
        assert shard.document["adaptive"]["trials_allocated"] == report.trials_allocated
        assert shard.stats.requested == report.trials_allocated

    def test_store_answers_the_second_run(self, tmp_path):
        store = ResultStore.open(str(tmp_path / "cells.db"))
        try:
            first = run_shard(static_request(), "ring", "uniform", backend="numpy", store=store)
            second = run_shard(static_request(), "ring", "uniform", backend="numpy", store=store)
        finally:
            store.close()
        assert first.stats.computed == first.stats.requested == TRIALS * len(Q)
        assert second.stats.store_hits == second.stats.requested
        assert second.stats.computed == 0
        assert second.document == first.document

    def test_pooled_shard_leaves_no_worker_process_behind(self, monkeypatch):
        pool_sizes = []

        class RecordingRunner(SweepRunner):
            def _ensure_pool(self, task_count):
                pool = super()._ensure_pool(task_count)
                pool_sizes.append(self._pool_size)
                return pool

        monkeypatch.setattr(request_module, "SweepRunner", RecordingRunner)
        shard = run_shard(static_request(), "ring", "uniform", backend="numpy", workers=2)
        assert pool_sizes == [2]  # TRIALS groups: the pool really ran
        assert multiprocessing.active_children() == []
        with direct_runner() as runner:
            assert shard.document["rows"] == runner.sweep("ring", D, Q).as_rows()
