"""Tests for the Monte-Carlo static-resilience simulator."""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.dht.failures import FAILURE_MODEL_KINDS, RegionalFailure
from repro.exceptions import InvalidParameterError, UnknownGeometryError
from repro.sim.adaptive import AdaptiveConfig
from repro.sim.conformance import _oracle_measure_routability
from repro.sim.engine import SweepRunner, _cached_overlay
from repro.sim.static_resilience import (
    build_overlay,
    measure_routability,
    simulate_geometry,
    sweep_failure_probabilities,
)
from repro.workloads.generators import DEFAULT_BASE_SEED


class TestBuildOverlay:
    def test_builds_every_geometry(self, geometry_name):
        overlay = build_overlay(geometry_name, 5, seed=1)
        assert overlay.geometry_name == geometry_name
        assert overlay.n_nodes == 32

    def test_unknown_geometry_rejected(self):
        with pytest.raises(UnknownGeometryError):
            build_overlay("pastry", 5)

    def test_extra_options_are_forwarded(self):
        overlay = build_overlay("smallworld", 5, seed=1, near_neighbors=2, shortcuts=3)
        assert overlay.near_neighbor_count == 2
        assert overlay.shortcut_count == 3


class TestMeasureRoutability:
    def test_no_failures_gives_perfect_routability(self, small_overlays, geometry_name):
        result = measure_routability(
            small_overlays[geometry_name], 0.0, pairs=100, trials=1, seed=3
        )
        assert result.routability == pytest.approx(1.0)
        assert result.failed_path_percent == pytest.approx(0.0)

    def test_result_metadata(self, small_overlays):
        result = measure_routability(small_overlays["xor"], 0.2, pairs=50, trials=2, seed=3)
        assert result.geometry == "xor"
        assert result.system == "Kademlia"
        assert result.d == small_overlays["xor"].d
        assert result.q == 0.2
        assert result.metrics.attempts == 100

    def test_same_seed_is_reproducible(self, small_overlays):
        first = measure_routability(small_overlays["ring"], 0.3, pairs=80, trials=2, seed=7)
        second = measure_routability(small_overlays["ring"], 0.3, pairs=80, trials=2, seed=7)
        assert first.routability == second.routability

    def test_higher_failure_probability_hurts(self, small_overlays):
        gentle = measure_routability(small_overlays["hypercube"], 0.1, pairs=400, trials=2, seed=5)
        harsh = measure_routability(small_overlays["hypercube"], 0.6, pairs=400, trials=2, seed=5)
        assert harsh.routability < gentle.routability

    def test_invalid_parameters_rejected(self, small_overlays):
        with pytest.raises(InvalidParameterError):
            measure_routability(small_overlays["tree"], 1.5, pairs=10, trials=1, seed=1)
        with pytest.raises(InvalidParameterError):
            measure_routability(small_overlays["tree"], 0.5, pairs=0, trials=1, seed=1)

    def test_near_total_failure_yields_degenerate_trials(self, small_overlays):
        # At q extremely close to 1 most failure patterns leave fewer than two
        # survivors; those trials are counted rather than crashing.
        result = measure_routability(small_overlays["tree"], 0.999, pairs=10, trials=3, seed=11)
        assert result.degenerate_trials + result.trials >= result.trials
        assert result.metrics.attempts % 10 == 0


class TestSweeps:
    def test_sweep_structure(self, small_overlays):
        sweep = sweep_failure_probabilities(
            small_overlays["hypercube"], [0.0, 0.2, 0.4], pairs=60, trials=1, seed=2
        )
        assert sweep.failure_probabilities == (0.0, 0.2, 0.4)
        assert len(sweep.results) == 3
        assert len(sweep.failed_path_percentages) == 3
        assert len(sweep.routabilities) == 3

    def test_sweep_rows(self, small_overlays):
        sweep = sweep_failure_probabilities(
            small_overlays["hypercube"], [0.1], pairs=40, trials=1, seed=2
        )
        rows = sweep.as_rows()
        assert rows[0]["q"] == 0.1
        assert 0.0 <= rows[0]["routability"] <= 1.0

    def test_empty_sweep_rejected(self, small_overlays):
        with pytest.raises(InvalidParameterError):
            sweep_failure_probabilities(small_overlays["tree"], [], pairs=10, trials=1, seed=1)

    def test_simulate_geometry_end_to_end(self):
        sweep = simulate_geometry("ring", 6, [0.0, 0.3], pairs=80, trials=1, seed=9)
        assert sweep.geometry == "ring"
        assert sweep.results[0].routability == pytest.approx(1.0)
        assert sweep.results[1].routability <= 1.0

    def test_simulate_geometry_is_reproducible(self):
        first = simulate_geometry("xor", 6, [0.2], pairs=100, trials=1, seed=4)
        second = simulate_geometry("xor", 6, [0.2], pairs=100, trials=1, seed=4)
        assert first.routabilities == second.routabilities


class TestFailureModelSweeps:
    """Non-uniform failure models ride the same measurement stack with the
    same bit-identity to the scalar-oracle reference as the uniform model."""

    SEVERITY = 0.3

    @pytest.mark.parametrize("kind", FAILURE_MODEL_KINDS)
    def test_engine_matches_the_sweep_reference_for_every_model_and_geometry(
        self, small_overlays, geometry_name, kind
    ):
        overlay = small_overlays[geometry_name]
        sampling = dict(pairs=120, trials=2, seed=17, failure_model=kind)
        measured = measure_routability(overlay, self.SEVERITY, **sampling)
        expected = _oracle_measure_routability(overlay, self.SEVERITY, **sampling)
        assert measured.metrics.attempts == expected.metrics.attempts
        assert measured.metrics.successes == expected.metrics.successes
        assert measured.metrics.failure_reasons == expected.metrics.failure_reasons
        assert measured.degenerate_trials == expected.degenerate_trials
        for field in ("mean_hops_successful", "mean_hops_failed"):
            a, b = getattr(measured.metrics, field), getattr(expected.metrics, field)
            assert a == b or (math.isnan(a) and math.isnan(b)), field

    def test_sweep_accepts_a_model_kind(self, small_overlays):
        sweep = sweep_failure_probabilities(
            small_overlays["xor"], [0.1, 0.4], pairs=40, trials=1, seed=5,
            failure_models="targeted",
        )
        assert sweep.failure_model == "targeted"
        assert all(result.failure_model == "targeted" for result in sweep.results)

    def test_sweep_uniform_kind_is_the_default_path(self, small_overlays):
        explicit = sweep_failure_probabilities(
            small_overlays["xor"], [0.3], pairs=50, trials=1, seed=9,
            failure_models="uniform",
        )
        default = sweep_failure_probabilities(
            small_overlays["xor"], [0.3], pairs=50, trials=1, seed=9
        )
        assert explicit.routabilities == default.routabilities
        assert explicit.failure_model == default.failure_model == "uniform"

    @pytest.mark.parametrize("model", [RegionalFailure(0.1), [RegionalFailure(0.1)]])
    def test_model_instances_and_lists_are_rejected(self, small_overlays, model):
        with pytest.raises(InvalidParameterError, match="registry kinds"):
            sweep_failure_probabilities(
                small_overlays["ring"], [0.1], pairs=10, trials=1, seed=1, failure_models=model
            )
        with pytest.raises(InvalidParameterError, match="registry kinds"):
            measure_routability(small_overlays["ring"], 0.1, pairs=10, seed=1, failure_model=model)
        with pytest.raises(InvalidParameterError, match="registry kinds"):
            simulate_geometry("ring", 5, [0.1], pairs=10, seed=1, failure_models=model)

    def test_simulate_geometry_forwards_failure_models(self):
        sweep = simulate_geometry(
            "ring", 6, [0.2], pairs=60, trials=1, seed=4, failure_models="regional"
        )
        assert sweep.failure_model == "regional"


class TestZeroAttemptSemantics:
    """trials=3, degenerate=3, attempts=0 must round-trip cleanly."""

    def test_all_degenerate_trials_round_trip(self, small_overlays, geometry_name):
        # fraction 1.0 under the targeted model deterministically kills every
        # node, so every trial of every geometry is degenerate.
        overlay = small_overlays[geometry_name]
        result = measure_routability(
            overlay, 1.0, pairs=10, trials=3, seed=2, failure_model="targeted"
        )
        assert result.trials == 3
        assert result.degenerate_trials == 3
        assert result.metrics.attempts == 0
        assert not result.metrics.measured
        assert result.metrics.routability_or_none is None
        assert math.isnan(result.routability)

    def test_as_rows_reports_none_not_nan(self, small_overlays):
        sweep = sweep_failure_probabilities(
            small_overlays["tree"], [0.0, 1.0], pairs=10, trials=2, seed=1
        )
        rows = sweep.as_rows()
        assert rows[0]["routability"] == pytest.approx(1.0)
        assert rows[1]["routability"] is None
        assert rows[1]["failed_path_percent"] is None
        assert rows[1]["attempts"] == 0


class TestOneSampler:
    """The library sweeps draw the runner's per-cell streams: trial ``k`` is
    replicate ``k``, so library, runner and CLI print the same numbers."""

    def test_measure_routability_is_a_one_point_sweep(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        sweep = sweep_failure_probabilities(overlay, [0.2, 0.5], pairs=70, trials=3, seed=8)
        point = measure_routability(overlay, 0.5, pairs=70, trials=3, seed=8)
        assert repr(point) == repr(sweep.results[1])

    def test_trials_are_the_runners_replicates_on_the_same_overlay(self, geometry_name):
        # Replicate 0 of a runner sweep is built from the base seed; with one
        # trial the library on that overlay measures exactly the runner's cells.
        overlay = _cached_overlay(geometry_name, 6, 0, 41, ())
        qs = [0.15, 0.45]
        library = sweep_failure_probabilities(overlay, qs, pairs=90, trials=1, seed=41)
        runner = simulate_geometry(geometry_name, 6, qs, pairs=90, trials=1, seed=41)
        assert library.as_rows() == runner.as_rows()

    def test_no_seed_means_the_default_base_seed(self, small_overlays):
        overlay = small_overlays["ring"]
        implicit = measure_routability(overlay, 0.3, pairs=40, trials=2)
        explicit = measure_routability(overlay, 0.3, pairs=40, trials=2, seed=DEFAULT_BASE_SEED)
        assert repr(implicit) == repr(explicit)
        assert simulate_geometry("ring", 5, [0.3], pairs=40, trials=2).as_rows() == (
            simulate_geometry("ring", 5, [0.3], pairs=40, trials=2, seed=DEFAULT_BASE_SEED).as_rows()
        )


def _cli_rows(tmp_path, capsys, arguments):
    """The ``--json`` rows ``rcm simulate`` writes for ``arguments``."""
    output = tmp_path / "cli.json"
    assert cli_main(["simulate", *arguments, "--json", str(output)]) == 0
    capsys.readouterr()
    return json.loads(output.read_text(encoding="utf-8"))["rows"]


class TestLibraryMatchesCli:
    """``simulate_geometry`` rows equal ``rcm simulate --json`` rows byte for byte."""

    def test_pinned_tree_example(self, tmp_path, capsys):
        arguments = ["--geometry", "tree", "--d", "8", "--q", "0.3", "0.6"]
        arguments += ["--pairs", "300", "--trials", "2", "--seed", "5"]
        rows = simulate_geometry("tree", 8, [0.3, 0.6], pairs=300, trials=2, seed=5).as_rows()
        assert rows == _cli_rows(tmp_path, capsys, arguments)
        assert [round(row["routability"], 4) for row in rows] == [0.4167, 0.1383]

    @pytest.mark.parametrize("kind", FAILURE_MODEL_KINDS)
    def test_every_geometry_and_model(self, tmp_path, capsys, geometry_name, kind):
        arguments = ["--geometry", geometry_name, "--d", "6", "--q", "0.1", "0.4"]
        arguments += ["--pairs", "50", "--trials", "2", "--seed", "13", "--failure-model", kind]
        library = simulate_geometry(
            geometry_name, 6, [0.1, 0.4], pairs=50, trials=2, seed=13, failure_models=kind
        )
        assert json.dumps(library.as_rows()) == json.dumps(_cli_rows(tmp_path, capsys, arguments))

    def test_every_geometry_adaptive(self, tmp_path, capsys, geometry_name):
        arguments = ["--geometry", geometry_name, "--d", "6", "--q", "0.1", "0.5"]
        arguments += ["--pairs", "40", "--trials", "4", "--seed", "13"]
        arguments += ["--adaptive", "--ci-target", "0.1"]
        # The library's adaptive driver is the runner simulate_geometry wraps.
        with SweepRunner(pairs=40, replicates=4, base_seed=13) as runner:
            library = runner.sweep(
                geometry_name, 6, [0.1, 0.5], adaptive=AdaptiveConfig(ci_target=0.1)
            )
        assert json.dumps(library.as_rows()) == json.dumps(_cli_rows(tmp_path, capsys, arguments))
