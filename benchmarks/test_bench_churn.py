"""Benchmark EXT-CHURN plus the churn row-identity check.

``test_churn_applicability`` regenerates the EXT-CHURN tables (static-model
predictions vs measured routability under churn).

``test_churn_rows_match_per_step_route_pairs`` checks that routing windows
of churn steps as one stacked batch each produces **bit-identical rows** to
a vendored driver that routes every step through a fresh ``route_pairs``
call, on sparse churn over large overlays (150 steps, so 19 windows of at
most 8 steps at d=16).
"""

from __future__ import annotations

import numpy as np

from conftest import run_and_report
from repro.dht import OVERLAY_CLASSES
from repro.sim.backends import resolve_backend
from repro.sim.churn import ChurnConfig, simulate_churn
from repro.sim.engine import route_pairs
from repro.sim.sampling import sample_survivor_pair_arrays
from repro.workloads.traces import markov_trace


def test_churn_applicability(benchmark, experiment_config):
    result = run_and_report(benchmark, "EXT-CHURN", experiment_config)
    errors = {row["geometry"]: row for row in result.table("prediction_error_summary")}
    # The static model evaluated at q_eff(t) tracks the churn measurements.
    for row in errors.values():
        assert row["mean_absolute_error"] < 0.15


# --------------------------------------------------------------------- #
# windowed churn routing vs a fresh route_pairs per step
# --------------------------------------------------------------------- #
#: Sparse-churn grid: large overlays, few events per step, few pairs per step.
CHURN_BENCH_GEOMETRIES = ("xor", "ring", "hypercube")
CHURN_BENCH_D = 16
CHURN_BENCH_STEPS = 150
CHURN_BENCH_PAIRS_PER_STEP = 8
CHURN_BENCH_LEAVE = 0.0005
CHURN_BENCH_REJOIN = 0.05
CHURN_BENCH_SEED = 20060328


def _per_step_churn_rows(overlay, trace, pairs_per_step, seed, backend):
    """Vendored per-step churn driver (the reference for windowed routing).

    Replays the trace through the same per-step RNG contract as
    ``simulate_churn`` (trace replay consumes no randomness; the generator
    is drawn only by pair sampling) but routes each step through a fresh
    ``route_pairs`` call of its own.
    """
    resolved = resolve_backend(backend)
    generator = np.random.default_rng(seed)
    n = overlay.n_nodes
    online = np.ones(n, dtype=bool)
    online_at_repair = online.copy()
    rows = []
    for step in range(1, trace.n_steps + 1):
        event_nodes, event_joins = trace.events_at(step)
        if event_nodes.size:
            online = online.copy()
            online[event_nodes[~event_joins]] = False
            online[event_nodes[event_joins]] = True
        usable = online_at_repair & online
        usable_fraction = float(usable.mean())
        if int(usable.sum()) >= 2:
            sources, destinations = sample_survivor_pair_arrays(
                usable, pairs_per_step, generator
            )
            metrics = route_pairs(
                overlay, sources, destinations, usable, backend=resolved
            ).to_metrics()
            routability = metrics.routability_or_none
            attempts = metrics.attempts
        else:
            routability = None
            attempts = 0
        rows.append(
            {
                "step": step,
                "effective_q": None,
                "usable_fraction": usable_fraction,
                "measured_routability": routability,
                "attempts": attempts,
            }
        )
    return rows


def test_churn_rows_match_per_step_route_pairs():
    backend = "numpy"
    for geometry in CHURN_BENCH_GEOMETRIES:
        overlay = OVERLAY_CLASSES[geometry].build(CHURN_BENCH_D, seed=CHURN_BENCH_SEED)
        trace = markov_trace(
            overlay.n_nodes,
            CHURN_BENCH_STEPS,
            leave_probability=CHURN_BENCH_LEAVE,
            rejoin_probability=CHURN_BENCH_REJOIN,
            seed=CHURN_BENCH_SEED + 1,
        )
        config = ChurnConfig(pairs_per_step=CHURN_BENCH_PAIRS_PER_STEP, trace=trace)
        windowed = simulate_churn(overlay, config, seed=CHURN_BENCH_SEED, backend=backend)
        per_step = _per_step_churn_rows(
            overlay, trace, CHURN_BENCH_PAIRS_PER_STEP, CHURN_BENCH_SEED, backend
        )
        assert windowed.as_rows() == per_step, geometry
