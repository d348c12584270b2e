"""Benchmark ADAPTIVE: variance-adaptive trial allocation vs the uniform sweep.

Runs one Figure 6(a)-style grid (XOR geometry at ``d = 12``: a flat
low-``q`` shoulder, the broad transition band, and the collapsed high-``q``
tail) twice through the same :class:`~repro.sim.engine.SweepRunner`:

* **uniform**: every ``q`` point pools the full ``MAX_TRIALS`` replicates —
  the pre-adaptive behaviour, and the budget the allocator must beat;
* **adaptive**: the allocator targets exactly the *worst* pooled Wilson CI
  half-width the uniform run achieved, so both runs end at the same maximum
  uncertainty and the only difference is how many pairs they routed.

The acceptance gate is a ≥``RATIO_FLOOR`` (default 2x) reduction in routed
pairs at that matched half-width.  The ratio compares two deterministic
pair counts from identical seed streams, so unlike the timing benchmarks it
is exactly reproducible — no best-of-N repetitions needed.

Two exactness checks ride along:

* the uniform rows are compared byte-for-byte against a **vendored**
  reference pipeline (entropy derivation, survival masks, pair sampling,
  XOR kernel, and replicate pooling all frozen below), proving the adaptive
  refactor left the default path untouched;
* the recorded allocation ledger is serialised, reloaded, and replayed,
  and the replayed rows must be bit-identical to the adaptive run's.

Results go to ``BENCH_adaptive.json`` (path overridable via
``RCM_BENCH_ADAPTIVE_JSON``) for CI to upload and for ``rcm bench-report``
to gate on (``pairs_saved_ratio`` vs ``ratio_floor``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import zlib

import numpy as np

from repro.dht import OVERLAY_CLASSES
from repro.sim.adaptive import AdaptiveConfig, AllocationLedger, wilson_halfwidth
from repro.sim.engine import SweepRunner

GEOMETRY = "xor"
BENCH_D = 12
PAIRS = 500
#: Uniform replicate count — and the adaptive allocator's per-point cap.
MAX_TRIALS = 12
MIN_TRIALS = 2
SEED = 20060328
CONFIDENCE = 0.95
#: The sweep grid: flat shoulders at both ends plus the transition band,
#: mirroring how Figure 6 grids cover the whole ``q`` range even though
#: only the band needs the full trial budget.
BENCH_QS = (
    0.0, 0.01, 0.02, 0.05,
    0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75,
    0.85, 0.9, 0.95, 0.98,
)
#: Required reduction in routed pairs at the matched CI half-width.
RATIO_FLOOR = float(os.environ.get("RCM_BENCH_ADAPTIVE_RATIO_FLOOR", "2"))


# --------------------------------------------------------------------- #
# vendored uniform-sweep reference (the pre-adaptive pipeline, frozen)
# --------------------------------------------------------------------- #
_FAR = np.iinfo(np.int64).max


def _ref_entropy(base_seed, purpose, cell_key):
    """Frozen copy of the PR-1 cell entropy derivation."""
    words = [int(base_seed), zlib.crc32(purpose.encode("utf-8"))]
    for part in cell_key:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, float):
            words.append(int(round(part * 10**9)))
        else:
            words.append(int(part))
    return words


def _ref_sample_pairs(alive, count, rng):
    """Frozen copy of the survivor-pair sampling contract (stream-stable)."""
    survivors = np.flatnonzero(alive)
    sources = survivors[rng.integers(0, survivors.size, size=count)].astype(np.int64)
    destinations = survivors[rng.integers(0, survivors.size, size=count)].astype(np.int64)
    for index in np.flatnonzero(destinations == sources):
        destination = destinations[index]
        while destination == sources[index]:
            destination = survivors[int(rng.integers(0, survivors.size))]
        destinations[index] = destination
    return sources, destinations


def _ref_route_xor(overlay, sources, destinations, alive):
    """Frozen greedy-XOR router (the PR-1 vectorised kernel): per pair,
    returns (succeeded, hops)."""
    tables = overlay.neighbor_array()
    hop_limit = overlay.hop_limit()
    n_pairs = sources.size
    current = sources.copy()
    hops = np.zeros(n_pairs, dtype=np.int64)
    succeeded = np.zeros(n_pairs, dtype=bool)
    active = np.arange(n_pairs, dtype=np.int64)
    while active.size:
        exhausted = hops[active] >= hop_limit
        if exhausted.any():
            active = active[~exhausted]
            if not active.size:
                break
        cur, dst = current[active], destinations[active]
        neighbors = tables[cur]
        distances = neighbors ^ dst[:, None]
        usable = alive[neighbors] & (distances < (cur ^ dst)[:, None])
        masked = np.where(usable, distances, _FAR)
        best = masked.argmin(axis=1)
        rows = np.arange(cur.size)
        ok = usable[rows, best]
        next_hop = neighbors[rows, best][ok]
        active = active[ok]
        current[active] = next_hop
        hops[active] += 1
        arrived = current[active] == destinations[active]
        if arrived.any():
            succeeded[active[arrived]] = True
            active = active[~arrived]
    return succeeded, hops


def _ref_uniform_rows(qs):
    """The uniform sweep's ``as_rows()`` output, recomputed by the frozen
    pipeline above: per-cell streams, pooled over replicates per point."""
    rows = []
    pooled = {q: [0, 0] for q in qs}  # q -> [attempts, successes]
    for replicate in range(MAX_TRIALS):
        build_rng = np.random.default_rng(
            np.random.SeedSequence(_ref_entropy(SEED, "overlay", (GEOMETRY, BENCH_D, replicate)))
        )
        overlay = OVERLAY_CLASSES[GEOMETRY].build(BENCH_D, rng=build_rng)
        for q in qs:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    _ref_entropy(SEED, "routing", (GEOMETRY, BENCH_D, replicate, q))
                )
            )
            alive = rng.random(overlay.n_nodes) >= q
            if int(alive.sum()) < 2:
                continue  # degenerate cell: contributes no attempts
            sources, destinations = _ref_sample_pairs(alive, PAIRS, rng)
            succeeded, _ = _ref_route_xor(overlay, sources, destinations, alive)
            pooled[q][0] += PAIRS
            pooled[q][1] += int(np.count_nonzero(succeeded))
    for q in qs:
        attempts, successes = pooled[q]
        rows.append(
            {
                "q": q,
                "routability": (successes / attempts) if attempts else None,
                "failed_path_percent": (
                    100.0 * ((attempts - successes) / attempts) if attempts else None
                ),
                "attempts": attempts,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# the benchmark
# --------------------------------------------------------------------- #
def _row_bytes(sweep):
    """Canonical byte serialisation of a sweep's rows (bit-identity checks)."""
    return json.dumps(sweep.as_rows(), sort_keys=True).encode("utf-8")


def test_adaptive_allocation_saves_pairs_at_matched_halfwidth(benchmark):
    qs = list(BENCH_QS)
    runner = SweepRunner(
        pairs=PAIRS,
        replicates=MAX_TRIALS,
        workers=1,
        base_seed=SEED,
        backend="numpy",
    )

    # Uniform baseline — and the byte-for-byte check that the adaptive
    # refactor left the default (adaptive=None) path untouched.
    uniform = runner.sweep(GEOMETRY, BENCH_D, qs)
    reference_rows = _ref_uniform_rows(qs)
    assert json.dumps(uniform.as_rows(), sort_keys=True) == json.dumps(
        reference_rows, sort_keys=True
    ), "uniform-mode rows diverged from the vendored pre-adaptive reference"

    # The matched target: the worst pooled Wilson half-width the uniform
    # run achieved across the grid.
    uniform_halfwidths = [
        wilson_halfwidth(result.metrics.successes, result.metrics.attempts, CONFIDENCE)
        for result in uniform.results
        if result.metrics.measured
    ]
    ci_target = max(uniform_halfwidths)
    uniform_pairs = sum(result.metrics.attempts for result in uniform.results)

    adaptive_config = AdaptiveConfig(
        ci_target=ci_target,
        min_trials=MIN_TRIALS,
        max_trials=MAX_TRIALS,
        confidence=CONFIDENCE,
    )
    adaptive = benchmark.pedantic(
        lambda: runner.sweep(GEOMETRY, BENCH_D, qs, adaptive=adaptive_config),
        rounds=1,
        iterations=1,
    )
    report = runner.last_adaptive_report
    ledger = report.ledger(pairs=PAIRS, base_seed=SEED)
    adaptive_pairs = sum(result.metrics.attempts for result in adaptive.results)

    # Matched uncertainty: budget-capped points pool exactly the uniform
    # trial count, so nothing can exceed the uniform run's worst half-width.
    assert report.max_halfwidth <= ci_target + 1e-12, (
        f"adaptive max half-width {report.max_halfwidth:.5f} exceeds the "
        f"uniform target {ci_target:.5f}"
    )

    # Replay bit-identity: serialise, reload, replay, compare bytes.
    replayed = runner.sweep(
        GEOMETRY, BENCH_D, qs, replay_allocation=AllocationLedger.loads(ledger.dumps())
    )
    assert _row_bytes(replayed) == _row_bytes(adaptive), (
        "replayed-ledger rows are not bit-identical to the adaptive run"
    )
    for adaptive_result, replayed_result in zip(adaptive.results, replayed.results):
        left, right = adaptive_result.metrics, replayed_result.metrics
        assert adaptive_result.trials == replayed_result.trials
        assert (left.attempts, left.successes) == (right.attempts, right.successes)
        assert left.failure_reasons == right.failure_reasons
        for field in ("mean_hops_successful", "mean_hops_failed"):
            a, b = getattr(left, field), getattr(right, field)
            assert a == b or (math.isnan(a) and math.isnan(b)), (adaptive_result.q, field)

    pairs_saved_ratio = uniform_pairs / adaptive_pairs
    frozen_by = {}
    for allocation in report.allocations:
        frozen_by[allocation.frozen_by] = frozen_by.get(allocation.frozen_by, 0) + 1
    result_report = {
        "benchmark": "adaptive-trial-allocation",
        "geometry": GEOMETRY,
        "d": BENCH_D,
        "pairs": PAIRS,
        "min_trials": MIN_TRIALS,
        "max_trials": MAX_TRIALS,
        "confidence": CONFIDENCE,
        "failure_probabilities": qs,
        "python": platform.python_version(),
        "backend_name": "numpy",
        "ci_target": ci_target,
        "uniform_routed_pairs": uniform_pairs,
        "adaptive_routed_pairs": adaptive_pairs,
        "uniform_trials": report.trials_uniform,
        "adaptive_trials": report.trials_allocated,
        "trials_saved": report.trials_saved,
        "rounds": report.rounds,
        "adaptive_max_halfwidth": report.max_halfwidth,
        "frozen_by": frozen_by,
        "pairs_saved_ratio": pairs_saved_ratio,
        "ratio_floor": RATIO_FLOOR,
    }
    output_path = os.environ.get("RCM_BENCH_ADAPTIVE_JSON", "BENCH_adaptive.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(result_report, handle, indent=2)
        handle.write("\n")
    print()
    print(json.dumps(result_report, indent=2))

    assert pairs_saved_ratio >= RATIO_FLOOR, (
        f"adaptive allocation routed only {pairs_saved_ratio:.2f}x fewer pairs than "
        f"the uniform sweep at the same {ci_target:.4f} CI half-width target "
        f"(floor {RATIO_FLOOR:.0f}x; uniform {uniform_pairs} vs adaptive {adaptive_pairs})"
    )
