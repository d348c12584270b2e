"""Command-line interface: ``rcm`` (or ``python -m repro``).

Subcommands
-----------
``rcm list``
    List every registered experiment with its paper reference.
``rcm run FIG6A [--full] [--csv TABLE]``
    Run one experiment and print its tables (optionally one table as CSV).
``rcm routability --geometry xor --q 0.3 --d 16``
    Evaluate the analytical routability of one geometry at one point.
``rcm scalability``
    Print the Section 5 scalability classification.
``rcm simulate --geometry ring --d 10 --q 0.1 0.3 --pairs 1000``
    Run the Monte-Carlo overlay simulator and print measured routability.
    ``--failure-model`` swaps the paper's uniform failure model for one of
    the adversarial/correlated scenarios (degree-targeted, regional,
    subtree, uniform+regional — the ``--q`` values are then the model's
    severities); ``--backend
    auto|numpy|numba`` picks the kernel backend (``auto`` selects the
    fastest available — the JIT backend when the ``fast`` extra is
    installed) and ``--workers N`` fans the sweep across worker processes.
    All combinations measure bit-identical metrics.
    ``--profile`` additionally prints the per-phase wall-time breakdown
    (overlay build, mask generation, kernel hops, reduction), and ``--json
    PATH`` writes rows + profile + backend metadata to a strictly valid
    JSON file (non-finite metrics serialize as ``null``).  ``--store PATH``
    attaches the persistent result store: cells already cached there (by
    any earlier run or a running service) are recalled without simulation,
    and fresh cells are written back.  ``--churn-trace PATH`` switches to
    trace-driven churn replay (``--q`` becomes optional): the recorded
    join/leave events drive per-step routability measurements, one routing
    state is carried across steps, ``--churn-repair-every`` sets the
    repair period, and ``--profile`` then prints the churn phase breakdown
    (state update, kernel hops, reduction).  ``--adaptive
    --ci-target H`` switches to variance-adaptive trial allocation: the
    sweep runs in rounds and each ``q`` point freezes once its pooled
    routability CI half-width reaches ``H`` (``--trials`` becomes the
    per-point cap; ``--min-trials``/``--max-trials`` tune the schedule),
    ``--allocation-out`` records the schedule as a versioned ledger, and
    ``--replay-allocation`` replays a recorded ledger bit-identically.
``rcm bench-report [PATH ...] [--check] [--json OUT]``
    Render the performance trajectory: every ``BENCH_*.json`` benchmark
    artifact evaluated against its recorded gate (speedup floors,
    regression tolerances) in one table; ``--check`` exits non-zero on any
    failed gate (the CI regression check).
``rcm serve --store sweeps.db``
    Launch the asynchronous sweep service (see ``docs/api.md``): submit
    sweep grids over HTTP, poll or stream job results, share one
    persistent result cache across every request and process.  ``--dump
    -openapi`` / ``--dump-api-markdown`` print the API reference generated
    from the live route table instead of serving.

Correctness checks are user-runnable: ``python -m repro.sim.conformance``
executes the full oracle/KernelSpec parity battery standalone (the same
harness CI runs) and exits non-zero on the first violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from .core.geometry import list_geometries
from .core.routability import compare_geometries, routability
from .core.scalability import scalability_report
from .dht import OVERLAY_CLASSES
from .dht.failures import FAILURE_MODEL_KINDS
from .exceptions import InvalidParameterError, ResultStoreError
from .report.tables import render_table
from .sim.backends import BACKEND_CHOICES, available_backends
from .sim.engine import PROFILE_PHASES, SweepRunner
from .workloads.generators import PairWorkload

__all__ = ["build_parser", "main"]


#: Defaults the parser leaves as ``None`` so ``rcm simulate --churn-trace``
#: can reject the flag when it is given; :func:`_resolve_defaults` fills them in.
_DEFERRED_DEFAULTS = {"trials": 3, "workers": 1, "min_trials": 2, "failure_model": "uniform"}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed separately for tests)."""
    parser = argparse.ArgumentParser(
        prog="rcm",
        description=(
            "Reachable Component Method: scalability and performance analysis of DHT routing "
            "systems (reproduction of Kong et al., DSN 2006)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment by id (e.g. FIG6A)")
    run_parser.add_argument("experiment_id", help="experiment id from DESIGN.md (e.g. FIG7B)")
    run_parser.add_argument(
        "--full",
        action="store_true",
        help="run at paper scale (N = 2^16 simulations, full sweeps) instead of fast mode",
    )
    run_parser.add_argument("--csv", metavar="TABLE", help="emit one named table as CSV instead of text")
    run_parser.add_argument("--pairs", type=int, default=2000, help="Monte-Carlo pairs per trial")
    run_parser.add_argument("--trials", type=int, default=3, help="failure patterns per point")
    run_parser.add_argument("--seed", type=int, default=PairWorkload().seed, help="base random seed")
    _add_engine_arguments(run_parser)

    routability_parser = subparsers.add_parser(
        "routability", help="evaluate the analytical routability of one geometry"
    )
    routability_parser.add_argument("--geometry", required=True, choices=sorted(list_geometries()))
    routability_parser.add_argument("--q", type=float, required=True, help="node failure probability")
    routability_parser.add_argument("--d", type=int, required=True, help="identifier length (N = 2^d)")

    subparsers.add_parser("scalability", help="print the Section 5 scalability classification")

    compare_parser = subparsers.add_parser(
        "compare", help="compare all geometries at one (d, q) operating point"
    )
    compare_parser.add_argument("--q", type=float, default=0.1)
    compare_parser.add_argument("--d", type=int, default=16)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run the Monte-Carlo overlay simulator for one geometry"
    )
    # Simulation geometries come from the live overlay registry (every
    # self-registering overlay module, including extensions such as the de
    # Bruijn/Koorde geometry), not the analytical registry.
    simulate_parser.add_argument("--geometry", required=True, choices=sorted(OVERLAY_CLASSES))
    simulate_parser.add_argument("--d", type=int, default=10, help="identifier length (N = 2^d)")
    simulate_parser.add_argument(
        "--q",
        type=float,
        nargs="+",
        help="failure probabilities (required unless --churn-trace is given)",
    )
    simulate_parser.add_argument("--pairs", type=int, default=1000)
    simulate_parser.add_argument(
        "--trials",
        type=int,
        help=f"failure patterns per point (default: {_DEFERRED_DEFAULTS['trials']})",
    )
    simulate_parser.add_argument("--seed", type=int, default=PairWorkload().seed)
    simulate_parser.add_argument(
        "--failure-model",
        choices=FAILURE_MODEL_KINDS,
        help=(
            "failure model generating the survival masks: the paper's uniform model "
            "(default), degree-targeted, a contiguous ring region, an aligned identifier "
            "subtree, or a uniform+regional composite; the --q values are the model's "
            "severities"
        ),
    )
    simulate_parser.add_argument(
        "--churn-trace",
        metavar="PATH",
        help=(
            "replay a recorded churn trace (rcm-churn-trace v1 file) instead of "
            "sweeping static failure probabilities: nodes join and leave as the "
            "trace dictates, --pairs pairs are routed among usable nodes each "
            "step, and one routing state is carried across steps"
        ),
    )
    simulate_parser.add_argument(
        "--churn-repair-every",
        type=int,
        metavar="STEPS",
        help="re-establish routing tables every STEPS churn steps (with --churn-trace)",
    )
    _add_engine_arguments(simulate_parser)
    simulate_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the per-phase wall-time breakdown (overlay build, mask generation, "
            "kernel hops, reduction) after the results table"
        ),
    )
    simulate_parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the measured rows (plus profile and backend metadata) to a JSON file",
    )
    simulate_parser.add_argument(
        "--store",
        metavar="PATH",
        help=(
            "persistent result store (SQLite file): cells cached there by any earlier "
            "run or a running service are recalled without simulation, fresh cells are "
            "written back (results are bit-identical either way)"
        ),
    )
    simulate_parser.add_argument(
        "--adaptive",
        action="store_true",
        default=None,
        help=(
            "variance-adaptive trial allocation: run the sweep in rounds, freeze each "
            "q point once its pooled routability CI half-width reaches --ci-target, "
            "and spend the saved trials nowhere — --trials becomes the per-point cap "
            "(frozen points are bit-identical to a uniform sweep's first rounds)"
        ),
    )
    simulate_parser.add_argument(
        "--ci-target",
        type=float,
        metavar="HALFWIDTH",
        help="Wilson CI half-width a point must reach to freeze (required with --adaptive)",
    )
    simulate_parser.add_argument(
        "--min-trials",
        type=int,
        help=(
            "trials every point receives unconditionally in the first adaptive round "
            f"(default: {_DEFERRED_DEFAULTS['min_trials']})"
        ),
    )
    simulate_parser.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="per-point trial cap for adaptive allocation (default: --trials)",
    )
    simulate_parser.add_argument(
        "--allocation-out",
        metavar="PATH",
        help="record the allocation schedule (rcm-adaptive-allocation v1 ledger) for bit-identical replay",
    )
    simulate_parser.add_argument(
        "--replay-allocation",
        metavar="PATH",
        help=(
            "replay a recorded allocation ledger: run exactly the recorded per-point "
            "trials (no CI decisions), reproducing the recorded run's rows bit-identically"
        ),
    )

    bench_report_parser = subparsers.add_parser(
        "bench-report",
        help="render the perf-trajectory table from BENCH_*.json benchmark artifacts",
        description=(
            "Evaluate every benchmark artifact against its recorded gate (engine "
            "speedup floor, dispatch fusion floor, backend regression tolerance, "
            "churn and adaptive ratios) and render one pass/fail table.  With no "
            "paths, all BENCH_*.json files in the working directory are used."
        ),
    )
    bench_report_parser.add_argument(
        "artifacts",
        nargs="*",
        metavar="PATH",
        help="benchmark artifact files (default: ./BENCH_*.json)",
    )
    bench_report_parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the machine-readable summary (gates, failures, rows) to a JSON file",
    )
    bench_report_parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any gate fails (the CI regression check)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="launch the asynchronous sweep service (HTTP API over the batch engine)",
        description=(
            "Serve sweep grids over HTTP: POST /v1/sweeps returns a job id; poll "
            "GET /v1/jobs/{id}, fetch /results, or stream /stream; /healthz and "
            "/metrics support gateway probes and Prometheus scrapes.  Every completed "
            "cell is cached in the persistent --store, so identical cells are never "
            "simulated twice across requests or processes.  See docs/api.md (generated "
            "from the live route table) for the endpoint reference."
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve_parser.add_argument("--port", type=int, default=8642, help="bind port (default: %(default)s)")
    serve_parser.add_argument(
        "--store",
        metavar="PATH",
        default="rcm_sweeps.db",
        help="persistent result store shared by every job (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--pairs", type=int, default=2000, help="default pairs per cell for submissions that omit it"
    )
    serve_parser.add_argument(
        "--trials", type=int, default=3, help="default failure patterns per point (replicates)"
    )
    serve_parser.add_argument(
        "--seed", type=int, default=PairWorkload().seed, help="default base random seed"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1, help="engine worker processes per sweep shard"
    )
    serve_parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help="kernel backend for the sweep engine (execution shape only; never changes results)",
    )
    serve_parser.add_argument(
        "--max-jobs", type=int, default=2, help="jobs executing concurrently; further submissions queue"
    )
    serve_parser.add_argument(
        "--max-queued",
        type=int,
        default=16,
        help="submission queue bound; beyond it submissions answer 503 with Retry-After (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="PER_SECOND",
        help="sustained submissions accepted per second; beyond it submissions answer 429 (default: unlimited)",
    )
    serve_parser.add_argument(
        "--shard-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help=(
            "wall-clock budget per shard attempt; a timed-out shard is recorded failed and the "
            "job continues with the rest (default: %(default)s, 0 disables)"
        ),
    )
    serve_parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="extra attempts per shard after a transient failure, with exponential backoff (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--job-ttl",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="finished jobs older than this are evicted from the in-memory registry (default: %(default)s, 0 disables)",
    )
    serve_parser.add_argument(
        "--max-retained-jobs",
        type=int,
        default=512,
        help="finished jobs retained at most; the oldest are evicted first (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-connection read/write budget of the stdlib HTTP frontend (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on SIGTERM, running jobs get this long to finish before being cancelled (default: %(default)s)",
    )
    dump = serve_parser.add_mutually_exclusive_group()
    dump.add_argument(
        "--dump-openapi",
        action="store_true",
        help="print the OpenAPI 3.0 document generated from the live route table and exit",
    )
    dump.add_argument(
        "--dump-api-markdown",
        action="store_true",
        help="print the docs/api.md endpoint reference generated from the live route table and exit",
    )
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Engine-related options shared by the simulation-backed subcommands."""
    parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help=(
            "kernel backend: auto picks the fastest available; "
            f"available in this environment: {', '.join(available_backends())} "
            "(choices come from the live backend registry; results are bit-identical "
            "for every backend)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        help=(
            "worker processes for sweep fan-out (results are identical for any value; "
            f"default: {_DEFERRED_DEFAULTS['workers']})"
        ),
    )


def _command_list() -> str:
    from .experiments import list_experiments

    rows = [
        {"experiment": experiment_id, "title": title, "reproduces": reference}
        for experiment_id, title, reference in list_experiments()
    ]
    return render_table(rows, title="Available experiments")


def _command_run(arguments: argparse.Namespace) -> str:
    from .experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        fast=not arguments.full,
        workload=PairWorkload(pairs=arguments.pairs, trials=arguments.trials, seed=arguments.seed),
        workers=arguments.workers,
        backend=arguments.backend,
    )
    result = run_experiment(arguments.experiment_id, config)
    if arguments.csv:
        return result.to_csv(arguments.csv)
    return result.render()


def _command_routability(arguments: argparse.Namespace) -> str:
    value = routability(arguments.geometry, arguments.q, d=arguments.d)
    return (
        f"{arguments.geometry}: routability(N=2^{arguments.d}, q={arguments.q:g}) = {value:.6f} "
        f"({100 * (1 - value):.2f}% failed paths)"
    )


def _command_scalability() -> str:
    rows = scalability_report(list(list_geometries()))
    return render_table(rows, title="Scalability classification (Section 5)")


def _command_compare(arguments: argparse.Namespace) -> str:
    rows = compare_geometries(list(list_geometries()), arguments.q, d=arguments.d)
    return render_table(
        rows, title=f"Geometry comparison at N=2^{arguments.d}, q={arguments.q:g}"
    )


def _profile_rows(profile, known=PROFILE_PHASES) -> list:
    """Per-phase profile rows in canonical phase order (known phases first)."""
    ordered = [phase for phase in known if phase in profile]
    ordered += sorted(set(profile) - set(known))
    total = sum(profile.values()) or 1.0
    return [
        {
            "phase": phase,
            "seconds": profile[phase],
            "share_percent": 100.0 * profile[phase] / total,
        }
        for phase in ordered
    ]


def _json_safe(value: object) -> object:
    """Recursively replace non-finite floats with ``None`` so strict JSON accepts
    the payload (``json.dump(..., allow_nan=False)``): degenerate sweeps must
    export ``null``, never the literal ``NaN`` that ``jq``/``JSON.parse`` reject."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    return value


def _simulate_churn_trace(arguments: argparse.Namespace) -> str:
    """``rcm simulate --churn-trace``: replay a recorded churn trace.

    The trace dictates the join/leave events; ``--pairs`` pairs are routed
    among usable nodes each step (one routing state carried across steps and
    rebound to each step's usable mask).  ``--profile``
    prints the churn phase breakdown (:data:`CHURN_PROFILE_PHASES`).
    """
    from .sim.churn import CHURN_PROFILE_PHASES, ChurnConfig, simulate_churn
    from .sim.static_resilience import build_overlay
    from .workloads.traces import load_trace

    try:
        trace = load_trace(arguments.churn_trace)
    except OSError as error:
        raise InvalidParameterError(
            f"cannot read churn trace {arguments.churn_trace!r}: "
            f"{error.strerror or error}"
        ) from error
    overlay = build_overlay(arguments.geometry, arguments.d, seed=arguments.seed)
    config = ChurnConfig(
        pairs_per_step=arguments.pairs,
        trace=trace,
        repair_every=arguments.churn_repair_every,
    )
    profile = {} if arguments.profile else None
    result = simulate_churn(
        overlay, config, seed=arguments.seed, backend=arguments.backend, profile=profile
    )
    rows = result.as_rows()
    sections = [
        render_table(
            rows,
            title=(
                f"Trace-driven churn: {arguments.geometry} overlay, N=2^{arguments.d}, "
                f"{trace.n_events} events over {trace.n_steps} steps"
            ),
        )
    ]
    if profile:
        sections.append("")
        sections.append(
            render_table(
                _profile_rows(profile, known=CHURN_PROFILE_PHASES),
                title="[profile] per-phase wall time",
            )
        )
    if arguments.json:
        import json

        payload = {
            "geometry": arguments.geometry,
            "d": arguments.d,
            "churn_trace": arguments.churn_trace,
            "repair_every": arguments.churn_repair_every,
            "backend": result.backend_name,
            "rows": rows,
            "profile": profile,
        }
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(_json_safe(payload), handle, indent=2, allow_nan=False)
            handle.write("\n")
    return "\n".join(sections)


def _adaptive_arguments(arguments: argparse.Namespace):
    """Resolve the simulate subcommand's adaptive flags to ``(config, ledger)``.

    Exactly one of the two is non-``None`` in adaptive mode; both are
    ``None`` for a plain uniform sweep.
    """
    replay_path = getattr(arguments, "replay_allocation", None)
    adaptive = getattr(arguments, "adaptive", False)
    if not adaptive and not replay_path:
        if arguments.ci_target is not None:
            raise InvalidParameterError("--ci-target requires --adaptive")
        if arguments.allocation_out:
            raise InvalidParameterError(
                "--allocation-out requires --adaptive or --replay-allocation"
            )
        return None, None
    if replay_path:
        if adaptive or arguments.ci_target is not None:
            raise InvalidParameterError(
                "--replay-allocation replays a recorded schedule; "
                "do not combine it with --adaptive/--ci-target"
            )
        from .sim.adaptive import AllocationLedger

        try:
            ledger = AllocationLedger.load(replay_path)
        except OSError as error:
            raise InvalidParameterError(
                f"cannot read allocation ledger {replay_path!r}: "
                f"{error.strerror or error}"
            ) from error
        return None, ledger
    if arguments.ci_target is None:
        raise InvalidParameterError("--adaptive requires --ci-target")
    from .sim.adaptive import AdaptiveConfig

    config = AdaptiveConfig(
        ci_target=arguments.ci_target,
        min_trials=arguments.min_trials,
        max_trials=arguments.max_trials,
    )
    return config, None


#: ``rcm simulate`` options of the static sweep that trace-driven churn has
#: no use for: ``(argument name, flag)``.  Each parses to ``None`` when it is
#: not given, so :func:`_check_simulate_mode` can tell an explicit value
#: (even an explicit default) from an absent flag.
_STATIC_SWEEP_FLAGS = (
    ("q", "--q"),
    ("trials", "--trials"),
    ("workers", "--workers"),
    ("min_trials", "--min-trials"),
    ("failure_model", "--failure-model"),
    ("adaptive", "--adaptive"),
    ("ci_target", "--ci-target"),
    ("max_trials", "--max-trials"),
    ("allocation_out", "--allocation-out"),
    ("replay_allocation", "--replay-allocation"),
    ("store", "--store"),
)


def _check_simulate_mode(arguments: argparse.Namespace) -> None:
    """Reject options the chosen ``rcm simulate`` mode would silently ignore."""
    if not arguments.churn_trace:
        if arguments.churn_repair_every is not None:
            raise InvalidParameterError("--churn-repair-every requires --churn-trace")
        return
    given = [flag for name, flag in _STATIC_SWEEP_FLAGS if getattr(arguments, name) is not None]
    if given:
        raise InvalidParameterError(f"{given[0]} cannot be combined with --churn-trace")


def _resolve_defaults(arguments: argparse.Namespace) -> None:
    """Fill in every deferred default (:data:`_DEFERRED_DEFAULTS`) the command line left unset."""
    for name, default in _DEFERRED_DEFAULTS.items():
        if getattr(arguments, name, default) is None:
            setattr(arguments, name, default)


def _command_simulate(arguments: argparse.Namespace) -> str:
    if arguments.churn_trace:
        return _simulate_churn_trace(arguments)
    adaptive_config, replay_ledger = _adaptive_arguments(arguments)
    # Each cell samples from its own stream, so the printed numbers are
    # identical for every --workers value and equal simulate_geometry's rows.
    cell_store = None
    if getattr(arguments, "store", None):
        from .service.store import ResultStore

        cell_store = ResultStore.open(arguments.store)
    with SweepRunner(
        pairs=arguments.pairs,
        replicates=arguments.trials,
        workers=arguments.workers,
        base_seed=arguments.seed,
        backend=arguments.backend,
        cell_store=cell_store,
    ) as runner:
        sweep = runner.sweep(
            arguments.geometry,
            arguments.d,
            arguments.q,
            failure_model=arguments.failure_model,
            adaptive=adaptive_config,
            replay_allocation=replay_ledger,
        )
        profile = runner.profile
        adaptive_report = runner.last_adaptive_report
        if adaptive_report is not None:
            mode = "replayed" if adaptive_report.replayed else "adaptive"
            print(
                f"[{mode}] {adaptive_report.trials_allocated} of "
                f"{adaptive_report.trials_uniform} uniform trials allocated over "
                f"{adaptive_report.rounds} round(s); {adaptive_report.trials_saved} saved",
                file=sys.stderr,
            )
            if arguments.allocation_out:
                runner.last_allocation_ledger().save(arguments.allocation_out)
                print(
                    f"[{mode}] allocation ledger written to {arguments.allocation_out}",
                    file=sys.stderr,
                )
        if cell_store is not None:
            stats = runner.last_run_stats
            print(
                f"[store] {stats.cached} of {stats.requested} cells served from "
                f"{arguments.store} ({stats.computed} computed)",
                file=sys.stderr,
            )
            cell_store.close()
    rows = sweep.as_rows()
    sections = [
        render_table(
            rows,
            title=(
                f"Measured routability: {arguments.geometry} overlay, N=2^{arguments.d}, "
                f"{arguments.failure_model} failures"
            ),
        )
    ]
    if adaptive_report is not None:
        sections.append("")
        sections.append(
            render_table(
                adaptive_report.as_rows(),
                title=(
                    "[adaptive] per-point trial allocation "
                    f"(ci_target={adaptive_report.config.ci_target:g}, "
                    f"max_trials={adaptive_report.config.max_trials})"
                ),
            )
        )
    if arguments.profile and profile:
        sections.append("")
        sections.append(render_table(_profile_rows(profile), title="[profile] per-phase wall time"))
    if arguments.json:
        import json

        payload = {
            "geometry": arguments.geometry,
            "d": arguments.d,
            "failure_model": arguments.failure_model,
            "backend": sweep.backend_name,
            "workers": arguments.workers,
            "rows": rows,
            "profile": profile,
        }
        if adaptive_report is not None:
            config = adaptive_report.config
            payload["adaptive"] = {
                "replayed": adaptive_report.replayed,
                "rounds": adaptive_report.rounds,
                "ci_target": config.ci_target,
                "confidence": config.confidence,
                "min_trials": config.min_trials,
                "max_trials": config.max_trials,
                "trials_allocated": adaptive_report.trials_allocated,
                "trials_uniform": adaptive_report.trials_uniform,
                "trials_saved": adaptive_report.trials_saved,
                "max_ci_halfwidth": adaptive_report.max_halfwidth,
                "points": adaptive_report.as_rows(),
            }
        with open(arguments.json, "w", encoding="utf-8") as handle:
            # allow_nan=False turns any non-finite value that slips past the
            # sanitizer into a hard error instead of invalid JSON output.
            json.dump(_json_safe(payload), handle, indent=2, allow_nan=False)
            handle.write("\n")
    return "\n".join(sections)


def _command_bench_report(arguments: argparse.Namespace):
    """``rcm bench-report``: the perf-trajectory table; returns (output, all_pass)."""
    from .report.bench import discover_artifacts, evaluate_reports, summarize

    paths = list(arguments.artifacts) or discover_artifacts()
    rows = evaluate_reports(paths)
    summary = summarize(rows)
    table_rows = [
        {key: row[key] for key in ("benchmark", "metric", "value", "gate", "bound", "status", "source")}
        for row in rows
    ]
    sections = [
        render_table(table_rows, title="Performance trajectory (BENCH_*.json gates)"),
        "",
        (
            f"{summary['gates_total']} gate(s) across {len(summary['artifacts'])} artifact(s): "
            f"{summary['gates_failed']} failed"
        ),
    ]
    if arguments.json:
        import json

        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(_json_safe(summary), handle, indent=2, allow_nan=False)
            handle.write("\n")
    return "\n".join(sections), bool(summary["all_pass"])


def _command_serve(arguments: argparse.Namespace) -> Optional[str]:
    """``rcm serve``: dump the generated API reference, or serve until interrupted."""
    if arguments.dump_openapi or arguments.dump_api_markdown:
        # Documentation-only paths: generated from the live route table,
        # no store or server needed (handlers are never invoked).
        from .service.apidocs import generate_api_markdown, generate_openapi
        from .service.routes import build_routes

        routes = build_routes(None)
        if arguments.dump_openapi:
            import json

            return json.dumps(generate_openapi(routes), indent=2, allow_nan=False)
        return generate_api_markdown(routes)

    import asyncio

    from .service.app import ServiceConfig, serve

    config = ServiceConfig(
        store_path=arguments.store,
        host=arguments.host,
        port=arguments.port,
        pairs=arguments.pairs,
        trials=arguments.trials,
        seed=arguments.seed,
        workers=arguments.workers,
        backend=arguments.backend,
        max_jobs=arguments.max_jobs,
        max_queued=arguments.max_queued,
        rate_limit=arguments.rate_limit,
        job_ttl=arguments.job_ttl if arguments.job_ttl > 0 else None,
        max_retained_jobs=arguments.max_retained_jobs,
        shard_timeout=arguments.shard_timeout if arguments.shard_timeout > 0 else None,
        shard_retries=arguments.shard_retries,
        request_timeout=arguments.request_timeout,
        drain_timeout=arguments.drain_timeout,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Operational errors with an actionable message — currently an unusable
    persistent result store (``--store`` pointing at an unwritable path) —
    exit with code 2 and one line on stderr instead of a traceback.
    """
    parser = build_parser()
    arguments = parser.parse_args(list(argv) if argv is not None else None)
    if arguments.command == "simulate" and not arguments.q and not arguments.churn_trace:
        parser.error("simulate requires --q (or --churn-trace for trace-driven churn)")
    exit_code = 0
    try:
        if arguments.command == "simulate":
            _check_simulate_mode(arguments)
        _resolve_defaults(arguments)
        if arguments.command == "list":
            output = _command_list()
        elif arguments.command == "run":
            output = _command_run(arguments)
        elif arguments.command == "routability":
            output = _command_routability(arguments)
        elif arguments.command == "scalability":
            output = _command_scalability()
        elif arguments.command == "compare":
            output = _command_compare(arguments)
        elif arguments.command == "simulate":
            output = _command_simulate(arguments)
        elif arguments.command == "bench-report":
            output, gates_pass = _command_bench_report(arguments)
            if arguments.check and not gates_pass:
                exit_code = 1
        elif arguments.command == "serve":
            output = _command_serve(arguments)
            if output is None:
                return 0
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {arguments.command!r}")
            return 2
    except (InvalidParameterError, ResultStoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(output if output.endswith("\n") else output + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe: not an error.  Point
        # stdout at devnull so the interpreter's exit-time flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
