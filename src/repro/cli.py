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
    The given flags form one :class:`~repro.sim.request.SweepRequest`, the
    request ``POST /v1/sweeps`` accepts: the same validator rejects what the
    service rejects (exit 2, one line), and the same shard executor writes
    the ``--json`` result document, which is the service's shard result plus
    this run's ``workers``, ``profile`` and allocation settings.
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
    join/leave events drive per-step routability measurements, windows of
    steps are routed as one stacked batch each, ``--churn-repair-every``
    sets the repair period, and ``--profile`` then prints the churn phase
    breakdown (mask generation, kernel hops, reduction).  ``--adaptive
    --ci-target H`` switches to variance-adaptive trial allocation: the
    sweep runs in rounds and each ``q`` point freezes once its pooled
    routability CI half-width reaches ``H`` (``--trials`` becomes the
    per-point cap; ``--min-trials``/``--max-trials`` tune the schedule),
    ``--allocation-out`` records the schedule as a versioned ledger, and
    ``--replay-allocation`` replays a recorded ledger bit-identically.
``rcm bench-report [PATH ...] [--check] [--json OUT]``
    Render the performance trajectory: every ``BENCH_*.json`` benchmark
    artifact evaluated against its recorded floor in one table; ``--check``
    exits non-zero on any failed gate (the CI regression check).
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
from dataclasses import asdict
from typing import Optional, Sequence

from .core.geometry import list_geometries
from .core.routability import compare_geometries, routability
from .core.scalability import scalability_report
from .dht import OVERLAY_CLASSES
from .dht.failures import FAILURE_MODEL_KINDS
from .exceptions import ExperimentError, InvalidParameterError, ResultStoreError
from .report.tables import render_table
from .sim.backends import BACKEND_CHOICES, available_backends
from .sim.engine import PROFILE_PHASES, SweepRunner
from .workloads.generators import PairWorkload

__all__ = ["build_parser", "main"]


#: Defaults of the ``rcm simulate`` request fields.  The parser leaves every
#: simulate option ``None`` unless it is given, so the request mapping holds
#: exactly the given flags and a mode conflict names the flag that caused it.
_SIMULATE_DEFAULTS = {"d": 10, "pairs": 1000, "trials": 3, "seed": PairWorkload().seed}

#: The ``rcm simulate`` flags not spelled ``--`` + the field's last name.
_FLAGS = {
    "geometries": "--geometry",
    "failure_models": "--failure-model",
    "churn": "--churn-trace",
    "churn.repair_every": "--churn-repair-every",
}


def _flag(path: str) -> str:
    """How ``rcm simulate`` spells a request field (a dotted path) in an error message."""
    field = path.split("[")[0]
    return _FLAGS.get(field, "--" + field.rsplit(".", 1)[-1].replace("_", "-"))


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser that may add its flags on first use.

    ``add_flags(parser)``, if given, runs just before the parser first
    parses, so building ``rcm``'s parser never imports what one command's
    flags alone need: ``rcm serve`` takes its defaults from
    :class:`~repro.service.app.ServiceConfig`, and no other command may
    load the service tier.
    """

    def __init__(self, *args, add_flags=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            add_flags, self._add_flags = self._add_flags, None
            add_flags(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed separately for tests)."""
    parser = argparse.ArgumentParser(
        prog="rcm",
        description=(
            "Reachable Component Method: scalability and performance analysis of DHT routing "
            "systems (reproduction of Kong et al., DSN 2006)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

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
    simulate_parser.add_argument(
        "--d", type=int, help=f"identifier length (N = 2^d; default: {_SIMULATE_DEFAULTS['d']})"
    )
    simulate_parser.add_argument(
        "--q",
        type=float,
        nargs="+",
        help="failure probabilities (required unless --churn-trace is given)",
    )
    simulate_parser.add_argument("--pairs", type=int, help=f"default: {_SIMULATE_DEFAULTS['pairs']}")
    simulate_parser.add_argument(
        "--trials",
        type=int,
        help=f"failure patterns per point (default: {_SIMULATE_DEFAULTS['trials']})",
    )
    simulate_parser.add_argument("--seed", type=int, help=f"default: {_SIMULATE_DEFAULTS['seed']}")
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
            "step, and windows of steps are routed as one stacked batch each"
        ),
    )
    simulate_parser.add_argument(
        "--churn-repair-every",
        type=int,
        metavar="STEPS",
        help="re-establish routing tables every STEPS churn steps (with --churn-trace)",
    )
    _add_engine_arguments(simulate_parser, workers_default=None)
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
            "(default: 2)"
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
            "Evaluate every benchmark artifact against its recorded floor (the JIT "
            "backend's speedups over the vendored reference kernels, the adaptive "
            "allocator's pairs-saved ratio) and render one pass/fail table.  With no "
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

    subparsers.add_parser(
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
        add_flags=_add_serve_arguments,
    )
    return parser


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """``rcm serve``'s flags; each default is the :class:`ServiceConfig` field's."""
    from .service.app import ServiceConfig

    parser.add_argument(
        "--host", default=ServiceConfig.host, help="bind address (default: %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=ServiceConfig.port, help="bind port (default: %(default)s)"
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default="rcm_sweeps.db",
        help="persistent result store shared by every job (default: %(default)s)",
    )
    parser.add_argument(
        "--pairs",
        type=int,
        default=ServiceConfig.pairs,
        help="default pairs per cell for submissions that omit it",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=ServiceConfig.trials,
        help="default failure patterns per point (replicates)",
    )
    parser.add_argument(
        "--seed", type=int, default=ServiceConfig.seed, help="default base random seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=ServiceConfig.workers,
        help="engine worker processes per sweep shard",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=ServiceConfig.backend,
        help="kernel backend for the sweep engine (execution shape only; never changes results)",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=ServiceConfig.max_jobs,
        help="jobs executing concurrently; further submissions queue",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=ServiceConfig.max_queued,
        help="submission queue bound; beyond it submissions answer 503 with Retry-After (default: %(default)s)",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=ServiceConfig.rate_limit,
        metavar="PER_SECOND",
        help="sustained submissions accepted per second; beyond it submissions answer 429 (default: unlimited)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=ServiceConfig.shard_timeout,
        metavar="SECONDS",
        help=(
            "wall-clock budget per shard attempt; a timed-out shard is recorded failed and the "
            "job continues with the rest (default: %(default)s, 0 disables)"
        ),
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=ServiceConfig.shard_retries,
        help="extra attempts per shard after a transient failure, with exponential backoff (default: %(default)s)",
    )
    parser.add_argument(
        "--job-ttl",
        type=float,
        default=ServiceConfig.job_ttl,
        metavar="SECONDS",
        help="finished jobs older than this are evicted from the in-memory registry (default: %(default)s, 0 disables)",
    )
    parser.add_argument(
        "--max-retained-jobs",
        type=int,
        default=ServiceConfig.max_retained_jobs,
        help="finished jobs retained at most; the oldest are evicted first (default: %(default)s)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=ServiceConfig.request_timeout,
        metavar="SECONDS",
        help="per-connection read/write budget of the stdlib HTTP frontend (default: %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=ServiceConfig.drain_timeout,
        metavar="SECONDS",
        help="on SIGTERM, running jobs get this long to finish before being cancelled (default: %(default)s)",
    )
    dump = parser.add_mutually_exclusive_group()
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


def _add_engine_arguments(parser: argparse.ArgumentParser, workers_default: Optional[int] = 1) -> None:
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
        default=workers_default,
        help="worker processes for sweep fan-out (results are identical for any value; default: 1)",
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


def _loader(load, path: str, what: str):
    """A zero-argument loader of ``path`` that turns an OS error into a one-line error."""

    def read():
        try:
            return load(path)
        except OSError as error:
            raise InvalidParameterError(f"cannot read {what} {path!r}: {error.strerror or error}") from error

    return read


def _check_writable(path: str, flag: str) -> None:
    """Fail with a one-line error, before anything runs, when ``path`` cannot be written."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(directory):
        reason = f"directory {directory!r} does not exist"
    elif not os.access(directory, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise InvalidParameterError(f"cannot write {flag} file {path!r}: {reason}")


def _simulate_request(arguments: argparse.Namespace):
    """The :class:`~repro.sim.request.SweepRequest` of ``rcm simulate``.

    The mapping holds exactly the given flags, so the request validator names
    the flag a mode would ignore.  Checked here is only what the command
    line alone has: options of the local run (``--workers``, ``--store``,
    ``--allocation-out``) and flags that fill a nested request object
    without the flag that makes it.
    """
    from .sim.request import SweepRequest

    mapping: dict = {"geometries": [arguments.geometry]}
    for field in ("d", "q", "pairs", "trials", "seed"):
        if getattr(arguments, field) is not None:
            mapping[field] = getattr(arguments, field)
    if arguments.failure_model is not None:
        mapping["failure_models"] = [arguments.failure_model]
    name = _flag
    adaptive = {
        field: getattr(arguments, field)
        for field in ("ci_target", "min_trials", "max_trials")
        if getattr(arguments, field) is not None
    }
    if arguments.adaptive or adaptive:
        mapping["adaptive"] = adaptive
        if not arguments.adaptive:  # the object was made by its first given field
            first = _flag(next(iter(adaptive)))
            name = lambda path: first if path == "adaptive" else _flag(path)  # noqa: E731
    trace = ledger = None
    if arguments.churn_trace is not None:
        from .workloads.traces import load_trace

        for option in ("workers", "store", "allocation_out"):
            if getattr(arguments, option) is not None:
                raise InvalidParameterError(f"{_flag(option)} cannot be combined with --churn-trace")
        mapping["churn"] = {}
        if arguments.churn_repair_every is not None:
            mapping["churn"]["repair_every"] = arguments.churn_repair_every
        trace = _loader(load_trace, arguments.churn_trace, "churn trace")
    elif arguments.churn_repair_every is not None:
        raise InvalidParameterError("--churn-repair-every requires --churn-trace")
    elif adaptive and not arguments.adaptive:
        raise InvalidParameterError(f"{name('adaptive')} requires --adaptive")
    if arguments.replay_allocation is not None:
        from .sim.adaptive import AllocationLedger

        ledger = _loader(AllocationLedger.load, arguments.replay_allocation, "allocation ledger")
    request = SweepRequest.from_mapping(
        mapping, defaults=_SIMULATE_DEFAULTS, trace=trace, ledger=ledger, name=name
    )
    if arguments.allocation_out and request.adaptive is None and request.ledger is None:
        raise InvalidParameterError("--allocation-out requires --adaptive or --replay-allocation")
    return request


def _command_simulate(arguments: argparse.Namespace) -> str:
    from .sim.request import run_shard

    request = _simulate_request(arguments)
    for option in ("json", "allocation_out"):
        if getattr(arguments, option):
            _check_writable(getattr(arguments, option), _flag(option))
    ((geometry, model),) = request.shards
    sections = []
    if request.churn is not None:
        from .sim.churn import CHURN_PROFILE_PHASES as phases

        # The trace dictates the join/leave events; windows of steps are
        # routed as one stacked batch each.
        profile = {} if arguments.profile else None
        document = run_shard(request, geometry, model, None, arguments.backend, profile=profile)
        title = (
            f"Trace-driven churn: {geometry} overlay, N=2^{request.d}, "
            f"{request.trace.n_events} events over {request.trace.n_steps} steps"
        )
        run_context = {"churn_trace": arguments.churn_trace, "profile": profile}
    else:
        phases = PROFILE_PHASES
        workers = 1 if arguments.workers is None else arguments.workers
        # Each cell samples from its own stream, so the printed numbers are
        # identical for every --workers value and equal simulate_geometry's rows.
        cell_store = None
        if arguments.store:
            from .service.store import ResultStore

            cell_store = ResultStore.open(arguments.store)
        with SweepRunner(
            pairs=request.pairs,
            replicates=request.trials,
            workers=workers,
            base_seed=request.seed,
            backend=arguments.backend,
            cell_store=cell_store,
        ) as runner:
            document = run_shard(request, geometry, model, runner, arguments.backend)
            profile = runner.profile
            report = runner.last_adaptive_report
            if report is not None:
                mode = "replayed" if report.replayed else "adaptive"
                print(
                    f"[{mode}] {report.trials_allocated} of {report.trials_uniform} uniform "
                    f"trials allocated over {report.rounds} round(s); {report.trials_saved} saved",
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
        title = f"Measured routability: {geometry} overlay, N=2^{request.d}, {model} failures"
        if report is not None:
            config = report.config
            allocation_title = (
                "[adaptive] per-point trial allocation "
                f"(ci_target={config.ci_target:g}, max_trials={config.max_trials})"
            )
            sections += ["", render_table(report.as_rows(), title=allocation_title)]
            document["adaptive"].update(replayed=report.replayed, **asdict(config))
        run_context = {"workers": workers, "profile": profile}
    sections.insert(0, render_table(document["rows"], title=title))
    if arguments.profile and profile:
        profile_rows = _profile_rows(profile, known=phases)
        sections += ["", render_table(profile_rows, title="[profile] per-phase wall time")]
    if arguments.json:
        import json

        # The file is the shard's result document plus what only this run
        # knows; a service job echoes its request in the job status instead.
        document.update(run_context)
        with open(arguments.json, "w", encoding="utf-8") as handle:
            # allow_nan=False turns any non-finite value that slips past the
            # sanitizer into a hard error instead of invalid JSON output.
            json.dump(_json_safe(document), handle, indent=2, allow_nan=False)
            handle.write("\n")
    return "\n".join(sections)


def _command_bench_report(arguments: argparse.Namespace):
    """``rcm bench-report``: the perf-trajectory table; returns (output, all_pass)."""
    from .report.bench import discover_artifacts, evaluate_reports, summarize

    if arguments.json:
        _check_writable(arguments.json, "--json")
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
        job_ttl=arguments.job_ttl or None,
        max_retained_jobs=arguments.max_retained_jobs,
        shard_timeout=arguments.shard_timeout or None,
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

    Operational errors with an actionable message — an unusable persistent
    result store (``--store`` pointing at an unwritable path) or output file
    (``--json``, ``--allocation-out``), checked before anything runs — exit
    with code 2 and one line on stderr instead of a traceback.
    """
    parser = build_parser()
    arguments = parser.parse_args(list(argv) if argv is not None else None)
    if arguments.command == "simulate" and not arguments.q and not arguments.churn_trace:
        parser.error("simulate requires --q (or --churn-trace for trace-driven churn)")
    exit_code = 0
    try:
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
    except (ExperimentError, InvalidParameterError, ResultStoreError) as error:
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
