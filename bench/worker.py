"""Run one benchmark workload in this process and print its measurements.

``run.py`` starts this file in a fresh interpreter with ``src`` on
``PYTHONPATH``::

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python bench/worker.py --workload NAME --seed N --setup-only [--smoke]

The last line of standard output is one JSON document: every op's latency,
routed pairs, output digest and check errors, the end-to-end numbers
derived from them and, in a traced run, the per-layer numbers.  With
``--setup-only`` the process does exactly the workload's set-up, prints
``ready`` and exits; ``run.py`` times that from a fresh interpreter.

A traced run measures the same ops untraced as well (each op twice on the
same inputs for the sequential workloads, an untraced pass before the traced
one for the service): the outputs must be identical, and the gap between
traced and untraced latency is ``trace.overhead_frac``.

Every input comes from ``--seed``; the program only ever sees the generated
inputs.  The kernel backend is pinned to ``numpy``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from common import (
    GEOMETRIES,
    OUT_DIR,
    ROOT,
    WORKLOADS,
    canonical,
    derive_seed,
    digest,
    import_times,
    load_spec,
    median,
    percentile,
    program_env,
    read_line,
    stop_process,
)
from spans import (
    COUNTS,
    END,
    GEOMETRY,
    ID,
    LAYER,
    NAME,
    OP,
    OVERHEAD,
    PARENT,
    START,
    THREAD,
    Tracer,
    dump_spans,
    load_spans,
    self_times,
)

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch_traced.py")
SWEEP_Q = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
GRID_Q = (0.1, 0.3, 0.5, 0.7)

#: Workload sizes: the benchmark proper, and the ``--smoke`` size the
#: self-test runs (d=10, a fixed two timed ops).
SIZES = {
    "full": {
        "sweep-d16": {"d": 16, "pairs": 2000, "replicates": 4},
        "churn-d16": {"d": 16, "steps": 100, "pairs": 2000, "repair_every": 25},
        "service-mixed": {
            "d": 14, "grid_pairs": 1000, "grid_trials": 1, "adaptive_pairs": 1000,
            "adaptive_trials": 8, "ci_target": 0.02, "min_jobs": 8, "min_total_jobs": 200,
        },
        "cli-cold": {"d": 14, "pairs": 1000, "trials": 8},
    },
    "smoke": {
        "sweep-d16": {"d": 10, "pairs": 200, "replicates": 2},
        "churn-d16": {"d": 10, "steps": 20, "pairs": 200, "repair_every": 5},
        "service-mixed": {
            "d": 10, "grid_pairs": 100, "grid_trials": 1, "adaptive_pairs": 200,
            "adaptive_trials": 4, "ci_target": 0.02, "min_jobs": 4, "min_total_jobs": 8,
        },
        "cli-cold": {"d": 10, "pairs": 200, "trials": 2},
    },
}
CHURN_GEOMETRIES = ("xor", "ring", "tree")
SERVICE_GEOMETRIES = ("xor", "ring", "tree")
#: Timed ops at least, whatever ``--seconds`` says (the smoke size runs
#: exactly this many).
MIN_TIMED = {"full": 5, "smoke": 2}
#: Slack allowed when a routability curve rises with q (sampling noise).
MONOTONE_SLACK = {"full": 0.02, "smoke": 0.08}
ORACLE_PAIRS = 100


class Context:
    """Run parameters shared by every workload."""

    def __init__(self, args, tmp: Optional[str]) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size_name = "smoke" if args.smoke else "full"
        self.size = SIZES[self.size_name][args.workload]
        self.tmp = tmp
        self.tracer: Optional[Tracer] = None

    def seed_for(self, purpose: str, index: int) -> int:
        return derive_seed(self.seed, purpose, index)


# ---------------------------------------------------------------------- #
# output checks shared by the library workloads
# ---------------------------------------------------------------------- #
def sweep_row_errors(label: str, rows, q_values, attempts: int, slack: float) -> List[str]:
    """Structural checks of one geometry's sweep rows."""
    errors = []
    if [row["q"] for row in rows] != list(q_values):
        return [f"{label}: rows cover q={[row['q'] for row in rows]}, expected {list(q_values)}"]
    previous = None
    for row in rows:
        routability = row["routability"]
        if row["attempts"] != attempts:
            errors.append(f"{label} q={row['q']}: {row['attempts']} attempts, expected {attempts}")
        if routability is None or not 0.0 <= routability <= 1.0:
            errors.append(f"{label} q={row['q']}: routability {routability!r} outside [0, 1]")
            continue
        if abs(row["failed_path_percent"] - 100.0 * (1.0 - routability)) > 1e-6:
            errors.append(f"{label} q={row['q']}: failed_path_percent disagrees with routability")
        if previous is not None and routability > previous + slack:
            errors.append(f"{label} q={row['q']}: routability rises from {previous} to {routability}")
        previous = routability
    return errors


def oracle_errors(label: str, overlay, alive, rng) -> List[str]:
    """Route sampled pairs through the batch kernels and the scalar oracle.

    ``Overlay.route`` is the program's reference routing rule; the numpy
    kernels must agree with it pair for pair (success, hops, failure reason).
    """
    from repro.sim.engine import route_pairs
    from repro.sim.sampling import sample_survivor_pair_arrays

    sources, destinations = sample_survivor_pair_arrays(alive, ORACLE_PAIRS, rng)
    outcome = route_pairs(overlay, sources, destinations, alive, backend="numpy")
    for index, (source, destination) in enumerate(zip(sources.tolist(), destinations.tolist())):
        scalar = overlay.route(source, destination, alive)
        batch = (bool(outcome.succeeded[index]), int(outcome.hops[index]), outcome.failure_reason(index))
        expected = (scalar.succeeded, len(scalar.path) - 1, scalar.failure_reason)
        if batch != expected:
            return [f"{label}: pair {source}->{destination} routed {batch}, oracle says {expected}"]
    return []


# ---------------------------------------------------------------------- #
# sequential in-process workloads
# ---------------------------------------------------------------------- #
class LibraryWorkload:
    """An in-process workload whose op returns ``{geometry: rows}``."""

    ctx: Context

    def run_op(self, index: int, inputs, traced: bool) -> Tuple[object, float]:
        """One op and its latency; ``traced`` installs the tracer around it."""
        tracer = self.ctx.tracer
        if traced:
            tracer.op = index
            tracer.install()
        try:
            started = time.perf_counter()
            result = self.op(index, inputs)
            return result, time.perf_counter() - started
        finally:
            if traced:
                tracer.uninstall()
                tracer.op = None

    @staticmethod
    def rows(result):
        return result

    @staticmethod
    def pairs(rows) -> int:
        return sum(row["attempts"] for geometry_rows in rows.values() for row in geometry_rows)


class SweepWorkload(LibraryWorkload):
    """``sweep-d16``: the paper's Fig. 6 grid at N = 2^16, six geometries.

    One op runs a fresh ``SweepRunner`` through ``.sweep(g, d, q=0.1..0.8)``
    for every geometry, with its own derived ``base_seed`` so no cache can
    win by replaying identical inputs.
    """

    def __init__(self, ctx: Context) -> None:
        from repro.sim.engine import SweepRunner

        self.ctx = ctx
        self.runner_cls = SweepRunner

    def inputs(self, index: int):
        return self.ctx.seed_for("sweep", index)

    def sweep(self, geometry: str, base_seed: int, q_values):
        size = self.ctx.size
        with self.runner_cls(
            pairs=size["pairs"], replicates=size["replicates"], workers=1,
            backend="numpy", base_seed=base_seed,
        ) as runner:
            return runner.sweep(geometry, size["d"], list(q_values)).as_rows()

    def op(self, index: int, base_seed: int):
        return {geometry: self.sweep(geometry, base_seed, SWEEP_Q) for geometry in GEOMETRIES}

    def check(self, index: int, base_seed: int, rows) -> List[str]:
        import numpy as np

        from repro.sim.static_resilience import build_overlay

        size = self.ctx.size
        attempts = size["pairs"] * size["replicates"]
        errors = []
        for geometry in GEOMETRIES:
            errors += sweep_row_errors(
                geometry, rows[geometry], SWEEP_Q, attempts, MONOTONE_SLACK[self.ctx.size_name]
            )
        # One geometry and q per op, rotating: a one-point sweep fuses four
        # cells instead of 32, and must reproduce the grid's row exactly.
        geometry = GEOMETRIES[index % len(GEOMETRIES)]
        q = SWEEP_Q[index % len(SWEEP_Q)]
        alone = self.sweep(geometry, base_seed, (q,))
        if canonical(alone[0]) != canonical(rows[geometry][SWEEP_Q.index(q)]):
            errors.append(f"{geometry} q={q}: one-point sweep {alone[0]} differs from the grid row")
        rng = np.random.default_rng(self.ctx.seed_for("sweep-oracle", index))
        overlay = build_overlay(geometry, size["d"], seed=self.ctx.seed_for("sweep-overlay", index))
        errors += oracle_errors(geometry, overlay, rng.random(overlay.n_nodes) >= 0.3, rng)
        return errors


class ChurnWorkload(LibraryWorkload):
    """``churn-d16``: trace-driven churn on prebuilt xor, ring and tree overlays.

    Set-up builds the overlays; one op replays a fresh Pareto-session trace
    on all three with small per-step batches and delta-updated routing state.
    """

    def __init__(self, ctx: Context) -> None:
        from repro.sim import churn
        from repro.sim.static_resilience import build_overlay
        from repro.workloads.traces import pareto_session_trace

        self.ctx = ctx
        # Looked up per op, so a traced run sees the wrapped simulate_churn.
        self.churn = churn
        self.make_trace = pareto_session_trace
        self.overlays = {}
        for position, geometry in enumerate(CHURN_GEOMETRIES):
            overlay = build_overlay(geometry, ctx.size["d"], seed=ctx.seed_for("churn-overlay", position))
            overlay.neighbor_array()
            self.overlays[geometry] = overlay

    def inputs(self, index: int):
        size = self.ctx.size
        trace = self.make_trace(
            2 ** size["d"], size["steps"], seed=self.ctx.seed_for("churn-trace", index)
        )
        return trace, self.ctx.seed_for("churn-pairs", index)

    def op(self, index: int, inputs):
        trace, pair_seed = inputs
        size = self.ctx.size
        config = self.churn.ChurnConfig(
            pairs_per_step=size["pairs"], trace=trace, repair_every=size["repair_every"]
        )
        return {
            geometry: self.churn.simulate_churn(overlay, config, seed=pair_seed, backend="numpy").as_rows()
            for geometry, overlay in self.overlays.items()
        }

    def check(self, index: int, inputs, rows) -> List[str]:
        """Replay the documented churn semantics independently.

        Usable nodes are those online at the last repair and online now; each
        step with two or more usable nodes draws its pairs from one generator
        seeded with the op's seed.  Every step's usable fraction and attempt
        count is recomputed, and three steps are routed again from a fresh
        prepare, which must match the delta-updated state's rows exactly.
        """
        import numpy as np

        from repro.sim.engine import route_pairs
        from repro.sim.sampling import sample_survivor_pair_arrays

        trace, pair_seed = inputs
        size = self.ctx.size
        steps, repair_every = size["steps"], size["repair_every"]
        rerouted = {1, repair_every + 1, steps}
        errors = []
        for geometry, overlay in self.overlays.items():
            geometry_rows = rows[geometry]
            if len(geometry_rows) != steps:
                errors.append(f"{geometry}: {len(geometry_rows)} rows, expected {steps}")
                continue
            generator = np.random.default_rng(pair_seed)
            online = np.ones(overlay.n_nodes, dtype=bool)
            at_repair = online.copy()
            since_repair = 0
            for step, row in enumerate(geometry_rows, start=1):
                if since_repair >= repair_every:
                    at_repair = online.copy()
                    since_repair = 0
                nodes, joins = trace.events_at(step)
                online[nodes[~joins]] = False
                online[nodes[joins]] = True
                since_repair += 1
                usable = at_repair & online
                label = f"{geometry} step {step}"
                if row["usable_fraction"] != float(usable.mean()):
                    errors.append(f"{label}: usable fraction {row['usable_fraction']}, expected {usable.mean()}")
                if int(usable.sum()) < 2:
                    if row["attempts"] != 0:
                        errors.append(f"{label}: {row['attempts']} attempts with < 2 usable nodes")
                    continue
                if row["attempts"] != size["pairs"]:
                    errors.append(f"{label}: {row['attempts']} attempts, expected {size['pairs']}")
                routability = row["measured_routability"]
                if routability is None or not 0.0 <= routability <= 1.0:
                    errors.append(f"{label}: routability {routability!r} outside [0, 1]")
                sources, destinations = sample_survivor_pair_arrays(usable, size["pairs"], generator)
                if step in rerouted:
                    fresh = route_pairs(overlay, sources, destinations, usable, backend="numpy")
                    if fresh.to_metrics().routability_or_none != routability:
                        errors.append(f"{label}: delta-updated routability {routability} differs from a fresh prepare")
            if errors:
                break
        return errors


class CliWorkload:
    """``cli-cold``: fresh ``rcm simulate`` processes, one per op.

    Import and start-up dominate; the kernels do little.  Outputs are the
    ``--json`` rows, which must equal the library's ``SweepRunner.sweep``.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.traced: Dict[int, dict] = {}

    def inputs(self, index: int) -> int:
        return self.ctx.seed_for("cli", index)

    def run_op(self, index: int, seed: int, traced: bool) -> Tuple[dict, float]:
        """One ``rcm simulate`` process and its latency.

        ``traced`` starts it through the launcher under ``-X importtime``;
        the spans go to ``cli-<index>.spans.json`` in the run's scratch space.
        """
        size = self.ctx.size
        output = os.path.join(self.ctx.tmp, f"cli-{index}{'-traced' if traced else ''}.json")
        arguments = [
            "simulate", "--geometry", "xor", "--d", str(size["d"]),
            "--q", *[str(q) for q in GRID_Q], "--pairs", str(size["pairs"]),
            "--trials", str(size["trials"]), "--backend", "numpy", "--seed", str(seed),
            "--json", output,
        ]
        if traced:
            spans = os.path.join(self.ctx.tmp, f"cli-{index}.spans.json")
            command = [sys.executable, "-X", "importtime", LAUNCHER, spans, *arguments]
        else:
            command = [sys.executable, "-m", "repro", *arguments]
        started = time.perf_counter()
        process = subprocess.run(
            command, cwd=ROOT, env=program_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        seconds = time.perf_counter() - started
        payload = None
        if process.returncode == 0:
            with open(output, encoding="utf-8") as handle:
                payload = json.load(handle)
        result = {"returncode": process.returncode, "stderr": process.stderr, "payload": payload}
        if traced:
            self.traced[index] = result
        return result, seconds

    @staticmethod
    def rows(result):
        return result["payload"]["rows"] if result["payload"] else None

    @classmethod
    def pairs(cls, result) -> int:
        rows = cls.rows(result)
        return sum(row["attempts"] for row in rows) if rows else 0

    def check(self, index: int, seed: int, result) -> List[str]:
        from repro.sim.engine import SweepRunner

        if result["returncode"] != 0:
            tail = result["stderr"].strip().splitlines()[-1:] or ["(no stderr)"]
            return [f"rcm simulate exited {result['returncode']}: {tail[0]}"]
        size = self.ctx.size
        rows = self.rows(result)
        errors = sweep_row_errors(
            "xor", rows, GRID_Q, size["pairs"] * size["trials"], MONOTONE_SLACK[self.ctx.size_name]
        )
        with SweepRunner(
            pairs=size["pairs"], replicates=size["trials"], base_seed=seed, backend="numpy"
        ) as runner:
            expected = runner.sweep("xor", size["d"], list(GRID_Q)).as_rows()
        if canonical(rows) != canonical(expected):
            errors.append("rcm simulate rows differ from SweepRunner.sweep on the same inputs")
        return errors


def run_sequential(ctx: Context, workload) -> List[dict]:
    """1 untimed warm-up op, then timed ops for about ``--seconds`` of op time.

    Inputs are generated and outputs checked outside the timed region.  A
    traced run runs every op twice on the same inputs, traced and untraced,
    alternating which goes first: the outputs must be identical, and both
    latencies are kept (``seconds``, ``untraced_seconds``).  Timed ops stop
    before the next one would take the op time past ``--seconds``.
    """
    ops: List[dict] = []

    def one(index: int, timed: bool) -> float:
        inputs = workload.inputs(index)
        modes = ((True, False) if index % 2 else (False, True)) if ctx.trace else (False,)
        runs = {traced: workload.run_op(index, inputs, traced) for traced in modes}
        result, seconds = runs[ctx.trace]
        try:
            errors = workload.check(index, inputs, result)
        except Exception as error:  # a crashing check is a failed op, not a crashed run
            errors = [f"check raised {type(error).__name__}: {error}"]
        op = {
            "key": str(index), "timed": timed, "seconds": seconds,
            "pairs": workload.pairs(result), "digest": digest(workload.rows(result)), "errors": errors,
        }
        if ctx.trace:
            untraced, op["untraced_seconds"] = runs[False]
            if digest(workload.rows(untraced)) != op["digest"]:
                errors.append("traced output differs from the untraced run of the same inputs")
        ops.append(op)
        return sum(seconds for _, seconds in runs.values())

    one(0, timed=False)
    minimum = MIN_TIMED[ctx.size_name]
    spent = 0.0
    count = 0
    while True:
        count += 1
        spent += one(count, timed=True)
        if count < minimum:
            continue
        if ctx.size_name == "smoke" or spent + spent / count > ctx.seconds:
            break
    return ops


def overhead_frac(timed: List[dict]) -> float:
    """Tracing overhead: the median, over ops, of traced over untraced latency, minus 1.

    Each op ran on the same inputs both ways, so the ratio cancels what
    varies between inputs and drifts between ops.
    """
    return median([op["seconds"] / op["untraced_seconds"] for op in timed]) - 1.0


def run_library(ctx: Context, workload) -> dict:
    """``sweep-d16`` / ``churn-d16``: the library API, in this process."""
    if ctx.trace:
        ctx.tracer = Tracer()
    ops = run_sequential(ctx, workload)
    timed = [op for op in ops if op["timed"]]
    wall = sum(op["seconds"] for op in timed)
    result = summarize(ops, wall)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ctx.trace:
        indices = {int(op["key"]) for op in timed}
        spans = [span for span in ctx.tracer.spans if span[OP] in indices]
        top = sum(span[END] - span[START] for span in spans if span[PARENT] == 0)
        layers = span_layer_metrics(spans, len(timed), wall)
        layers["trace.attributed_frac"] = top / wall
        layers["trace.overhead_frac"] = overhead_frac(timed)
        result["layers"] = layers
        dump_spans(spans_path(ctx.workload), spans)
    return result


def run_cli(ctx: Context) -> dict:
    """``cli-cold``: sequential fresh ``rcm simulate`` processes."""
    workload = CliWorkload(ctx)
    ops = run_sequential(ctx, workload)
    timed = [op for op in ops if op["timed"]]
    wall = sum(op["seconds"] for op in timed)
    result = summarize(ops, wall)
    # Only the rcm children were waited for, so this is their high-water mark.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if ctx.trace:
        spans: List[tuple] = []
        imported = simulated = top = 0.0
        for position, op in enumerate(timed):
            index = int(op["key"])
            traced = workload.traced[index]
            child = load_spans(os.path.join(ctx.tmp, f"cli-{index}.spans.json"), position * 10**9)
            spans += child
            families = import_times(traced["stderr"].splitlines())
            phases = sum((traced["payload"] or {}).get("profile", {}).values())
            imported += families["total"]
            simulated += phases
            top += families["total"] + sum(s[END] - s[START] for s in child if s[PARENT] == 0)
        layers = span_layer_metrics(spans, len(timed), wall)
        layers["cli.sim_s"] = simulated / len(timed)
        layers["cli.unattributed_s"] = (wall - imported - simulated) / len(timed)
        layers["trace.attributed_frac"] = top / wall
        layers["trace.overhead_frac"] = overhead_frac(timed)
        result["layers"] = layers
        dump_spans(spans_path(ctx.workload), spans)
    return result


# ---------------------------------------------------------------------- #
# the service workload
# ---------------------------------------------------------------------- #
class ServiceWorkload:
    """``service-mixed``: ``rcm serve`` over HTTP, 2 closed-loop clients.

    Phase 1 sends cold grid jobs and cold adaptive jobs; the server is then
    stopped with SIGTERM (graceful drain) and restarted on the same store;
    phase 2 interleaves exact repeats of phase-1 grid jobs ("warm", answered
    from the persistent store with no kernel work) with new cold jobs.
    """

    CLIENTS = 2

    def __init__(self, ctx: Context, traced: bool, share: float = 1.0, prefix: str = "") -> None:
        """A pass given ``share`` of ``--seconds`` and of the job floor; ``prefix`` names its keys and files."""
        self.ctx = ctx
        self.traced = traced
        self.seconds = ctx.seconds * share
        # The p95 over all jobs of a full run needs ten samples beyond it.
        self.min_total_jobs = round(ctx.size["min_total_jobs"] * share)
        self.prefix = prefix
        self.store = os.path.join(ctx.tmp, f"{prefix}store.db")
        self.records: List[dict] = []
        self.lock = threading.Lock()
        self.cold_phase1: List[dict] = []

    # --- server lifecycle ------------------------------------------------
    def start_server(self, phase: int):
        arguments = [
            "serve", "--port", "0", "--store", self.store, "--max-jobs", "2", "--backend", "numpy",
        ]
        if self.traced:
            spans = os.path.join(self.ctx.tmp, f"server-{phase}.spans.json")
            command = [sys.executable, LAUNCHER, spans, *arguments]
        else:
            command = [sys.executable, "-m", "repro", *arguments]
        with open(os.path.join(self.ctx.tmp, f"{self.prefix}server-{phase}.err"), "w") as errors:
            process = subprocess.Popen(
                command, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                stderr=errors, text=True,
            )
        line = read_line(process, "listening on", timeout=60)
        match = re.search(r"http://([^:/\s]+):(\d+)", line or "")
        if match is None:
            stop_process(process)
            raise RuntimeError(f"rcm serve did not report a listening address (got {line!r})")
        return process, match.group(1), int(match.group(2))

    # --- the job plan ----------------------------------------------------
    def payload(self, kind: str, key: int) -> dict:
        size = self.ctx.size
        seed = self.ctx.seed_for(f"service-{kind}", key)
        if kind == "cold":
            return {
                "geometries": list(SERVICE_GEOMETRIES), "d": size["d"], "q": list(GRID_Q),
                "failure_models": ["uniform", "targeted"], "pairs": size["grid_pairs"],
                "trials": size["grid_trials"], "seed": seed,
            }
        return {
            "geometries": ["xor"], "d": size["d"], "q": list(GRID_Q),
            "pairs": size["adaptive_pairs"], "trials": size["adaptive_trials"], "seed": seed,
            "adaptive": {"ci_target": size["ci_target"]},
        }

    def plan(self, phase: int, k: int):
        """(class, payload, repeated record) of job ``k`` of ``phase``."""
        if phase == 1:
            kind = "adaptive" if k % 4 == 3 else "cold"
            return kind, self.payload(kind, k), None
        if k % 2 == 0:
            target = self.cold_phase1[(k // 2) % len(self.cold_phase1)]
            return "warm", target["payload"], target
        j = k // 2
        kind = "adaptive" if j % 4 == 3 else "cold"
        return kind, self.payload(kind, 100000 + j), None

    # --- one job over HTTP -----------------------------------------------
    def run_job(self, host: str, port: int, phase: int, k: int) -> dict:
        kind, payload, repeated = self.plan(phase, k)
        record = {
            "key": f"{self.prefix}{phase}-{k}", "k": k, "phase": phase, "class": kind,
            "payload": payload, "repeated": repeated, "errors": [], "results": [], "status": None,
        }
        started = time.perf_counter()
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            connection.request(
                "POST", "/v1/sweeps", body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        record["submit_s"] = time.perf_counter() - started
        if response.status != 202:
            record["errors"].append(f"POST /v1/sweeps answered {response.status}: {body[:200]!r}")
            record["seconds"] = time.perf_counter() - started
            return record
        job_id = json.loads(body)["job_id"]
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/stream")
            response = connection.getresponse()
            if response.status != 200:
                record["errors"].append(f"GET stream answered {response.status}")
            else:
                for line in response:
                    event = json.loads(line)
                    if event["event"] == "shard":
                        record["results"].append(event["result"])
                    elif event["event"] == "end":
                        record["received"] = time.time()
                        record["status"] = event["status"]
                        break
        finally:
            connection.close()
        record["seconds"] = time.perf_counter() - started
        return record

    def phase(self, host: str, port: int, phase: int) -> float:
        """Run one phase with the closed-loop clients; returns its wall time."""
        counter = iter(range(10**9))
        size_name = self.ctx.size_name
        minimum = self.ctx.size["min_jobs"]
        if phase == 2:
            minimum = max(minimum, self.min_total_jobs - len(self.records))
        started = time.perf_counter()
        deadline = started + self.seconds / 2.0

        def client() -> None:
            while True:
                with self.lock:
                    k = next(counter)
                    if k >= minimum and (size_name == "smoke" or time.perf_counter() >= deadline):
                        return
                job_started = time.perf_counter()
                try:
                    record = self.run_job(host, port, phase, k)
                except Exception as error:  # a client must record a failed job, not die
                    kind, payload, _ = self.plan(phase, k)
                    record = {
                        "key": f"{self.prefix}{phase}-{k}", "k": k, "phase": phase, "class": kind,
                        "payload": payload,
                        "results": [], "status": None, "seconds": time.perf_counter() - job_started,
                        "errors": [f"request failed: {type(error).__name__}: {error}"],
                    }
                with self.lock:
                    self.records.append(record)

        threads = [threading.Thread(target=client, name=f"bench-client-{n}") for n in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started

    # --- checks ----------------------------------------------------------
    def check(self, record: dict) -> None:
        status = record["status"]
        errors = record["errors"]
        if status is None:
            if not errors:
                errors.append("stream ended without an end event")
            return
        if status["state"] != "done":
            errors.append(f"job ended {status['state']}: {status.get('error')}")
        shards = status["shards"]
        if shards["done"] != shards["total"] or len(record["results"]) != shards["total"]:
            errors.append(f"{shards['done']} of {shards['total']} shards done")
        if record["class"] == "warm":
            if status["cells"]["computed"] != 0:
                errors.append(f"warm job computed {status['cells']['computed']} cells")
            if canonical(record["results"]) != canonical(record["repeated"]["results"]):
                errors.append("warm job rows differ from the cold rows of the same request")

    def library_errors(self, record: dict) -> List[str]:
        """The job's rows must equal ``SweepRunner.sweep`` on the same request."""
        from repro.sim.adaptive import AdaptiveConfig
        from repro.sim.engine import SweepRunner

        payload = record["payload"]
        adaptive = payload.get("adaptive")
        expected = []
        with SweepRunner(
            pairs=payload["pairs"], replicates=payload["trials"], base_seed=payload["seed"],
            backend="numpy",
        ) as runner:
            for geometry in payload["geometries"]:
                for model in payload.get("failure_models", ["uniform"]):
                    sweep = runner.sweep(
                        geometry, payload["d"], payload["q"], model,
                        adaptive=AdaptiveConfig(ci_target=adaptive["ci_target"]) if adaptive else None,
                    )
                    expected.append(sweep.as_rows())
        got = [result["rows"] for result in record["results"]]
        if canonical(got) != canonical(expected):
            return [f"job {record['key']}: rows differ from SweepRunner.sweep on the same request"]
        return []

    # --- the whole run ---------------------------------------------------
    def run(self, reference: Optional[Dict[str, str]] = None) -> dict:
        """Both phases, the output checks and this pass's numbers.

        ``reference`` maps a request (its canonical JSON) to the row digest
        an untraced pass produced for it; a job of the same request must
        produce the same rows.
        """
        process, host, port = self.start_server(1)
        try:
            wall = self.phase(host, port, 1)
            self.cold_phase1 = sorted(
                (r for r in self.records if r["class"] == "cold" and not r["errors"] and r["status"]),
                key=lambda r: r["k"],
            )
            restart_started = time.perf_counter()
            stop_process(process)
            if process.returncode != 0:
                raise RuntimeError(f"rcm serve exited {process.returncode} on SIGTERM")
            process, host, port = self.start_server(2)
            restart_s = time.perf_counter() - restart_started
            if not self.cold_phase1:
                raise RuntimeError("no phase-1 cold job completed; nothing to repeat warm")
            wall += self.phase(host, port, 2)
        finally:
            stop_process(process)
        if process.returncode != 0:
            raise RuntimeError(f"rcm serve exited {process.returncode} on SIGTERM")
        records = sorted(self.records, key=lambda r: (r["phase"], r["k"]))
        for record in records:
            self.check(record)
            expected = (reference or {}).get(canonical(record["payload"]))
            if expected is not None and expected != digest(record["results"]):
                record["errors"].append("traced job rows differ from the untraced pass's rows of the same request")
        checked = set()
        for record in records:
            group = (record["phase"], record["class"])
            if group in checked or record["class"] == "warm" or record["errors"]:
                continue
            checked.add(group)
            record["errors"] += self.library_errors(record)
        ops = []
        for record in records:
            status = record["status"]
            computed = status["cells"]["computed"] if status else 0
            ops.append({
                "key": record["key"], "timed": True, "class": record["class"],
                "seconds": record["seconds"], "pairs": computed * record["payload"]["pairs"],
                "digest": digest(record["results"]), "errors": record["errors"],
            })
        result = summarize(ops, wall)
        # Only the two servers were waited for: this is the servers' peak.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        for kind in ("cold", "warm", "adaptive"):
            latencies = [op["seconds"] for op in ops if op["class"] == kind]
            result["detail"][f"{kind}_job_p50_s"] = median(latencies)
            result["detail"][f"{kind}_jobs"] = len(latencies)
        result["detail"]["restart_s"] = restart_s
        if self.traced:
            result["layers"] = self.layers(records, restart_s)
        return result

    def latencies(self) -> Dict[Tuple[str, str], float]:
        """(class, request as canonical JSON) -> job latency, over the jobs that passed their checks."""
        return {
            (record["class"], canonical(record["payload"])): record["seconds"]
            for record in self.records
            if not record["errors"]
        }

    def digests(self) -> Dict[str, str]:
        """Request (canonical JSON) -> row digest, over the jobs that passed their checks."""
        return {
            canonical(record["payload"]): digest(record["results"])
            for record in self.records
            if not record["errors"]
        }

    def layers(self, records: List[dict], restart_s: float) -> dict:
        spans: List[tuple] = []
        for phase in (1, 2):
            spans += load_spans(os.path.join(self.ctx.tmp, f"server-{phase}.spans.json"), phase * 10**9)
        dump_spans(spans_path(self.ctx.workload), spans)
        latency = sum(record["seconds"] for record in records)
        layers = span_layer_metrics(spans, len(records), latency)
        by_job = defaultdict(float)
        for span in spans:
            thread = span[THREAD] or ""
            if span[PARENT] == 0 and thread.startswith("rcm-shard-"):
                by_job[thread.split("-")[2]] += span[END] - span[START]
        submits = [span for span in spans if span[LAYER] == "service.app" and span[NAME] == "POST /v1/sweeps"]
        done = [record for record in records if record["status"] and record["status"]["started"]]
        waits = [r["status"]["started"] - r["status"]["created"] for r in done]
        lags = [r["received"] - r["status"]["finished"] for r in done]
        attributed = sum(waits) + sum(lags) + sum(s[END] - s[START] for s in submits)
        attributed += sum(by_job[r["status"]["job_id"]] for r in done)
        layers["service.app.submit_s"] = sum(s[END] - s[START] for s in submits) / len(records)
        layers["service.app.restart_s"] = restart_s
        layers["service.jobs.queue_wait_s"] = sum(waits) / len(done)
        layers["service.jobs.notify_lag_s"] = sum(lags) / len(done)
        for kind in ("cold", "warm", "adaptive"):
            runs = [r["status"]["finished"] - r["status"]["started"] for r in done if r["class"] == kind]
            layers[f"service.jobs.run_s.{kind}"] = sum(runs) / len(runs) if runs else 0.0
        layers["trace.attributed_frac"] = attributed / latency
        return layers


def run_service(ctx: Context) -> dict:
    """``service-mixed``; a traced run first spends half its time on an untraced pass."""
    if not ctx.trace:
        return ServiceWorkload(ctx, traced=False).run()
    reference = ServiceWorkload(ctx, traced=False, share=0.5, prefix="untraced-")
    untraced = reference.run()
    service = ServiceWorkload(ctx, traced=True, share=0.5)
    result = service.run(reference.digests())
    # Pair the jobs of the same request and class: a p50 over the mix of
    # cold, warm and adaptive jobs moves with the mix, not with the tracing.
    before = reference.latencies()
    ratios = [seconds / before[key] for key, seconds in service.latencies().items() if key in before]
    result["layers"]["trace.overhead_frac"] = median(ratios) - 1.0
    result["ops"] = untraced["ops"] + result["ops"]
    return result


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def summarize(ops: List[dict], wall: float) -> dict:
    """The end-to-end numbers of one run (``run.py`` adds ``setup_s``).

    The routing rate is the median, over ops that route pairs, of pairs per
    op-second (warm service jobs route none).  The tail and the op rate are
    reported as detail: their run-to-run spread on a shared 2-core machine
    is too wide to gate.
    """
    timed = [op for op in ops if op["timed"]]
    latencies = [op["seconds"] for op in timed]
    rate = median([op["pairs"] / op["seconds"] for op in timed if op["pairs"]])
    return {
        "ops": ops,
        "samples": len(timed),
        "wall_s": wall,
        "metrics": {"op_p50_s": median(latencies), "pairs_per_s": rate},
        "detail": {"op_p95_s": percentile(latencies, 0.95), "ops_per_s": len(timed) / wall},
    }


def span_layer_metrics(spans: List[tuple], n_ops: int, wall: float) -> Dict[str, float]:
    """Per-layer metrics from spans: seconds and counts per op, self time.

    ``wall`` is the summed wall time of the ops the spans belong to.
    """
    selfs = self_times(spans)
    seconds = defaultdict(float)
    counts = defaultdict(float)
    overhead = 0.0
    for span in spans:
        own = selfs[span[ID]]
        layer, name, geometry = span[LAYER], span[NAME], span[GEOMETRY]
        seconds[(layer, geometry)] += own
        seconds[(layer, name, geometry)] += own
        seconds[layer] += own
        if layer == "dht.failures" and name.endswith(".bind"):
            seconds["dht.failures.bind"] += own
        for key, value in (span[COUNTS] or {}).items():
            counts[(key, geometry)] += value
            counts[key] += value
        overhead += span[OVERHEAD]
    # Every declared per-layer metric, zero where this workload's spans never reach the layer.
    metrics = dict.fromkeys((metric["name"] for metric in load_spec()["per_layer"]), 0.0)
    for geometry in GEOMETRIES:
        run_s = seconds[("sim.backends", "NumpyBackend.run", geometry)]
        hops = counts[("pair_hops", geometry)]
        metrics[f"dht.build_s.{geometry}"] = seconds[("dht", geometry)] / n_ops
        for phase in ("prepare", "update", "run"):
            metrics[f"sim.backends.{phase}_s.{geometry}"] = (
                seconds[("sim.backends", f"NumpyBackend.{phase}", geometry)] / n_ops
            )
        metrics[f"sim.backends.pair_hops.{geometry}"] = hops / n_ops
        metrics[f"sim.backends.ns_per_pair_hop.{geometry}"] = run_s / hops * 1e9 if hops else 0.0
        metrics[f"sim.engine.self_s.{geometry}"] = seconds[("sim.engine", geometry)] / n_ops
    metrics["dht.failures.sample_s"] = (seconds["dht.failures"] - seconds["dht.failures.bind"]) / n_ops
    metrics["dht.failures.bind_s"] = seconds["dht.failures.bind"] / n_ops
    metrics["sim.sampling.pairs_s"] = seconds["sim.sampling"] / n_ops
    metrics["sim.churn.self_s"] = seconds["sim.churn"] / n_ops
    metrics["sim.adaptive.self_s"] = seconds["sim.adaptive"] / n_ops
    metrics["sim.adaptive.cells_requested"] = counts["cells_requested"] / n_ops
    metrics["sim.adaptive.trials_saved"] = counts["trials_saved"] / n_ops
    metrics["service.store.get_s"] = seconds[("service.store", "ResultStore.get_cells", None)] / n_ops
    metrics["service.store.put_s"] = seconds[("service.store", "ResultStore.put_cells", None)] / n_ops
    metrics["service.store.hit_ratio"] = counts["hits"] / counts["lookups"] if counts["lookups"] else 0.0
    metrics["trace.wrapper_frac"] = overhead / wall
    return metrics


def spans_path(workload: str) -> str:
    """Where a traced run leaves its spans: ``.bench_out/trace/<workload>.spans.json``."""
    return os.path.join(OUT_DIR, "trace", f"{workload}.spans.json")


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def setup(ctx: Context):
    """Exactly the workload's in-process set-up (the library workloads)."""
    if ctx.workload == "sweep-d16":
        return SweepWorkload(ctx)
    if ctx.workload == "churn-d16":
        return ChurnWorkload(ctx)
    raise ValueError(f"{ctx.workload} has no in-process set-up")


def environment() -> dict:
    import numpy

    from repro.sim.backends import resolve_backend

    return {"numpy": numpy.__version__, "backend": resolve_backend("numpy").name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(Context(args, tmp=None))
        print("ready", flush=True)
        return 0
    os.makedirs(os.path.join(OUT_DIR, "trace"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ctx = Context(args, tmp)
        if ctx.workload == "service-mixed":
            result = run_service(ctx)
        elif ctx.workload == "cli-cold":
            result = run_cli(ctx)
        else:
            result = run_library(ctx, setup(ctx))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["env"] = environment()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
