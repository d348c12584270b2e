"""End-to-end benchmark of the RCM reproduction: sweep, churn, service and CLI paths.

Usage (from the root of a checkout)::

    python3 bench/run.py [--workload NAME] [--seed N] [--trace 0|1]
                         [--smoke] [--repeat K] [--update-golden]

Each workload runs in a fresh worker process (``bench/worker.py``) against the
program as users run it: the library API, ``python -m repro simulate`` and
``python -m repro serve`` over HTTP.  ``setup_s`` is the median of several
fresh interpreters that each do exactly the workload's set-up.  Every op's
output is checked (``bench/golden.json`` digests for the seeds recorded
there, plus checks that need no recorded answer); an op whose output fails a
check counts as failed.

``--trace 1`` runs the same workload with timing wrappers around every
layer boundary (``bench/spans.py``) and reports the per-layer metrics
instead of the end-to-end ones; spans are written to
``.bench_out/trace/<workload>.spans.json``.  ``--repeat K`` runs every
workload K times in fresh processes (alternating workload order and seeds)
and prints each metric's median, quartiles and relative IQR.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is run
from ``src/`` of this checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SRC,
    WORKLOADS,
    import_times,
    load_spec,
    program_env,
    read_line,
    stop_process,
)

WORKER = os.path.join(BENCH_DIR, "worker.py")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: A set-up probe that is not ready by then fails the run.
PROBE_TIMEOUT = 60.0
#: A workload process that has not finished by then is killed (with its children).
WORKER_TIMEOUT = 150.0
#: Ops whose digests bench/golden.json records: the warm-up and the first
#: two timed ops, or the first four phase-1 service jobs.
GOLDEN_KEYS = ("0", "1", "2", "1-0", "1-1", "1-2", "1-3")
#: Units of the workload-specific numbers printed beside the declared metrics.
DETAIL_UNITS = {
    "op_p95_s": "s", "ops_per_s": "1/s", "cold_job_p50_s": "s", "warm_job_p50_s": "s",
    "adaptive_job_p50_s": "s", "restart_s": "s", "cold_jobs": "count", "warm_jobs": "count",
    "adaptive_jobs": "count",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (not an output check failing)."""


# ---------------------------------------------------------------------- #
# set-up probes
# ---------------------------------------------------------------------- #
def _probe_command(workload: str, seed: int, smoke: bool, scratch: str) -> List[str]:
    if workload == "cli-cold":
        return ["-m", "repro", "--help"]
    if workload == "service-mixed":
        store = os.path.join(scratch, "probe.db")
        return ["-m", "repro", "serve", "--port", "0", "--store", store, "--max-jobs", "2", "--backend", "numpy"]
    command = [WORKER, "--workload", workload, "--seed", str(seed), "--setup-only"]
    return command + (["--smoke"] if smoke else [])


def setup_probe(workload: str, seed: int, smoke: bool, importtime: bool) -> Dict[str, object]:
    """Time one fresh interpreter from spawn until the workload is set up.

    Set-up ends when the process prints its ready line (``ready`` for the
    library workloads, the ``listening on`` line of ``rcm serve``) or, for
    ``rcm --help``, when it exits.  With ``importtime`` the interpreter runs
    under ``-X importtime`` and the import breakdown is returned too.
    """
    scratch = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    marker = {"service-mixed": "listening on", "cli-cold": None}.get(workload, "ready")
    command = [sys.executable] + (["-X", "importtime"] if importtime else [])
    command += _probe_command(workload, seed, smoke, scratch)
    errors_path = os.path.join(scratch, "stderr")
    try:
        with open(errors_path, "w") as errors:
            started = time.perf_counter()
            process = subprocess.Popen(
                command, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, stderr=errors, text=True
            )
            try:
                if marker is None:
                    process.communicate(timeout=PROBE_TIMEOUT)
                    ready = process.returncode == 0
                else:
                    ready = read_line(process, marker, PROBE_TIMEOUT) is not None
                seconds = time.perf_counter() - started
            finally:
                stop_process(process)
        if not ready:
            raise BenchmarkError(f"{workload} set-up probe failed (exit {process.returncode})")
        with open(errors_path) as errors:
            families = import_times(errors) if importtime else None
        return {"seconds": seconds, "imports": families}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------- #
# one workload run
# ---------------------------------------------------------------------- #
def run_worker(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    command = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "1" if trace else "0",
    ] + (["--smoke"] if smoke else [])
    process = subprocess.Popen(
        command, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"{workload} did not finish within {WORKER_TIMEOUT:g}s")
    finally:
        # The worker reaps its own children; this only matters if it died.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited {process.returncode}")
    return json.loads(lines[-1])


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def check_golden(result: dict, golden: dict, workload: str, seed: int, size: str) -> List[str]:
    """Compare op digests with bench/golden.json; mismatches fail their op."""
    expected = golden.get(size, {}).get(str(seed), {}).get(workload, {})
    produced = {op["key"]: op for op in result["ops"]}
    errors = []
    for key, value in expected.items():
        op = produced.get(key)
        if op is None:
            errors.append(f"op {key} recorded in bench/golden.json did not run")
        elif op["digest"] != value:
            op["errors"].append(f"output digest {op['digest']} differs from bench/golden.json ({value})")
    return errors


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, golden: dict
) -> dict:
    """Set-up probes, the workload process, and the output checks of one run."""
    probes = [
        setup_probe(workload, seed, smoke, importtime=trace)
        for _ in range(1 if (trace or smoke) else SETUP_PROBES)
    ]
    result = run_worker(workload, seed, seconds, trace, smoke)
    errors = check_golden(result, golden, workload, seed, "smoke" if smoke else "full")
    setup_times = [probe["seconds"] for probe in probes]
    metrics = dict(result["metrics"])
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    layers = result.get("layers")
    if layers is not None:
        families = probes[0]["imports"]
        layers.update({
            "startup.import_s": families["total"],
            "startup.import_numpy_s": families["numpy"],
            "startup.import_scipy_s": families["scipy"],
            "startup.import_networkx_s": families["networkx"],
            "startup.import_service_s": families["service"],
        })
    failed = sum(1 for op in result["ops"] if op["errors"])
    return {
        "workload": workload,
        "seed": seed,
        "size": "smoke" if smoke else "full",
        "trace": trace,
        "correct": failed == 0 and not errors,
        "attempted": len(result["ops"]),
        "failed": failed,
        "errors": errors + [f"op {op['key']}: {e}" for op in result["ops"] for e in op["errors"]],
        "samples": {"setup_s": len(setup_times), "ops": result["samples"]},
        "metrics": metrics,
        "layers": layers,
        "detail": result.get("detail", {}),
        "digests": {op["key"]: op["digest"] for op in result["ops"]},
        "env": result["env"],
    }


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #
def declared(spec: dict, trace: bool) -> List[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def reported_metrics(run: dict, spec: dict) -> Dict[str, dict]:
    """The declared metrics of one run, each a number with its unit."""
    values = run["layers"] if run["trace"] else run["metrics"]
    reported = {}
    for metric in declared(spec, run["trace"]):
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)):
            raise BenchmarkError(f"{run['workload']}: metric {metric['name']} has no value ({value!r})")
        reported[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return reported


def machine_load() -> Dict[str, float]:
    """``nproc`` and the 1-minute load average, warning when load exceeds nproc."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"warning: load average {load:.2f} exceeds nproc {nproc}; timings will be noisy", file=sys.stderr)
    return {"nproc": nproc, "loadavg_1m_at_start": load}


def fingerprint(env: dict, load: Dict[str, float]) -> dict:
    """Where and on what the numbers were measured."""
    return {
        "python": platform.python_version(),
        "numpy": env.get("numpy"),
        "backend": env.get("backend"),
        **load,
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def git_revision() -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        process = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return process.stdout.strip() if process.returncode == 0 else None


def print_run(run: dict, spec: dict) -> None:
    status = "correct" if run["correct"] else f"FAILED {run['failed']} of {run['attempted']} ops"
    print(f"{run['workload']} (seed {run['seed']}, {run['size']}, {run['samples']['ops']} timed ops, {status})")
    for name, entry in reported_metrics(run, spec).items():
        from_probes = name == "setup_s" or name.startswith("startup.")
        samples = run["samples"]["setup_s"] if from_probes else run["samples"]["ops"]
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']:10s} (n={samples})")
    for name, value in sorted(run["detail"].items()):
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {DETAIL_UNITS.get(name, ''):10s} (detail)")
    for error in run["errors"][:10]:
        print(f"  error: {error}")


def quartiles(values: List[float]) -> Dict[str, Optional[float]]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and IQR over the median."""
    if len(values) < 2:
        only = values[0] if values else None
        return {"median": only, "q1": only, "q3": only, "rel_iqr": None, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "rel_iqr": (q3 - q1) / q2 if q2 else None, "n": len(values)}


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def parse_arguments(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default: %(default)s)")
    # Run length is fixed by BENCHMARK.json so runs of two commits compare;
    # the option exists only so that a harness may pass it explicitly.
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="must equal BENCHMARK.json run_seconds (%(default)g)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny d=10 inputs, 2 timed ops (self-test size)")
    parser.add_argument("--repeat", type=int, default=0, metavar="K", help="stability mode: K runs per workload")
    parser.add_argument(
        "--update-golden", action="store_true",
        help="record this run's op digests in bench/golden.json (after an intended output change)",
    )
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must equal BENCHMARK.json run_seconds ({spec['run_seconds']})")
    return args


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: {SRC}/repro not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_arguments(argv, spec)
    os.makedirs(os.path.join(OUT_DIR, "trace"), exist_ok=True)
    load = machine_load()
    golden = load_golden()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.repeat:
            return repeat(args, spec, workloads, golden, load)
        runs = [
            run_workload(workload, args.seed, spec["run_seconds"], bool(args.trace), args.smoke, golden)
            for workload in workloads
        ]
        for run in runs:
            print_run(run, spec)
        if args.update_golden:
            update_golden(golden, runs)
        print(json.dumps(
            {"fingerprint": fingerprint(runs[0]["env"], load), "runs": runs}, allow_nan=False
        ))
        if len(runs) == 1:
            metrics = reported_metrics(runs[0], spec)
        else:
            metrics = {
                f"{run['workload']}.{name}": entry
                for run in runs
                for name, entry in reported_metrics(run, spec).items()
            }
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }, allow_nan=False))
    return 0


def update_golden(golden: dict, runs: List[dict]) -> None:
    for run in runs:
        recorded = golden.setdefault(run["size"], {}).setdefault(str(run["seed"]), {})
        recorded[run["workload"]] = {
            key: value for key, value in run["digests"].items() if key in GOLDEN_KEYS
        }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded digests in {os.path.relpath(GOLDEN, ROOT)}", file=sys.stderr)


def repeat(args, spec: dict, workloads: List[str], golden: dict, load: Dict[str, float]) -> int:
    """Stability mode: K runs per workload, fresh processes, alternating order."""
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    runs = []
    for round_index in range(args.repeat):
        order = workloads if round_index % 2 == 0 else list(reversed(workloads))
        for workload in order:
            run = run_workload(
                workload, args.seed + round_index, spec["run_seconds"], bool(args.trace), args.smoke, golden
            )
            runs.append(run)
            for name, entry in reported_metrics(run, spec).items():
                values[workload].setdefault(name, []).append(entry["value"])
            print(f"round {round_index + 1}/{args.repeat} {workload}: "
                  f"{'correct' if run['correct'] else 'FAILED'}", file=sys.stderr)
    units = {metric["name"]: metric["unit"] for metric in declared(spec, bool(args.trace))}
    summary = {}
    print(f"{'workload':15s} {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'rel_iqr':>8s}")
    for workload in workloads:
        for name, series in values[workload].items():
            stats = quartiles(series)
            summary[f"{workload}.{name}"] = dict(stats, value=stats["median"], unit=units[name])
            spread = "-" if stats["rel_iqr"] is None else f"{stats['rel_iqr']:.4f}"
            print(f"{workload:15s} {name:32s} {stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {spread:>8s}")
    print(json.dumps({"fingerprint": fingerprint(runs[0]["env"], load), "summary": summary}, allow_nan=False))
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {key: {"value": entry["value"], "unit": entry["unit"]} for key, entry in summary.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
