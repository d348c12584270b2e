"""Helpers shared by the benchmark's entry point (``run.py``) and its workload process
(``worker.py``): locations, the benchmark spec, seeding, digests, percentiles,
import-time parsing and child-process handling.

Standard library only: ``run.py`` must start, and fail cleanly, where the
program's dependencies cannot be imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import time
from typing import Dict, Iterable, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space inside the checkout (listed in .gitignore): span files,
#: temporary result stores and CLI outputs.
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: The geometries the sweep workload runs, fixed here (not read from the
#: program's registry) so a new geometry cannot change the workload.
GEOMETRIES = ("debruijn", "hypercube", "ring", "smallworld", "tree", "xor")

WORKLOADS = ("sweep-d16", "churn-d16", "service-mixed", "cli-cold")


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, declared metrics with units, bounds, run length."""
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def program_env() -> Dict[str, str]:
    """The environment for every process that runs the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def derive_seed(seed: int, purpose: str, index: int) -> int:
    """A 31-bit input seed for one op, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{purpose}:{seed}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def canonical(payload) -> str:
    """Strict, key-sorted JSON: the byte form outputs are compared in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(payload) -> str:
    """Short content digest of an op's output rows."""
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()[:20]


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Linear-interpolation percentile (``None`` for no samples)."""
    if not values:
        return None
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_times(stderr_lines: Iterable[str]) -> Dict[str, float]:
    """Seconds of import time by module family, from ``python -X importtime``.

    Each family sums the *self* time of its modules, so nested imports are
    never counted twice: ``total`` is every import of the process,
    ``numpy``/``scipy``/``networkx`` their packages, ``service`` the
    ``repro.service`` package and ``repro`` the whole program.
    """
    families = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "networkx": 0.0, "service": 0.0, "repro": 0.0}
    for line in stderr_lines:
        match = _IMPORT_LINE.match(line.rstrip("\n"))
        if match is None:
            continue
        seconds = int(match.group(1)) / 1e6
        module = match.group(4)
        top = module.split(".")[0]
        families["total"] += seconds
        if top in ("numpy", "scipy", "networkx", "repro"):
            families[top] += seconds
        if module == "repro.service" or module.startswith("repro.service."):
            families["service"] += seconds
    return families


def read_line(process: subprocess.Popen, marker: str, timeout: float) -> Optional[str]:
    """The first stdout line containing ``marker`` (``None`` on EOF or timeout)."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        if not ready:
            return None
        line = process.stdout.readline()
        if not line:
            return None
        if marker in line:
            return line


def stop_process(process: subprocess.Popen, timeout: float = 60) -> None:
    """SIGTERM (a graceful drain for ``rcm serve``), then SIGKILL on timeout; always reaps."""
    if process.returncode is not None:
        return
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
