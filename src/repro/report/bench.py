"""The perf-trajectory report: every ``BENCH_*.json`` gate in one table.

Two benchmark artifacts carry a gated ratio: the JIT backend's speedup over
the vendored reference kernels (``benchmarks/test_bench_kernelspec.py``)
and the adaptive trial allocator's saving over the uniform grid
(``benchmarks/test_bench_adaptive.py``).  Wall time on the paper's
workloads is gated end to end by ``bench/run.py`` instead.

This module knows, per benchmark name (the ``"benchmark"`` field every
artifact carries), which metric is the headline claim and which recorded
floor gates it.  :func:`evaluate_reports` turns a set of artifacts into
pass/fail rows; ``rcm bench-report`` renders them as a table plus a
machine-readable summary, and CI runs it with ``--check`` over the freshly
measured artifacts so any gate ratio regressing below its recorded floor
fails the build.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InvalidParameterError

__all__ = [
    "BenchGate",
    "GATE_REGISTRY",
    "load_report",
    "discover_artifacts",
    "evaluate_report",
    "evaluate_reports",
    "summarize",
]


@dataclass(frozen=True)
class BenchGate:
    """One gated metric of a benchmark artifact: ``report[metric] >= report[bound_key]``.

    ``nullable`` gates are skipped — not failed — when the metric is
    ``null`` (e.g. no JIT backend in the environment).
    """

    metric: str
    bound_key: str
    nullable: bool = False


#: The headline gate(s) of every benchmark artifact, keyed by its
#: ``"benchmark"`` field.  Kept in sync with the keys the corresponding
#: ``benchmarks/test_bench_*.py`` module writes (tested).
GATE_REGISTRY: Dict[str, Tuple[BenchGate, ...]] = {
    "kernelspec-unified-driver": (
        BenchGate("speedup_numba_vs_pr3", "jit_speedup_floor", nullable=True),
        BenchGate("speedup_numba_vs_pr2", "jit_speedup_floor", nullable=True),
    ),
    "adaptive-trial-allocation": (BenchGate("pairs_saved_ratio", "ratio_floor"),),
}


def load_report(path: str) -> Mapping[str, object]:
    """Read one benchmark artifact; reject files that are not one."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as error:
        raise InvalidParameterError(
            f"cannot read benchmark artifact {path!r}: {error.strerror or error}"
        ) from error
    except ValueError as error:
        raise InvalidParameterError(
            f"benchmark artifact {path!r} is not valid JSON: {error}"
        ) from error
    if not isinstance(report, dict) or "benchmark" not in report:
        raise InvalidParameterError(
            f"benchmark artifact {path!r} has no 'benchmark' field; "
            "expected a BENCH_*.json report"
        )
    return report


def discover_artifacts(directory: str = ".") -> List[str]:
    """The checked-in/CI artifact paths: every ``BENCH_*.json`` in ``directory``."""
    return sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))


def evaluate_report(
    report: Mapping[str, object], *, source: Optional[str] = None
) -> List[Dict[str, object]]:
    """Gate rows for one artifact: benchmark, metric, value, bound, status.

    ``status`` is ``pass``/``FAIL`` per the registry's bound, ``skipped``
    for a nullable metric that is ``null``, and ``no-gate`` for artifacts
    the registry does not know (listed, never failed — new benchmarks
    appear in the table before they grow a gate).
    """
    name = str(report["benchmark"])
    gates = GATE_REGISTRY.get(name)
    if gates is None:
        return [
            {
                "benchmark": name,
                "metric": "-",
                "value": None,
                "gate": "-",
                "bound": None,
                "status": "no-gate",
                "source": source,
            }
        ]
    rows: List[Dict[str, object]] = []
    for gate in gates:
        if gate.metric not in report or gate.bound_key not in report:
            missing = [key for key in (gate.metric, gate.bound_key) if key not in report]
            raise InvalidParameterError(
                f"benchmark artifact {source or name!r} is missing {', '.join(missing)}"
            )
        value = report[gate.metric]
        bound = float(report[gate.bound_key])
        if value is None:
            if not gate.nullable:
                raise InvalidParameterError(
                    f"benchmark artifact {source or name!r} has null {gate.metric}"
                )
            status = "skipped"
        else:
            value = float(value)
            status = "pass" if value >= bound else "FAIL"
        rows.append(
            {
                "benchmark": name,
                "metric": gate.metric,
                "value": value,
                "gate": ">=",
                "bound": bound,
                "status": status,
                "source": source,
            }
        )
    return rows


def evaluate_reports(paths: Sequence[str]) -> List[Dict[str, object]]:
    """Gate rows across artifacts, one table section per file in path order."""
    if not paths:
        raise InvalidParameterError(
            "no benchmark artifacts given and no BENCH_*.json found; "
            "run the benchmarks/ suite (or pass artifact paths) first"
        )
    rows: List[Dict[str, object]] = []
    for path in paths:
        rows.extend(evaluate_report(load_report(path), source=os.path.basename(path)))
    return rows


def summarize(rows: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """The machine-readable summary of one evaluation (``--json`` payload)."""
    failures = [row for row in rows if row["status"] == "FAIL"]
    return {
        "report": "rcm-bench-trajectory",
        "artifacts": sorted({row["source"] for row in rows if row["source"]}),
        "gates_total": sum(1 for row in rows if row["status"] in ("pass", "FAIL")),
        "gates_failed": len(failures),
        "failures": [
            {key: row[key] for key in ("benchmark", "metric", "value", "gate", "bound")}
            for row in failures
        ],
        "all_pass": not failures,
        "rows": [dict(row) for row in rows],
    }
