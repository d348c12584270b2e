"""Experiment harness plumbing: results, the experiment base class, shared config.

Every paper figure/table has a corresponding experiment module in this
package.  Experiments are deterministic given their configuration (seeds are
fixed in :class:`ExperimentConfig`), return an :class:`ExperimentResult`
containing named tables of rows, and know how to render themselves as text —
the same rows the benchmarks under ``benchmarks/`` print.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ExperimentError
from ..report.tables import render_csv, render_table
from ..workloads.generators import PairWorkload

__all__ = ["ExperimentConfig", "ExperimentResult", "Experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by all experiments.

    Attributes
    ----------
    fast:
        When ``True``, experiments shrink their sweeps and Monte-Carlo
        budgets to finish in seconds (used by the test suite and the default
        benchmark settings); when ``False`` they run at the paper's scale
        (e.g. simulation at ``N = 2^16``).
    simulation_d:
        Identifier length used for overlay simulations; ``None`` selects the
        experiment's default (16 at paper scale, smaller when ``fast``).
    workload:
        Monte-Carlo pair-sampling budget for simulation-backed experiments.
    workers:
        Worker processes for simulation sweeps (``repro.sim.engine.SweepRunner``
        fan-out); ``1`` runs in-process.  Results are identical for any value.
    backend:
        Kernel backend for the simulation engine: ``"auto"`` (default — the
        fastest available), ``"numpy"``, or ``"numba"`` (JIT, requires the
        ``fast`` extra; falls back to numpy with a warning when absent).
        Backends measure bit-identical metrics.
    """

    fast: bool = True
    simulation_d: Optional[int] = None
    workload: PairWorkload = field(default_factory=PairWorkload)
    workers: int = 1
    backend: str = "auto"

    def resolved_simulation_d(self, *, full_default: int, fast_default: int) -> int:
        """The simulation identifier length after applying fast/full defaults."""
        if self.simulation_d is not None:
            return self.simulation_d
        return fast_default if self.fast else full_default

    def resolved_workload(self, *, fast_factor: float = 0.25) -> PairWorkload:
        """The pair workload, scaled down when running in fast mode."""
        return self.workload.scaled(fast_factor) if self.fast else self.workload


@dataclass(frozen=True)
class ExperimentResult:
    """The output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Identifier from DESIGN.md's per-experiment index (e.g. ``"FIG6A"``).
    title:
        Human-readable title.
    paper_reference:
        Which paper artifact this reproduces (e.g. ``"Figure 6(a)"``).
    parameters:
        The parameter values the run actually used (after fast/full scaling).
    tables:
        Named tables; each table is a list of row dicts sharing the same keys.
    notes:
        Free-form observations recorded by the experiment (e.g. where the
        analytical bound deviates from simulation, as the paper discusses
        for ring routing).
    """

    experiment_id: str
    title: str
    paper_reference: str
    parameters: Dict[str, object]
    tables: Dict[str, List[Dict[str, object]]]
    notes: Tuple[str, ...] = ()

    def table(self, name: str) -> List[Dict[str, object]]:
        """Fetch one named table, raising a clear error when absent."""
        try:
            return self.tables[name]
        except KeyError as exc:
            raise ExperimentError(
                f"experiment {self.experiment_id} has no table {name!r}; "
                f"available: {sorted(self.tables)}"
            ) from exc

    def render(self, *, precision: int = 2) -> str:
        """Render the full result (parameters, every table, notes) as text."""
        sections: List[str] = [f"{self.experiment_id}: {self.title}", f"reproduces {self.paper_reference}"]
        if self.parameters:
            parameter_text = ", ".join(f"{key}={value}" for key, value in sorted(self.parameters.items()))
            sections.append(f"parameters: {parameter_text}")
        for name, rows in self.tables.items():
            sections.append("")
            sections.append(render_table(rows, title=f"[{name}]", precision=precision))
        if self.notes:
            sections.append("")
            sections.extend(f"note: {note}" for note in self.notes)
        return "\n".join(sections)

    def to_csv(self, table_name: str) -> str:
        """Render one named table as CSV."""
        return render_csv(self.table(table_name))


class Experiment(abc.ABC):
    """Base class for paper-figure experiments.

    Subclasses set the three class attributes and implement :meth:`run`.
    """

    #: Identifier used in DESIGN.md, the CLI and the benchmark names.
    experiment_id: str = ""
    #: Human-readable title.
    title: str = ""
    #: The paper artifact reproduced (e.g. "Figure 7(b)").
    paper_reference: str = ""

    @abc.abstractmethod
    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Execute the experiment and return its result."""

    def _result(
        self,
        parameters: Mapping[str, object],
        tables: Mapping[str, Sequence[Mapping[str, object]]],
        notes: Sequence[str] = (),
    ) -> ExperimentResult:
        """Helper for subclasses to assemble a result with the class metadata."""
        if not self.experiment_id:
            raise ExperimentError(f"{type(self).__name__} does not define experiment_id")
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            parameters=dict(parameters),
            tables={name: [dict(row) for row in rows] for name, rows in tables.items()},
            notes=tuple(notes),
        )
