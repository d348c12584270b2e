"""EXT-TRACE — trace-driven churn: beyond the Markov chain the model assumes.

EXT-CHURN samples the two-state Markov chain whose closed form ``q_eff(t)``
the static model is evaluated at — the process and the prediction share
their assumptions by construction.  This extension replays **generated
event traces** through the same measurement loop
(:class:`~repro.workloads.ChurnTrace` via :attr:`ChurnConfig.trace`):

* a *Markov* trace — the same process, recorded as events, validating that
  the trace plumbing reproduces the inline chain's behaviour; and
* a *Pareto session* trace — heavy-tailed online/offline durations, the
  empirical shape of measured peer-to-peer session lengths, which the
  memoryless chain cannot express.

Periodic repairs (``repair_every``) re-establish routing tables mid-run, so
the usable set repeatedly collapses and recovers; the kernels mask only the
table rows a step's pairs visit, so no step pays for a full table rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.churn import ChurnConfig, simulate_churn
from ..sim.static_resilience import build_overlay
from ..workloads.traces import ChurnTrace, markov_trace, pareto_session_trace
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["TraceChurn"]

#: Geometries contrasted under trace-driven churn (one scalable, one not).
TRACE_GEOMETRIES = ("xor", "tree")
FULL_D = 12
FAST_D = 9
FULL_STEPS = 40
FAST_STEPS = 16
REPAIR_EVERY = 8

#: Parameters of the generated traces.  The Markov rates mirror EXT-CHURN;
#: the Pareto sessions are tuned to the same ~60% stationary online share
#: (mean_online / (mean_online + mean_offline)) so the two rows differ by
#: session-length *shape*, not by overall availability.
MARKOV_RATES = {"leave_probability": 0.03, "rejoin_probability": 0.02}
PARETO_SESSIONS = {"shape": 1.5, "mean_online": 20.0, "mean_offline": 13.0}


class TraceChurn(Experiment):
    """Replay Markov and heavy-tailed Pareto churn traces through the churn loop."""

    experiment_id = "EXT-TRACE"
    title = "Trace-driven churn workloads (Markov vs heavy-tailed sessions)"
    paper_reference = "Section 1 (dynamic situations such as churn, left as future work)"

    def _traces(self, n_nodes: int, n_steps: int, seed: int) -> Dict[str, ChurnTrace]:
        return {
            "markov": markov_trace(n_nodes, n_steps, seed=seed, **MARKOV_RATES),
            "pareto": pareto_session_trace(n_nodes, n_steps, seed=seed, **PARETO_SESSIONS),
        }

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Measure per-step routability for each generated trace and geometry."""
        config = config or ExperimentConfig()
        d = config.resolved_simulation_d(full_default=FULL_D, fast_default=FAST_D)
        workload = config.resolved_workload()
        n_steps = FAST_STEPS if config.fast else FULL_STEPS
        pairs_per_step = max(100, workload.pairs)

        rows: List[Dict[str, object]] = []
        summary: List[Dict[str, object]] = []
        for geometry_name in TRACE_GEOMETRIES:
            overlay = build_overlay(
                geometry_name, d, seed=workload.derived_seed(f"trace-{geometry_name}")
            )
            traces = self._traces(
                overlay.n_nodes, n_steps, workload.derived_seed(f"trace-events-{geometry_name}")
            )
            for trace_name, trace in traces.items():
                churn_config = ChurnConfig(
                    pairs_per_step=pairs_per_step,
                    trace=trace,
                    repair_every=REPAIR_EVERY,
                )
                result = simulate_churn(
                    overlay,
                    churn_config,
                    seed=workload.derived_seed(f"trace-run-{geometry_name}-{trace_name}"),
                    batch_size=config.batch_size,
                    backend=config.backend,
                )
                routabilities = []
                for step in result.steps:
                    rows.append(
                        {
                            "geometry": geometry_name,
                            "trace": trace_name,
                            "step": step.step,
                            "online_fraction": step.online_fraction,
                            "usable_fraction": step.usable_fraction,
                            "measured_routability": step.metrics.routability_or_none,
                            "attempts": step.metrics.attempts,
                        }
                    )
                    if step.metrics.attempts:
                        routabilities.append(step.measured_routability)
                summary.append(
                    {
                        "geometry": geometry_name,
                        "trace": trace_name,
                        "events": trace.n_events,
                        "steps": n_steps,
                        "mean_routability": (
                            sum(routabilities) / len(routabilities) if routabilities else None
                        ),
                        "min_routability": min(routabilities) if routabilities else None,
                    }
                )

        return self._result(
            parameters={
                "d": d,
                "steps": n_steps,
                "repair_every": REPAIR_EVERY,
                "pairs_per_step": pairs_per_step,
                "markov": MARKOV_RATES,
                "pareto": PARETO_SESSIONS,
                "fast": config.fast,
                "backend": config.backend,
            },
            tables={
                "trace_churn_timeline": rows,
                "trace_summary": summary,
            },
            notes=(
                "Both traces target the same stationary online share, so differences "
                "between the rows isolate the effect of session-length shape: the "
                "heavy-tailed Pareto sessions produce burstier usable-set collapses "
                "between repairs than the memoryless Markov chain.",
                "Replay consumes no randomness — the trace file alone reproduces the "
                "mask sequence anywhere; only pair sampling draws from the run seed.",
            ),
        )
