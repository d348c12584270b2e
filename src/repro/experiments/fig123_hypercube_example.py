"""FIG1-3 — the paper's worked hypercube example (Figures 1–3, Section 4.2).

The paper introduces the Reachable Component Method on an 8-node (``d = 3``)
hypercube: node ``011`` routes to ``100`` (Hamming distance 3), the table in
Figure 3 lists ``n(h)`` and the per-hop success probabilities, and
``p(3, q) = (1 - q^3)(1 - q^2)(1 - q)``.

This experiment reproduces that table and then validates the whole chain of
reasoning four independent ways at each probed failure probability:

1. the closed-form routability (Eq. 3/4),
2. the same quantity computed through the explicit absorbing Markov chain,
3. an **exact enumeration** over all ``2^8`` survival patterns of the
   8-node overlay, every ordered survivor pair of every pattern routed in
   one batch-engine call (the ground truth of Definition 1), and
4. a Monte-Carlo estimate from the overlay simulator.

The Monte-Carlo estimate pools equal pair budgets over the non-degenerate
patterns, so it averages per-pattern ratios: it estimates E[ratio | at
least two survivors], not Definition 1's ratio of expectations.  The same
enumeration gives that expectation and the estimate's standard error, which
is what the simulated column is checked against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.geometry import get_geometry
from ..dht.can import HypercubeOverlay
from ..dht.network import Overlay
from ..markov.builders import hypercube_routing_chain, routing_success_probability
from ..percolation.components import routable_pair_counts
from ..sim.static_resilience import measure_routability
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["HypercubeWorkedExample"]

#: Failure probabilities probed by the validation table.
PROBE_FAILURE_PROBABILITIES = (0.1, 0.3, 0.5)
#: The example's identifier length (8 nodes, as in Figure 1).
EXAMPLE_D = 3


def enumerate_patterns(overlay: Overlay) -> np.ndarray:
    """``(survivors, routable ordered pairs)`` of every survival pattern, one row each.

    The ``2^N`` patterns come in ``itertools.product((True, False), ...)``
    order, the all-alive pattern first; their routable pairs are
    :func:`~repro.percolation.components.routable_pair_counts` of the whole
    stack, one batch-engine call.  For the 8-node example that is 256
    patterns.
    """
    n_nodes = overlay.n_nodes
    patterns = np.arange(2**n_nodes)[:, np.newaxis] >> np.arange(n_nodes - 1, -1, -1)
    alive_stack = (patterns & 1) == 0
    return np.column_stack((alive_stack.sum(axis=1), routable_pair_counts(overlay, alive_stack)))


def _non_degenerate(
    outcomes: np.ndarray, n_nodes: int, q: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probability, survivor count and routable pairs of each pattern with >= 2 survivors."""
    survivors, routable = outcomes[outcomes[:, 0] >= 2].astype(float).T
    weights = (1.0 - q) ** survivors * q ** (n_nodes - survivors)
    return weights, survivors, routable


def exact_definition_routability(outcomes: np.ndarray, n_nodes: int, q: float) -> float:
    """Definition 1 exactly: E[routable ordered pairs] / E[ordered survivor pairs].

    Both expectations are correctly rounded sums (``math.fsum``), so the
    value does not depend on the memory layout of the columns (a dot
    product over a strided column and over a contiguous copy can differ in
    the last bit).
    """
    weights, survivors, routable = _non_degenerate(outcomes, n_nodes, q)
    expected_pairs = math.fsum(weights * (survivors * (survivors - 1)))
    return math.fsum(weights * routable) / expected_pairs if expected_pairs else 0.0


def estimator_moments(
    outcomes: np.ndarray, n_nodes: int, q: float, pairs: int
) -> Tuple[float, float]:
    """Mean and variance of one non-degenerate trial's routability estimate.

    A trial draws a pattern with at least two survivors and routes ``pairs``
    uniformly sampled ordered survivor pairs, so its estimate has mean
    E[r] and variance Var[r] + E[r(1 - r)] / pairs, where ``r`` is the
    pattern's routable fraction.
    """
    weights, survivors, routable = _non_degenerate(outcomes, n_nodes, q)
    weights = weights / weights.sum()
    ratio = routable / (survivors * (survivors - 1))
    mean = float(weights @ ratio)
    variance = float(weights @ (ratio - mean) ** 2) + float(weights @ (ratio * (1.0 - ratio))) / pairs
    return mean, variance


class HypercubeWorkedExample(Experiment):
    """Reproduce and validate the Figures 1–3 worked example."""

    experiment_id = "FIG1-3"
    title = "Worked hypercube example: RCM on an 8-node CAN"
    paper_reference = "Figures 1-3 and Section 4.2"
    table_names = ("figure3_distance_table", "routability_validation")

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Walk the worked hypercube example: reachable sets, Markov chain, routability."""
        config = config or ExperimentConfig()
        geometry = get_geometry("hypercube")
        overlay = HypercubeOverlay.build(EXAMPLE_D)
        outcomes = enumerate_patterns(overlay)
        n_nodes = overlay.n_nodes
        workload = config.resolved_workload()
        pairs, trials = min(workload.pairs, 30), max(workload.trials, 120)

        # Figure 3's per-hop table at a representative failure probability.
        reference_q = 0.3
        distance_table: List[Dict[str, object]] = geometry.worked_example_table(EXAMPLE_D, reference_q)

        # The validation table: four independent computations of routability.
        validation_rows: List[Dict[str, object]] = []
        for q in PROBE_FAILURE_PROBABILITIES:
            chain = hypercube_routing_chain(EXAMPLE_D, q)
            chain_p3 = routing_success_probability(chain, EXAMPLE_D)
            # At 8 nodes a single failure pattern dominates the estimate, so average
            # over many independent patterns rather than many pairs per pattern.
            simulated = measure_routability(
                overlay, q, pairs=pairs, trials=trials, seed=workload.derived_seed(f"fig123-{q}")
            )
            expected_estimate, trial_variance = estimator_moments(outcomes, n_nodes, q, pairs)
            measured_trials = simulated.trials - simulated.degenerate_trials
            expected_component = geometry.expected_reachable_component(EXAMPLE_D, q)
            validation_rows.append(
                {
                    "q": q,
                    "p3_closed_form": geometry.path_success_probability(EXAMPLE_D, q, EXAMPLE_D),
                    "p3_markov_chain": chain_p3,
                    "routability_rcm": geometry.routability(q, d=EXAMPLE_D),
                    # Eq. 1 with the exact pair-count denominator (1-q)(N-1); the paper's
                    # (1-q)N - 1 form differs only at very small populations like this one.
                    "routability_exact_denominator": min(
                        1.0, expected_component / ((1.0 - q) * (n_nodes - 1))
                    ),
                    "routability_exact_definition": exact_definition_routability(outcomes, n_nodes, q),
                    "routability_expected_estimate": expected_estimate,
                    "routability_estimate_se": math.sqrt(trial_variance / measured_trials),
                    "routability_simulated": simulated.routability,
                }
            )

        return self._result(
            parameters={
                "d": EXAMPLE_D,
                "n_nodes": n_nodes,
                "reference_q": reference_q,
                "probe_qs": PROBE_FAILURE_PROBABILITIES,
                "pairs": pairs,
                "trials": trials,
            },
            tables={
                "figure3_distance_table": distance_table,
                "routability_validation": validation_rows,
            },
            notes=(
                "p(3, q) = (1 - q^3)(1 - q^2)(1 - q) exactly as derived in Section 4.2.",
                "The RCM routability uses the paper's (1-q)N - 1 pair-count approximation, which is "
                "loose at this toy size (8 nodes); with the exact (1-q)(N-1) denominator the RCM value "
                "matches the full-enumeration Definition-1 routability almost exactly, confirming the "
                "method itself.",
                "routability_rcm is clamped to 1: at this size the raw Eq. 1 value really exceeds 1 "
                "(1.0102 at q=0.1, 1.0067 at q=0.3), not by rounding; the (1-q)N - 1 denominator "
                "accounts for it, and routability_exact_denominator stays below 1.",
                "The simulated routability averages per-pattern ratios over patterns with at least "
                "two survivors, so it estimates routability_expected_estimate (exact, by the same "
                "enumeration), not the Definition-1 ratio of expectations; routability_estimate_se is "
                "its standard error at the simulated budget.",
            ),
        )
