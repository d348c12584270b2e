"""A small engine for finite absorbing discrete-time Markov chains.

The paper models every DHT routing process as an absorbing Markov chain
(Figures 4, 5(b), 8(a) and 8(b)) with exactly two absorbing outcomes: the
success state ``S_h`` (the message reached a node ``h`` hops/phases away)
and the failure state ``F`` (the message was dropped).  The closed-form
``Q(m)`` and ``p(h, q)`` expressions in the paper are derived by inspecting
those chains.

This module provides a generic engine so the closed forms can be
*cross-validated* against an explicit chain construction (see
:mod:`repro.markov.builders`), and so new geometries can be analysed without
re-deriving formulas by hand.

The implementation favours clarity over raw speed: chains used for
validation have at most a few thousand states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["State", "MarkovChain", "AbsorptionResult"]

State = Hashable


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption analysis of an absorbing Markov chain from a given start state.

    Attributes
    ----------
    start:
        The state the analysis was run from.
    absorption_probabilities:
        Mapping from each absorbing state to the probability of eventually
        being absorbed there.
    expected_steps:
        Expected number of transitions until absorption (``inf`` if the
        chain can avoid absorption forever, which cannot happen for the
        routing chains in this library).
    """

    start: State
    absorption_probabilities: Dict[State, float]
    expected_steps: float

    def probability_of(self, state: State) -> float:
        """Probability of being absorbed in ``state`` (0.0 if not absorbing)."""
        return self.absorption_probabilities.get(state, 0.0)


class MarkovChain:
    """A finite discrete-time Markov chain described by a transition mapping.

    Parameters
    ----------
    transitions:
        Mapping ``state -> {successor: probability}``.  States that appear
        only as successors are treated as absorbing.  A state with an empty
        successor mapping is also absorbing.
    atol:
        Tolerance used when checking that outgoing probabilities sum to one.

    Notes
    -----
    The chain is immutable after construction; helper methods return new
    objects or plain data.
    """

    def __init__(
        self,
        transitions: Mapping[State, Mapping[State, float]],
        *,
        atol: float = 1e-9,
    ) -> None:
        self._atol = float(atol)
        table: Dict[State, Dict[State, float]] = {}
        states: Set[State] = set()
        for state, successors in transitions.items():
            states.add(state)
            row: Dict[State, float] = {}
            for successor, probability in successors.items():
                probability = float(probability)
                if probability < -atol or probability > 1.0 + atol or math.isnan(probability):
                    raise InvalidParameterError(
                        f"transition probability {state!r} -> {successor!r} is {probability!r}, "
                        "expected a value in [0, 1]"
                    )
                if probability <= 0.0:
                    continue
                row[successor] = row.get(successor, 0.0) + probability
                states.add(successor)
            table[state] = row
        for state in states:
            table.setdefault(state, {})
        for state, row in table.items():
            total = sum(row.values())
            if row and abs(total - 1.0) > max(atol, 1e-6):
                raise InvalidParameterError(
                    f"outgoing probabilities from state {state!r} sum to {total!r}, expected 1"
                )
        self._transitions: Dict[State, Dict[State, float]] = table
        self._states: Tuple[State, ...] = tuple(sorted(states, key=repr))

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #
    @property
    def states(self) -> Tuple[State, ...]:
        """All states of the chain in a deterministic order."""
        return self._states

    @property
    def absorbing_states(self) -> Tuple[State, ...]:
        """States with no outgoing probability mass (or only a self-loop)."""
        absorbing: List[State] = []
        for state in self._states:
            row = self._transitions[state]
            if not row or (len(row) == 1 and state in row):
                absorbing.append(state)
        return tuple(absorbing)

    @property
    def transient_states(self) -> Tuple[State, ...]:
        """States that are not absorbing."""
        absorbing = set(self.absorbing_states)
        return tuple(s for s in self._states if s not in absorbing)

    def successors(self, state: State) -> Dict[State, float]:
        """Copy of the outgoing transition distribution of ``state``."""
        if state not in self._transitions:
            raise InvalidParameterError(f"unknown state {state!r}")
        return dict(self._transitions[state])

    def transition_probability(self, source: State, target: State) -> float:
        """Single-step transition probability ``P(source -> target)``."""
        if source not in self._transitions:
            raise InvalidParameterError(f"unknown state {source!r}")
        return self._transitions[source].get(target, 0.0)

    # ------------------------------------------------------------------ #
    # absorption analysis
    # ------------------------------------------------------------------ #
    def absorption_analysis(self, start: State) -> AbsorptionResult:
        """Full absorption analysis (probabilities and expected steps) from ``start``.

        Uses the standard fundamental-matrix formulation: with the transition
        matrix partitioned into transient-to-transient block ``Q`` and
        transient-to-absorbing block ``R``, the absorption probabilities are
        ``(I - Q)^-1 R`` and the expected steps are ``(I - Q)^-1 1``.
        """
        if start not in self._transitions:
            raise InvalidParameterError(f"unknown state {start!r}")
        absorbing = self.absorbing_states
        if not absorbing:
            raise InvalidParameterError("chain has no absorbing states")
        if start in absorbing:
            return AbsorptionResult(
                start=start,
                absorption_probabilities={state: 1.0 if state == start else 0.0 for state in absorbing},
                expected_steps=0.0,
            )
        transient = self.transient_states
        t_index = {state: i for i, state in enumerate(transient)}
        a_index = {state: i for i, state in enumerate(absorbing)}
        q_block = np.zeros((len(transient), len(transient)), dtype=float)
        r_block = np.zeros((len(transient), len(absorbing)), dtype=float)
        for state in transient:
            i = t_index[state]
            for successor, probability in self._transitions[state].items():
                if successor in t_index:
                    q_block[i, t_index[successor]] = probability
                else:
                    r_block[i, a_index[successor]] = probability
        identity = np.eye(len(transient))
        # Solve (I - Q) X = R and (I - Q) t = 1 in one shot.
        rhs = np.concatenate([r_block, np.ones((len(transient), 1))], axis=1)
        try:
            solution = np.linalg.solve(identity - q_block, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise InvalidParameterError(
                "chain has transient states from which absorption is impossible"
            ) from exc
        start_row = solution[t_index[start]]
        probabilities = {state: float(start_row[a_index[state]]) for state in absorbing}
        expected_steps = float(start_row[-1])
        return AbsorptionResult(
            start=start,
            absorption_probabilities=probabilities,
            expected_steps=expected_steps,
        )

    def absorption_probabilities(self, start: State) -> Dict[State, float]:
        """Probability of absorption in each absorbing state, starting from ``start``."""
        return self.absorption_analysis(start).absorption_probabilities

    def hitting_probability(self, start: State, targets: Iterable[State]) -> float:
        """Probability of ever visiting any state in ``targets`` starting from ``start``.

        The target states are made absorbing (their outgoing transitions are
        removed) and the chain re-analysed; this matches the paper's
        ``G(i, j)`` notation ("the probability that, starting at state *i*,
        the Markov chain ever visits state *j*").
        """
        target_set = set(targets)
        if not target_set:
            raise InvalidParameterError("targets must not be empty")
        unknown = target_set - set(self._states)
        if unknown:
            raise InvalidParameterError(f"unknown target states: {sorted(map(repr, unknown))}")
        if start in target_set:
            return 1.0
        modified: Dict[State, Dict[State, float]] = {}
        for state, row in self._transitions.items():
            if state in target_set:
                modified[state] = {}
            else:
                modified[state] = dict(row)
        reduced = MarkovChain(modified, atol=self._atol)
        result = reduced.absorption_analysis(start)
        return float(sum(result.probability_of(t) for t in target_set))

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __contains__(self, state: State) -> bool:
        return state in self._transitions

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MarkovChain(states={len(self._states)}, "
            f"absorbing={len(self.absorbing_states)})"
        )
