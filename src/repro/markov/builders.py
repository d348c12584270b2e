"""Explicit constructions of the paper's routing Markov chains.

Each builder returns a :class:`repro.markov.chain.MarkovChain` modelling the
routing process to a target located ``h`` hops (or phases) away from the
root node, exactly as drawn in the paper:

* :func:`tree_routing_chain`       — Fig. 4(a)
* :func:`hypercube_routing_chain`  — Fig. 4(b)
* :func:`xor_routing_chain`        — Fig. 5(b)
* :func:`ring_routing_chain`       — Fig. 8(a)
* :func:`symphony_routing_chain`   — Fig. 8(b)

State naming convention
-----------------------
``phase_state(i)`` (rendered ``"S{i}"``) is the state in which ``i``
hops/phases have been completed; ``"F"`` is the absorbing failure state;
``("sub", i, j)`` is the state reached after ``j`` suboptimal hops taken
while trying to complete phase ``i + 1`` (only used by the XOR, ring and
Symphony chains).

These chains exist primarily for *cross-validation*: the closed-form
``Q(m)`` and ``p(h, q)`` expressions in :mod:`repro.core.geometries` must
agree with the absorption probabilities computed from these explicit chains
(see ``tests/test_markov_cross_validation.py``).  They are therefore built
only for modest ``h`` — the state count of the ring chain grows as
``2^h`` by design (the paper caps suboptimal hops at ``2^(m-1) - 1``).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from ..exceptions import InvalidParameterError
from ..validation import check_failure_probability, check_positive_int
from .chain import MarkovChain, State

__all__ = [
    "FAILURE_STATE",
    "phase_state",
    "suboptimal_state",
    "tree_routing_chain",
    "hypercube_routing_chain",
    "xor_routing_chain",
    "ring_routing_chain",
    "symphony_routing_chain",
    "phase_success_probability",
    "routing_success_probability",
]

FAILURE_STATE: State = "F"


def phase_state(i: int) -> State:
    """Name of the state in which ``i`` phases/hops have been completed."""
    return f"S{int(i)}"


def suboptimal_state(i: int, j: int) -> State:
    """Name of the state after ``j`` suboptimal hops while completing phase ``i + 1``."""
    return ("sub", int(i), int(j))


def _check_args(h: int, q: float) -> Tuple[int, float]:
    h = check_positive_int(h, "target distance h")
    q = check_failure_probability(q)
    return h, q


def tree_routing_chain(h: int, q: float) -> MarkovChain:
    """Markov chain for Plaxton-tree routing to a target ``h`` hops away (Fig. 4(a)).

    At every step the unique neighbour that corrects the current
    highest-order differing bit must be alive (probability ``1 - q``),
    otherwise routing fails.
    """
    h, q = _check_args(h, q)
    transitions: Dict[State, Dict[State, float]] = {}
    for i in range(h):
        transitions[phase_state(i)] = {
            phase_state(i + 1): 1.0 - q,
            FAILURE_STATE: q,
        }
    transitions[phase_state(h)] = {}
    transitions[FAILURE_STATE] = {}
    return MarkovChain(transitions)


def hypercube_routing_chain(h: int, q: float) -> MarkovChain:
    """Markov chain for hypercube (CAN) routing to a target ``h`` hops away (Fig. 4(b)).

    In state ``S_i`` (``i`` bits already corrected) there are ``h - i``
    neighbours that each correct one of the remaining differing bits; the
    step succeeds unless all of them failed, i.e. with probability
    ``1 - q^(h - i)``.
    """
    h, q = _check_args(h, q)
    transitions: Dict[State, Dict[State, float]] = {}
    for i in range(h):
        remaining = h - i
        success = 1.0 - q**remaining
        transitions[phase_state(i)] = {
            phase_state(i + 1): success,
            FAILURE_STATE: q**remaining,
        }
    transitions[phase_state(h)] = {}
    transitions[FAILURE_STATE] = {}
    return MarkovChain(transitions)


def xor_routing_chain(h: int, q: float) -> MarkovChain:
    """Markov chain for XOR (Kademlia) routing to a target ``h`` phases away (Fig. 5(b)).

    While completing phase ``i + 1`` there are ``m = h - i`` useful
    neighbours (one per remaining bit).  The optimal neighbour (correcting
    the leftmost remaining bit) is alive with probability ``1 - q`` and
    advances the phase.  If it failed but some lower-order neighbour is
    alive, a suboptimal hop is taken; after ``j`` suboptimal hops only
    ``m - j`` bits remain correctable, so the failure probability grows to
    ``q^(m - j)`` and at most ``m - 1`` suboptimal hops are possible.
    """
    h, q = _check_args(h, q)
    transitions: Dict[State, Dict[State, float]] = {}
    for i in range(h):
        m = h - i
        advance = phase_state(i + 1)
        for j in range(m):
            state = phase_state(i) if j == 0 else suboptimal_state(i, j)
            remaining = m - j
            row: Dict[State, float] = {advance: 1.0 - q, FAILURE_STATE: q**remaining}
            if remaining > 1:
                sub_probability = q * (1.0 - q ** (remaining - 1))
                if sub_probability > 0.0:
                    row[suboptimal_state(i, j + 1)] = sub_probability
            transitions[state] = row
    transitions[phase_state(h)] = {}
    transitions[FAILURE_STATE] = {}
    return MarkovChain(transitions)


def ring_routing_chain(h: int, q: float, *, max_suboptimal_hops: int | None = None) -> MarkovChain:
    """Markov chain for ring (Chord) routing to a target ``h`` phases away (Fig. 8(a)).

    This is the paper's *lower bound* model: progress made by suboptimal
    hops is not credited towards later phases.  While completing phase
    ``i + 1`` (``m = h - i``) every hop sees the full set of ``m`` finger
    choices, so the per-hop failure probability stays ``q^m`` and the
    suboptimal-hop probability stays ``q (1 - q^(m-1))``; the number of
    suboptimal hops is capped at ``2^(m-1) - 1``.

    Parameters
    ----------
    max_suboptimal_hops:
        Optional cap overriding the paper's ``2^(m-1) - 1`` (useful to keep
        the explicit chain small for cross-validation at larger ``h``).  The
        closed form in :mod:`repro.core.geometries.ring` accepts the same
        override so the two stay comparable.
    """
    h, q = _check_args(h, q)
    if max_suboptimal_hops is not None:
        max_suboptimal_hops = check_positive_int(max_suboptimal_hops, "max_suboptimal_hops")
    transitions: Dict[State, Dict[State, float]] = {}
    for i in range(h):
        m = h - i
        advance = phase_state(i + 1)
        fail_probability = q**m
        sub_probability = q * (1.0 - q ** (m - 1)) if m > 1 else 0.0
        cap = (2 ** (m - 1)) - 1
        if max_suboptimal_hops is not None:
            cap = min(cap, max_suboptimal_hops)
        for j in range(cap + 1):
            state = phase_state(i) if j == 0 else suboptimal_state(i, j)
            row: Dict[State, float] = {FAILURE_STATE: fail_probability}
            if j < cap and sub_probability > 0.0:
                row[advance] = 1.0 - q
                row[suboptimal_state(i, j + 1)] = sub_probability
            else:
                # Last allowed suboptimal state: remaining mass goes to advancing,
                # matching the closed-form geometric truncation.
                row[advance] = 1.0 - fail_probability
            transitions[state] = row
    transitions[phase_state(h)] = {}
    transitions[FAILURE_STATE] = {}
    return MarkovChain(transitions)


def symphony_routing_chain(
    h: int,
    q: float,
    *,
    d: int,
    near_neighbors: int = 1,
    shortcuts: int = 1,
    max_suboptimal_hops: int | None = None,
) -> MarkovChain:
    """Markov chain for Symphony small-world routing over ``h`` phases (Fig. 8(b)).

    Per phase, a shortcut lands in the desired (distance-halving) range with
    probability ``x = ks / d``; routing fails outright when every near
    neighbour and shortcut of the current node has failed, probability
    ``y = q^(kn + ks)``; otherwise a suboptimal hop is taken (probability
    ``z = 1 - x - y``).  The number of suboptimal hops per phase is capped
    at ``ceil(d / (1 - q))`` as in the paper.
    """
    h, q = _check_args(h, q)
    d = check_positive_int(d, "identifier length d")
    kn = check_positive_int(near_neighbors, "near_neighbors")
    ks = check_positive_int(shortcuts, "shortcuts")
    x = ks / d
    y = q ** (kn + ks)
    if x + y > 1.0:
        # Degenerate corner (tiny d or q -> 1): the shortcut can only help when the
        # node still has a live link, so cap the advance probability at 1 - y.  The
        # closed form in repro.core.geometries.smallworld clamps the same way.
        x = 1.0 - y
    z = 1.0 - x - y
    if q >= 1.0:
        cap = 0
    else:
        cap = math.ceil(d / (1.0 - q))
    if max_suboptimal_hops is not None:
        cap = min(cap, check_positive_int(max_suboptimal_hops, "max_suboptimal_hops"))
    transitions: Dict[State, Dict[State, float]] = {}
    for i in range(h):
        advance = phase_state(i + 1)
        for j in range(cap + 1):
            state = phase_state(i) if j == 0 else suboptimal_state(i, j)
            if j < cap and z > 0.0:
                transitions[state] = {
                    advance: x,
                    FAILURE_STATE: y,
                    suboptimal_state(i, j + 1): z,
                }
            else:
                transitions[state] = {advance: 1.0 - y, FAILURE_STATE: y}
    transitions[phase_state(h)] = {}
    transitions[FAILURE_STATE] = {}
    return MarkovChain(transitions)


def phase_success_probability(chain: MarkovChain, phase: int) -> float:
    """``G(S_phase, S_{phase+1})`` — probability the chain ever advances one more phase.

    This is ``1 - Q(m)`` in the paper's notation, with ``m`` the number of
    phases remaining after ``phase`` completed phases.
    """
    start = phase_state(phase)
    target = phase_state(phase + 1)
    if start not in chain or target not in chain:
        raise InvalidParameterError(
            f"chain does not contain states {start!r} and {target!r}"
        )
    return chain.hitting_probability(start, [target])


def routing_success_probability(chain: MarkovChain, h: int) -> float:
    """``p(h, q)`` — probability of absorption in the success state ``S_h``."""
    h = check_positive_int(h, "target distance h")
    target = phase_state(h)
    if target not in chain:
        raise InvalidParameterError(f"chain does not contain the success state {target!r}")
    return chain.absorption_analysis(phase_state(0)).probability_of(target)
