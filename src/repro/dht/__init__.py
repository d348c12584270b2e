"""DHT overlay simulators — the simulation substrate of the reproduction.

This subpackage rebuilds, from scratch, discrete overlay simulators for the
five DHT routing systems analysed by the paper (Plaxton tree, CAN hypercube,
Kademlia, Chord and Symphony) plus the de Bruijn shuffle-exchange extension
(Koorde), together with the identifier-space math, failure models and
routing bookkeeping they share.  Each overlay module is self-registering —
it adds its class to :data:`OVERLAY_CLASSES` and declares its batch routing
rule once as a :class:`repro.sim.kernelspec.KernelSpec` next to the scalar
oracle — so shipping a new geometry is one file.  The Monte-Carlo driver
that turns these overlays into measured routability curves lives in
:mod:`repro.sim`.
"""

from .identifiers import (
    IdentifierSpace,
    absolute_ring_distance,
    bit_at,
    common_prefix_length,
    flip_bit,
    hamming_distance,
    highest_differing_bit,
    phase_of_distance,
    ring_distance,
    xor_distance,
)
from .failures import (
    FAILURE_MODEL_KINDS,
    CompositeFailure,
    DegreeTargetedFailure,
    FailureModel,
    PrefixSubtreeFailure,
    RegionalFailure,
    UniformNodeFailure,
    check_failure_model_kind,
    make_failure_model,
    survival_mask,
    surviving_identifiers,
)
from .network import OVERLAY_CLASSES, Overlay, make_rng, register_overlay
from .routing import FailureReason, RouteResult, RouteTrace
from .metrics import RoutingMetrics, summarize_routes

# Importing an overlay module registers its class in OVERLAY_CLASSES and its
# kernel spec in repro.sim.kernelspec — one self-registering file per
# geometry.
from .plaxton import PlaxtonOverlay
from .can import HypercubeOverlay
from .kademlia import KademliaOverlay
from .chord import ChordOverlay
from .symphony import SymphonyOverlay
from .debruijn import DeBruijnOverlay

__all__ = [
    "IdentifierSpace",
    "absolute_ring_distance",
    "bit_at",
    "common_prefix_length",
    "flip_bit",
    "hamming_distance",
    "highest_differing_bit",
    "phase_of_distance",
    "ring_distance",
    "xor_distance",
    "FailureModel",
    "UniformNodeFailure",
    "DegreeTargetedFailure",
    "RegionalFailure",
    "PrefixSubtreeFailure",
    "CompositeFailure",
    "FAILURE_MODEL_KINDS",
    "check_failure_model_kind",
    "make_failure_model",
    "survival_mask",
    "surviving_identifiers",
    "Overlay",
    "register_overlay",
    "make_rng",
    "FailureReason",
    "RouteResult",
    "RouteTrace",
    "RoutingMetrics",
    "summarize_routes",
    "PlaxtonOverlay",
    "HypercubeOverlay",
    "KademliaOverlay",
    "ChordOverlay",
    "SymphonyOverlay",
    "DeBruijnOverlay",
    "OVERLAY_CLASSES",
]
