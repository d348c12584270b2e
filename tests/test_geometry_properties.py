"""Property-based tests (hypothesis) on invariants every routing geometry must satisfy.

The monotonicity properties are asserted on the parameter regimes the paper
plots (moderate failure probabilities, at least a few hundred nodes).  Very
small populations combined with extreme failure probabilities push the
expectation-ratio approximation of Eq. 1 outside its intended regime (the
expected survivor count approaches one node), where monotonicity genuinely
breaks down — that boundary behaviour is covered by targeted unit tests
instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import get_geometry, list_geometries
from repro.core.geometries import PAPER_GEOMETRIES

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior_probabilities = st.floats(min_value=0.01, max_value=0.95, allow_nan=False)
moderate_probabilities = st.floats(min_value=0.01, max_value=0.6, allow_nan=False)
identifier_lengths = st.integers(min_value=2, max_value=24)
moderate_identifier_lengths = st.integers(min_value=10, max_value=24)
geometry_names = st.sampled_from(PAPER_GEOMETRIES)


@given(geometry_names, probabilities, identifier_lengths)
@settings(max_examples=120, deadline=None)
def test_routability_is_always_a_probability(name, q, d):
    value = get_geometry(name).routability(q, d=d)
    assert 0.0 <= value <= 1.0
    assert not math.isnan(value)


@given(geometry_names, interior_probabilities, identifier_lengths, st.integers(min_value=1, max_value=24))
@settings(max_examples=120, deadline=None)
def test_phase_failure_is_always_a_probability(name, q, d, m):
    value = get_geometry(name).phase_failure_probability(m, q, d)
    assert 0.0 <= value <= 1.0


@given(geometry_names, identifier_lengths)
@settings(max_examples=60, deadline=None)
def test_distance_distribution_sums_to_population(name, d):
    counts = get_geometry(name).distance_distribution(d)
    assert counts.sum() == pytest.approx(2**d - 1, rel=1e-6)
    assert np.all(counts > 0)


@given(geometry_names, moderate_identifier_lengths, moderate_probabilities, moderate_probabilities)
@settings(max_examples=120, deadline=None)
def test_routability_is_monotone_in_failure_probability(name, d, q1, q2):
    low, high = sorted((q1, q2))
    geometry = get_geometry(name)
    assert geometry.routability(high, d=d) <= geometry.routability(low, d=d) + 1e-9


@given(geometry_names, interior_probabilities, st.integers(min_value=1, max_value=20))
@settings(max_examples=120, deadline=None)
def test_path_success_is_monotone_in_distance(name, q, h):
    geometry = get_geometry(name)
    d = 24
    longer = geometry.path_success_probability(h + 1, q, d)
    shorter = geometry.path_success_probability(h, q, d)
    assert longer <= shorter + 1e-12


@given(
    st.sampled_from(("tree", "smallworld")),
    st.floats(min_value=0.05, max_value=0.7),
    st.integers(min_value=6, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_unscalable_geometries_degrade_with_size(name, q, d):
    geometry = get_geometry(name)
    assert geometry.routability(q, d=2 * d) <= geometry.routability(q, d=d) + 1e-9


@given(
    st.sampled_from(("hypercube", "xor", "ring")),
    st.floats(min_value=0.01, max_value=0.5),
    st.integers(min_value=8, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_scalable_geometries_stay_routable_as_size_doubles(name, q, d):
    geometry = get_geometry(name)
    small = geometry.routability(q, d=d)
    large = geometry.routability(q, d=2 * d)
    # Scalable geometries may lose some routability with size (XOR loses the most,
    # about 0.13 around q = 0.5) but never collapse towards zero.
    assert large >= small - 0.2
    assert large > 0.15


@given(interior_probabilities, st.integers(min_value=2, max_value=16))
@settings(max_examples=80, deadline=None)
def test_tree_is_never_better_than_xor_or_hypercube(q, d):
    # Per-phase failure probabilities are ordered Q_hypercube <= Q_xor <= Q_tree = q,
    # so the routability ordering must hold at every size and failure probability.
    tree = get_geometry("tree").routability(q, d=d)
    xor = get_geometry("xor").routability(q, d=d)
    hypercube = get_geometry("hypercube").routability(q, d=d)
    assert tree <= xor + 1e-9
    assert xor <= hypercube + 1e-9


@given(geometry_names, interior_probabilities, st.integers(min_value=2, max_value=20))
@settings(max_examples=80, deadline=None)
def test_expected_reachable_component_is_bounded_by_population(name, q, d):
    geometry = get_geometry(name)
    expected = geometry.expected_reachable_component(d, q)
    assert 0.0 <= expected <= (2**d - 1) * (1.0 + 1e-9)


@given(geometry_names, st.integers(min_value=2, max_value=1 << 20), interior_probabilities)
@settings(max_examples=80, deadline=None)
def test_routability_for_size_is_a_probability(name, n_nodes, q):
    value = get_geometry(name).routability_for_size(n_nodes, q)
    assert 0.0 <= value <= 1.0


# The RCM's step 4 and step 5 identities, on every registered geometry
# (extensions included), at sizes where (1 - q) 2^d - 1 stays positive.
RCM_STEP_DS = (3, 6, 9, 12)
RCM_STEP_QS = (0.05, 0.3, 0.6, 0.85)


@pytest.mark.parametrize("name", list_geometries())
@pytest.mark.parametrize("d", RCM_STEP_DS)
@pytest.mark.parametrize("q", RCM_STEP_QS)
def test_step4_is_the_weighted_sum_of_shells_and_path_successes(name, d, q):
    geometry = get_geometry(name)
    weighted = float(
        (geometry.distance_distribution(d) * geometry.path_success_probabilities(d, q)).sum()
    )
    assert geometry.expected_reachable_component(d, q) == pytest.approx(weighted, rel=1e-9)


@pytest.mark.parametrize("name", list_geometries())
@pytest.mark.parametrize("d", RCM_STEP_DS)
@pytest.mark.parametrize("q", RCM_STEP_QS)
def test_step5_divides_step4_by_the_other_survivors(name, d, q):
    geometry = get_geometry(name)
    ratio = geometry.expected_reachable_component(d, q) / ((1 - q) * 2**d - 1)
    assert geometry.routability(q, d=d) == pytest.approx(min(1.0, ratio), rel=1e-12)
