"""Tests for the XOR (Kademlia) geometry closed forms — Sections 4.3.2 and 5.3."""

from __future__ import annotations

import pytest

from repro.core.geometries.xor import XorGeometry


@pytest.fixture(scope="module")
def xor():
    return XorGeometry()


def brute_force_q_xor(m: int, q: float) -> float:
    """Direct evaluation of Eq. 6 without the incremental-product optimisation."""
    total = q**m
    for k in range(1, m):
        product = 1.0
        for j in range(m - k, m):
            product *= 1.0 - q**j
        total += q**m * product
    return total


class TestPhaseFailure:
    @pytest.mark.parametrize("q", [0.05, 0.2, 0.5, 0.8])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_matches_brute_force_equation_six(self, xor, q, m):
        assert xor.phase_failure_probability(m, q, 16) == pytest.approx(
            brute_force_q_xor(m, q), rel=1e-12
        )

    def test_single_phase_reduces_to_q(self, xor):
        assert xor.phase_failure_probability(1, 0.37, 16) == pytest.approx(0.37)

    def test_edge_probabilities(self, xor):
        assert xor.phase_failure_probability(4, 0.0, 16) == 0.0
        assert xor.phase_failure_probability(4, 1.0, 16) == 1.0

    def test_bounded_by_m_q_to_m(self, xor):
        # The scalability argument: Q_xor(m) <= m q^m.
        q = 0.6
        for m in range(1, 20):
            assert xor.phase_failure_probability(m, q, 32) <= m * q**m + 1e-12

    def test_larger_than_hypercube_failure(self, xor):
        # XOR phases can also die after suboptimal hops, so Q_xor(m) >= q^m.
        q = 0.4
        for m in range(1, 10):
            assert xor.phase_failure_probability(m, q, 16) >= q**m - 1e-12

    def test_vanishes_for_large_m(self, xor):
        assert xor.phase_failure_probability(200, 0.5, 256) == pytest.approx(0.0, abs=1e-50)


class TestApproximation:
    def test_paper_approximation_close_for_small_q(self, xor):
        # The 1 - x ≈ e^-x approximation in the paper is only meant for small q.
        for m in (2, 4, 6):
            exact = xor.phase_failure_probability(m, 0.05, 16)
            approximate = xor.phase_failure_probability_approximation(m, 0.05)
            assert approximate == pytest.approx(exact, rel=0.2, abs=1e-6)

    def test_approximation_is_a_probability(self, xor):
        for q in (0.1, 0.5, 0.9):
            for m in (1, 3, 7):
                assert 0.0 <= xor.phase_failure_probability_approximation(m, q) <= 1.0


class TestOrderingAcrossGeometries:
    def test_tree_worse_than_xor_worse_than_hypercube(self):
        from repro.core.geometry import get_geometry

        tree = get_geometry("tree")
        xor = get_geometry("xor")
        hypercube = get_geometry("hypercube")
        for q in (0.1, 0.3, 0.5):
            for d in (8, 16):
                assert (
                    tree.routability(q, d=d)
                    <= xor.routability(q, d=d)
                    <= hypercube.routability(q, d=d)
                )

    def test_asymptotically_stable(self, xor):
        small = xor.routability(0.1, d=16)
        large = xor.routability(0.1, d=100)
        assert abs(small - large) < 0.01
        assert large > 0.9


class TestVerdict:
    def test_declared_scalable(self, xor):
        assert xor.scalability().scalable is True
