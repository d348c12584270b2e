"""Spec-conformance tests: the guard on the two-copy routing invariant.

Each routing rule now exists in exactly two places — the scalar
``Overlay.route`` oracle and the geometry's registered ``KernelSpec`` —
and these tests keep them bit-identical by driving the auto-discovering
conformance harness (:mod:`repro.sim.conformance`) through pytest.  The
parametrisation is read from the registries, so a newly shipped geometry
gets oracle, fused-dispatch, backend, failure-model and worker parity for
free, with zero test edits (that is the refactor's acceptance property).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dht import OVERLAY_CLASSES
from repro.dht.failures import FAILURE_MODEL_KINDS
from repro.exceptions import InvalidParameterError, UnknownGeometryError
from repro.sim.conformance import (
    PARITY_SEVERITIES,
    WORKER_COUNTS,
    assert_failure_model_parity,
    assert_hop_limit_parity,
    assert_incremental_parity,
    assert_oracle_parity,
    assert_reference_parity,
    assert_stacked_parity,
    assert_worker_parity,
    conformance_backends,
    conformance_geometries,
)
from repro.sim.kernelspec import (
    KERNEL_SPECS,
    KernelSpec,
    SpecState,
    get_kernel_spec,
    has_kernel_spec,
    identity_update,
    referencing_positions,
    registered_geometries,
    reverse_neighbor_index,
    scalar_functions,
    update_spec_state,
)

BACKENDS = conformance_backends()
BACKEND_IDS = [label for label, _ in BACKENDS]


def _backend(label):
    return dict(BACKENDS)[label]


@pytest.fixture(params=BACKEND_IDS)
def backend_label(request):
    return request.param


class TestRegistry:
    def test_every_overlay_geometry_has_a_spec(self):
        # The acceptance criterion: no overlay routes without a registered
        # spec, and no spec exists without a scalar oracle to test against.
        assert set(registered_geometries()) == set(OVERLAY_CLASSES)

    def test_conformance_geometries_include_the_extension(self):
        assert "debruijn" in conformance_geometries()

    def test_get_spec_for_unknown_geometry_is_a_clear_error(self):
        with pytest.raises(UnknownGeometryError, match="pastry"):
            get_kernel_spec("pastry")
        assert not has_kernel_spec("pastry")

    def test_duplicate_registration_rejected(self):
        from repro.sim.kernelspec import register_kernel_spec

        with pytest.raises(InvalidParameterError, match="already registered"):
            register_kernel_spec(KERNEL_SPECS["tree"])

    def test_spec_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec(geometry="", kind="direct", fail_code=1, prepare=lambda v, a: None)
        with pytest.raises(InvalidParameterError):
            KernelSpec(geometry="x", kind="warp", fail_code=1, prepare=lambda v, a: None)
        with pytest.raises(InvalidParameterError):
            # direct without advance
            KernelSpec(geometry="x", kind="direct", fail_code=1, prepare=lambda v, a: None)
        with pytest.raises(InvalidParameterError):
            # scan without key/accept
            KernelSpec(geometry="x", kind="scan", fail_code=1, prepare=lambda v, a: None)

    def test_spec_kinds_are_consistent(self, geometry_name):
        spec = get_kernel_spec(geometry_name)
        assert spec.geometry == geometry_name
        if spec.kind == "direct":
            assert spec.advance is not None
        else:
            assert spec.key is not None and spec.accept is not None
        # The scalar instantiation (what Numba compiles) is buildable and
        # memoized everywhere, numba installed or not.
        assert scalar_functions(spec) is scalar_functions(spec)


class TestPreparedStateDiscipline:
    """Spec-prepared tables must be frozen: a buggy step faults, never corrupts."""

    def test_prepared_tables_are_read_only(self, small_overlays, geometry_name):
        from repro.dht.failures import survival_mask

        overlay = small_overlays[geometry_name]
        alive = survival_mask(overlay.n_nodes, 0.3, np.random.default_rng(5))
        state = get_kernel_spec(geometry_name).prepare(overlay, alive)
        assert isinstance(state, SpecState)
        frozen = [array for array in ((state.table,) + state.arrays) if array is not None]
        assert frozen, "expected the prepare factory to produce state arrays"
        for array in frozen:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.reshape(-1)[:1] = 0
        for value in state.consts:
            assert isinstance(value, int)


class TestOracleParity:
    """Every backend × geometry × severity agrees with the scalar oracle."""

    @pytest.mark.parametrize("q", PARITY_SEVERITIES)
    def test_spec_matches_oracle_pair_for_pair(self, small_overlays, geometry_name, backend_label, q):
        checked = assert_oracle_parity(
            small_overlays[geometry_name], _backend(backend_label), q=q
        )
        if q < 1.0:
            assert checked > 0

    def test_stacked_and_chunked_dispatch_match_per_cell(
        self, small_overlays, geometry_name, backend_label
    ):
        checked = assert_stacked_parity(small_overlays[geometry_name], _backend(backend_label))
        assert checked > 0

    def test_hop_limit_exhaustion_is_identical(self, small_overlays, geometry_name, backend_label):
        checked = assert_hop_limit_parity(small_overlays[geometry_name], _backend(backend_label))
        assert checked > 0


class TestFailureModelParity:
    """Every failure-model kind measures identically on batch and scalar engines."""

    @pytest.mark.parametrize("kind", FAILURE_MODEL_KINDS)
    def test_model_parity(self, small_overlays, geometry_name, kind):
        attempts = assert_failure_model_parity(
            small_overlays[geometry_name], "numpy", kind=kind
        )
        assert attempts >= 0

    @pytest.mark.parametrize("kind", ("uniform", "targeted"))
    def test_model_parity_on_per_pair_loops(self, small_overlays, kind):
        # Cross-engine parity through the uncompiled numba loops too (one
        # geometry suffices; routing parity per geometry is covered above).
        assert_failure_model_parity(small_overlays["debruijn"], _backend("python-loop"), kind=kind)


class TestIncrementalParity:
    """Delta-updated prepare-state routes byte-identically to a fresh prepare."""

    @pytest.mark.parametrize("kind", FAILURE_MODEL_KINDS)
    def test_update_hooks_match_fresh_prepare(
        self, small_overlays, geometry_name, backend_label, kind
    ):
        # Walks one state through rising *and* falling severities of every
        # failure-model kind, so both the leave and rejoin directions of the
        # geometry's update hook are exercised on every backend.
        checked = assert_incremental_parity(
            small_overlays[geometry_name], _backend(backend_label), kind=kind
        )
        assert checked > 0

    def test_missing_hook_falls_back_to_a_full_prepare(self, small_overlays):
        import dataclasses

        from repro.dht.failures import survival_mask

        overlay = small_overlays["xor"]
        spec = get_kernel_spec("xor")
        rng = np.random.default_rng(31)
        first = survival_mask(overlay.n_nodes, 0.2, rng)
        second = survival_mask(overlay.n_nodes, 0.4, rng)
        hookless = dataclasses.replace(spec, update=None)
        state = hookless.prepare(overlay, first)
        joined = np.flatnonzero(second & ~first)
        left = np.flatnonzero(first & ~second)
        updated = update_spec_state(hookless, overlay, state, second, joined, left)
        fresh = spec.prepare(overlay, second)
        assert np.array_equal(updated.table, fresh.table)
        assert updated.consts == fresh.consts

    def test_identity_update_returns_the_state_unchanged(self, small_overlays):
        from repro.dht.failures import survival_mask

        overlay = small_overlays["tree"]
        spec = get_kernel_spec("tree")
        alive = survival_mask(overlay.n_nodes, 0.3, np.random.default_rng(7))
        state = spec.prepare(overlay, alive)
        empty = np.empty(0, dtype=np.int64)
        assert identity_update(overlay, state, alive, empty, empty) is state


class TestReverseNeighborIndex:
    """The CSR reverse index behind the scan-kind update hooks."""

    def test_every_bucket_lists_exactly_its_referencing_positions(
        self, small_overlays, geometry_name
    ):
        overlay = small_overlays[geometry_name]
        flat = overlay.neighbor_array().reshape(-1)
        starts, order = reverse_neighbor_index(overlay)
        assert starts[0] == 0 and starts[-1] == flat.size
        assert sorted(order.tolist()) == list(range(flat.size))
        for node in (0, 1, overlay.n_nodes // 2, overlay.n_nodes - 1):
            block = order[starts[node] : starts[node + 1]]
            assert block.size == int((flat == node).sum())
            assert np.all(flat[block] == node)

    def test_referencing_positions_align_with_repeated_fill_values(self, small_overlays):
        overlay = small_overlays["xor"]
        flat = overlay.neighbor_array().reshape(-1)
        starts, order = reverse_neighbor_index(overlay)
        nodes = np.array([5, 0, overlay.n_nodes - 1], dtype=np.int64)
        positions, counts = referencing_positions(starts, order, nodes)
        assert positions.size == int(counts.sum())
        # The documented alignment contract: per-node fill values line up
        # with the concatenated position blocks via np.repeat.
        np.testing.assert_array_equal(flat[positions], np.repeat(nodes, counts))

    def test_referencing_positions_handle_an_empty_delta(self, small_overlays):
        overlay = small_overlays["ring"]
        starts, order = reverse_neighbor_index(overlay)
        positions, counts = referencing_positions(
            starts, order, np.empty(0, dtype=np.int64)
        )
        assert positions.size == 0 and counts.size == 0


class TestWorkerParity:
    """SweepRunner grids over every registered geometry are worker-invariant
    and equal to the per-cell reference."""

    def test_all_geometries_all_worker_counts(self):
        cells = assert_worker_parity(conformance_geometries(), "numpy")
        assert cells == len(conformance_geometries()) * 2 * 2 * len(WORKER_COUNTS)

    def test_all_geometries_match_the_per_cell_reference(self):
        cells = assert_reference_parity(conformance_geometries(), "numpy")
        assert cells == len(conformance_geometries()) * 3 * 2
