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

import zlib

import numpy as np
import pytest

from repro.dht import OVERLAY_CLASSES
from repro.dht.failures import FAILURE_MODEL_KINDS, make_failure_model
from repro.exceptions import InvalidParameterError, UnknownGeometryError
from repro.sim.backends import numpy_backend, resolve_backend
from repro.sim.conformance import (
    CROSSOVER_BATCHES,
    PARITY_SEVERITIES,
    WORKER_COUNTS,
    assert_churn_parity,
    assert_crossover_parity,
    assert_failure_model_parity,
    assert_hop_limit_parity,
    assert_oracle_parity,
    assert_reference_parity,
    assert_stacked_parity,
    assert_worker_parity,
    chunked_routing,
    conformance_backends,
    conformance_geometries,
    crossover_batch,
)
from repro.sim.engine import route_pairs, route_pairs_stacked
from repro.sim.kernelspec import (
    KERNEL_SPECS,
    KernelSpec,
    get_kernel_spec,
    has_kernel_spec,
    registered_geometries,
    scalar_step,
    vector_rows,
)
from repro.sim.sampling import sample_survivor_pair_arrays

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
        advance = KERNEL_SPECS["tree"].advance
        with pytest.raises(InvalidParameterError):
            KernelSpec(geometry="", kind="direct", fail_code=1, advance=advance)
        with pytest.raises(InvalidParameterError):
            KernelSpec(geometry="x", kind="warp", fail_code=1, advance=advance)
        with pytest.raises(InvalidParameterError):
            # direct without advance
            KernelSpec(geometry="x", kind="direct", fail_code=1)
        with pytest.raises(InvalidParameterError):
            # scan without key/accept
            KernelSpec(geometry="x", kind="scan", fail_code=1)
        with pytest.raises(InvalidParameterError, match="neighbor_bits"):
            # a scan's row is the masked neighbour list itself
            xor = KERNEL_SPECS["xor"]
            KernelSpec(
                geometry="x", kind="scan", fail_code=1, key=xor.key, accept=xor.accept,
                neighbor_bits=KERNEL_SPECS["hypercube"].neighbor_bits,
            )

    def test_spec_kinds_are_consistent(self, geometry_name):
        spec = get_kernel_spec(geometry_name)
        assert spec.geometry == geometry_name
        if spec.kind == "direct":
            assert spec.advance is not None
        else:
            assert spec.key is not None and spec.accept is not None
        # The scalar step (what Numba compiles) is buildable everywhere,
        # numba installed or not.
        assert callable(scalar_step(spec))


def _masked_rows_geometries():
    """Geometries whose routing reads mask-derived rows (tree and de Bruijn
    look up their single next hop and have no table to build)."""
    specs = (get_kernel_spec(g) for g in registered_geometries())
    return [spec.geometry for spec in specs if spec.kind == "scan" or spec.neighbor_bits]


class TestMaskedRows:
    """The NumPy executor builds the full masked table only past the crossover."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = numpy_backend._masked_table

        def counting(rows, n_rows, dtype):
            calls.append(n_rows)
            return original(rows, n_rows, dtype)

        monkeypatch.setattr(numpy_backend, "_masked_table", counting)
        return calls

    def test_only_tree_and_debruijn_have_no_masked_rows(self):
        assert set(registered_geometries()) - set(_masked_rows_geometries()) == {
            "tree", "debruijn"
        }

    @pytest.mark.parametrize("side, expected", [("below", 0), ("above", 1), ("mid-route", 1)])
    def test_full_table_builds_follow_the_crossover(
        self, small_overlays, geometry_name, builds, side, expected
    ):
        # Count-based, no timing: a sparse batch never builds the table, a
        # dense one builds it exactly once across all of its chunks (the
        # state, and so the table, is shared by every chunk).
        overlay = small_overlays[geometry_name]
        stack, sources, destinations, cells = crossover_batch(overlay, side)
        with chunked_routing():
            route_pairs_stacked(overlay, sources, destinations, stack, cells, backend="numpy")
        has_rows = geometry_name in _masked_rows_geometries()
        assert builds == ([stack.size] * expected if has_rows else [])

    @pytest.mark.parametrize("geometry", _masked_rows_geometries())
    def test_full_table_is_read_only(self, small_overlays, geometry):
        # Shared by every later hop and chunk: a buggy step must fault, never corrupt.
        overlay = small_overlays[geometry]
        alive = np.ones(overlay.n_nodes, dtype=bool)
        rows = vector_rows(get_kernel_spec(geometry), overlay, alive)
        table = numpy_backend._masked_table(rows, overlay.n_nodes, np.int64)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.reshape(-1)[:1] = 0


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

    def test_both_sides_of_the_masking_crossover_match_the_oracle(
        self, small_overlays, geometry_name, backend_label
    ):
        # Below the crossover, above it from hop 0, and crossing it
        # mid-route: per-hop masking and the full masked table agree.
        checked = assert_crossover_parity(small_overlays[geometry_name], _backend(backend_label))
        assert checked == sum(cells * pairs for _, cells, pairs in CROSSOVER_BATCHES)


class TestFailureModelParity:
    """Every failure-model kind measures identically on the engine and the sweep reference."""

    @pytest.mark.parametrize("kind", FAILURE_MODEL_KINDS)
    def test_model_parity(self, small_overlays, geometry_name, kind):
        attempts = assert_failure_model_parity(
            small_overlays[geometry_name], "numpy", kind=kind
        )
        assert attempts >= 0

    @pytest.mark.parametrize("kind", ("uniform", "targeted"))
    def test_model_parity_on_per_pair_loops(self, small_overlays, kind):
        # Reference parity through the uncompiled numba loops too (one
        # geometry suffices; routing parity per geometry is covered above).
        assert_failure_model_parity(small_overlays["debruijn"], _backend("python-loop"), kind=kind)


class TestChurnParity:
    """simulate_churn's carried state measures what the scalar-oracle churn reference does."""

    def test_churn_matches_the_churn_reference(self, small_overlays, geometry_name, backend_label):
        assert assert_churn_parity(small_overlays[geometry_name], _backend(backend_label)) > 0


class TestUpdateParity:
    """A state rebound by ``backend.update`` routes byte-identically to a fresh prepare."""

    @pytest.mark.parametrize("kind", FAILURE_MODEL_KINDS)
    def test_update_matches_fresh_prepare(
        self, small_overlays, geometry_name, backend_label, kind
    ):
        # Walks one state through rising *and* falling severities of every
        # failure-model kind (and a fully-alive mask).  Each state is routed
        # before it is rebound, so a full masked table built under the
        # previous mask (60 pairs on 64 nodes cross the crossover) must not
        # leak into the next one.
        overlay = small_overlays[geometry_name]
        backend = resolve_backend(_backend(backend_label))
        rng = np.random.default_rng(zlib.crc32(f"update-{geometry_name}-{kind}".encode()))
        masks = []
        for severity in (0.15, 0.4, 0.6, 0.25, 0.0):
            if severity == 0.0:
                mask = np.ones(overlay.n_nodes, dtype=bool)
            else:
                mask = make_failure_model(kind, severity).bind(overlay).sample(
                    overlay.n_nodes, rng
                )
            if int(mask.sum()) >= 2:
                masks.append(mask)
        assert len(masks) >= 2
        state = backend.prepare(overlay, masks[0])
        compared = 0
        for step, mask in enumerate(masks):
            if step:
                state = backend.update(overlay, state, mask)
            sources, destinations = sample_survivor_pair_arrays(mask, 60, rng)
            carried = route_pairs(
                overlay, sources, destinations, mask, backend=backend, prepared_state=state
            )
            fresh = route_pairs(overlay, sources, destinations, mask, backend=backend)
            context = (geometry_name, kind, step)
            assert np.array_equal(carried.succeeded, fresh.succeeded), context
            assert np.array_equal(carried.hops, fresh.hops), context
            assert np.array_equal(carried.failure_codes, fresh.failure_codes), context
            compared += sources.size
        assert compared > 0


class TestWorkerParity:
    """SweepRunner grids over every registered geometry are worker-invariant
    and equal to the per-cell reference."""

    def test_all_geometries_all_worker_counts(self):
        cells = assert_worker_parity(conformance_geometries(), "numpy")
        assert cells == len(conformance_geometries()) * 2 * 2 * len(WORKER_COUNTS)

    def test_all_geometries_match_the_per_cell_reference(self):
        cells = assert_reference_parity(conformance_geometries(), "numpy")
        assert cells == len(conformance_geometries()) * 3 * 2
