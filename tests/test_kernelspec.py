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
from repro.dht.chord import FINGER_MODES, ChordOverlay
from repro.dht.failures import FAILURE_MODEL_KINDS, make_failure_model, survival_mask
from repro.dht.kademlia import KademliaOverlay
from repro.dht.routing import FAILURE_CODES
from repro.exceptions import InvalidParameterError, UnknownGeometryError
from repro.sim.backends import numpy_backend, resolve_backend
from repro.sim.conformance import (
    CROSSOVER_BATCHES,
    FORCED_PASS_PLANS,
    PARITY_SEVERITIES,
    WORKER_COUNTS,
    assert_churn_parity,
    assert_column_order_parity,
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
    forced_passes,
    run_conformance,
)
from repro.sim.engine import route_pairs, route_pairs_stacked
from repro.sim import kernelspec
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
    """simulate_churn's windowed routing measures what the scalar-oracle churn reference does."""

    def test_churn_matches_the_churn_reference(self, small_overlays, geometry_name, backend_label):
        assert assert_churn_parity(small_overlays[geometry_name], _backend(backend_label)) > 0


def _bucket_offsets(table: np.ndarray, offsets) -> None:
    """Column ``k`` of every row lies at offset ``[2^(d-1-k), 2^(d-k))``."""
    d = table.shape[1]
    for column in range(d):
        low, high = 1 << (d - 1 - column), 1 << (d - column)
        offset = offsets(table[:, column], np.arange(table.shape[0]))
        assert ((offset >= low) & (offset < high)).all(), (d, column)


class TestColumnOrders:
    """Ring and XOR scans stop at the first usable column of their table's order."""

    @pytest.mark.parametrize("d", range(1, 17))
    @pytest.mark.parametrize("seed", (0, 7, 2006))
    @pytest.mark.parametrize("finger_mode", FINGER_MODES)
    def test_chord_fingers_sit_in_their_buckets(self, d, seed, finger_mode):
        # The precondition of the ring order: the clockwise offset of
        # column k lies in [2^(d-1-k), 2^(d-k)).
        table = ChordOverlay.build(d, seed=seed, finger_mode=finger_mode).neighbor_array()
        _bucket_offsets(table, lambda entry, node: (entry - node) % (1 << d))

    @pytest.mark.parametrize("d", range(1, 17))
    @pytest.mark.parametrize("seed", (0, 7, 2006))
    def test_kademlia_entries_sit_in_their_buckets(self, d, seed):
        # The precondition of the XOR order: entry ^ node of column k lies in
        # [2^(d-1-k), 2^(d-k)).
        table = KademliaOverlay.build(d, seed=seed).neighbor_array()
        _bucket_offsets(table, lambda entry, node: entry ^ node)

    def test_only_ring_and_xor_declare_an_order(self):
        ordered = {spec.geometry for spec in KERNEL_SPECS.values() if spec.first_column}
        # Symphony's shortcuts are unsorted: it keeps the full scan.
        assert ordered == {"ring", "xor"}
        for spec in KERNEL_SPECS.values():
            assert (spec.first_column is None) == (spec.next_column is None)

    def test_order_validation(self):
        xor = KERNEL_SPECS["xor"]
        with pytest.raises(InvalidParameterError, match="both"):
            KernelSpec(
                geometry="x", kind="scan", fail_code=1, key=xor.key, accept=xor.accept,
                first_column=xor.first_column,
            )
        with pytest.raises(InvalidParameterError, match="column order"):
            KernelSpec(
                geometry="x", kind="direct", fail_code=1, advance=KERNEL_SPECS["tree"].advance,
                first_column=xor.first_column, next_column=xor.next_column,
            )

    def test_every_pass_plan_matches_the_oracle(self, small_overlays, geometry_name):
        checked = assert_column_order_parity(small_overlays[geometry_name], "numpy")
        if KERNEL_SPECS[geometry_name].first_column is None:
            assert checked == 0
        else:
            assert checked > 0

    def test_forced_plans_are_named(self):
        with pytest.raises(ValueError, match="pass plan"):
            forced_passes("some")

    def test_deterministic_fingers_pass_the_whole_battery(self):
        checked = run_conformance("ring", overlay_options={"finger_mode": "deterministic"})
        assert checked["column-order[numpy]"] > 0
        assert all(count > 0 for name, count in checked.items() if name.startswith("oracle"))


#: Batches at d=12 (4096 rows): ``(pairs, full masked table builds)``.
#: Sparse ones stay below the masking crossover, dense ones (pairs >= rows)
#: read the full masked table from hop 0, and mid-route ones are wide
#: enough for the planner's own passes before the table (if any) is built.
SCALE_D = 12
SCALE_BATCHES = {"sparse": (400, 0), "mid-route": (2000, None), "dense": (1 << SCALE_D, 1)}
SCALE_OVERLAYS = {
    "ring-randomized": ("ring", {"finger_mode": "randomized"}),
    "ring-deterministic": ("ring", {"finger_mode": "deterministic"}),
    "xor": ("xor", {}),
}


@pytest.fixture(scope="module")
def scale_overlays():
    return {
        label: OVERLAY_CLASSES[geometry].build(SCALE_D, seed=12, **options)
        for label, (geometry, options) in SCALE_OVERLAYS.items()
    }


@pytest.fixture(scope="module")
def scale_oracle(scale_overlays):
    """Batches and their scalar-oracle outcomes, routed once per module."""
    cache = {}

    def outcomes(label, q, batch):
        if (label, q, batch) not in cache:
            overlay = scale_overlays[label]
            rng = np.random.default_rng(zlib.crc32(f"scale-{label}-{q}-{batch}".encode()))
            alive = survival_mask(overlay.n_nodes, q, rng)
            sources, destinations = sample_survivor_pair_arrays(alive, SCALE_BATCHES[batch][0], rng)
            routes = [
                overlay.route(source, destination, alive)
                for source, destination in zip(sources.tolist(), destinations.tolist())
            ]
            cache[label, q, batch] = (
                alive, sources, destinations,
                np.array([route.succeeded for route in routes]),
                np.array([route.hops for route in routes]),
                np.array([FAILURE_CODES[route.failure_reason] for route in routes]),
            )
        return cache[label, q, batch]

    return outcomes


class TestOrderedScanAtScale:
    """At d=12 the NumPy ordered scan equals the scalar oracle under every pass plan."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = numpy_backend._masked_table

        def counting(rows, n_rows, dtype):
            calls.append(n_rows)
            return original(rows, n_rows, dtype)

        monkeypatch.setattr(numpy_backend, "_masked_table", counting)
        return calls

    @pytest.mark.parametrize("plan", ("planner", *FORCED_PASS_PLANS))
    @pytest.mark.parametrize("batch", tuple(SCALE_BATCHES))
    @pytest.mark.parametrize("q", (0.05, 0.2, 0.5, 0.8, 0.95))
    @pytest.mark.parametrize("label", tuple(SCALE_OVERLAYS))
    def test_outcomes_equal_the_oracle(
        self, scale_overlays, scale_oracle, builds, label, q, batch, plan
    ):
        alive, sources, destinations, succeeded, hops, codes = scale_oracle(label, q, batch)
        overlay = scale_overlays[label]
        if plan == "planner":
            outcome = route_pairs(overlay, sources, destinations, alive, backend="numpy")
        else:
            with forced_passes(plan):
                outcome = route_pairs(overlay, sources, destinations, alive, backend="numpy")
        assert np.array_equal(outcome.succeeded, succeeded)
        assert np.array_equal(outcome.hops, hops)
        assert np.array_equal(outcome.failure_codes, codes)
        if SCALE_BATCHES[batch][1] is not None:
            assert len(builds) == SCALE_BATCHES[batch][1]

    def test_the_planner_passes_on_wide_low_q_batches(self, scale_overlays, scale_oracle, monkeypatch):
        # Before the full table exists, at low q, the planner does run
        # passes (or the parity above would only ever have checked the full
        # scan under the planner's plan).
        plans = []
        original = kernelspec._planned_passes

        def recording(pending, degree, expected_yield, from_table):
            plans.append(original(pending, degree, expected_yield, from_table))
            return plans[-1]

        monkeypatch.setattr(kernelspec, "_planned_passes", recording)
        for label in SCALE_OVERLAYS:
            alive, sources, destinations, *_ = scale_oracle(label, 0.05, "mid-route")
            route_pairs(scale_overlays[label], sources, destinations, alive, backend="numpy")
        assert max(plans) > 0


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
            succeeded, hops, codes = backend.run(overlay, state, sources, destinations)
            fresh = route_pairs(overlay, sources, destinations, mask, backend=backend)
            context = (geometry_name, kind, step)
            assert np.array_equal(succeeded, fresh.succeeded), context
            assert np.array_equal(hops, fresh.hops), context
            assert np.array_equal(codes, fresh.failure_codes), context
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
