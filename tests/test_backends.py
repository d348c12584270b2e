"""Tests for the pluggable kernel-backend subsystem (registry + executors).

Since the KernelSpec refactor the backends contain no routing rules; the
scalar-vs-spec parity property tests live in ``tests/test_kernelspec.py``,
driven by the auto-discovering conformance harness
(:mod:`repro.sim.conformance`).  What remains here is the registry
behaviour (resolution, graceful fallback — warned once per process — and
live choices), the shared table-freezing discipline, and the SweepRunner
integration (workers inherit the resolved backend, profiles accumulate).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dht import OVERLAY_CLASSES
from repro.exceptions import InvalidParameterError, UnknownGeometryError
from repro.sim import backends as backends_module
from repro.sim.backends import (
    BACKEND_CHOICES,
    NUMBA_AVAILABLE,
    KernelBackend,
    NumpyBackend,
    available_backends,
    check_backend,
    default_backend_name,
    python_loop_backend,
    resolve_backend,
)
from repro.sim.backends.base import pack_alive_words
from repro.sim.conformance import conformance_backends
from repro.sim.engine import (
    PROFILE_PHASES,
    SweepRunner,
)

from conftest import SMALL_D


def all_backends():
    """Every backend implementation testable in this environment."""
    return [resolve_backend(backend) if isinstance(backend, str) else backend
            for _, backend in conformance_backends()]


class TestRegistry:
    def test_numpy_backend_is_always_available(self):
        assert "numpy" in available_backends()

    def test_available_backends_match_numba_importability(self):
        assert ("numba" in available_backends()) == NUMBA_AVAILABLE

    def test_backend_choices_come_from_the_live_registry(self):
        # "auto" plus every registered backend, importable or not — the CLI
        # help and validation read this, so it must track the registry.
        assert BACKEND_CHOICES[0] == "auto"
        assert set(available_backends()) <= set(BACKEND_CHOICES[1:])
        assert set(BACKEND_CHOICES[1:]) == set(backends_module._BACKEND_REGISTRY)

    def test_resolve_auto_prefers_the_fastest_available(self):
        resolved = resolve_backend("auto")
        assert resolved.name == ("numba" if NUMBA_AVAILABLE else "numpy")
        assert default_backend_name() == resolved.name

    def test_resolve_none_means_auto(self):
        assert resolve_backend(None).name == resolve_backend("auto").name

    def test_resolve_passes_instances_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_backend("cuda")
        with pytest.raises(InvalidParameterError):
            check_backend("scalar")

    def test_backends_are_kernel_backends(self):
        for backend in all_backends():
            assert isinstance(backend, KernelBackend)

    def test_unknown_geometry_rejected_by_every_backend(self):
        class FakeOverlay:
            geometry_name = "torus"
            d = 4
            n_nodes = 16

            def neighbor_array(self):
                return np.zeros((16, 2), dtype=np.int64)

            def hop_limit(self):
                return 8

        alive = np.ones(16, dtype=bool)
        for backend in all_backends():
            with pytest.raises(UnknownGeometryError):
                backend.prepare(FakeOverlay(), alive)


@pytest.mark.skipif(NUMBA_AVAILABLE, reason="only meaningful without Numba")
class TestFallbackWarning:
    """Requesting numba without Numba warns — once per process, not per resolve."""

    def test_numba_request_without_numba_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.setattr(backends_module, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falling back to the numpy backend"):
            resolved = resolve_backend("numba")
        assert resolved.name == "numpy"

    def test_fallback_warns_once_per_process(self, monkeypatch):
        # A SweepRunner construction plus every worker-spec resolution all
        # funnel through resolve_backend; only the first may warn.
        import warnings

        monkeypatch.setattr(backends_module, "_FALLBACK_WARNED", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                assert resolve_backend("numba").name == "numpy"
        relevant = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "once per process" in str(relevant[0].message)


class TestAliveWordPacking:
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 200])
    def test_packed_bits_roundtrip(self, size):
        rng = np.random.default_rng(size)
        alive = rng.random(size) < 0.5
        words = pack_alive_words(alive)
        assert words.dtype == np.uint64
        assert words.size == (size + 63) // 64
        for i in range(size):
            bit = (int(words[i >> 6]) >> (i & 63)) & 1
            assert bool(bit) == bool(alive[i]), i
        # Pad bits beyond the mask read as dead.
        for i in range(size, words.size * 64):
            assert (int(words[i >> 6]) >> (i & 63)) & 1 == 0


class TestReadOnlyTables:
    """Shared routing tables must reject writes."""

    def test_neighbor_array_is_read_only(self, small_overlays, geometry_name):
        table = small_overlays[geometry_name].neighbor_array()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


class TestOneTablePerOverlay:
    """Every overlay holds exactly one routing table: the read-only int32
    array its scalar oracle and every kernel backend read."""

    def test_neighbor_array_is_the_overlays_only_table(self, geometry_name):
        # A fresh build: session overlays may carry other caches by now.
        overlay = OVERLAY_CLASSES[geometry_name].build(10, seed=2006)
        table = overlay.neighbor_array()
        assert table.dtype == np.int32
        assert table.flags.c_contiguous and not table.flags.writeable
        assert overlay.neighbor_array() is table
        for node in range(overlay.n_nodes):
            assert tuple(table[node]) == overlay.neighbors(node)
        others = [
            value
            for value in vars(overlay).values()
            if isinstance(value, np.ndarray) and not np.shares_memory(value, table)
        ]
        assert sum(value.nbytes for value in others) < table.nbytes


class TestSweepRunnerBackends:
    def test_backend_name_is_exposed_and_resolved(self):
        runner = SweepRunner(pairs=10, replicates=1, backend="auto")
        assert runner.backend_name in available_backends()
        pinned = SweepRunner(pairs=10, replicates=1, backend="numpy")
        assert pinned.backend_name == "numpy"

    def test_sweep_result_records_backend_name(self):
        with SweepRunner(pairs=30, replicates=1, workers=1, base_seed=7) as runner:
            sweep = runner.sweep("xor", SMALL_D, [0.2])
        assert sweep.backend_name == runner.backend_name

    def test_workers_inherit_the_backend(self):
        # Worker specs carry the resolved backend name; a pooled run must
        # produce the same metrics as the in-process run with that backend.
        with SweepRunner(
            pairs=30, replicates=2, workers=3, base_seed=11, backend="numpy"
        ) as pooled:
            pooled_grid = pooled.run(["hypercube"], SMALL_D, [0.2, 0.6])
        with SweepRunner(
            pairs=30, replicates=2, workers=1, base_seed=11, backend="numpy"
        ) as solo:
            solo_grid = solo.run(["hypercube"], SMALL_D, [0.2, 0.6])
        for cell in solo_grid:
            assert pooled_grid[cell].metrics.successes == solo_grid[cell].metrics.successes

    def test_custom_backend_instance_runs_in_process(self):
        # A non-registry instance (the uncompiled loops) is dispatchable too.
        with SweepRunner(
            pairs=20, replicates=1, workers=1, base_seed=5, backend=python_loop_backend()
        ) as runner:
            with SweepRunner(
                pairs=20, replicates=1, workers=1, base_seed=5, backend="numpy"
            ) as reference:
                loop_grid = runner.run(["tree"], SMALL_D, [0.3])
                numpy_grid = reference.run(["tree"], SMALL_D, [0.3])
        for cell in numpy_grid:
            measured, expected = loop_grid[cell].metrics, numpy_grid[cell].metrics
            assert measured.attempts == expected.attempts
            assert measured.successes == expected.successes
            assert measured.failure_reasons == expected.failure_reasons
            for field in ("mean_hops_successful", "mean_hops_failed"):
                a, b = getattr(measured, field), getattr(expected, field)
                assert a == b or (math.isnan(a) and math.isnan(b)), field


class TestProfile:
    def test_profile_accumulates_known_phases(self):
        with SweepRunner(pairs=50, replicates=2, workers=1, base_seed=13) as runner:
            runner.sweep("ring", SMALL_D, [0.1, 0.4])
            profile = runner.profile
        assert profile, "expected a non-empty profile after a sweep"
        assert set(profile) <= set(PROFILE_PHASES)
        for phase in ("overlay_build", "mask_generation", "kernel_hops", "reduction"):
            assert profile[phase] >= 0.0
        assert profile["kernel_hops"] > 0.0

    def test_profile_covers_worker_dispatch(self):
        with SweepRunner(pairs=30, replicates=2, workers=2, base_seed=17) as runner:
            runner.sweep("xor", SMALL_D, [0.2, 0.5])
            profile = runner.profile
        assert profile.get("kernel_hops", 0.0) > 0.0
        # Pool workers build their own overlays and report the build time.
        assert profile.get("overlay_build", 0.0) > 0.0
        assert set(profile) <= set(PROFILE_PHASES)

    def test_reset_profile_clears_timings(self):
        with SweepRunner(pairs=20, replicates=1, workers=1, base_seed=19) as runner:
            runner.sweep("tree", SMALL_D, [0.3])
            assert runner.profile
            runner.reset_profile()
            assert runner.profile == {}

    def test_memoized_cells_add_no_profile_time(self):
        with SweepRunner(pairs=20, replicates=1, workers=1, base_seed=23) as runner:
            runner.sweep("ring", SMALL_D, [0.2])
            first = runner.profile
            runner.sweep("ring", SMALL_D, [0.2])  # fully memoized
            assert runner.profile == first
