"""Benchmark KERNELSPEC: every kernel backend against one vendored reference.

Routes the Figure 6(a)-style workload (tree, hypercube, XOR and ring at
``d = 10``; one fused stacked batch per ``(geometry, replicate)`` overlay
group, 2000 pairs per cell) through

* the **PR-3 numpy backend**, vendored below verbatim (per-geometry
  prepare/step factories, blocked vectorized hop loop, disjoint-union
  stacking) as the pinned reference.  Its tree, hypercube and XOR kernels
  are also the PR-2 fused NumPy path's: the two generations differ only by
  the ring kernel and one ``assert`` in the distance-sentinel helper;
* every available backend: ``numpy`` always, ``numba`` when it imports.

All contenders route identical inputs, so every per-pair outcome must agree
with the reference bit for bit; without Numba that parity check is the whole
test and nothing is timed.  With Numba the reference and the JIT backend are
timed in alternating rounds and two ratios over the same inputs are each
held to a ≥2x floor:

* ``speedup_numba_vs_pr3`` over tree, hypercube, XOR and ring;
* ``speedup_numba_vs_pr2`` over tree, hypercube and XOR, the inputs of the
  original PR-2 backend gate.

Results go to ``BENCH_kernelspec.json`` (path overridable via
``RCM_BENCH_KERNELSPEC_JSON``) for ``rcm bench-report``, which skips both
ratios where they are ``null``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Tuple

import numpy as np

from repro.dht import OVERLAY_CLASSES
from repro.dht.failures import survival_mask
from repro.sim.backends import NUMBA_AVAILABLE, available_backends
from repro.sim.engine import _cell_entropy, route_pairs_stacked
from repro.sim.kernelspec import registered_geometries
from repro.sim.sampling import sample_survivor_pair_arrays
from repro.workloads.generators import paper_failure_probabilities

BENCH_GEOMETRIES = ("tree", "hypercube", "xor", "ring")
#: The geometries of the PR-2 backend gate (it predates the ring kernel).
PR2_GEOMETRIES = ("tree", "hypercube", "xor")
BENCH_D = 10
PAIRS = 2000
TRIALS = 3
SEED = 20060328
#: Required speedup of the JIT backend over the vendored reference.
JIT_SPEEDUP_FLOOR = 2.0
#: Alternating timing rounds per contender; each ratio takes the fastest.
TIMING_ROUNDS = 7

_SUCCESS = 0
_DEAD_END = 1
_REQUIRED_FAILED = 2
_HOP_LIMIT = 3


# --------------------------------------------------------------------- #
# PR-3 numpy backend, vendored verbatim as the pinned reference
# (its tree, hypercube and XOR kernels are also the PR-2 fused path's)
# --------------------------------------------------------------------- #
def _pr3_distance_sentinel(alive, dtype):
    sentinel = 1 << int(alive.size - 1).bit_length()
    assert sentinel <= np.iinfo(dtype).max // 2
    return sentinel


def _pr3_tree_kernel(overlay, alive):
    tables = overlay.neighbor_array()
    d = overlay.d

    def step(cur, dst):
        diff = cur ^ dst
        bit_length = np.frexp(diff.astype(np.float64))[1]
        nxt = tables[cur, d - bit_length]
        return nxt, alive[nxt], _REQUIRED_FAILED

    return step


def _pr3_hypercube_kernel(overlay, alive):
    d = overlay.d
    n = alive.size
    dtype = np.int32 if n <= np.iinfo(np.int32).max // 2 else np.int64
    identifiers = np.arange(n, dtype=dtype)
    alive_bits = np.zeros(n, dtype=dtype)
    for j in range(d):
        alive_bits |= alive[identifiers ^ dtype(1 << j)].astype(dtype) << dtype(j)
    one = dtype(1)

    def step(cur, dst):
        usable = alive_bits[cur] & (cur ^ dst)
        decreasing = usable & cur
        high = np.frexp(decreasing.astype(np.float64))[1]
        clear_highest = np.left_shift(one, np.maximum(high, 1).astype(dtype) - one)
        increasing = usable & ~cur
        set_lowest = increasing & -increasing
        bit = np.where(decreasing != 0, clear_highest, set_lowest)
        return cur ^ bit, usable != 0, _DEAD_END

    return step


def _pr3_xor_kernel(overlay, alive):
    tables = overlay.neighbor_array()
    sentinel = _pr3_distance_sentinel(alive, tables.dtype)
    masked_tables = np.where(alive[tables], tables, tables.dtype.type(sentinel))

    def step(cur, dst):
        neighbors = masked_tables[cur]
        distances = neighbors ^ dst[:, None]
        best = distances.argmin(axis=1)
        rows = np.arange(cur.size)
        ok = distances[rows, best] < (cur ^ dst)
        return neighbors[rows, best], ok, _DEAD_END

    return step


def _pr3_ring_kernel(overlay, alive):
    tables = overlay.neighbor_array()
    n = int(getattr(overlay, "ring_modulus", overlay.n_nodes))
    far = np.iinfo(tables.dtype).max
    self_column = np.arange(alive.size, dtype=tables.dtype)[:, None]
    masked_tables = np.where(alive[tables], tables, self_column)

    def step(cur, dst):
        neighbors = masked_tables[cur]
        progress = (neighbors - cur[:, None]) % n
        remaining = ((dst - cur) % n)[:, None]
        usable = (progress != 0) & (progress <= remaining)
        after = np.where(usable, remaining - progress, far)
        best = after.argmin(axis=1)
        rows = np.arange(cur.size)
        return neighbors[rows, best], usable[rows, best], _DEAD_END

    return step


_PR3_KERNELS = {
    "tree": _pr3_tree_kernel,
    "hypercube": _pr3_hypercube_kernel,
    "xor": _pr3_xor_kernel,
    "ring": _pr3_ring_kernel,
}

_PR3_KERNEL_BLOCK = 2048


def _pr3_step_blocked(step, cur, dst):
    size = cur.size
    if size <= _PR3_KERNEL_BLOCK:
        return step(cur, dst)
    next_hop = np.empty(size, dtype=cur.dtype)
    ok = np.empty(size, dtype=bool)
    fail_code = _SUCCESS
    for start in range(0, size, _PR3_KERNEL_BLOCK):
        stop = start + _PR3_KERNEL_BLOCK
        block_next, block_ok, fail_code = step(cur[start:stop], dst[start:stop])
        next_hop[start:stop] = block_next
        ok[start:stop] = block_ok
    return next_hop, ok, fail_code


def _pr3_route_batch(overlay, step, sources, destinations):
    n_pairs = sources.size
    hop_limit = overlay.hop_limit()
    current = sources.copy()
    hops = np.zeros(n_pairs, dtype=np.int64)
    succeeded = np.zeros(n_pairs, dtype=bool)
    codes = np.full(n_pairs, _SUCCESS, dtype=np.int8)
    active = np.arange(n_pairs, dtype=np.int64)
    iteration = 0
    while active.size:
        if iteration >= hop_limit:
            codes[active] = _HOP_LIMIT
            hops[active] = iteration
            break
        next_hop, ok, fail_code = _pr3_step_blocked(step, current[active], destinations[active])
        if not ok.all():
            dropped = active[~ok]
            codes[dropped] = fail_code
            hops[dropped] = iteration
            next_hop = next_hop[ok]
            active = active[ok]
        current[active] = next_hop
        arrived = next_hop == destinations[active]
        if arrived.any():
            delivered = active[arrived]
            succeeded[delivered] = True
            hops[delivered] = iteration + 1
            active = active[~arrived]
        iteration += 1
    return succeeded, hops, codes


class _Pr3UnionView:
    def __init__(self, overlay, n_cells: int) -> None:
        self.geometry_name = overlay.geometry_name
        self.d = overlay.d
        self.ring_modulus = overlay.n_nodes
        self.n_nodes = n_cells * overlay.n_nodes
        self._hop_limit = overlay.hop_limit()
        table = overlay.neighbor_array()
        dtype = np.int32 if self.n_nodes <= np.iinfo(np.int32).max else np.int64
        offsets = np.arange(n_cells, dtype=dtype) * dtype(overlay.n_nodes)
        self._table = (table.astype(dtype)[None, :, :] + offsets[:, None, None]).reshape(
            self.n_nodes, table.shape[1]
        )

    def neighbor_array(self):
        return self._table

    def hop_limit(self) -> int:
        return self._hop_limit


def _pr3_check_stacked_arguments(overlay, sources, destinations, alive_stack, cell_indices):
    # The PR-3 entry point validated every stacked batch; the pinned
    # reference pays the same cost so the JIT ratios compare like with like.
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    assert sources.ndim == 1 and sources.shape == destinations.shape
    n = overlay.n_nodes
    for endpoints in (sources, destinations):
        assert endpoints.size and endpoints.min() >= 0 and endpoints.max() < n
    assert not np.any(sources == destinations)
    alive_stack = np.asarray(alive_stack)
    if alive_stack.dtype != np.bool_:
        alive_stack = alive_stack.astype(bool)
    assert alive_stack.ndim == 2 and alive_stack.shape[1] == n
    cell_indices = np.asarray(cell_indices, dtype=np.int64)
    assert cell_indices.shape == sources.shape
    assert cell_indices.min() >= 0 and cell_indices.max() < alive_stack.shape[0]
    assert alive_stack[cell_indices, sources].all()
    assert alive_stack[cell_indices, destinations].all()
    return sources, destinations, alive_stack, cell_indices


def _pr3_route_stacked(overlay, sources, destinations, alive_stack, cell_indices):
    sources, destinations, alive_stack, cell_indices = _pr3_check_stacked_arguments(
        overlay, sources, destinations, alive_stack, cell_indices
    )
    union = _Pr3UnionView(overlay, alive_stack.shape[0])
    dtype = union.neighbor_array().dtype
    offsets = cell_indices * overlay.n_nodes
    step = _PR3_KERNELS[overlay.geometry_name](union, alive_stack.reshape(-1))
    return _pr3_route_batch(
        union,
        step,
        (sources + offsets).astype(dtype, copy=False),
        (destinations + offsets).astype(dtype, copy=False),
    )


# --------------------------------------------------------------------- #
# workload preparation (identical inputs for every contender)
# --------------------------------------------------------------------- #
def _build_groups(failure_probabilities) -> Tuple:
    """One ``(geometry, stacked batch)`` per (geometry, replicate) overlay group."""
    groups = []
    for geometry in BENCH_GEOMETRIES:
        for replicate in range(TRIALS):
            build_rng = np.random.default_rng(
                np.random.SeedSequence(
                    _cell_entropy(SEED, "overlay", (geometry, BENCH_D, replicate))
                )
            )
            overlay = OVERLAY_CLASSES[geometry].build(BENCH_D, rng=build_rng)
            overlay.neighbor_array()  # materialise outside the timed regions
            masks, sources, destinations = [], [], []
            for q in failure_probabilities:
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        _cell_entropy(SEED, "routing", (geometry, BENCH_D, replicate, q))
                    )
                )
                alive = survival_mask(overlay.n_nodes, q, rng)
                if int(alive.sum()) < 2:
                    continue
                src, dst = sample_survivor_pair_arrays(alive, PAIRS, rng)
                masks.append(alive)
                sources.append(src)
                destinations.append(dst)
            batch = (
                overlay,
                np.concatenate(sources),
                np.concatenate(destinations),
                np.stack(masks),
                np.repeat(np.arange(len(masks), dtype=np.int64), PAIRS),
            )
            groups.append((geometry, batch))
    return tuple(groups)


def _route_reference(batch):
    return _pr3_route_stacked(*batch)


def _backend_router(backend_name):
    def route(batch):
        outcome = route_pairs_stacked(*batch, backend=backend_name)
        return outcome.succeeded, outcome.hops, outcome.failure_codes

    return route


def _seconds_by_geometry(route, groups):
    """Seconds ``route`` spends on each geometry's groups, in one pass."""
    seconds = dict.fromkeys(BENCH_GEOMETRIES, 0.0)
    for geometry, batch in groups:
        started = time.perf_counter()
        route(batch)
        seconds[geometry] += time.perf_counter() - started
    return seconds


def _fastest_rounds(contenders, groups):
    """Per contender, the fastest round over all geometries and over the PR-2 ones.

    Contenders run alternately in each round, so a load spike hits all of
    them rather than whichever ran second.
    """
    fastest = {label: {"pr3": math.inf, "pr2": math.inf} for label in contenders}
    for _ in range(TIMING_ROUNDS):
        for label, route in contenders.items():
            seconds = _seconds_by_geometry(route, groups)
            best = fastest[label]
            best["pr3"] = min(best["pr3"], sum(seconds.values()))
            best["pr2"] = min(best["pr2"], sum(seconds[geometry] for geometry in PR2_GEOMETRIES))
    return fastest


def test_kernelspec_driver_speed_and_parity():
    failure_probabilities = paper_failure_probabilities(fast=True)
    groups = _build_groups(failure_probabilities)

    # Identical inputs: every backend must agree bit for bit on every pair.
    # This first pass also pays the JIT compilation outside the timed rounds.
    reference = [_route_reference(batch) for _, batch in groups]
    for backend_name in available_backends():
        route = _backend_router(backend_name)
        for index, (geometry, batch) in enumerate(groups):
            for got, expected in zip(route(batch), reference[index]):
                assert np.array_equal(got, expected), (backend_name, geometry, index)

    speedups = {"pr3": None, "pr2": None}
    fastest = None
    if NUMBA_AVAILABLE:
        fastest = _fastest_rounds(
            {"reference": _route_reference, "numba": _backend_router("numba")}, groups
        )
        speedups = {
            generation: fastest["reference"][generation] / fastest["numba"][generation]
            for generation in speedups
        }

    report = {
        "benchmark": "kernelspec-unified-driver",
        "d": BENCH_D,
        "pairs": PAIRS,
        "trials": TRIALS,
        "groups": len(groups),
        "geometries": list(BENCH_GEOMETRIES),
        "pr2_geometries": list(PR2_GEOMETRIES),
        "registered_geometries": list(registered_geometries()),
        "failure_probabilities": list(failure_probabilities),
        "python": platform.python_version(),
        "available_backends": list(available_backends()),
        "numba_available": NUMBA_AVAILABLE,
        "fastest_round_seconds": fastest,
        "speedup_numba_vs_pr3": speedups["pr3"],
        "speedup_numba_vs_pr2": speedups["pr2"],
        "jit_speedup_floor": JIT_SPEEDUP_FLOOR,
    }
    output_path = os.environ.get("RCM_BENCH_KERNELSPEC_JSON", "BENCH_kernelspec.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print()
    print(json.dumps(report, indent=2))

    if NUMBA_AVAILABLE:
        for generation, geometries in (("pr3", BENCH_GEOMETRIES), ("pr2", PR2_GEOMETRIES)):
            assert speedups[generation] >= JIT_SPEEDUP_FLOOR, (
                f"JIT backend speedup {speedups[generation]:.1f}x over the vendored "
                f"reference on {', '.join(geometries)} is below the "
                f"{JIT_SPEEDUP_FLOOR:.0f}x floor (reference "
                f"{fastest['reference'][generation]:.3f}s vs numba "
                f"{fastest['numba'][generation]:.3f}s)"
            )
