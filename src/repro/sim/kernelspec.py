"""The KernelSpec layer: each routing geometry declares its hop rule **once**.

Before this layer existed, every routing rule in the repository was written
four times — the scalar :meth:`Overlay.route` oracle, the vectorized NumPy
prepare/step kernels, the fused stacked variant, and the Numba per-pair loop
bodies — and the ROADMAP tracked "any routing-rule change now has four
places to update" as the dominant cost of adding a geometry.  This module
collapses the batch side of that invariant to a single declaration:

* A :class:`KernelSpec` is one geometry's routing step, written in a
  **restricted, element-wise subset** of numpy/numba-compatible Python: the
  spec's functions receive either scalars (the per-pair executors) or
  arrays (the vectorized executor) and must treat them uniformly —
  arithmetic, bit operations, comparisons, and the :class:`Ops` primitives
  only; no data-dependent ``if``/``while``.
* Specs hold no mask-dependent state; the **drivers own aliveness**.  A
  driver reads a row's neighbours with each dead one replaced by the row's
  own identifier (:func:`dead_to_self`), so a spec sees a dead neighbour
  only as ``cur`` itself: every scan ``accept`` rejects that candidate and
  it never beats a usable one, and a direct spec's per-neighbour
  ``neighbor_bits`` (the hypercube's alive-neighbour bitset) gets nothing
  from it.  Direct specs whose single next hop is looked up (tree, de
  Bruijn) read aliveness through ``ops.alive`` instead.  These *masked
  rows* are row-independent: a vectorized executor may compute them for
  the rows a hop gathers, or for every row at once — the same functions
  either way, so the two forms cannot disagree.
* Every driver receives the same two constants, :func:`routing_consts`
  ``(d, 2^d - 1)``, and the physical neighbour table.  On the fused
  disjoint-union view (virtual identifier ``cell * 2^d + node``) a row is
  looked up at ``local = cur & (2^d - 1)`` and shifted by the cell base
  ``cur - local``, so no offset table is needed to route many cells at
  once.
* The generic drivers in this module derive **every execution shape** from
  the one declaration: :func:`vector_rows` / :func:`vector_step` build the
  vectorized masked-row and per-hop functions the NumPy backend iterates
  (single-mask and stacked batches alike — a single mask is just a stack of
  one), and :func:`scalar_step` / :func:`make_pair_loop` build the per-pair
  source-to-termination loop the Numba backend ``@njit``-compiles — and
  which remains callable as plain Python, so the exact code Numba compiles
  is property-tested on every CI leg.

Two rule shapes cover every geometry the paper analyses (and the de Bruijn
extension):

``kind="direct"``
    The next hop is computed directly from ``(current, destination)`` —
    tree (correct the leftmost differing bit), hypercube (bitset
    arithmetic), de Bruijn (shift in the next destination bit).  The spec
    supplies ``advance(consts, table, alive, cur, dst, row) -> (next, ok)``
    and optionally ``neighbor_bits(consts, neighbor, cur)``, which the
    driver ORs over the masked row into the ``row`` value.

``kind="scan"``
    The next hop minimises a per-neighbour key over the routing table —
    XOR distance (Kademlia), clockwise remaining distance (Chord,
    Symphony).  The spec supplies an element-wise ``key`` and an ``accept``
    predicate; the *drivers* own the masked gather and the scan itself
    (vectorized ``argmin`` over the gathered rows, or a running
    first-minimum in the per-pair loop — both keep the first minimum, so
    tie-breaking is identical by construction).

With this layer in place the routing invariant has exactly **two** copies
per geometry — the scalar oracle and the spec — property-tested against
each other by the conformance harness (:mod:`repro.sim.conformance`) across
every registered geometry, dispatch mode, backend, worker count and failure
model.

This module deliberately imports nothing from :mod:`repro.dht` (specs are
registered *by* the overlay modules, next to their scalar oracles) and
nothing from :mod:`repro.sim.backends` (executors consume specs, not the
other way around), so a geometry module can register its spec without
import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..exceptions import InvalidParameterError, UnknownGeometryError

__all__ = [
    "Ops",
    "VECTOR_OPS",
    "SCALAR_OPS",
    "KernelSpec",
    "KERNEL_SPECS",
    "register_kernel_spec",
    "get_kernel_spec",
    "has_kernel_spec",
    "registered_geometries",
    "routing_consts",
    "dead_to_self",
    "vector_rows",
    "vector_step",
    "scalar_step",
    "make_pair_loop",
    "FAR_KEY",
]

#: Initial "no candidate yet" key of the per-pair scan loops: strictly above
#: every real key any spec can produce (keys are bounded by identifier-space
#: arithmetic, far below 2^62).
FAR_KEY = 1 << 62


def routing_consts(view) -> Tuple[int, int]:
    """The constants every spec function receives: ``(d, 2^d - 1)``.

    ``2^d - 1`` masks a (possibly disjoint-union) identifier down to its
    physical node; ``2^d`` is also the ring modulus, since every overlay
    fully populates its ``d``-bit space.
    """
    d = int(view.d)
    return d, (1 << d) - 1


# --------------------------------------------------------------------- #
# the restricted primitive set
# --------------------------------------------------------------------- #
class Ops(NamedTuple):
    """The primitives a spec body may use beyond plain element-wise arithmetic.

    Two instances exist: :data:`VECTOR_OPS` (array implementations for the
    vectorized executor) and :data:`SCALAR_OPS` (scalar implementations for
    the per-pair executors; the exact functions the Numba backend compiles).
    A spec function is instantiated once per executor by calling its factory
    with the executor's ``Ops`` — same body, different primitives.

    Attributes
    ----------
    where:
        ``where(condition, a, b)`` — element-wise select.
    bit_length:
        ``bit_length(x)`` — position of the highest set bit (``0`` for 0).
    highest_set_bit:
        ``highest_set_bit(x)`` — ``x`` with only its highest set bit kept.
        The value is **undefined at** ``x == 0`` (executors differ there);
        callers must mask that case out with :attr:`where`.
    alive:
        ``alive(handle, index)`` — aliveness lookup in the executor's own
        survival representation (a boolean vector for the vectorized
        executor, bit-packed uint64 words for the per-pair executors).
    """

    where: Callable
    bit_length: Callable
    highest_set_bit: Callable
    alive: Callable


def _vector_where(condition, a, b):
    return np.where(condition, a, b)


def _vector_bit_length(x):
    # np.frexp returns the exponent e with x = m * 2^e, m in [0.5, 1) —
    # exactly bit_length(x) for positive integers; exact for x < 2^53, far
    # beyond any overlay that fits in memory.
    return np.frexp(x.astype(np.float64))[1]


def _vector_highest_set_bit(x):
    # Undefined at x == 0 (the clamp makes it report bit 0); callers mask.
    exponent = np.frexp(x.astype(np.float64))[1]
    one = x.dtype.type(1)
    return np.left_shift(one, np.maximum(exponent, 1).astype(x.dtype) - one)


def _vector_alive(mask, index):
    return mask[index]


def _scalar_where(condition, a, b):
    if condition:
        return a
    return b


def _scalar_bit_length(x):
    length = 0
    while x != 0:
        x >>= 1
        length += 1
    return length


def _scalar_highest_set_bit(x):
    bit = x
    while bit & (bit - 1) != 0:
        bit &= bit - 1
    return bit


def _scalar_alive(words, index):
    return (words[index >> 6] >> np.uint64(index & 63)) & np.uint64(1) != np.uint64(0)


#: Array primitives for the vectorized executor.
VECTOR_OPS = Ops(
    where=_vector_where,
    bit_length=_vector_bit_length,
    highest_set_bit=_vector_highest_set_bit,
    alive=_vector_alive,
)

#: Scalar primitives for the per-pair executors — plain Python functions a
#: Numba executor wraps with ``njit`` unchanged, so the compiled primitives
#: are the ones the no-numba parity legs already exercised.
SCALAR_OPS = Ops(
    where=_scalar_where,
    bit_length=_scalar_bit_length,
    highest_set_bit=_scalar_highest_set_bit,
    alive=_scalar_alive,
)


def dead_to_self(ops: Ops) -> Callable:
    """The drivers' one aliveness rule for scan candidates.

    ``substitute(alive, neighbor, cur)`` keeps an alive neighbour and
    replaces a dead one by the row's own identifier ``cur``: every scan
    ``accept`` rejects that candidate, and it never beats a usable one, so
    no spec sees a dead neighbour any other way.  The per-hop gather, the
    full masked table and the per-pair loops all apply this function.
    """
    where = ops.where
    alive_at = ops.alive

    def substitute(alive, neighbor, cur):
        return where(alive_at(alive, neighbor), neighbor, cur)

    return substitute


# --------------------------------------------------------------------- #
# spec + registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelSpec:
    """One geometry's batch routing rule, declared once and executed everywhere.

    Every function field is a *factory*: called with an :class:`Ops`
    instance, it returns the element-wise function for that executor.
    ``consts`` is :func:`routing_consts` of the routed view and ``table``
    its physical ``(2^d, degree)`` neighbour table; identifiers may be
    disjoint-union identifiers, so a table row is read at ``cur & consts[1]``
    and shifted by the cell base.

    Attributes
    ----------
    geometry:
        The geometry label the spec registers under (``overlay.geometry_name``).
    kind:
        ``"direct"`` (next hop computed from current/destination) or
        ``"scan"`` (next hop minimises a key over the neighbour table).
    fail_code:
        The :data:`repro.dht.routing.FAILURE_CODES` value reported when a
        hop cannot advance (``DEAD_END`` for scans with no usable
        neighbour, ``REQUIRED_NEIGHBOR_FAILED`` for direct rules whose
        single required neighbour is dead).
    advance:
        Direct kind only: ``advance(ops) -> fn(consts, table, alive, cur,
        dst, row) -> (next, ok)``, element-wise.  ``row`` is the OR of
        :attr:`neighbor_bits` over ``cur``'s masked row (unused when the
        spec declares none).
    neighbor_bits:
        Direct kind, optional: ``neighbor_bits(ops) -> fn(consts, neighbor,
        cur) -> bits``, one masked neighbour's contribution to ``row``; a
        dead neighbour arrives as ``cur`` and must contribute ``0``.
        Drivers evaluate the row for the rows a hop visits or, past the
        crossover, for every row once.
    key:
        Scan kind only: ``key(ops) -> fn(consts, neighbor, cur, dst) ->
        key``, element-wise; smaller is better.  A dead neighbour arrives
        as ``cur`` itself (:func:`dead_to_self`), and unusable candidates
        must map to a key the ``accept`` predicate rejects.  Tie-breaking
        is owned by the drivers (first minimum) and must therefore be
        immaterial: equal keys must imply the same neighbour identifier.
    accept:
        Scan kind only: ``accept(ops) -> fn(consts, best_key, cur, dst) ->
        ok``, element-wise verdict on the winning candidate.
    """

    geometry: str
    kind: str
    fail_code: int
    advance: Optional[Callable] = None
    neighbor_bits: Optional[Callable] = None
    key: Optional[Callable] = None
    accept: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not self.geometry:
            raise InvalidParameterError("a KernelSpec must name its geometry")
        if self.kind not in ("direct", "scan"):
            raise InvalidParameterError(
                f"unknown KernelSpec kind {self.kind!r}; expected 'direct' or 'scan'"
            )
        if self.kind == "direct" and self.advance is None:
            raise InvalidParameterError(f"direct spec {self.geometry!r} must define advance")
        if self.kind == "scan" and (self.key is None or self.accept is None):
            raise InvalidParameterError(f"scan spec {self.geometry!r} must define key and accept")
        if self.kind == "scan" and self.neighbor_bits is not None:
            raise InvalidParameterError(
                f"scan spec {self.geometry!r} cannot define neighbor_bits: "
                "its row is the masked neighbour list itself"
            )


#: Registered specs, keyed by geometry label.  Populated by the overlay
#: modules in :mod:`repro.dht` (each registers its spec next to its scalar
#: oracle) — import :mod:`repro.dht` to fill it.
KERNEL_SPECS: Dict[str, KernelSpec] = {}


def register_kernel_spec(spec: KernelSpec) -> KernelSpec:
    """Add ``spec`` to the registry under its geometry label."""
    if spec.geometry in KERNEL_SPECS:
        raise InvalidParameterError(f"kernel spec {spec.geometry!r} is already registered")
    KERNEL_SPECS[spec.geometry] = spec
    return spec


def get_kernel_spec(geometry: str) -> KernelSpec:
    """The registered spec for ``geometry``, or a clear error."""
    try:
        return KERNEL_SPECS[geometry]
    except KeyError as exc:
        raise UnknownGeometryError(
            f"no kernel spec for geometry {geometry!r}; "
            f"expected one of {sorted(KERNEL_SPECS)}"
        ) from exc


def has_kernel_spec(geometry: str) -> bool:
    """Whether a spec is registered for ``geometry``."""
    return geometry in KERNEL_SPECS


def registered_geometries() -> Tuple[str, ...]:
    """Registered geometry labels in a stable (sorted) order."""
    return tuple(sorted(KERNEL_SPECS))


# --------------------------------------------------------------------- #
# derived execution shapes
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _vector_functions(spec: KernelSpec):
    """The spec's element-wise functions instantiated with the array primitives."""
    if spec.kind == "direct":
        bits = spec.neighbor_bits
        return spec.advance(VECTOR_OPS), None if bits is None else bits(VECTOR_OPS)
    return spec.key(VECTOR_OPS), spec.accept(VECTOR_OPS)


_VECTOR_DEAD_TO_SELF = dead_to_self(VECTOR_OPS)


def vector_rows(spec: KernelSpec, view, alive: np.ndarray) -> Optional[Callable]:
    """The vectorized masked-row function ``rows(ids)``, or ``None``.

    The masked row of an identifier is its neighbour list, read cell-locally
    from the physical table, with dead entries replaced by the identifier
    itself.  Scan specs scan that ``(ids, degree)`` matrix; direct specs
    with :attr:`~KernelSpec.neighbor_bits` read its OR-reduction; other
    direct specs read no rows (``None``).  ``rows`` is row-independent, so
    the NumPy backend may call it on a hop's active rows or on every
    identifier of ``alive`` at once.
    """
    if spec.kind == "direct" and spec.neighbor_bits is None:
        return None
    consts = routing_consts(view)
    table = view.neighbor_array()
    local_mask = consts[1]

    def masked(ids: np.ndarray) -> np.ndarray:
        local = ids & local_mask
        neighbors = table[local]
        neighbors += (ids - local)[:, None]
        return _VECTOR_DEAD_TO_SELF(alive, neighbors, ids[:, None])

    if spec.kind == "scan":
        return masked
    neighbor_bits = _vector_functions(spec)[1]

    def rows(ids: np.ndarray) -> np.ndarray:
        bits = neighbor_bits(consts, masked(ids), ids[:, None])
        return np.bitwise_or.reduce(bits, axis=1)

    return rows


def vector_step(spec: KernelSpec, view, alive: np.ndarray) -> Callable:
    """The vectorized per-hop step ``(cur, dst, rows) -> (next, ok, fail_code)``.

    ``rows`` is the masked-row value of ``cur`` (see :func:`vector_rows`).
    Direct specs run their ``advance`` body element-wise over the active
    batch; scan specs evaluate the key over the ``(batch, degree)``
    candidate matrix by broadcasting and take the per-row ``argmin`` (first
    minimum — the same tie-break as the per-pair loops' running minimum).
    """
    consts = routing_consts(view)
    if spec.kind == "direct":
        advance = _vector_functions(spec)[0]
        table = view.neighbor_array()

        def step(cur: np.ndarray, dst: np.ndarray, rows):
            next_hop, ok = advance(consts, table, alive, cur, dst, rows)
            return next_hop, ok, spec.fail_code

        return step

    key, accept = _vector_functions(spec)

    def step(cur: np.ndarray, dst: np.ndarray, neighbors: np.ndarray):
        keys = key(consts, neighbors, cur[:, None], dst[:, None])
        best = keys.argmin(axis=1)
        positions = np.arange(cur.size)
        ok = accept(consts, keys[positions, best], cur, dst)
        return neighbors[positions, best], ok, spec.fail_code

    return step


def scalar_step(spec: KernelSpec, ops: Ops = SCALAR_OPS, wrap: Callable = lambda f: f):
    """The per-pair step ``(consts, table, alive, cur, dst) -> (next, ok)``.

    Built from the spec's functions instantiated with ``ops``; ``wrap``
    wraps every function (Numba passes an inlining ``njit``, the parity legs
    the identity).  The step reads ``cur``'s masked row one neighbour at a
    time at every hop — the per-pair executors never build a full masked
    table.  The scan keeps a running strict minimum over the row — the
    first minimum, matching the vectorized driver's ``argmin`` — so both
    executors make the identical choice even among equal keys (which specs
    guarantee name the same neighbour).
    """
    substitute = wrap(dead_to_self(ops))

    def masked(consts, table, alive, cur, column):
        local = cur & consts[1]
        return substitute(alive, table[local, column] + (cur - local), cur)

    masked = wrap(masked)
    if spec.kind == "direct":
        advance = wrap(spec.advance(ops))
        if spec.neighbor_bits is None:

            def direct_step(consts, table, alive, cur, dst):
                return advance(consts, table, alive, cur, dst, 0)

            return wrap(direct_step)
        neighbor_bits = wrap(spec.neighbor_bits(ops))

        def row_step(consts, table, alive, cur, dst):
            row = cur & 0
            for column in range(table.shape[1]):
                row |= neighbor_bits(consts, masked(consts, table, alive, cur, column), cur)
            return advance(consts, table, alive, cur, dst, row)

        return wrap(row_step)

    key = wrap(spec.key(ops))
    accept = wrap(spec.accept(ops))

    def scan_step(consts, table, alive, cur, dst):
        best_key = FAR_KEY
        best_neighbor = cur
        for column in range(table.shape[1]):
            neighbor = masked(consts, table, alive, cur, column)
            candidate = key(consts, neighbor, cur, dst)
            if candidate < best_key:
                best_key = candidate
                best_neighbor = neighbor
        return best_neighbor, accept(consts, best_key, cur, dst)

    return wrap(scan_step)


def make_pair_loop(step, hop_limit_code: int, fail_code: int):
    """The per-pair hop loop around one :func:`scalar_step`.

    Routes every pair from source to termination with the exact scalar-
    oracle bookkeeping: ``hops`` counts forwarding steps actually taken
    (the failed hop of a dropped message is not counted) and the hop budget
    is checked before every forwarding step.  The returned function is
    plain Python; a Numba executor compiles it (with ``step`` already
    compiled), the parity harness calls it directly.
    """

    def pair_loop(consts, table, alive, sources, destinations, hop_limit, succeeded, hops, codes):
        for p in range(sources.shape[0]):
            cur = sources[p]
            dst = destinations[p]
            hop = 0
            while True:
                if hop >= hop_limit:
                    codes[p] = hop_limit_code
                    hops[p] = hop
                    break
                next_hop, ok = step(consts, table, alive, cur, dst)
                if not ok:
                    codes[p] = fail_code
                    hops[p] = hop  # the failed hop is not counted
                    break
                cur = next_hop
                if cur == dst:
                    succeeded[p] = True
                    hops[p] = hop + 1
                    break
                hop += 1

    return pair_loop
