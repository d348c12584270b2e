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
  full-row scan and the per-pair loops read a row's neighbours with each
  dead one replaced by the row's own identifier (:func:`dead_to_self`):
  every scan ``accept`` rejects that candidate and it never beats a usable
  one.  An ordered scan's vectorized passes read raw entries instead and
  AND the entry's aliveness into ``accept``'s verdict, so ``key`` may see a
  dead identifier there, but a dead entry is never taken.  Direct specs,
  whose single next hop is looked up (tree, de Bruijn), read aliveness
  through ``ops.alive``.  A vectorized executor reads only the rows (or
  single entries) a hop gathers.
* Every driver receives the same two constants, :func:`routing_consts`
  ``(d, 2^d - 1)``, and the overlay's own int32 neighbour table
  (:meth:`~repro.dht.network.Overlay.neighbor_array`).  Identifiers are
  virtual, ``cell * 2^d + node`` for a stack of survival masks (one cell
  or many): a row is looked up at ``local = cur & (2^d - 1)`` and shifted
  by the cell base ``cur - local``, so no offset table is needed to route
  many cells at once.
* The generic drivers in this module derive **every execution shape** from
  the one declaration: :func:`vector_step` builds the vectorized per-hop
  function the NumPy backend iterates, over the masked rows of
  :func:`vector_rows` and an ordered scan's single entries (single-mask
  and stacked batches alike — a single mask is just a stack of one), and
  :func:`scalar_step` / :func:`make_pair_loop` build the per-pair
  source-to-termination loop the Numba backend ``@njit``-compiles — and
  which remains callable as plain Python, so the exact code Numba compiles
  is property-tested on every CI leg.

Two rule shapes cover every geometry the paper analyses (and the de Bruijn
extension):

``kind="direct"``
    The next hop is computed directly from ``(current, destination)`` —
    tree (correct the leftmost differing bit), de Bruijn (shift in the next
    destination bit).  The spec supplies ``advance(consts, table, alive,
    cur, dst) -> (next, ok)``.

``kind="scan"``
    The next hop minimises a per-neighbour key over the routing table —
    XOR distance (Kademlia), clockwise remaining distance (Chord,
    Symphony), the identifier of a bit-correcting neighbour (hypercube).
    The spec supplies an element-wise ``key`` and an ``accept`` predicate; the *drivers* own the masked gather and the scan itself
    (vectorized ``argmin`` over the gathered rows, or a running
    first-minimum in the per-pair loop — both keep the first minimum, so
    tie-breaking is identical by construction).

    A scan whose table is sorted by distance bucket may also declare an
    element-wise **column order**: ``first_column`` and ``next_column``
    (``d`` meaning "no column left"), such that the first column in that
    order whose candidate ``accept`` takes is the key's minimum — Chord's
    fingers (column ``k`` at clockwise offset ``[2^(d-1-k), 2^(d-k))``),
    Kademlia's buckets (``entry ^ node`` in the same range) and the
    hypercube's bit flips (column ``k`` flips bit ``d-1-k``) are.  The
    executors then derive an *ordered scan* from the same ``key`` and
    ``accept``: the per-pair step returns at the first accepted column,
    and the vectorized step runs passes that each read one column per
    pending pair, over a shrinking pending set, before handing the pairs
    still pending to the full-row ``argmin``.  The number of passes is
    planned from what the executor observes (:func:`_planned_passes`: the
    step's pair count and the alive share of their cells, which is about
    the share of pairs a pass settles); the plan changes speed, never a
    choice.

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

#: What an ordered scan's pass costs, in column reads of the full scan
#: (which reads ``degree`` columns per pair): per pending pair, and per pass
#: whatever its size (the fixed cost of its few dozen array calls).  Setting
#: up the pending set and scattering the answers back costs about one more
#: pass.  Fitted to timings of forced pass counts (0-8 passes, ring and XOR,
#: d=10 and d=16, q from 0.05 to 0.8, 150-2048 pairs per step) so that no
#: plan costs more than the full scan alone.  Re-timed on raw-entry passes
#: (hypercube too, up to 16000 pairs): the plans cost within 5% of the best
#: forced counts, and no refit routed churn faster.  See :func:`_planned_passes`.
PASS_PAIR_COLUMNS = 2
PASS_CALL_COLUMNS = 2000


def routing_consts(overlay) -> Tuple[int, int]:
    """The constants every spec function receives: ``(d, 2^d - 1)``.

    ``2^d - 1`` masks a virtual identifier ``cell * 2^d + node`` down to
    its node; ``2^d`` is also the ring modulus, since every overlay
    fully populates its ``d``-bit space.
    """
    d = int(overlay.d)
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
        ``where(condition, a, b)`` — element-wise select of **integer**
        operands.  The vectorized one is branch-free, ``b + (a - b) *
        condition``: exact for integers, since a wrapped difference wraps
        back, but not for floats.  Every spec selects integers.
    bit_length:
        ``bit_length(x)`` — position of the highest set bit (``0`` for 0),
        for ``x >= 0``.
    alive:
        ``alive(handle, index)`` — aliveness lookup in the executor's own
        survival representation (a boolean vector for the vectorized
        executor, bit-packed uint64 words for the per-pair executors).
    """

    where: Callable
    bit_length: Callable
    alive: Callable


def _vector_where(condition, a, b):
    # No branch to mispredict on random conditions, unlike np.where: several
    # times faster on a gathered row block.  Wraparound in a - b cancels.
    return b + (a - b) * condition


def _vector_bit_length(x):
    # np.frexp returns the exponent e with x = m * 2^e, m in [0.5, 1) —
    # exactly bit_length(x) for positive integers; exact for x < 2^53, far
    # beyond any overlay that fits in memory.
    return np.frexp(x.astype(np.float64))[1]


def _vector_alive(mask, index):
    return mask.take(index)


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


def _scalar_alive(words, index):
    return (words[index >> 6] >> np.uint64(index & 63)) & np.uint64(1) != np.uint64(0)


#: Array primitives for the vectorized executor.
VECTOR_OPS = Ops(
    where=_vector_where,
    bit_length=_vector_bit_length,
    alive=_vector_alive,
)

#: Scalar primitives for the per-pair executors — plain Python functions a
#: Numba executor wraps with ``njit`` unchanged, so the compiled primitives
#: are the ones the no-numba parity legs already exercised.
SCALAR_OPS = Ops(
    where=_scalar_where,
    bit_length=_scalar_bit_length,
    alive=_scalar_alive,
)


def dead_to_self(ops: Ops) -> Callable:
    """The drivers' one aliveness rule for scan candidates.

    ``substitute(alive, neighbor, cur)`` keeps an alive neighbour and
    replaces a dead one by the row's own identifier ``cur``: every scan
    ``accept`` rejects that candidate, and it never beats a usable one.
    The vectorized full-row gather and the per-pair loops apply this
    function; an ordered scan's vectorized passes AND aliveness into the
    verdict instead, which takes the same candidates because ``accept``
    rejects ``cur``.
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
    ``consts`` is :func:`routing_consts` of the routed overlay and ``table``
    its own int32 ``(2^d, degree)`` neighbour table; identifiers are virtual
    (``cell * 2^d + node``), so a table row is read at ``cur & consts[1]``
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
        dst) -> (next, ok)``, element-wise.
    key:
        Scan kind only: ``key(ops) -> fn(consts, neighbor, cur, dst) ->
        key``, element-wise; smaller is better.  In a full scan a dead
        neighbour arrives as ``cur`` itself (:func:`dead_to_self`), and
        unusable candidates must map to a key the ``accept`` predicate
        rejects; an ordered pass may evaluate it on a dead identifier, whose
        verdict aliveness vetoes.  Tie-breaking
        is owned by the drivers (first minimum) and must therefore be
        immaterial: equal keys must imply the same neighbour identifier.
    accept:
        Scan kind only: ``accept(ops) -> fn(consts, best_key, cur, dst) ->
        ok``, element-wise verdict on the winning candidate.
    first_column:
        Scan kind, optional (with :attr:`next_column`): ``first_column(ops)
        -> fn(consts, cur, dst) -> column``, element-wise, the first column
        of the row's scan order (``d``: none).  Declare an order only when
        the table's construction guarantees its precondition: every column
        the order does not visit is rejected by ``accept``, and in order,
        the first column ``accept`` takes holds the key's minimum over the
        whole row (the executors stop there).
    next_column:
        Scan kind, optional (with :attr:`first_column`): ``next_column(ops)
        -> fn(consts, cur, dst, column) -> column``, element-wise, the
        column after ``column`` in the order (``d``: none left).  Columns
        the order skips must be ones ``accept`` rejects.
    """

    geometry: str
    kind: str
    fail_code: int
    advance: Optional[Callable] = None
    key: Optional[Callable] = None
    accept: Optional[Callable] = None
    first_column: Optional[Callable] = None
    next_column: Optional[Callable] = None

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
        if (self.first_column is None) != (self.next_column is None):
            raise InvalidParameterError(
                f"spec {self.geometry!r} must define both first_column and next_column, or neither"
            )
        if self.kind != "scan" and self.first_column is not None:
            raise InvalidParameterError(
                f"direct spec {self.geometry!r} cannot define a column order: it scans no row"
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
        return spec.advance(VECTOR_OPS)
    if spec.first_column is None:
        return spec.key(VECTOR_OPS), spec.accept(VECTOR_OPS), None, None
    return (
        spec.key(VECTOR_OPS),
        spec.accept(VECTOR_OPS),
        spec.first_column(VECTOR_OPS),
        spec.next_column(VECTOR_OPS),
    )


_VECTOR_DEAD_TO_SELF = dead_to_self(VECTOR_OPS)


def vector_rows(spec: KernelSpec, overlay, alive: np.ndarray) -> Optional[Callable]:
    """The vectorized masked-row function ``rows(ids)``, or ``None``.

    The masked row of an identifier is its neighbour list, read cell-locally
    from the overlay's table, with dead entries replaced by the identifier
    itself.  Scan specs scan that ``(ids, degree)`` matrix of a hop's
    current nodes; direct specs read no rows (``None``).
    """
    if spec.kind == "direct":
        return None
    consts = routing_consts(overlay)
    table = overlay.neighbor_array()
    local_mask = consts[1]

    def masked(ids: np.ndarray) -> np.ndarray:
        local = ids & local_mask
        neighbors = table.take(local, axis=0)
        neighbors += (ids - local)[:, None]
        return _VECTOR_DEAD_TO_SELF(alive, neighbors, ids[:, None])

    return masked


def _scan_rows(key, accept, consts, neighbors, cur, dst):
    """The full scan: first minimum of the key over each masked row."""
    keys = key(consts, neighbors, cur[:, None], dst[:, None])
    best = keys.argmin(axis=1)
    best += np.arange(0, keys.size, keys.shape[1])  # flat positions of the winners
    return neighbors.reshape(-1).take(best), accept(consts, keys.reshape(-1).take(best), cur, dst)


def _planned_passes(pending: int, degree: int, expected_yield: float) -> int:
    """How many ordered passes to run before the full scan takes the pairs left.

    The full scan reads ``degree`` columns per pair; a pass costs
    :data:`PASS_PAIR_COLUMNS` per pending pair plus
    :data:`PASS_CALL_COLUMNS`, and settles the share ``expected_yield`` of
    its pairs; running any pass costs one pass more for the set-up.  The
    plan is the number of passes whose cost plus the full scan of the pairs
    they leave is least: ``0`` when no pass pays for itself.
    """
    best_cost = degree * pending
    cost = PASS_CALL_COLUMNS + PASS_PAIR_COLUMNS * pending
    left = float(pending)
    best = passes = 0
    while passes < degree:
        cost += PASS_CALL_COLUMNS + PASS_PAIR_COLUMNS * left
        if cost >= best_cost:
            break
        left *= 1.0 - expected_yield
        passes += 1
        if cost + degree * left < best_cost:
            best_cost, best = cost + degree * left, passes
    return best


def vector_step(spec: KernelSpec, overlay, alive: np.ndarray) -> Callable:
    """The vectorized per-hop step ``(cur, dst) -> (next, ok, fail_code)``.

    Direct specs run their ``advance`` body element-wise over the active
    batch.  Scan specs mask ``cur``'s rows (:func:`vector_rows`), evaluate
    the key over that ``(batch, degree)`` candidate matrix by broadcasting
    and take the per-row ``argmin`` (first minimum — the same tie-break as
    the per-pair loops' running minimum).  An ordered scan first runs
    passes that each read one raw entry per pending pair, in the spec's
    column order, take it when ``accept`` does and it is alive, and drop
    every pair whose order runs out; after the planned number of passes
    (:func:`_planned_passes`, from the step's pair count and the alive
    share of their cells) the pairs still pending get the full scan, which
    finds the same winner: the first usable column holds the minimum of
    the key.  ``next`` is defined only where ``ok`` holds.
    """
    consts = routing_consts(overlay)
    fail_code = spec.fail_code
    if spec.kind == "direct":
        advance = _vector_functions(spec)
        table = overlay.neighbor_array()

        def step(cur: np.ndarray, dst: np.ndarray):
            next_hop, ok = advance(consts, table, alive, cur, dst)
            return next_hop, ok, fail_code

        return step

    key, accept, first, following = _vector_functions(spec)
    rows = vector_rows(spec, overlay, alive)

    def scan_step(cur: np.ndarray, dst: np.ndarray):
        next_hop, ok = _scan_rows(key, accept, consts, rows(cur), cur, dst)
        return next_hop, ok, fail_code

    if first is None:
        return scan_step

    degree, local_mask = consts
    flat = overlay.neighbor_array().reshape(-1)
    # The expected yield of a pass is the alive share of its pairs' cells:
    # a column's candidate is usable about as often as it is alive.
    # One count per cell: np.count_nonzero(cells, axis=1) counts through a
    # sum and is about 5x slower on 2^16-node cells.
    cells = alive.reshape(-1, 1 << degree)
    shares = np.array([np.count_nonzero(cell) for cell in cells]) / cells.shape[1]
    best_share = float(shares.max())

    def ordered_step(cur: np.ndarray, dst: np.ndarray):
        # Plan at the best cell's share first: when even that plans no pass
        # (every small step, every high-q stack), the pairs' own cells
        # need not be looked up.
        planned = _planned_passes(cur.size, degree, best_share)
        if planned and shares.size > 1:
            expected_yield = shares.take(cur >> degree).sum() / cur.size
            planned = _planned_passes(cur.size, degree, expected_yield)
        if planned:
            return passes(planned, cur, dst)
        return scan_step(cur, dst)

    def passes(planned: int, cur: np.ndarray, dst: np.ndarray):
        next_hop = np.empty_like(cur)
        ok = np.zeros(cur.size, dtype=bool)
        pending = np.arange(cur.size, dtype=np.int32)
        # Fixed for the hop: each pair's row offset in the flat table and its
        # cell base.  (``take`` gathers about twice as fast as indexing.)
        local = cur & local_mask
        row, base = local * degree, cur - local
        column = first(consts, cur, dst)
        for passes_left in range(planned, -1, -1):
            # A pair whose order ran out has no usable column: it stays failed.
            live = column < degree
            if not live.all():
                keep = np.flatnonzero(live)
                pending, cur, dst = pending.take(keep), cur.take(keep), dst.take(keep)
                row, base, column = row.take(keep), base.take(keep), column.take(keep)
            if not (passes_left and pending.size):
                break
            neighbor = flat.take(row + column) + base
            accepted = accept(consts, key(consts, neighbor, cur, dst), cur, dst) & alive.take(neighbor)
            # Every pending pair's answer is written (a rejected one is not
            # ok); until a pair leaves, the pending set is every pair in order.
            if pending.size == next_hop.size:
                next_hop, ok = neighbor, accepted
            else:
                next_hop[pending] = neighbor
                ok[pending] = accepted
            keep = np.flatnonzero(~accepted)
            pending, cur, dst = pending.take(keep), cur.take(keep), dst.take(keep)
            row, base = row.take(keep), base.take(keep)
            column = following(consts, cur, dst, column.take(keep))
        if pending.size:
            next_hop[pending], ok[pending] = _scan_rows(
                key, accept, consts, rows(cur), cur, dst
            )
        return next_hop, ok, fail_code

    return ordered_step


def scalar_step(spec: KernelSpec, ops: Ops = SCALAR_OPS, wrap: Callable = lambda f: f):
    """The per-pair step ``(consts, table, alive, cur, dst) -> (next, ok)``.

    Built from the spec's functions instantiated with ``ops``; ``wrap``
    wraps every function (Numba passes an inlining ``njit``, the parity legs
    the identity).  A direct spec's ``advance`` is the step itself.  A scan
    reads ``cur``'s masked row one neighbour at a time at every hop and
    keeps a running
    strict minimum over the row: the first minimum, matching the vectorized
    driver's ``argmin``, so both executors make the identical choice even
    among equal keys (which specs guarantee name the same neighbour).  An
    ordered scan instead visits the columns in the spec's order and
    returns at the first accepted one.
    """
    if spec.kind == "direct":
        return wrap(spec.advance(ops))
    substitute = wrap(dead_to_self(ops))

    def masked(consts, table, alive, cur, column):
        local = cur & consts[1]
        return substitute(alive, table[local, column] + (cur - local), cur)

    masked = wrap(masked)
    key = wrap(spec.key(ops))
    accept = wrap(spec.accept(ops))
    if spec.first_column is not None:
        first = wrap(spec.first_column(ops))
        following = wrap(spec.next_column(ops))

        def ordered_step(consts, table, alive, cur, dst):
            neighbor = cur
            ok = False
            column = first(consts, cur, dst)
            while column < consts[0]:
                neighbor = masked(consts, table, alive, cur, column)
                ok = accept(consts, key(consts, neighbor, cur, dst), cur, dst)
                if ok:
                    break
                column = following(consts, cur, dst, column)
            return neighbor, ok

        return wrap(ordered_step)

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
