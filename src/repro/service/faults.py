"""Deterministic fault injection for the service tier's chaos tests.

The DSN'06 source paper quantifies how DHT routing survives node
failures; this module applies the same discipline to the service tier
itself.  A :class:`FaultRegistry` is threaded through the job layer and
the persistent store behind a **no-op default**: production code calls
:meth:`FaultRegistry.fire` at a handful of named *sites*, and unless a
test has armed a fault at that site the call is a counter increment and
nothing else.  Chaos tests (``tests/test_service_faults.py``) arm
faults — a shard crash, a hang, a transient ``database is locked`` — and
prove end-to-end that the retry/timeout/cancellation/backpressure
policies hold and that **no injected fault can ever change a measured
number** (a shard that succeeds on retry is byte-identical to one that
succeeds first try).

Injection is *deterministic*: a fault fires on exact invocation counts
of its site (``skip`` calls pass through, then ``times`` calls fault),
never on wall-clock time or ambient randomness, so a chaos test replays
identically on every run and every platform.  Hangs are cancellable —
:meth:`FaultRegistry.release_hangs` (called automatically by
:meth:`reset`) wakes any thread parked in an injected hang, so test
teardown never leaks a stuck thread past the watchdog that detected it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "InjectedFault",
    "FaultSpec",
    "FaultRegistry",
    "NO_FAULTS",
]

#: The named injection points the service tier exposes: the persistent
#: store's read and write paths, and the start of one shard's execution
#: attempt.
FAULT_SITES = ("store-read", "store-write", "shard-execute")

#: Supported fault behaviours.  ``raise-once``/``raise-n`` raise the
#: armed exception on the next 1/n invocations; ``hang`` parks the
#: calling thread until the registry releases it (or ``delay`` elapses),
#: which is how the shard watchdog timeout is exercised; ``slow`` sleeps
#: ``delay`` seconds and then continues normally.
FAULT_KINDS = ("raise-once", "raise-n", "hang", "slow")


class InjectedFault(RuntimeError):
    """The default exception an armed ``raise-*`` fault raises.

    Deliberately **not** a :class:`~repro.exceptions.ReproError`: the
    job layer classifies unknown infrastructure errors as transient and
    retries them, which is exactly the path chaos tests need to drive.
    """


@dataclass
class FaultSpec:
    """One armed fault: where it fires, how, and how often.

    ``skip`` invocations of the site pass through untouched before the
    fault starts firing; it then fires on the next ``times`` invocations
    and is spent afterwards.  The deterministic (``skip``, ``times``)
    window — rather than a probability — is what makes chaos runs
    replayable.
    """

    site: str
    kind: str
    times: int = 1
    skip: int = 0
    delay: float = 0.05
    error: Optional[Callable[[], BaseException]] = None
    fired: int = 0
    seen: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.kind == "raise-once":
            self.times = 1

    @property
    def spent(self) -> bool:
        """Whether this fault has fired its full ``times`` budget."""
        return self.fired >= self.times


class FaultRegistry:
    """A thread-safe registry of armed faults plus per-site hit counters.

    The production default is an empty registry (:data:`NO_FAULTS`):
    :meth:`fire` then only counts the invocation, so the injection
    sites cost one lock acquisition on paths that already take locks.
    Chaos tests build their own registry, :meth:`arm` faults on it, and
    hand it to :class:`~repro.service.app.SweepService` /
    :class:`~repro.service.jobs.JobManager` /
    :meth:`~repro.service.store.ResultStore.open`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._specs: List[FaultSpec] = []
        self._hits: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._release = threading.Event()

    # ------------------------------------------------------------------ #
    # arming (test-side API)
    # ------------------------------------------------------------------ #
    def arm(
        self,
        site: str,
        kind: str,
        *,
        times: int = 1,
        skip: int = 0,
        delay: float = 0.05,
        error: Optional[Callable[[], BaseException]] = None,
    ) -> FaultSpec:
        """Arm one fault and return its (live, inspectable) spec."""
        spec = FaultSpec(site=site, kind=kind, times=times, skip=skip, delay=delay, error=error)
        with self._lock:
            self._specs.append(spec)
        return spec

    def reset(self) -> None:
        """Disarm every fault, zero the counters, and wake injected hangs."""
        self.release_hangs()
        with self._lock:
            self._specs.clear()
            self._hits = {site: 0 for site in FAULT_SITES}
            self._release = threading.Event()

    def release_hangs(self) -> None:
        """Wake every thread currently parked in an injected hang."""
        self._release.set()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def hits(self, site: str) -> int:
        """How many times ``site`` has been reached (faulted or not)."""
        with self._lock:
            return self._hits[site]

    def specs(self) -> Tuple[FaultSpec, ...]:
        """Every armed spec (spent ones included, for assertion messages)."""
        with self._lock:
            return tuple(self._specs)

    # ------------------------------------------------------------------ #
    # the injection point (service-side API)
    # ------------------------------------------------------------------ #
    def fire(self, site: str) -> None:
        """Count one invocation of ``site`` and apply the first due fault.

        Raises the armed exception for ``raise-*`` kinds, parks for
        ``hang``, sleeps for ``slow``, and returns untouched otherwise.
        """
        with self._lock:
            if site not in self._hits:
                raise ValueError(f"unknown fault site {site!r}; expected one of {FAULT_SITES}")
            self._hits[site] += 1
            due: Optional[FaultSpec] = None
            for spec in self._specs:
                if spec.site != site or spec.spent:
                    continue
                spec.seen += 1
                if spec.seen <= spec.skip:
                    continue
                spec.fired += 1
                due = spec
                break
            release = self._release
        if due is None:
            return
        if due.kind in ("raise-once", "raise-n"):
            factory = due.error or (lambda: InjectedFault(f"injected fault at {site}"))
            raise factory()
        if due.kind == "hang":
            # Parks until the registry releases it; ``delay`` is a hard
            # upper bound so an un-reset registry cannot leak a thread
            # forever (default: effectively unbounded for test purposes).
            release.wait(timeout=due.delay if due.delay > 0 else None)
            return
        if due.kind == "slow":
            time.sleep(due.delay)


#: The shared production default: nothing armed, counters only.
NO_FAULTS = FaultRegistry()
