"""The sweep service's job layer: submissions, sharding, status, results.

A submitted sweep grid is validated by
:meth:`~repro.sim.request.SweepRequest.from_mapping` (the validator
``rcm simulate`` uses) and becomes a :class:`SweepJob` with a
server-assigned id and a ``queued → running → done | done_with_errors |
failed | cancelled`` lifecycle.  Jobs execute on a bounded thread pool
(``max_jobs`` concurrent jobs; further submissions queue up to
``max_queued``, beyond which the service answers 503), and each job is
**sharded** by ``(geometry, failure model)``: one shard is one
:func:`~repro.sim.request.run_shard` call, so shard results stream out as
they complete and the engine's own fan-out machinery does the heavy
lifting inside each shard.

Every shard is an explicit execution unit with its own ``pending →
running → done | failed | cancelled`` state, bounded retries with
exponential backoff for transient errors, and a wall-clock timeout
enforced by a watchdog (the shard attempt runs on a dedicated daemon
thread; a timed-out shard is recorded as failed and the job continues).
A shard failure therefore never aborts the job: the job finishes
``done_with_errors`` with partial results, or ``failed`` only when *every*
shard failed.  Cancellation (``DELETE /v1/jobs/{id}``) stops cleanly
between shards.

The retry/timeout machinery is **identity-preserving by construction**:
an attempt either produces the shard's full deterministic result or is
discarded whole, and retries re-enter the same pure
``(geometry, d, q, replicate, model)`` cell pipeline — they can never
advance an RNG stream or change a cell key, so a shard that succeeds on
retry is byte-identical to one that succeeds first try (chaos-tested in
``tests/test_service_faults.py``).

Each static shard attempt builds its own
:class:`~repro.sim.engine.SweepRunner`, wired to the shared persistent
:class:`~repro.service.store.ResultStore`, and closes it (with its worker
pool, if ``workers > 1`` started one) when the attempt ends.  No runner
outlives its attempt and none is shared, so shards never wait on each
other's runner and a timed-out attempt's thread holds nothing another
attempt needs.  A cell that an earlier shard or job computed is still
never recomputed: the store answers it.

This module is deliberately HTTP-free (plain threads and locks) so the job
lifecycle is testable without a server; :mod:`repro.service.routes` maps it
onto endpoints.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..exceptions import (
    InvalidParameterError,
    ResultStoreError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from ..sim.engine import SweepRunner, SweepRunStats
from ..sim.request import SweepRequest, run_shard
from .faults import NO_FAULTS, FaultRegistry

if TYPE_CHECKING:  # pragma: no cover - the config's module imports this one
    from .app import ServiceConfig

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "SHARD_STATES",
    "REJECTION_REASONS",
    "ShardState",
    "SweepJob",
    "JobManager",
]

#: The job lifecycle, in order.  ``queued`` jobs wait for a thread-pool
#: slot; ``done_with_errors`` carries partial results (some shards failed
#: or timed out); ``failed`` means every shard failed; ``cancelled`` jobs
#: were stopped by ``DELETE /v1/jobs/{id}`` or a shutdown drain.
JOB_STATES = ("queued", "running", "done", "done_with_errors", "failed", "cancelled")

#: The states a job can never leave.
TERMINAL_STATES = ("done", "done_with_errors", "failed", "cancelled")

#: The per-shard lifecycle (one shard = one (geometry, failure model)).
SHARD_STATES = ("pending", "running", "done", "failed", "cancelled")

#: Why a submission can be refused (the ``rcm_jobs_rejected_total`` labels).
REJECTION_REASONS = ("rate_limit", "queue_full", "shutdown")

#: Error types that retrying cannot fix: an invalid parameter raised inside
#: a shard (``InvalidParameterError`` is a ``ValueError``; the request's own
#: mistakes are rejected at submission) and lifecycle misuse.  Everything
#: else — injected faults, OS-level errors, a wedged worker pool — is
#: presumed transient and retried with backoff.
_PERMANENT_ERRORS = (ServiceError, TypeError, ValueError, KeyError)


def _is_transient(error: BaseException) -> bool:
    """Whether a shard attempt error is worth retrying."""
    if isinstance(error, ResultStoreError):
        # The store retries locked/busy internally; one escaping anyway is
        # contention worth another attempt.  Anything else (corrupt
        # payload, closed store) will not heal by itself.
        message = str(error).lower()
        return "locked" in message or "busy" in message
    return not isinstance(error, _PERMANENT_ERRORS)


@dataclass
class ShardState:
    """Everything observable about one shard execution unit."""

    geometry: str
    failure_model: str
    state: str = "pending"
    attempts: int = 0
    error: Optional[str] = None

    def as_payload(self) -> Dict[str, object]:
        """The per-shard entry of the status document."""
        return {
            "geometry": self.geometry,
            "failure_model": self.failure_model,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
        }


class SweepJob:
    """One accepted submission and everything observable about it.

    All mutation happens under an internal lock; readers take consistent
    snapshots via :meth:`status_payload` / :meth:`results_payload` /
    :meth:`shard_results`, so the HTTP handlers never see a half-updated
    job.  Every change a :meth:`shard_results` reader can see (a shard
    result, a terminal state) calls the callbacks registered with
    :meth:`watch`, so a stream wakes when there is something to send.
    """

    def __init__(self, job_id: str, request: SweepRequest) -> None:
        self.job_id = job_id
        self.request = request
        self._lock = threading.Lock()
        self._state = "queued"
        self._error: Optional[str] = None
        self._results: List[Dict[str, object]] = []
        self._shards = [
            ShardState(geometry=geometry, failure_model=model)
            for geometry, model in request.shards
        ]
        self._cancel = threading.Event()
        self._watchers: List[Callable[[], None]] = []
        self._cells_done = 0
        self._cells_cached = 0
        self._cells_computed = 0
        self._retries = 0
        # Wall-clock stamps feed the status payload; durations and TTLs use
        # the monotonic stamps, which a wall-clock step (NTP, DST) cannot move.
        self._created = time.time()
        self._created_monotonic = time.monotonic()
        self._started: Optional[float] = None
        self._finished: Optional[float] = None
        self._finished_monotonic: Optional[float] = None

    # ------------------------------------------------------------------ #
    # lifecycle transitions (called by the manager's worker thread)
    # ------------------------------------------------------------------ #
    def _mark_running(self) -> None:
        with self._lock:
            if self._state == "queued":
                self._state = "running"
                self._started = time.time()

    def _shard_attempt(self, index: int) -> None:
        with self._lock:
            shard = self._shards[index]
            shard.state = "running"
            shard.attempts += 1
            if shard.attempts > 1:
                self._retries += 1

    def _shard_done(self, index: int, result: Dict[str, object], stats: SweepRunStats) -> None:
        with self._lock:
            shard = self._shards[index]
            shard.state = "done"
            shard.error = None
            self._results.append(result)
            self._cells_done += stats.requested
            self._cells_cached += stats.cached
            self._cells_computed += stats.computed
        self._notify()

    def _shard_failed(self, index: int, error: str) -> None:
        with self._lock:
            shard = self._shards[index]
            shard.state = "failed"
            shard.error = error

    def _shard_cancelled(self, index: int) -> None:
        with self._lock:
            shard = self._shards[index]
            if shard.state in ("pending", "running"):
                shard.state = "cancelled"

    def _finalize(self) -> None:
        """Derive the terminal job state from the per-shard outcomes."""
        with self._lock:
            if self._state in TERMINAL_STATES:
                return
            total = len(self._shards)
            done = sum(1 for shard in self._shards if shard.state == "done")
            failed = sum(1 for shard in self._shards if shard.state == "failed")
            if self._cancel.is_set() and done < total:
                self._state = "cancelled"
                self._error = f"cancelled after {done} of {total} shard(s)"
            elif failed == 0:
                self._state = "done"
            elif done == 0:
                self._state = "failed"
                first = next(shard for shard in self._shards if shard.state == "failed")
                self._error = first.error
            else:
                self._state = "done_with_errors"
                self._error = f"{failed} of {total} shard(s) failed"
            self._stamp_finished_locked()
        self._notify()

    def _stamp_finished_locked(self) -> None:
        self._finished = time.time()
        self._finished_monotonic = time.monotonic()

    def _force_failed(self, error: str) -> None:
        """Fail the whole job (infrastructure fault outside any shard)."""
        with self._lock:
            if self._state in TERMINAL_STATES:
                return
            self._state = "failed"
            self._error = error
            self._stamp_finished_locked()
            for shard in self._shards:
                if shard.state in ("pending", "running"):
                    shard.state = "cancelled"
        self._notify()

    def request_cancel(self) -> bool:
        """Ask the job to stop; returns ``False`` if it was already terminal.

        A still-queued job transitions to ``cancelled`` immediately; a
        running job stops between shards (the current shard finishes or
        times out, remaining shards are marked cancelled).
        """
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
            self._cancel.set()
            if self._state == "queued":
                for shard in self._shards:
                    shard.state = "cancelled"
                self._state = "cancelled"
                self._error = "cancelled before start"
                self._stamp_finished_locked()
        self._notify()
        return True

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`request_cancel` has been called."""
        return self._cancel.is_set()

    def cancel_wait(self, timeout: float) -> bool:
        """Sleep up to ``timeout`` seconds, waking early on cancellation."""
        return self._cancel.wait(timeout)

    def watch(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Call ``callback()`` after every change :meth:`shard_results` can see.

        The callback runs on the thread that made the change, outside the
        job's lock, so it must be quick and must not raise.  Returns the
        function that unregisters it.
        """
        with self._lock:
            self._watchers.append(callback)

        def unwatch() -> None:
            with self._lock:
                if callback in self._watchers:
                    self._watchers.remove(callback)

        return unwatch

    def _notify(self) -> None:
        with self._lock:
            watchers = list(self._watchers)
        for callback in watchers:
            callback()

    # ------------------------------------------------------------------ #
    # snapshots (called by the HTTP handlers)
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        """The job's current lifecycle state (one of :data:`JOB_STATES`)."""
        with self._lock:
            return self._state

    def finished_monotonic(self) -> Optional[float]:
        """``time.monotonic()`` reading when the job reached a terminal state, or ``None``."""
        with self._lock:
            return self._finished_monotonic

    def duration(self) -> Optional[float]:
        """Seconds from acceptance to the terminal state, or ``None``."""
        with self._lock:
            if self._finished_monotonic is None:
                return None
            return self._finished_monotonic - self._created_monotonic

    def _shards_payload_locked(self) -> Dict[str, object]:
        return {
            "total": len(self._shards),
            "done": sum(1 for shard in self._shards if shard.state == "done"),
            "failed": sum(1 for shard in self._shards if shard.state == "failed"),
            "cancelled": sum(1 for shard in self._shards if shard.state == "cancelled"),
            "retries": self._retries,
            "states": [shard.as_payload() for shard in self._shards],
        }

    def status_payload(self) -> Dict[str, object]:
        """The JSON status document (schema: ``JOB_STATUS_SCHEMA``)."""
        with self._lock:
            return {
                "job_id": self.job_id,
                "state": self._state,
                "request": self.request.as_payload(),
                "cells": {
                    "total": self.request.cells_total,
                    "done": self._cells_done,
                    "cached": self._cells_cached,
                    "computed": self._cells_computed,
                },
                "shards": self._shards_payload_locked(),
                "error": self._error,
                "created": self._created,
                "started": self._started,
                "finished": self._finished,
            }

    def results_payload(self) -> Dict[str, object]:
        """The JSON results document (schema: ``JOB_RESULTS_SCHEMA``).

        For ``done_with_errors`` and ``cancelled`` jobs this carries the
        *partial* results — every shard that completed — with the shard
        summary telling the client what is missing and why.
        """
        with self._lock:
            return {
                "job_id": self.job_id,
                "state": self._state,
                "results": list(self._results),
                "shards": self._shards_payload_locked(),
            }

    def shard_results(self) -> Tuple[str, List[Dict[str, object]]]:
        """A consistent ``(state, completed shard results)`` snapshot for streaming."""
        with self._lock:
            return self._state, list(self._results)


class JobManager:
    """Accepts sweep submissions and executes them with explicit failure policy.

    Every setting comes from ``config``
    (:class:`~repro.service.app.ServiceConfig`, which validated it):
    ``max_jobs`` bounds how many jobs *execute* at once; ``max_queued``
    bounds how many accepted jobs may wait for a slot (beyond that,
    submissions are refused with
    :class:`~repro.exceptions.ServiceUnavailableError` → HTTP 503), and an
    optional token-bucket ``rate_limit`` (submissions/second; ``None`` or
    ``0`` is unlimited) answers sustained overload with
    :class:`~repro.exceptions.ServiceOverloadedError` → HTTP 429.
    Terminal jobs are evicted after ``job_ttl`` seconds (and the retained
    set is capped at ``max_retained_jobs``), so the job table cannot grow
    without bound under sustained traffic.

    Within a job, shards run sequentially with per-shard retries and a
    watchdog-enforced ``shard_timeout`` (``None`` or ``0`` is unbounded);
    each attempt runs on a runner of its own, so shards of concurrent jobs
    share nothing but the store.
    """

    def __init__(
        self, store, config: "ServiceConfig", *, faults: Optional[FaultRegistry] = None
    ) -> None:
        self._store = store
        self._config = config
        self._rate = config.rate_limit or None
        self._shard_timeout = config.shard_timeout or None
        self._faults = faults if faults is not None else NO_FAULTS
        self._jobs: "OrderedDict[str, SweepJob]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._rejected = {reason: 0 for reason in REJECTION_REASONS}
        self._totals = dict.fromkeys(
            (
                "cells_requested",
                "cells_cached",
                "cells_computed",
                "store_hits",
                "adaptive_trials_saved",
                "shard_retries",
            ),
            0,
        )
        self._durations: Dict[str, Dict[str, float]] = {}
        self._tokens = max(1.0, self._rate) if self._rate else 0.0
        self._bucket_updated = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_jobs, thread_name_prefix="rcm-sweep-job"
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def _reject(self, reason: str) -> None:
        with self._stats_lock:
            self._rejected[reason] += 1

    def _check_rate_limit(self) -> None:
        """Refill the token bucket; raise 429 when no token is available."""
        if self._rate is None:
            return
        with self._stats_lock:
            now = time.monotonic()
            burst = max(1.0, self._rate)
            self._tokens = min(burst, self._tokens + (now - self._bucket_updated) * self._rate)
            self._bucket_updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            retry_after = (1.0 - self._tokens) / self._rate
        self._reject("rate_limit")
        raise ServiceOverloadedError(
            f"submission rate limit ({self._rate:g}/s) exceeded", retry_after=retry_after
        )

    def _evict_expired_jobs(self) -> None:
        """Drop terminal jobs past their TTL and cap the retained set."""
        now = time.monotonic()
        ttl, retained = self._config.job_ttl, self._config.max_retained_jobs
        with self._jobs_lock:
            if ttl is not None:
                expired = [
                    job_id
                    for job_id, job in self._jobs.items()
                    if job.state in TERMINAL_STATES
                    and job.finished_monotonic() is not None
                    and now - job.finished_monotonic() > ttl
                ]
                for job_id in expired:
                    del self._jobs[job_id]
            if len(self._jobs) > retained:
                # Oldest-first, terminal-only: live jobs are never evicted.
                removable = [
                    job_id for job_id, job in self._jobs.items() if job.state in TERMINAL_STATES
                ]
                excess = len(self._jobs) - retained
                for job_id in removable[:excess]:
                    del self._jobs[job_id]

    def queue_depth(self) -> int:
        """How many accepted jobs are waiting for an execution slot."""
        return sum(1 for job in self.jobs() if job.state == "queued")

    # ------------------------------------------------------------------ #
    # submission and lookup
    # ------------------------------------------------------------------ #
    def submit(self, payload: object) -> SweepJob:
        """Validate ``payload``, enqueue a job, and return it immediately.

        The body is validated first, by :meth:`SweepRequest.from_mapping
        <repro.sim.request.SweepRequest.from_mapping>`: a structural, mode or
        semantic problem (an unknown geometry or failure model, a ``q``
        outside ``[0, 1]``, an adaptive config that does not resolve) raises
        :class:`~repro.exceptions.ServiceError` (the HTTP layer answers 400)
        and never uses up a rate-limit token or a queue slot.  Admission
        control then may refuse a valid body with a
        :class:`~repro.exceptions.BackpressureError` subclass (429/503 with
        ``Retry-After``).
        """
        config = self._config
        try:
            request = SweepRequest.from_mapping(
                payload,
                defaults={"pairs": config.pairs, "trials": config.trials, "seed": config.seed},
            )
        except InvalidParameterError as error:
            raise ServiceError(f"invalid sweep request: {error}") from error
        if self._closed:
            self._reject("shutdown")
            raise ServiceUnavailableError(
                "the service is shutting down; submissions are closed", retry_after=5
            )
        self._evict_expired_jobs()
        self._check_rate_limit()
        if self.queue_depth() >= config.max_queued:
            self._reject("queue_full")
            raise ServiceUnavailableError(
                f"submission queue is full ({config.max_queued} queued jobs); retry later",
                retry_after=2,
            )
        job = SweepJob(uuid.uuid4().hex[:12], request)
        with self._jobs_lock:
            self._jobs[job.job_id] = job
        self._executor.submit(self._execute, job)
        return job

    def get(self, job_id: str) -> Optional[SweepJob]:
        """The job with ``job_id``, or ``None``."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[bool]:
        """Request cancellation; ``None`` unknown job, ``False`` already terminal."""
        job = self.get(job_id)
        if job is None:
            return None
        return job.request_cancel()

    def jobs(self) -> List[SweepJob]:
        """Every retained job, oldest first."""
        with self._jobs_lock:
            return list(self._jobs.values())

    def state_counts(self) -> Dict[str, int]:
        """How many jobs sit in each lifecycle state (for health/metrics)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    def counter_totals(self) -> Dict[str, int]:
        """The ``/metrics`` counters since this manager started, by name.

        Kept here rather than summed over the retained jobs, so evicting a
        job never lowers a counter.
        """
        with self._stats_lock:
            return dict(self._totals)

    def _add_to_totals(self, **counts: int) -> None:
        with self._stats_lock:
            for key, count in counts.items():
                self._totals[key] += count

    def rejected_counts(self) -> Dict[str, int]:
        """Submissions refused by admission control, by reason."""
        with self._stats_lock:
            return dict(self._rejected)

    def duration_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-terminal-state job duration aggregates (count/sum/max seconds)."""
        with self._stats_lock:
            return {state: dict(stats) for state, stats in self._durations.items()}

    def _record_job_duration(self, job: SweepJob) -> None:
        duration = job.duration()
        if duration is None:
            return
        state = job.state
        with self._stats_lock:
            stats = self._durations.setdefault(state, {"count": 0, "sum": 0.0, "max": 0.0})
            stats["count"] += 1
            stats["sum"] += duration
            stats["max"] = max(stats["max"], duration)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _attempt_shard(self, job: SweepJob, geometry: str, model: str, outcome: Dict) -> None:
        """One shard attempt (runs on a dedicated watchdog-supervised thread).

        Fills ``outcome`` with either ``result``/``stats`` or ``error``;
        a timed-out attempt's outcome dict is abandoned by the watchdog, so
        a zombie completing late can never corrupt a live job.
        """
        try:
            self._faults.fire("shard-execute")
            request, backend = job.request, self._config.backend
            if request.churn is not None:
                # Churn shards bypass the runner: no grid to fan out and no
                # cell cache; the trace is regenerated from the request seed.
                result = run_shard(request, geometry, model, None, backend)
                steps = len(result["rows"])
                stats = SweepRunStats(requested=steps, memo_hits=0, store_hits=0, computed=steps)
            else:
                self._faults.fire("worker-pool")
                with SweepRunner(
                    pairs=request.pairs,
                    replicates=request.trials,
                    base_seed=request.seed,
                    workers=self._config.workers,
                    backend=backend,
                    cell_store=self._store,
                ) as runner:
                    result = run_shard(request, geometry, model, runner, backend)
                    stats = runner.last_run_stats
            outcome["result"] = result
            outcome["stats"] = stats
        except BaseException as error:  # classified by the watchdog, not here
            outcome["error"] = error

    def _run_shard(self, job: SweepJob, index: int, geometry: str, model: str) -> None:
        """Run one shard to a terminal state: bounded retries with exponential
        backoff for transient errors, a wall-clock timeout per attempt."""
        attempts_allowed = 1 + self._config.shard_retries
        for attempt in range(1, attempts_allowed + 1):
            job._shard_attempt(index)
            if attempt > 1:
                self._add_to_totals(shard_retries=1)
            outcome: Dict[str, object] = {}
            worker = threading.Thread(
                target=self._attempt_shard,
                args=(job, geometry, model, outcome),
                name=f"rcm-shard-{job.job_id}-{index}-a{attempt}",
                daemon=True,
            )
            worker.start()
            worker.join(self._shard_timeout)
            if worker.is_alive():
                # Timed out.  The attempt thread keeps only its own runner,
                # so the rest of the job proceeds without it.
                job._shard_failed(
                    index,
                    f"shard ({geometry}, {model}) timed out after {self._shard_timeout:g}s",
                )
                return
            error = outcome.get("error")
            if error is None:
                result, stats = outcome["result"], outcome["stats"]
                job._shard_done(index, result, stats)
                self._add_to_totals(
                    cells_requested=stats.requested,
                    cells_cached=stats.cached,
                    cells_computed=stats.computed,
                    store_hits=stats.store_hits,
                    adaptive_trials_saved=result.get("adaptive", {}).get("trials_saved", 0),
                )
                return
            if attempt >= attempts_allowed or not _is_transient(error):
                job._shard_failed(index, f"{type(error).__name__}: {error}")
                return
            backoff = self._config.retry_backoff * (2 ** (attempt - 1))
            if backoff > 0 and job.cancel_wait(backoff):
                job._shard_cancelled(index)
                return

    def _execute(self, job: SweepJob) -> None:
        """Worker-thread entry point: run every shard of one job."""
        try:
            if job.state in TERMINAL_STATES:  # cancelled while queued
                return
            job._mark_running()
            for index, (geometry, model) in enumerate(job.request.shards):
                if job.cancel_requested:
                    job._shard_cancelled(index)
                    continue
                self._run_shard(job, index, geometry, model)
            job._finalize()
        except Exception as error:  # infrastructure bug — report, don't crash the pool
            job._force_failed(f"{type(error).__name__}: {error}")
        finally:
            self._record_job_duration(job)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def begin_drain(self) -> None:
        """Stop accepting submissions and cancel still-queued jobs.

        Queued jobs transition to ``cancelled`` immediately (never left
        ``queued`` forever); running jobs keep executing until
        :meth:`close` decides their fate.
        """
        self._closed = True
        for job in self.jobs():
            if job.state == "queued":
                job.request_cancel()

    def close(self, *, drain_timeout: Optional[float] = None) -> None:
        """Stop accepting submissions and wait for the job threads.

        Without ``drain_timeout`` (library/test usage) running jobs are
        awaited to completion, as before.  With it (the SIGTERM path),
        queued jobs are cancelled immediately, running jobs get up to
        ``drain_timeout`` seconds to finish, and whatever is still running
        is cancelled at the next shard boundary before the pool is joined.
        """
        self._closed = True
        if drain_timeout is not None:
            self.begin_drain()
            deadline = time.monotonic() + drain_timeout
            while time.monotonic() < deadline and any(
                job.state not in TERMINAL_STATES for job in self.jobs()
            ):
                time.sleep(0.02)
            for job in self.jobs():
                job.request_cancel()
        self._executor.shutdown(wait=True)
