"""Chaos suite: deterministic fault injection against the service tier.

Every test here arms faults on a :class:`repro.service.faults.FaultRegistry`
(exact invocation counts, never probabilities) and proves one failure
policy end-to-end:

* a shard that crashes and succeeds on retry returns rows **byte-identical**
  to a fault-free run (retries never touch random streams or cell identity),
* a hung shard trips the watchdog timeout and the job finishes
  ``done_with_errors`` with the completed shards' results intact,
* transient ``database is locked`` store errors are retried transparently,
* the submission queue bound and rate limit answer 503/429 with
  ``Retry-After``,
* ``DELETE /v1/jobs/{id}`` stops a job between shards and keeps the rows
  completed so far,
* SIGTERM drains the real server subprocess and it exits 0,
* malformed HTTP (bad Content-Length, truncated body, oversized headers,
  empty request line, unknown method) is answered with a clean 4xx —
  never an unanswered connection.

Set ``RCM_CHAOS_LOG_DIR`` to collect server-subprocess logs (the CI chaos
leg uploads them as an artifact when the suite fails).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import (
    InvalidParameterError,
    ResultStoreError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.service.app import ServiceConfig, SweepService
from repro.service.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultRegistry,
    InjectedFault,
    NO_FAULTS,
)
from repro.service.jobs import TERMINAL_STATES, JobManager
from repro.service.store import ResultStore
from repro.sim.engine import SweepRunner

#: Small but real sweep settings shared by the whole module.
PAIRS, TRIALS, SEED = 30, 2, 7
GRID = {"geometries": ["ring"], "d": 5, "q": [0.1, 0.3]}
TWO_SHARD_GRID = {"geometries": ["ring", "xor"], "d": 5, "q": [0.1, 0.3]}

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def faults():
    """A fresh registry per test; teardown wakes any injected hang."""
    registry = FaultRegistry()
    yield registry
    registry.release_hangs()


@contextlib.contextmanager
def manager(tmp_path, faults=None, **overrides):
    """A JobManager over a fresh store, tuned for fast chaos runs."""
    settings = dict(
        pairs=PAIRS, trials=TRIALS, seed=SEED, retry_backoff=0.001, shard_timeout=30.0
    )
    settings.update(overrides)
    store = ResultStore.open(tmp_path / "cells.db")
    jobs = JobManager(store, faults=faults, **settings)
    try:
        yield jobs
    finally:
        if faults is not None:
            faults.release_hangs()
        jobs.close()
        store.close()


def wait_terminal(job, timeout=60.0):
    """Block until ``job`` settles; returns its final state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state in TERMINAL_STATES:
            return job.state
        time.sleep(0.01)
    raise AssertionError(f"job {job.job_id} did not settle within {timeout}s")


def reference_rows(grid=GRID):
    """The fault-free oracle: the same grid straight through SweepRunner."""
    rows = {}
    with SweepRunner(pairs=PAIRS, replicates=TRIALS, base_seed=SEED) as runner:
        for geometry in grid["geometries"]:
            rows[geometry] = runner.sweep(geometry, grid["d"], grid["q"]).as_rows()
    return rows


class TestFaultRegistry:
    def test_unknown_site_and_kind_are_rejected(self):
        registry = FaultRegistry()
        with pytest.raises(ValueError, match="unknown fault site"):
            registry.arm("no-such-site", "raise-once")
        with pytest.raises(ValueError, match="unknown fault kind"):
            registry.arm("store-read", "explode")
        with pytest.raises(ValueError, match="unknown fault site"):
            registry.fire("no-such-site")

    def test_raise_once_fires_exactly_once(self):
        registry = FaultRegistry()
        spec = registry.arm("shard-execute", "raise-once")
        with pytest.raises(InjectedFault):
            registry.fire("shard-execute")
        registry.fire("shard-execute")  # spent: passes through
        assert spec.fired == 1
        assert registry.hits("shard-execute") == 2

    def test_skip_window_delays_the_fault_deterministically(self):
        registry = FaultRegistry()
        registry.arm("store-write", "raise-n", times=2, skip=1)
        registry.fire("store-write")  # skipped
        with pytest.raises(InjectedFault):
            registry.fire("store-write")
        with pytest.raises(InjectedFault):
            registry.fire("store-write")
        registry.fire("store-write")  # spent

    def test_custom_error_factory_is_raised_verbatim(self):
        registry = FaultRegistry()
        registry.arm(
            "store-read", "raise-once", error=lambda: sqlite3.OperationalError("database is locked")
        )
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            registry.fire("store-read")

    def test_hang_is_cancellable(self):
        registry = FaultRegistry()
        registry.arm("shard-execute", "hang", delay=30.0)
        parked = threading.Event()

        def _park():
            parked.set()
            registry.fire("shard-execute")

        thread = threading.Thread(target=_park, daemon=True)
        started = time.monotonic()
        thread.start()
        assert parked.wait(timeout=5.0)
        registry.release_hangs()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 10.0  # released, not timed out

    def test_reset_disarms_and_zeroes(self):
        registry = FaultRegistry()
        registry.arm("worker-pool", "raise-once")
        registry.fire("store-read")
        registry.reset()
        assert registry.specs() == ()
        assert registry.hits("store-read") == 0
        registry.fire("worker-pool")  # disarmed: passes through

    def test_no_faults_default_is_a_counter_only(self):
        for site in FAULT_SITES:
            NO_FAULTS.fire(site)  # never raises, hangs or sleeps

    def test_every_advertised_kind_is_armable(self):
        registry = FaultRegistry()
        for kind in FAULT_KINDS:
            registry.arm("shard-execute", kind, delay=0.0)


class TestShardRetryDeterminism:
    def test_crash_then_retry_is_byte_identical_to_fault_free(self, tmp_path, faults):
        """The acceptance invariant: a shard that fails transiently and
        succeeds on attempt two produces rows byte-identical to a run that
        never faulted — retries never touch RNG streams or cell identity."""
        faults.arm("shard-execute", "raise-once")
        with manager(tmp_path / "faulted", faults) as jobs:
            job = jobs.submit(GRID)
            assert wait_terminal(job) == "done"
            shards = job.status_payload()["shards"]
            assert shards["retries"] == 1
            assert shards["states"][0]["attempts"] == 2
            faulted = job.results_payload()["results"]
        with manager(tmp_path / "clean") as jobs:
            job = jobs.submit(GRID)
            assert wait_terminal(job) == "done"
            assert job.status_payload()["shards"]["retries"] == 0
            clean = job.results_payload()["results"]
        assert json.dumps(faulted, sort_keys=True) == json.dumps(clean, sort_keys=True)
        assert faulted[0]["rows"] == reference_rows()["ring"]

    def test_permanent_error_is_not_retried(self, tmp_path, faults, monkeypatch):
        def reject(self, *args, **kwargs):
            raise InvalidParameterError("no-such-overlay cannot be swept")

        monkeypatch.setattr(SweepRunner, "sweep", reject)
        with manager(tmp_path, faults, shard_retries=3) as jobs:
            job = jobs.submit(GRID)
            assert wait_terminal(job) == "failed"
            (shard,) = job.status_payload()["shards"]["states"]
            assert shard["state"] == "failed"
            assert shard["attempts"] == 1  # invalid parameters never retry
            assert "no-such-overlay" in shard["error"]

    def test_transient_exhaustion_fails_the_shard(self, tmp_path, faults):
        faults.arm("shard-execute", "raise-n", times=10)
        with manager(tmp_path, faults, shard_retries=2) as jobs:
            job = jobs.submit(GRID)
            assert wait_terminal(job) == "failed"
            (shard,) = job.status_payload()["shards"]["states"]
            assert shard["attempts"] == 3  # 1 + shard_retries, then give up
            assert "InjectedFault" in shard["error"]
        assert faults.hits("shard-execute") == 3

    def test_partial_failure_yields_done_with_errors(self, tmp_path, faults):
        # Exactly exhaust shard one's attempt budget; shard two runs clean.
        faults.arm("shard-execute", "raise-n", times=3)
        with manager(tmp_path, faults, shard_retries=2) as jobs:
            job = jobs.submit(TWO_SHARD_GRID)
            assert wait_terminal(job) == "done_with_errors"
            payload = job.status_payload()
            assert payload["error"] == "1 of 2 shard(s) failed"
            shards = payload["shards"]
            assert shards["done"] == 1 and shards["failed"] == 1
            results = job.results_payload()["results"]
            assert [entry["geometry"] for entry in results] == ["xor"]
            assert results[0]["rows"] == reference_rows(TWO_SHARD_GRID)["xor"]


class TestShardTimeout:
    def test_hung_shard_trips_watchdog_and_keeps_partial_results(self, tmp_path, faults):
        faults.arm("shard-execute", "hang", delay=60.0)
        with manager(tmp_path, faults, shard_timeout=0.4, shard_retries=2) as jobs:
            job = jobs.submit(TWO_SHARD_GRID)
            assert wait_terminal(job) == "done_with_errors"
            shards = job.status_payload()["shards"]
            states = {entry["geometry"]: entry for entry in shards["states"]}
            assert states["ring"]["state"] == "failed"
            assert "timed out after 0.4s" in states["ring"]["error"]
            assert states["ring"]["attempts"] == 1  # timeouts are not retried
            assert states["xor"]["state"] == "done"
            results = job.results_payload()["results"]
            assert [entry["geometry"] for entry in results] == ["xor"]
            assert results[0]["rows"] == reference_rows(TWO_SHARD_GRID)["xor"]


class TestStoreBusyRetry:
    @staticmethod
    def _locked():
        return sqlite3.OperationalError("database is locked")

    def test_transient_lock_on_read_is_retried_transparently(self, tmp_path, faults):
        with ResultStore.open(tmp_path / "cells.db", faults=faults) as store:
            faults.arm("store-read", "raise-n", times=2, error=self._locked)
            from repro.sim.engine import SweepCell

            assert store.get_cells(
                [SweepCell(geometry="ring", d=6, q=0.1, replicate=0, model="uniform")],
                pairs=50,
                base_seed=7,
            ) == {}
        assert faults.hits("store-read") == 3  # two faulted attempts + success

    def test_transient_lock_on_write_is_retried_transparently(self, tmp_path, faults):
        from repro.dht.metrics import RoutingMetrics
        from repro.sim.engine import SweepCell, SweepCellResult

        cell = SweepCell(geometry="ring", d=6, q=0.1, replicate=0, model="uniform")
        result = SweepCellResult(
            cell=cell,
            pairs=50,
            metrics=RoutingMetrics(
                attempts=50,
                successes=48,
                mean_hops_successful=3.25,
                mean_hops_failed=2.0,
                failure_reasons={},
            ),
        )
        with ResultStore.open(tmp_path / "cells.db", faults=faults) as store:
            faults.arm("store-write", "raise-n", times=2, error=self._locked)
            store.put_cells([result], pairs=50, base_seed=7)
            recalled = store.get_cells([cell], pairs=50, base_seed=7)
        assert recalled == {cell: result}

    def test_lock_exhaustion_surfaces_a_result_store_error(self, tmp_path, faults):
        with ResultStore.open(tmp_path / "cells.db", faults=faults) as store:
            faults.arm("store-read", "raise-n", times=20, error=self._locked)
            from repro.sim.engine import SweepCell

            with pytest.raises(ResultStoreError, match="database is locked"):
                store.get_cells(
                    [SweepCell(geometry="ring", d=6, q=0.1, replicate=0, model="uniform")],
                    pairs=50,
                    base_seed=7,
                )

    def test_non_busy_errors_are_not_retried(self, tmp_path, faults):
        with ResultStore.open(tmp_path / "cells.db", faults=faults) as store:
            faults.arm(
                "store-read",
                "raise-once",
                error=lambda: sqlite3.OperationalError("no such table: cells"),
            )
            from repro.sim.engine import SweepCell

            with pytest.raises(ResultStoreError, match="no such table"):
                store.get_cells(
                    [SweepCell(geometry="ring", d=6, q=0.1, replicate=0, model="uniform")],
                    pairs=50,
                    base_seed=7,
                )
        assert faults.hits("store-read") == 1


# --------------------------------------------------------------------------- #
# HTTP-level chaos: the real stdlib server on an ephemeral port
# --------------------------------------------------------------------------- #
def _config(store_path, **overrides) -> ServiceConfig:
    settings = dict(
        store_path=str(store_path), port=0, pairs=PAIRS, trials=TRIALS, seed=SEED
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


@contextlib.contextmanager
def running_service(store_path, faults=None, **overrides):
    """Run a real SweepService on an ephemeral port; yields ``(port, service)``."""
    service = SweepService(_config(store_path, **overrides), faults=faults)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="rcm-chaos-server", daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(service.start_server(), loop).result(timeout=10)
    try:
        yield server.sockets[0].getsockname()[1], service
    finally:
        if faults is not None:
            faults.release_hangs()

        async def _shutdown():
            server.close()
            await server.wait_closed()

        asyncio.run_coroutine_threadsafe(_shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        service.close()


def request(port, method, path, body=None):
    """One HTTP request; returns ``(status, parsed-or-text body, headers)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        raw = response.read()
        headers = dict(response.headers.items())
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(raw), headers
        return response.status, raw.decode(), headers
    finally:
        connection.close()


def wait_for_http_state(port, job_id, states, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload, _ = request(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, payload
        if payload["state"] in states:
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not reach {states} within {timeout}s")


def wait_until(predicate, timeout=10.0, message="condition not met"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(message)


class TestBackpressureOverHttp:
    def test_full_queue_answers_503_with_retry_after(self, tmp_path):
        with running_service(tmp_path / "cells.db", max_queued=0) as (port, service):
            status, payload, headers = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 503
            assert "queue is full" in payload["error"]
            assert int(headers["Retry-After"]) >= 1
            assert service.jobs.rejected_counts()["queue_full"] == 1
            _, metrics, _ = request(port, "GET", "/metrics")
            assert 'rcm_jobs_rejected_total{reason="queue_full"} 1' in metrics

    def test_rate_limit_answers_429_with_retry_after(self, tmp_path):
        # Refill is ~0: the single burst token admits exactly one submission.
        with running_service(tmp_path / "cells.db", rate_limit=0.001) as (port, service):
            status, accepted, _ = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 202
            status, payload, headers = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 429
            assert "rate limit" in payload["error"]
            assert int(headers["Retry-After"]) >= 1
            assert service.jobs.rejected_counts()["rate_limit"] == 1
            wait_for_http_state(port, accepted["job_id"], TERMINAL_STATES)

    def test_drain_rejects_submissions_and_cancels_queued_jobs(self, tmp_path):
        registry = FaultRegistry()
        registry.arm("shard-execute", "hang", delay=60.0)
        with running_service(
            tmp_path / "cells.db", faults=registry, max_jobs=1, shard_timeout=30.0
        ) as (port, service):
            status, first, _ = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 202
            wait_until(
                lambda: registry.hits("shard-execute") >= 1,
                message="first job never started executing",
            )
            status, queued, _ = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 202

            service.begin_drain()

            status, payload, headers = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 503
            assert "shutting down" in payload["error"]
            assert int(headers["Retry-After"]) >= 1
            # The queued job must not be stranded: drained to ``cancelled``.
            final = wait_for_http_state(port, queued["job_id"], ("cancelled",))
            assert final["error"] == "cancelled before start"
            registry.release_hangs()
            wait_for_http_state(port, first["job_id"], TERMINAL_STATES)


class TestCancellationOverHttp:
    def test_delete_unknown_job_is_404(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            status, payload, _ = request(port, "DELETE", "/v1/jobs/no-such-job")
            assert status == 404
            assert "unknown job" in payload["error"]

    def test_cancel_between_shards_keeps_completed_rows(self, tmp_path):
        registry = FaultRegistry()
        registry.arm("shard-execute", "hang", delay=60.0)
        with running_service(
            tmp_path / "cells.db", faults=registry, shard_timeout=30.0
        ) as (port, _service):
            status, accepted, _ = request(port, "POST", "/v1/sweeps", body=TWO_SHARD_GRID)
            assert status == 202
            job_id = accepted["job_id"]
            wait_until(
                lambda: registry.hits("shard-execute") >= 1,
                message="shard one never started executing",
            )
            status, payload, _ = request(port, "DELETE", f"/v1/jobs/{job_id}")
            assert status == 202
            assert payload["state"] in ("running", "cancelled")

            # Shard one finishes normally; shard two is skipped at the boundary.
            registry.release_hangs()
            final = wait_for_http_state(port, job_id, ("cancelled",))
            shards = final["shards"]
            assert shards["done"] == 1 and shards["cancelled"] == 1
            assert final["error"] == "cancelled after 1 of 2 shard(s)"

            status, results, _ = request(port, "GET", f"/v1/jobs/{job_id}/results")
            assert status == 200  # partial results, not an error
            assert [entry["geometry"] for entry in results["results"]] == ["ring"]
            assert results["results"][0]["rows"] == reference_rows()["ring"]

            status, payload, _ = request(port, "DELETE", f"/v1/jobs/{job_id}")
            assert status == 409  # already terminal: nothing to cancel
            assert "nothing to cancel" in payload["error"]

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        registry = FaultRegistry()
        registry.arm("shard-execute", "hang", delay=60.0)
        with running_service(
            tmp_path / "cells.db", faults=registry, max_jobs=1, shard_timeout=30.0
        ) as (port, _service):
            status, first, _ = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 202
            wait_until(
                lambda: registry.hits("shard-execute") >= 1,
                message="first job never started executing",
            )
            status, queued, _ = request(port, "POST", "/v1/sweeps", body=GRID)
            assert status == 202
            status, payload, _ = request(port, "DELETE", f"/v1/jobs/{queued['job_id']}")
            assert status == 202
            assert payload["state"] == "cancelled"
            assert payload["error"] == "cancelled before start"
            registry.release_hangs()
            wait_for_http_state(port, first["job_id"], TERMINAL_STATES)


class TestStreamWakeups:
    def test_watchers_see_every_shard_and_the_end(self, tmp_path, faults):
        faults.arm("shard-execute", "hang", delay=60.0)
        with manager(tmp_path, faults=faults) as jobs:
            job = jobs.submit(TWO_SHARD_GRID)
            wait_until(lambda: faults.hits("shard-execute") >= 1, message="shard one never started")
            seen = []
            unwatch = job.watch(lambda: seen.append(job.shard_results()))
            faults.release_hangs()
            assert wait_terminal(job) == "done"
            unwatch()
            # One call per finished shard, then one for the terminal state.
            assert [(state, len(results)) for state, results in seen] == [
                ("running", 1), ("running", 2), ("done", 2),
            ]
            assert job.request_cancel() is False
            assert len(seen) == 3  # unwatched: no further calls

    def test_stream_follows_a_running_job_to_its_end(self, tmp_path):
        registry = FaultRegistry()
        registry.arm("shard-execute", "hang", delay=60.0)
        with running_service(
            tmp_path / "cells.db", faults=registry, shard_timeout=30.0
        ) as (port, _service):
            status, accepted, _ = request(port, "POST", "/v1/sweeps", body=TWO_SHARD_GRID)
            assert status == 202
            wait_until(
                lambda: registry.hits("shard-execute") >= 1,
                message="shard one never started executing",
            )
            streamed = {}
            reader = threading.Thread(
                target=lambda: streamed.update(
                    reply=request(port, "GET", f"/v1/jobs/{accepted['job_id']}/stream")
                )
            )
            reader.start()
            # The stream is open and idle while shard one hangs; every later
            # line must arrive without the client asking again.
            registry.release_hangs()
            reader.join(timeout=30)
            assert not reader.is_alive(), "the stream never reached the end event"
            status, ndjson, _ = streamed["reply"]
            assert status == 200
            events = [json.loads(line) for line in ndjson.splitlines()]
            assert [event["event"] for event in events] == ["shard", "shard", "end"]
            assert events[-1]["status"]["state"] == "done"
            rows = reference_rows(TWO_SHARD_GRID)
            assert [event["result"]["rows"] for event in events[:2]] == [rows["ring"], rows["xor"]]


def raw_request(port, data, timeout=15.0):
    """Send raw bytes, half-close, and read the full response (b"" if none)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        with contextlib.suppress(OSError):
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestHttpParserEdges:
    """Malformed requests get a clean 4xx — never an unanswered connection."""

    def test_empty_request_line_is_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            response = raw_request(port, b"\r\n\r\n")
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"malformed HTTP request line" in response

    def test_unknown_method_on_known_path_is_405(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            response = raw_request(port, b"BREW /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n")
            assert response.startswith(b"HTTP/1.1 405 ")

    def test_non_numeric_content_length_is_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            response = raw_request(
                port, b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"invalid Content-Length" in response

    def test_negative_content_length_is_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            response = raw_request(
                port, b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            )
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"invalid Content-Length" in response

    def test_truncated_body_is_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            response = raw_request(
                port, b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
            )
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"shorter than Content-Length" in response

    def test_truncated_header_block_is_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            response = raw_request(port, b"GET /healthz HTTP/1.1\r\n")
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"truncated HTTP request" in response

    def test_oversized_header_block_is_413(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            huge = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 17) + b"\r\n\r\n"
            response = raw_request(port, huge)
            assert response.startswith(b"HTTP/1.1 413 ")
            assert b"header block too large" in response

    def test_non_json_body_is_400(self, tmp_path):
        with running_service(tmp_path / "cells.db") as (port, _service):
            body = b"not json"
            head = f"POST /v1/sweeps HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            response = raw_request(port, head + body)
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"not valid JSON" in response


class TestSigtermDrain:
    def test_sigterm_drains_gracefully_and_exits_zero(self, tmp_path):
        """The real ``rcm serve`` process: SIGTERM closes submissions, drains,
        flushes the store, and exits 0 — the contract a container runtime or
        systemd relies on."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store",
                str(tmp_path / "cells.db"),
                "--drain-timeout",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines = []
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if line:
                    lines.append(line)
                if "listening on" in line:
                    break
                assert process.poll() is None, "".join(lines)
            else:
                raise AssertionError("server never reported listening:\n" + "".join(lines))
            process.send_signal(signal.SIGTERM)
            remainder, _ = process.communicate(timeout=30)
            lines.append(remainder)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
            log_dir = os.environ.get("RCM_CHAOS_LOG_DIR")
            if log_dir:
                Path(log_dir).mkdir(parents=True, exist_ok=True)
                (Path(log_dir) / "sigterm_drain.log").write_text("".join(lines))
        output = "".join(lines)
        assert process.returncode == 0, output
        assert "draining: submissions closed" in output
        assert "drained; exiting" in output


class TestBackpressureExceptionTypes:
    """The library-level contract the HTTP mapping is built on."""

    def test_shutdown_submission_raises_service_unavailable(self, tmp_path):
        with manager(tmp_path) as jobs:
            jobs.begin_drain()
            with pytest.raises(ServiceUnavailableError, match="shutting down") as info:
                jobs.submit(GRID)
            assert info.value.status == 503
            assert info.value.retry_after >= 1

    def test_invalid_body_uses_no_rate_limit_token(self, tmp_path):
        # Validation runs before admission control: a malformed body is
        # answered 400 and leaves the token bucket and the queue alone.
        with manager(tmp_path, rate_limit=0.01) as jobs:
            with pytest.raises(ServiceError, match="invalid sweep request"):
                jobs.submit({**GRID, "geometries": []})
            job = jobs.submit(GRID)
            assert jobs.rejected_counts()["rate_limit"] == 0
            wait_terminal(job)

    def test_rate_limit_raises_service_overloaded(self, tmp_path):
        with manager(tmp_path, rate_limit=0.001, max_queued=16) as jobs:
            job = jobs.submit(GRID)
            with pytest.raises(ServiceOverloadedError, match="rate limit") as info:
                jobs.submit(GRID)
            assert info.value.status == 429
            wait_terminal(job)

    def test_job_ttl_evicts_terminal_jobs(self, tmp_path):
        with manager(tmp_path, job_ttl=0.05) as jobs:
            job = jobs.submit(GRID)
            wait_terminal(job)
            time.sleep(0.1)
            jobs.submit(GRID)  # eviction runs on the submission path
            assert jobs.get(job.job_id) is None

    def test_wall_clock_stepping_back_moves_neither_durations_nor_ttl(
        self, tmp_path, monkeypatch
    ):
        # Every time.time() reading lands an hour before the previous one,
        # so the wall clock runs backwards between acceptance, finish and
        # eviction; durations and TTLs must follow the monotonic clock.
        readings = iter(range(1, 10**6))
        wall = time.time()
        monkeypatch.setattr(time, "time", lambda: wall - 3600.0 * next(readings))
        with manager(tmp_path, job_ttl=0.5) as jobs:
            job = jobs.submit(GRID)
            wait_terminal(job)
            assert job.duration() >= 0.0
            jobs.submit(GRID)  # eviction runs on the submission path
            assert jobs.get(job.job_id) is job  # not yet past its TTL
            time.sleep(0.6)
            jobs.submit(GRID)
            assert jobs.get(job.job_id) is None

    def test_metrics_counters_survive_job_eviction(self, tmp_path, faults):
        def counters(service):
            text = service.metrics_text()
            families = {
                line.split()[2]
                for line in text.splitlines()
                if line.startswith("# TYPE") and line.endswith(" counter")
            }
            samples = [line.rsplit(" ", 1) for line in text.splitlines() if not line.startswith("#")]
            return {name: float(value) for name, value in samples if name.split("{")[0] in families}

        faults.arm("shard-execute", "raise-once")
        service = SweepService(
            _config(tmp_path / "cells.db", job_ttl=0, retry_backoff=0.001), faults=faults
        )
        try:
            first = service.jobs.submit({**GRID, "adaptive": {"ci_target": 0.2, "min_trials": 1}})
            wait_terminal(first)
            before = counters(service)
            assert before["rcm_cells_requested_total"] > 0
            assert before["rcm_shard_retries_total"] == 1
            second = service.jobs.submit({**GRID, "q": [0.5]})  # evicts the first job
            wait_terminal(second)
            assert service.jobs.get(first.job_id) is None
            after = counters(service)
            assert {
                "rcm_cells_requested_total",
                "rcm_cells_cached_total",
                "rcm_cells_computed_total",
                "rcm_store_hits_total",
                "rcm_adaptive_trials_saved_total",
                "rcm_shard_retries_total",
            } <= set(after)
            for name, value in before.items():
                assert after[name] >= value, name
            # The second job's one point adds its TRIALS cells to the total.
            assert after["rcm_cells_requested_total"] == before["rcm_cells_requested_total"] + TRIALS
        finally:
            service.close()

    def test_counter_totals_lose_no_concurrent_update(self, tmp_path):
        def add_many():
            for _ in range(500):
                jobs._add_to_totals(cells_requested=2, shard_retries=1)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with manager(tmp_path) as jobs:
                threads = [threading.Thread(target=add_many) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                totals = jobs.counter_totals()
        finally:
            sys.setswitchinterval(previous)
        assert totals["cells_requested"] == 8000
        assert totals["shard_retries"] == 4000

    def test_max_retained_jobs_caps_the_table(self, tmp_path):
        with manager(tmp_path, max_retained_jobs=2, job_ttl=None) as jobs:
            finished = [jobs.submit(GRID) for _ in range(3)]
            for job in finished:
                wait_terminal(job)
            jobs.submit(GRID)
            assert len(jobs.jobs()) <= 3  # 2 retained terminal + the new one
