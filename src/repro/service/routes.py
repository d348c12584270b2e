"""The service's route table: every endpoint, declared once.

Each :class:`Route` couples an HTTP method and path pattern with its
handler *and* its documentation (summary, description, request/response
schemas).  The same table drives three consumers:

* request dispatch — :func:`match_route` resolves ``(method, path)`` to a
  handler plus extracted path parameters;
* the OpenAPI document served at ``GET /openapi.json`` and dumped by
  ``rcm serve --dump-openapi``;
* the generated endpoint reference ``docs/api.md`` (``rcm serve
  --dump-api-markdown``), regression-tested against the checked-in file so
  the docs cannot drift from the code.

Handlers are small async functions over the framework-neutral
:class:`Request`/:class:`Response` pair, so the same table serves both the
stdlib asyncio server and the ASGI adapter in :mod:`repro.service.app`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable, Dict, List, Optional, Tuple

from ..exceptions import BackpressureError, ServiceError
from . import schemas
from .jobs import TERMINAL_STATES

__all__ = ["Request", "Response", "Route", "build_routes", "match_route"]


@dataclass
class Request:
    """One parsed HTTP request, independent of the serving frontend."""

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    query: Dict[str, str] = field(default_factory=dict)
    body: Optional[object] = None


@dataclass
class Response:
    """One response: a JSON payload, plain text, or an async byte stream.

    ``headers`` carries extra response headers (e.g. ``Retry-After`` on
    backpressure refusals); both frontends emit them verbatim.
    """

    status: int = 200
    payload: Optional[object] = None
    text: Optional[str] = None
    media_type: str = "application/json"
    stream: Optional[AsyncIterator[bytes]] = None
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        """The non-streaming body, encoded."""
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(self.payload, indent=2, allow_nan=False).encode("utf-8") + b"\n"


@dataclass(frozen=True)
class Route:
    """One endpoint: dispatch target and documentation in a single record."""

    method: str
    path: str
    name: str
    summary: str
    description: str
    handler: Optional[Callable[[Request], Awaitable[Response]]] = None
    request_schema: Optional[dict] = None
    response_schema: Optional[dict] = None
    media_type: str = "application/json"
    success_status: int = 200


def _match_path(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Match ``path`` against a ``/v1/jobs/{job_id}``-style pattern."""
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(pattern_parts, path_parts):
        if expected.startswith("{") and expected.endswith("}"):
            if not actual:
                return None
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


def match_route(
    routes: List[Route], method: str, path: str
) -> Tuple[Optional[Route], Dict[str, str], List[str]]:
    """Resolve ``(method, path)`` against the table.

    Returns ``(route, path_params, allowed_methods)``; ``route`` is ``None``
    on a miss, and ``allowed_methods`` is non-empty when the *path* matched
    under other methods (a 405, not a 404).
    """
    allowed: List[str] = []
    for route in routes:
        params = _match_path(route.path, path)
        if params is None:
            continue
        if route.method == method:
            return route, params, []
        allowed.append(route.method)
    return None, {}, allowed


def _error(status: int, message: str, details: Optional[List[str]] = None) -> Response:
    payload: Dict[str, object] = {"error": message}
    if details:
        payload["details"] = details
    return Response(status=status, payload=payload)


def build_routes(service) -> List[Route]:
    """The live route table, bound to ``service``.

    ``service`` may be ``None`` for documentation-only consumers (the
    OpenAPI/markdown generators never call handlers); every handler
    otherwise resolves its dependencies through the service lazily, so the
    table can be built before the job manager starts.
    """

    async def submit_sweep(request: Request) -> Response:
        try:
            job = service.jobs.submit(request.body)
        except BackpressureError as error:
            response = _error(error.status, str(error))
            response.headers["Retry-After"] = str(error.retry_after)
            return response
        except ServiceError as error:
            return _error(400, str(error))
        return Response(
            status=202,
            payload={
                "job_id": job.job_id,
                "state": job.state,
                "links": {
                    "status": f"/v1/jobs/{job.job_id}",
                    "results": f"/v1/jobs/{job.job_id}/results",
                    "stream": f"/v1/jobs/{job.job_id}/stream",
                },
            },
        )

    async def list_jobs(request: Request) -> Response:
        return Response(payload={"jobs": [job.status_payload() for job in service.jobs.jobs()]})

    async def job_status(request: Request) -> Response:
        job = service.jobs.get(request.params["job_id"])
        if job is None:
            return _error(404, f"unknown job {request.params['job_id']!r}")
        return Response(payload=job.status_payload())

    async def job_results(request: Request) -> Response:
        job = service.jobs.get(request.params["job_id"])
        if job is None:
            return _error(404, f"unknown job {request.params['job_id']!r}")
        state = job.state
        if state in ("queued", "running"):
            return Response(status=202, payload=job.status_payload())
        if state == "failed":
            status = job.status_payload()
            return _error(409, f"job {job.job_id} failed: {status['error']}")
        # done, done_with_errors and cancelled all answer 200: whatever
        # shards completed are returned, with the shard summary naming
        # what is missing and why.
        return Response(payload=job.results_payload())

    async def cancel_job(request: Request) -> Response:
        job = service.jobs.get(request.params["job_id"])
        if job is None:
            return _error(404, f"unknown job {request.params['job_id']!r}")
        if not job.request_cancel():
            return _error(409, f"job {job.job_id} is already {job.state}; nothing to cancel")
        return Response(status=202, payload=job.status_payload())

    async def job_stream(request: Request) -> Response:
        job = service.jobs.get(request.params["job_id"])
        if job is None:
            return _error(404, f"unknown job {request.params['job_id']!r}")

        async def lines() -> AsyncIterator[bytes]:
            # The job's thread wakes this stream through the event loop when a
            # shard finishes or the job ends, so lines go out as soon as they exist.
            loop = asyncio.get_running_loop()
            changed = asyncio.Event()

            def wake() -> None:
                try:
                    loop.call_soon_threadsafe(changed.set)
                except RuntimeError:  # the loop has closed; nobody is reading
                    pass

            unwatch = job.watch(wake)
            try:
                sent = 0
                while True:
                    changed.clear()
                    state, shards = job.shard_results()
                    while sent < len(shards):
                        record = {"event": "shard", "job_id": job.job_id, "result": shards[sent]}
                        yield json.dumps(record, allow_nan=False).encode("utf-8") + b"\n"
                        sent += 1
                    if state in TERMINAL_STATES:
                        final = {"event": "end", "job_id": job.job_id, "status": job.status_payload()}
                        yield json.dumps(final, allow_nan=False).encode("utf-8") + b"\n"
                        return
                    await changed.wait()
            finally:
                unwatch()

        return Response(media_type="application/x-ndjson", stream=lines())

    async def healthz(request: Request) -> Response:
        return Response(payload=service.health_payload())

    async def metrics(request: Request) -> Response:
        return Response(text=service.metrics_text(), media_type="text/plain; version=0.0.4")

    async def openapi(request: Request) -> Response:
        from .apidocs import generate_openapi

        return Response(payload=generate_openapi(build_routes(None)))

    return [
        Route(
            method="POST",
            path="/v1/sweeps",
            name="submitSweep",
            summary="Submit a sweep grid; returns a job id immediately",
            description=(
                "Expands the request into a (geometry × failure-model × severity × replicate) "
                "cell grid, shards it by (geometry, failure model), and executes it "
                "asynchronously on the engine's persistent worker pool.  Cells whose "
                "deterministic identity is already in the shared result cache are served "
                "without any kernel execution; only novel cells are simulated.  Responds "
                "202 with the job id and links to the status, results and stream routes.  "
                "The body is validated before admission control, and any invalid body is "
                "rejected 400: a structural error, a mode conflict ('churn' with a static-sweep "
                "field, no 'q' without 'churn'), an unknown geometry or failure model, a q "
                "outside [0, 1] or an adaptive config that does not resolve.  A rejected body "
                "uses up no rate-limit token and no queue slot.  "
                "Admission control may refuse a valid submission: 429 when the "
                "per-instance rate limit is exceeded, 503 when the bounded submission queue "
                "is full or the instance is draining for shutdown — both carry a Retry-After "
                "header (seconds)."
            ),
            handler=submit_sweep,
            request_schema=schemas.SWEEP_REQUEST_SCHEMA,
            response_schema=schemas.JOB_ACCEPTED_SCHEMA,
            success_status=202,
        ),
        Route(
            method="GET",
            path="/v1/jobs",
            name="listJobs",
            summary="List every accepted job with its status",
            description="Returns the status document of every job this service instance has accepted, oldest first.",
            handler=list_jobs,
            response_schema=schemas.JOB_LIST_SCHEMA,
        ),
        Route(
            method="GET",
            path="/v1/jobs/{job_id}",
            name="getJobStatus",
            summary="Poll one job's lifecycle state, shard outcomes and cache accounting",
            description=(
                "The status document tracks the job through queued → running → done | "
                "done_with_errors | failed | cancelled and reports per-shard execution "
                "state (pending → running → done | failed | cancelled, with attempt "
                "counts and errors — a shard that exhausts its retries or hits the "
                "wall-clock timeout is failed without aborting the job) plus per-job "
                "cell accounting: cached counts cells served from the persistent result "
                "store or runner memo (zero kernel executions), computed counts cells "
                "actually simulated.  404 for unknown job ids."
            ),
            handler=job_status,
            response_schema=schemas.JOB_STATUS_SCHEMA,
        ),
        Route(
            method="GET",
            path="/v1/jobs/{job_id}/results",
            name="getJobResults",
            summary="Fetch a finished job's measured sweep results",
            description=(
                "For a done job, returns one result entry per (geometry, failure model) shard "
                "with rows identical to ResilienceSweepResult.as_rows() — bit-identical to "
                "running the same grid through SweepRunner directly, whether the cells were "
                "computed or recalled from the cache, and regardless of how many retries a "
                "shard needed (retries can never alter cell identity or RNG streams).  A "
                "done_with_errors or cancelled job answers 200 with the partial results and "
                "a shard summary naming what is missing.  While the job is queued or running "
                "the route answers 202 with the status document; a failed job (every shard "
                "failed) answers 409 with the error."
            ),
            handler=job_results,
            response_schema=schemas.JOB_RESULTS_SCHEMA,
        ),
        Route(
            method="DELETE",
            path="/v1/jobs/{job_id}",
            name="cancelJob",
            summary="Cancel a queued or running job",
            description=(
                "Requests cooperative cancellation: a queued job is cancelled immediately; "
                "a running job stops at the next shard boundary (the in-flight shard "
                "finishes or times out, remaining shards are marked cancelled) and keeps "
                "every already-completed shard's results available as partial results.  "
                "Answers 202 with the status document when the request took effect, 409 "
                "when the job is already terminal, 404 for unknown job ids."
            ),
            handler=cancel_job,
            response_schema=schemas.JOB_STATUS_SCHEMA,
            success_status=202,
        ),
        Route(
            method="GET",
            path="/v1/jobs/{job_id}/stream",
            name="streamJobResults",
            summary="Stream shard results as NDJSON while the job runs",
            description=(
                "Long-lived response in application/x-ndjson: one {\"event\": \"shard\", ...} "
                "line per completed (geometry, failure model) shard as it finishes, terminated "
                "by one {\"event\": \"end\", ...} line carrying the final status document.  "
                "Connect any time — shards completed before the request are replayed first."
            ),
            handler=job_stream,
            response_schema=None,
            media_type="application/x-ndjson",
        ),
        Route(
            method="GET",
            path="/healthz",
            name="healthz",
            summary="Liveness/readiness probe",
            description=(
                "Answers 200 with the service version, persistent-store summary (path, schema "
                "version, cached cell count) and per-state job counts.  Suitable for load-"
                "balancer health checks and gateway upstream probes."
            ),
            handler=healthz,
            response_schema=schemas.HEALTH_SCHEMA,
        ),
        Route(
            method="GET",
            path="/metrics",
            name="metrics",
            summary="Prometheus metrics (text exposition format)",
            description=(
                "Exposes, in the Prometheus text exposition format: the counters "
                "rcm_cells_requested_total, rcm_cells_cached_total, rcm_cells_computed_total, "
                "rcm_store_hits_total, rcm_adaptive_trials_saved_total, rcm_shard_retries_total "
                "and rcm_jobs_rejected_total{reason=...}, which never decrease while the "
                "instance runs; and the gauges rcm_jobs{state=...} (jobs still "
                "retained, by state), rcm_store_cells, rcm_queue_depth, "
                "rcm_job_duration_seconds_{count,sum,max}{state=...} and rcm_uptime_seconds."
            ),
            handler=metrics,
            response_schema=schemas.METRICS_TEXT_SCHEMA,
            media_type="text/plain; version=0.0.4",
        ),
        Route(
            method="GET",
            path="/openapi.json",
            name="openapi",
            summary="The OpenAPI 3.0 description of this API",
            description=(
                "Generated from the live route table — the same source docs/api.md is built "
                "from — so the served description always matches the running code."
            ),
            handler=openapi,
            response_schema=schemas.OPENAPI_DOCUMENT_SCHEMA,
        ),
    ]
