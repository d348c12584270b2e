"""The sweep service application: config, HTTP frontends, lifecycle.

The :class:`SweepService` object owns the persistent result store and the
job manager and exposes two frontends over the same route table
(:mod:`repro.service.routes`):

* a **standard-library asyncio HTTP server** (:meth:`SweepService.serve`,
  launched by ``rcm serve``) — a deliberately small HTTP/1.1 implementation
  with zero dependencies beyond ``asyncio``, sufficient for the API's
  JSON + NDJSON responses; and
* an **ASGI adapter** (:func:`create_asgi_app`) so the identical service
  can be mounted under any ASGI server (uvicorn, hypercorn) or framework
  (e.g. behind a Starlette/FastAPI gateway) when one is installed — the
  same graceful-enhancement pattern as the optional numba backend: nothing
  here imports an ASGI server, the adapter merely speaks the protocol.

Deploy behind a gateway (Kong, nginx) by pointing an upstream at
``rcm serve``'s host/port; ``/healthz`` is the upstream probe and
``/metrics`` the scrape target.  See ``docs/api.md`` (generated from the
route table) for the endpoint reference and ``docs/architecture.md`` for
how the service layers over the engine.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Optional

from .. import __version__
from ..workloads.generators import DEFAULT_BASE_SEED
from .faults import FaultRegistry
from .jobs import JobManager
from .routes import Request, Response, build_routes, match_route
from .store import ResultStore

__all__ = ["ServiceConfig", "SweepService", "create_asgi_app", "serve"]

#: Server-side log of handler crashes (the client only sees the error type).
_LOG = logging.getLogger("repro.service")

#: Largest accepted request body (bytes); sweep submissions are tiny.
_MAX_BODY_BYTES = 1 << 20
#: Largest accepted request line + header block (bytes).
_MAX_HEADER_BYTES = 1 << 16

_STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Launch-time configuration of one service instance.

    ``pairs``/``trials``/``seed`` are the *defaults* a submission inherits
    when it omits them; a request may override any of the three (each
    distinct combination gets its own runner and persistent-store key
    space).  ``workers`` and ``backend`` are execution-shape knobs: they
    tune throughput but can never change a measured number (pair chunking
    is fixed inside the routing driver).

    The failure-policy knobs are likewise shape-only: ``shard_timeout`` /
    ``shard_retries`` bound how long one shard may run and how often a
    transient error is retried, ``max_queued`` / ``rate_limit`` bound
    admission (429/503 + ``Retry-After`` beyond them), ``job_ttl`` /
    ``max_retained_jobs`` bound the job table, ``request_timeout`` bounds
    how long one HTTP connection may dribble its request in or block the
    response out (slow-loris protection), and ``drain_timeout`` is how
    long a SIGTERM-triggered drain waits for running jobs before
    cancelling them.
    """

    store_path: str
    host: str = "127.0.0.1"
    port: int = 8642
    pairs: int = 2000
    trials: int = 3
    seed: int = DEFAULT_BASE_SEED
    workers: int = 1
    backend: Optional[str] = None
    max_jobs: int = 2
    max_queued: int = 16
    rate_limit: Optional[float] = None
    job_ttl: Optional[float] = 3600.0
    max_retained_jobs: int = 512
    shard_timeout: Optional[float] = 300.0
    shard_retries: int = 2
    retry_backoff: float = 0.05
    request_timeout: float = 30.0
    drain_timeout: float = 5.0


class SweepService:
    """The simulation-as-a-service tier over the sweep engine.

    Construction opens (or creates) the persistent result store and builds
    the job manager; :meth:`close` tears both down.  The object is the
    single argument handlers close over, so everything the HTTP layer can
    reach is testable without a socket.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        store: Optional[ResultStore] = None,
        faults: Optional[FaultRegistry] = None,
    ) -> None:
        self.config = config
        self.faults = faults
        self.store = (
            store if store is not None else ResultStore.open(config.store_path, faults=faults)
        )
        self.jobs = JobManager(
            self.store,
            pairs=config.pairs,
            trials=config.trials,
            seed=config.seed,
            workers=config.workers,
            backend=config.backend,
            max_jobs=config.max_jobs,
            max_queued=config.max_queued,
            rate_limit=config.rate_limit,
            job_ttl=config.job_ttl,
            max_retained_jobs=config.max_retained_jobs,
            shard_timeout=config.shard_timeout,
            shard_retries=config.shard_retries,
            retry_backoff=config.retry_backoff,
            faults=faults,
        )
        self.routes = build_routes(self)
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    # introspection payloads (healthz / metrics handlers)
    # ------------------------------------------------------------------ #
    def health_payload(self) -> Dict[str, object]:
        """The ``GET /healthz`` document."""
        return {
            "status": "ok",
            "version": __version__,
            "store": dict(self.store.describe()),
            "jobs": self.jobs.state_counts(),
            "uptime_seconds": time.monotonic() - self._started,
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition format)."""
        totals = self.jobs.counter_totals()
        lines = [
            "# HELP rcm_jobs Jobs this instance still retains (not yet evicted by the TTL or the retention cap), by lifecycle state.",
            "# TYPE rcm_jobs gauge",
        ]
        for state, count in sorted(self.jobs.state_counts().items()):
            lines.append(f'rcm_jobs{{state="{state}"}} {count}')
        lines += [
            "# HELP rcm_cells_requested_total Sweep cells requested across completed shards (cached + computed).",
            "# TYPE rcm_cells_requested_total counter",
            f"rcm_cells_requested_total {totals['cells_requested']}",
            "# HELP rcm_cells_cached_total Sweep cells served from the cache (no kernel execution).",
            "# TYPE rcm_cells_cached_total counter",
            f"rcm_cells_cached_total {totals['cells_cached']}",
            "# HELP rcm_cells_computed_total Sweep cells actually simulated.",
            "# TYPE rcm_cells_computed_total counter",
            f"rcm_cells_computed_total {totals['cells_computed']}",
            "# HELP rcm_store_hits_total Sweep cells recalled from the persistent result store (cache hits minus in-memory memo hits).",
            "# TYPE rcm_store_hits_total counter",
            f"rcm_store_hits_total {totals['store_hits']}",
            "# HELP rcm_adaptive_trials_saved_total Trials adaptive allocation avoided versus the uniform grid.",
            "# TYPE rcm_adaptive_trials_saved_total counter",
            f"rcm_adaptive_trials_saved_total {totals['adaptive_trials_saved']}",
            "# HELP rcm_store_cells Cells in the persistent result store.",
            "# TYPE rcm_store_cells gauge",
            f"rcm_store_cells {len(self.store)}",
            "# HELP rcm_shard_retries_total Shard attempts beyond each shard's first (transient errors retried).",
            "# TYPE rcm_shard_retries_total counter",
            f"rcm_shard_retries_total {totals['shard_retries']}",
            "# HELP rcm_jobs_rejected_total Submissions refused by admission control, by reason.",
            "# TYPE rcm_jobs_rejected_total counter",
        ]
        for reason, count in sorted(self.jobs.rejected_counts().items()):
            lines.append(f'rcm_jobs_rejected_total{{reason="{reason}"}} {count}')
        lines += [
            "# HELP rcm_queue_depth Accepted jobs waiting for an execution slot.",
            "# TYPE rcm_queue_depth gauge",
            f"rcm_queue_depth {self.jobs.queue_depth()}",
            "# HELP rcm_job_duration_seconds Job wall-clock duration (acceptance to terminal state), by final state.",
            "# TYPE rcm_job_duration_seconds summary",
        ]
        durations = sorted(self.jobs.duration_stats().items())
        for state, stats in durations:
            lines.append(f'rcm_job_duration_seconds_count{{state="{state}"}} {int(stats["count"])}')
            lines.append(f'rcm_job_duration_seconds_sum{{state="{state}"}} {stats["sum"]:.6f}')
        lines += [
            "# HELP rcm_job_duration_seconds_max Longest job wall-clock duration, by final state.",
            "# TYPE rcm_job_duration_seconds_max gauge",
        ]
        for state, stats in durations:
            lines.append(f'rcm_job_duration_seconds_max{{state="{state}"}} {stats["max"]:.6f}')
        lines += [
            "# HELP rcm_uptime_seconds Seconds since this instance started.",
            "# TYPE rcm_uptime_seconds gauge",
            f"rcm_uptime_seconds {time.monotonic() - self._started:.3f}",
        ]
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # dispatch (shared by both frontends)
    # ------------------------------------------------------------------ #
    async def dispatch(self, request: Request) -> Response:
        """Route one parsed request to its handler; maps misses onto 404/405
        and handler crashes onto a JSON 500 (the error text stays server-side
        in the log, not leaked to the client beyond its type)."""
        route, params, allowed = match_route(self.routes, request.method, request.path)
        if route is None:
            if allowed:
                return Response(
                    status=405,
                    payload={"error": f"method {request.method} not allowed; allowed: {sorted(set(allowed))}"},
                )
            return Response(status=404, payload={"error": f"no route for {request.path!r}"})
        request.params = params
        try:
            return await route.handler(request)
        except Exception as error:  # handler bugs must not kill the server
            _LOG.exception("handler for %s %s crashed", request.method, request.path)
            return Response(status=500, payload={"error": f"internal error: {type(error).__name__}"})

    def close(self) -> None:
        """Stop accepting work and release the job manager and store."""
        self.jobs.close()
        self.store.close()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the stdlib asyncio HTTP frontend
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: parse a single HTTP/1.1 request, respond, close.

        The whole request read and every response-buffer drain are bounded
        by ``config.request_timeout``, so a slow-loris client that dribbles
        its request (or refuses to read the response) is answered 408 /
        disconnected instead of pinning a connection forever.
        """
        timeout = self.config.request_timeout
        try:
            try:
                request, parse_error = await asyncio.wait_for(
                    _read_http_request(reader), timeout=timeout
                )
            except asyncio.TimeoutError:
                request, parse_error = None, (408, "request read timed out")
            if parse_error is not None:
                response = Response(status=parse_error[0], payload={"error": parse_error[1]})
            else:
                response = await self.dispatch(request)
            await _write_http_response(writer, response, drain_timeout=timeout)
        except asyncio.TimeoutError:
            pass  # the client stopped reading the response; just disconnect
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # the client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def start_server(self) -> asyncio.base_events.Server:
        """Bind and start the asyncio server (port 0 picks a free port)."""
        return await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    def begin_drain(self) -> None:
        """Stop accepting submissions (503 + Retry-After); cancel queued jobs."""
        self.jobs.begin_drain()

    async def serve(self) -> None:
        """Run the stdlib HTTP server until SIGTERM/SIGINT, then drain gracefully.

        The drain sequence: close the listening socket (in-flight responses
        finish), refuse new submissions, cancel still-queued jobs, give
        running jobs ``config.drain_timeout`` seconds to finish before
        cancelling them at the next shard boundary, flush and close the
        store, and return — the process exits 0.
        """
        server = await self.start_server()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX loops
                pass
        addresses = ", ".join(
            f"http://{sock.getsockname()[0]}:{sock.getsockname()[1]}" for sock in server.sockets
        )
        print(f"rcm sweep service listening on {addresses} (store: {self.store.path})", flush=True)
        try:
            async with server:
                await stop.wait()
                print("rcm sweep service draining: submissions closed", flush=True)
                self.begin_drain()
            # ``async with`` closed the listening socket; drain job execution
            # off the event loop so in-flight streaming responses can finish.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.jobs.close(drain_timeout=self.config.drain_timeout)
            )
            print("rcm sweep service drained; exiting", flush=True)
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)


async def _read_http_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; returns ``(Request | None, error | None)``."""
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        return None, (413, "request header block too large")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise
        return None, (400, "truncated HTTP request")
    if len(header_block) > _MAX_HEADER_BYTES:
        return None, (413, "request header block too large")
    try:
        head, *header_lines = header_block.decode("latin-1").split("\r\n")
        method, target, _version = head.split(" ", 2)
    except ValueError:
        return None, (400, "malformed HTTP request line")
    headers = {}
    for line in header_lines:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    parsed = urllib.parse.urlsplit(target)
    query = {key: values[-1] for key, values in urllib.parse.parse_qs(parsed.query).items()}
    body: Optional[object] = None
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        # A non-numeric Content-Length must be answered 400, not dropped
        # on the floor with an unanswered connection.
        return None, (400, f"invalid Content-Length header {headers['content-length']!r}")
    if length < 0:
        return None, (400, f"invalid Content-Length header {headers['content-length']!r}")
    if length > _MAX_BODY_BYTES:
        return None, (413, f"request body exceeds {_MAX_BODY_BYTES} bytes")
    if length:
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None, (400, "request body shorter than Content-Length")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, (400, f"request body is not valid JSON: {error}")
    return Request(method=method.upper(), path=parsed.path, query=query, body=body), None


async def _write_http_response(
    writer: asyncio.StreamWriter, response: Response, *, drain_timeout: Optional[float] = None
) -> None:
    """Serialize a :class:`Response`; streamed bodies are close-delimited.

    Each buffer drain is bounded by ``drain_timeout`` so a client that
    stops reading cannot pin the connection (the timeout aborts the write
    and the caller closes the socket).
    """

    async def _drain() -> None:
        if drain_timeout is None:
            await writer.drain()
        else:
            await asyncio.wait_for(writer.drain(), timeout=drain_timeout)

    phrase = _STATUS_PHRASES.get(response.status, "OK")
    headers = [
        f"HTTP/1.1 {response.status} {phrase}",
        f"Content-Type: {response.media_type}",
        "Connection: close",
    ]
    headers += [f"{name}: {value}" for name, value in response.headers.items()]
    if response.stream is None:
        body = response.body_bytes()
        headers.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await _drain()
    else:
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1"))
        await _drain()
        async for chunk in response.stream:
            writer.write(chunk)
            await _drain()


def create_asgi_app(service: SweepService):
    """An ASGI 3 application over ``service`` (for uvicorn/hypercorn/gateways).

    The adapter speaks raw ASGI, so no ASGI framework or server is imported
    — install one (e.g. ``uvicorn``) only if you want to serve through it:
    ``uvicorn --factory yourmodule:app`` where ``app`` returns
    ``create_asgi_app(SweepService(config))``.
    """

    async def app(scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await send({"type": "lifespan.shutdown.complete"})
                    return
        if scope["type"] != "http":  # pragma: no cover - websockets are out of scope
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")
        for name, value in scope.get("headers") or []:
            if name.lower() == b"content-length":
                try:
                    length = int(value.decode("latin-1").strip())
                except ValueError:
                    length = -1
                if length < 0:
                    # Same contract as the stdlib frontend: a malformed
                    # Content-Length is a clean 400, never a dropped request.
                    await _asgi_send_response(
                        send,
                        Response(
                            status=400,
                            payload={"error": f"invalid Content-Length header {value!r}"},
                        ),
                    )
                    return
        raw_body = b""
        while True:
            message = await receive()
            raw_body += message.get("body", b"")
            if not message.get("more_body"):
                break
        body: Optional[object] = None
        if raw_body:
            try:
                body = json.loads(raw_body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                await _asgi_send_response(
                    send, Response(status=400, payload={"error": f"request body is not valid JSON: {error}"})
                )
                return
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(scope.get("query_string", b"").decode("latin-1")).items()
        }
        request = Request(
            method=scope["method"].upper(), path=scope["path"], query=query, body=body
        )
        response = await service.dispatch(request)
        await _asgi_send_response(send, response)

    return app


async def _asgi_send_response(send, response: Response) -> None:
    headers = [(b"content-type", response.media_type.encode("latin-1"))]
    headers += [
        (name.lower().encode("latin-1"), value.encode("latin-1"))
        for name, value in response.headers.items()
    ]
    if response.stream is None:
        body = response.body_bytes()
        headers.append((b"content-length", str(len(body)).encode("latin-1")))
        await send({"type": "http.response.start", "status": response.status, "headers": headers})
        await send({"type": "http.response.body", "body": body})
    else:
        await send({"type": "http.response.start", "status": response.status, "headers": headers})
        async for chunk in response.stream:
            await send({"type": "http.response.body", "body": chunk, "more_body": True})
        await send({"type": "http.response.body", "body": b""})


async def serve(config: ServiceConfig) -> None:
    """Build a :class:`SweepService` from ``config`` and serve until cancelled."""
    service = SweepService(config)
    try:
        await service.serve()
    finally:
        service.close()
