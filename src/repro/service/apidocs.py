"""Generate the API reference from the live route table.

``docs/api.md`` and the OpenAPI document are *build products* of
:func:`repro.service.routes.build_routes`: every endpoint's method, path,
summary, description, status code and request/response schema come from the
same :class:`~repro.service.routes.Route` records the dispatcher matches
against, so the reference cannot describe an endpoint that does not exist
(or miss one that does).  ``tests/test_docs.py`` regenerates the markdown
and asserts the checked-in ``docs/api.md`` is byte-identical — regenerate
with::

    rcm serve --dump-api-markdown > docs/api.md

and the machine-readable variant with ``rcm serve --dump-openapi``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .. import __version__
from .routes import Route

__all__ = ["generate_openapi", "generate_api_markdown"]

_API_TITLE = "repro-rcm sweep service"
_API_DESCRIPTION = (
    "Asynchronous HTTP API over the vectorized DHT resilience sweep engine: "
    "submit a (geometry × failure-model × severity × replicate) grid, poll or "
    "stream the job, fetch results bit-identical to a direct SweepRunner run. "
    "Identical cells are never simulated twice: results are cached in a "
    "persistent store keyed by each cell's deterministic identity."
)


def _operation(route: Route) -> Dict[str, object]:
    """One OpenAPI operation object for ``route``."""
    operation: Dict[str, object] = {
        "operationId": route.name,
        "summary": route.summary,
        "description": route.description,
    }
    parameters = [
        {
            "name": segment[1:-1],
            "in": "path",
            "required": True,
            "schema": {"type": "string"},
        }
        for segment in route.path.strip("/").split("/")
        if segment.startswith("{") and segment.endswith("}")
    ]
    if parameters:
        operation["parameters"] = parameters
    if route.request_schema is not None:
        operation["requestBody"] = {
            "required": True,
            "content": {"application/json": {"schema": route.request_schema}},
        }
    response: Dict[str, object] = {"description": route.summary}
    if route.response_schema is not None:
        response["content"] = {route.media_type: {"schema": route.response_schema}}
    operation["responses"] = {str(route.success_status): response}
    return operation


def generate_openapi(routes: List[Route]) -> Dict[str, object]:
    """The OpenAPI 3.0 document for ``routes`` (served at ``/openapi.json``)."""
    paths: Dict[str, Dict[str, object]] = {}
    for route in routes:
        paths.setdefault(route.path, {})[route.method.lower()] = _operation(route)
    return {
        "openapi": "3.0.3",
        "info": {
            "title": _API_TITLE,
            "version": __version__,
            "description": _API_DESCRIPTION,
        },
        "paths": paths,
    }


def _schema_block(title: str, schema: Optional[dict]) -> List[str]:
    if schema is None:
        return []
    return [
        f"**{title}**",
        "",
        "```json",
        json.dumps(schema, indent=2, sort_keys=False),
        "```",
        "",
    ]


def generate_api_markdown(routes: List[Route]) -> str:
    """Render ``docs/api.md`` from the route table (deterministic output)."""
    lines: List[str] = [
        "# Sweep service HTTP API",
        "",
        "<!-- GENERATED FILE — do not edit by hand. -->",
        "<!-- Regenerate with: rcm serve --dump-api-markdown > docs/api.md -->",
        f"<!-- Source of truth: the route table in src/repro/service/routes.py (v{__version__}). -->",
        "",
        _API_DESCRIPTION,
        "",
        "Launch the service with `rcm serve --store sweeps.db` (see `rcm serve --help`",
        "for host/port, worker-pool and default pairs/trials/seed options); the",
        "machine-readable twin of this document is served at `GET /openapi.json` and",
        "dumped by `rcm serve --dump-openapi`.  `tests/test_docs.py` regenerates this",
        "file from the live route table and fails when the checked-in copy drifts.",
        "",
        "## Job lifecycle",
        "",
        "A submission (`POST /v1/sweeps`) is validated structurally, assigned a job",
        "id, and answered `202 Accepted` immediately.  The job then moves through:",
        "",
        "```",
        "queued ──▶ running ──▶ done",
        "   │            ├─────▶ done_with_errors",
        "   │            ├─────▶ failed",
        "   │            └─────▶ cancelled",
        "   └──────────────────▶ cancelled",
        "```",
        "",
        "* **queued** — accepted, waiting for one of the service's bounded job slots",
        "  (`--max-jobs`).  Submissions beyond the queue bound (`--max-queued`) or the",
        "  submission rate limit (`--rate-limit`) are rejected with `503`/`429` and a",
        "  `Retry-After` header rather than queued unboundedly.",
        "* **running** — shards execute; one shard per `(geometry, failure_model)`",
        "  pair, each a single fused sweep on the engine's persistent worker pool.",
        "  Each shard is an independent execution unit with its own",
        "  `pending → running → done | failed | cancelled` lifecycle: transient faults",
        "  are retried with exponential backoff (`--shard-retries`), and a shard that",
        "  exceeds its wall-clock budget (`--shard-timeout`) is recorded failed",
        "  without aborting the rest of the job.  Retries never touch the random",
        "  streams or cell identity — a shard that succeeds on attempt three returns",
        "  rows byte-identical to one that succeeds on attempt one.",
        "  `GET /v1/jobs/{job_id}` reports shard and cell progress; the `stream`",
        "  route emits each shard's results the moment it completes.",
        "* **done** — `GET /v1/jobs/{job_id}/results` returns every shard's rows,",
        "  bit-identical to running the same grid through `SweepRunner.sweep`.",
        "* **done_with_errors** — some shards failed or timed out; the results route",
        "  answers `200` with the completed subset and the per-shard error detail.",
        "* **failed** — every shard failed (for example an unknown geometry, or a",
        "  severity outside the failure model's domain); the status document carries",
        "  the error and the results route answers `409`.",
        "* **cancelled** — `DELETE /v1/jobs/{job_id}` stops the job between shards;",
        "  a still-queued job cancels immediately, a running one finishes its current",
        "  shard and keeps the rows completed so far (results answer `200` with the",
        "  partial set).",
        "",
        "Polling a route of a job that is still queued or running answers `202` with",
        "the current status document, so clients can poll the results URL directly.",
        "During shutdown (SIGTERM) the service drains: new submissions answer `503`,",
        "queued jobs are cancelled, running jobs get `--drain-timeout` seconds to",
        "finish, and the process exits `0`.",
        "",
        "## Cache semantics",
        "",
        "Every cell of a sweep grid — one `(geometry, d, q, replicate, model)`",
        "combination — has a **deterministic identity**: its random streams derive",
        "from `(geometry, d, replicate, q[, model])` plus `pairs` and `seed`, so its",
        "result is a pure function of that key.  The service persists every completed",
        "cell in an on-disk store (`--store`) under exactly that key, shared by all",
        "jobs, runners and processes:",
        "",
        "* Submitting a grid that overlaps previously completed work — in this",
        "  process or any earlier one — recalls the overlapping cells from the store",
        "  with **zero kernel executions**; only novel cells are simulated.",
        "* Recalled results are bit-identical to recomputing them (the status",
        "  document's `cells.cached` / `cells.computed` counters make the split",
        "  observable per job).",
        "* Execution-shape options (`--backend`, `--workers`) and the engine's",
        "  fixed pair chunking are deliberately **not** part of the key:",
        "  every shape is property-tested bit-identical, so cached results are valid",
        "  across all of them.  Changing `pairs`, `trials`, `seed` or the grid",
        "  coordinates changes the key and triggers fresh simulation.",
        "",
        "The same store can be shared with CLI runs: `rcm simulate --store sweeps.db`",
        "reads and writes the identical key space.",
        "",
        "## Endpoints",
        "",
    ]
    for route in routes:
        lines += [
            f"### `{route.method} {route.path}`",
            "",
            f"*{route.summary}.*",
            "",
            route.description,
            "",
        ]
        if route.success_status != 200 or route.media_type != "application/json":
            lines += [
                f"Success status: `{route.success_status}`; media type: `{route.media_type}`.",
                "",
            ]
        lines += _schema_block("Request body", route.request_schema)
        lines += _schema_block("Response", route.response_schema)
    lines += [
        "## Errors",
        "",
        "Every JSON error response uses one envelope:",
        "",
        "```json",
        json.dumps(
            {"type": "object", "required": ["error"], "properties": {"error": {"type": "string"}, "details": {"type": "array", "items": {"type": "string"}}}},
            indent=2,
        ),
        "```",
        "",
        "`400` malformed body, invalid `Content-Length` or structurally invalid",
        "submission · `404` unknown route or job id · `405` wrong method on a known",
        "path · `408` connection read/write budget exceeded · `409` results of a",
        "failed job, or cancelling an already-finished one · `413` oversized request",
        "· `429` submission rate limit exceeded (carries `Retry-After`) · `503`",
        "submission queue full or service draining (carries `Retry-After`) · `500`",
        "handler fault.",
        "",
    ]
    return "\n".join(lines)
