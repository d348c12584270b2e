"""Request/response schemas of the sweep service.

Each schema is an ordinary JSON-Schema-shaped dictionary, and the
API-reference generator (:mod:`repro.service.apidocs`) embeds them verbatim
in the OpenAPI document and the generated ``docs/api.md``.  The request
schema and its validator live with the sweep request itself
(:mod:`repro.sim.request`, shared by ``rcm simulate`` and the service) and
are re-exported here, so the published request schema is, by construction,
the one actually enforced.
"""

from __future__ import annotations

from typing import Dict

from ..sim.request import SWEEP_REQUEST_SCHEMA, validate_payload

__all__ = [
    "SWEEP_REQUEST_SCHEMA",
    "SHARDS_SCHEMA",
    "JOB_ACCEPTED_SCHEMA",
    "JOB_STATUS_SCHEMA",
    "JOB_LIST_SCHEMA",
    "JOB_RESULTS_SCHEMA",
    "HEALTH_SCHEMA",
    "ERROR_SCHEMA",
    "OPENAPI_DOCUMENT_SCHEMA",
    "METRICS_TEXT_SCHEMA",
    "validate_payload",
]

#: Every job lifecycle state (mirrors ``repro.service.jobs.JOB_STATES``).
_JOB_STATE_ENUM = ["queued", "running", "done", "done_with_errors", "failed", "cancelled"]

#: Every per-shard state (mirrors ``repro.service.jobs.SHARD_STATES``).
_SHARD_STATE_ENUM = ["pending", "running", "done", "failed", "cancelled"]

#: Per-shard execution summary embedded in status and results documents.
SHARDS_SCHEMA: Dict = {
    "type": "object",
    "description": (
        "One shard per (geometry, failure model) of the grid; a failed or "
        "timed-out shard never aborts the job (state done_with_errors, partial results)."
    ),
    "properties": {
        "total": {"type": "integer"},
        "done": {"type": "integer"},
        "failed": {"type": "integer"},
        "cancelled": {"type": "integer"},
        "retries": {"type": "integer", "description": "Shard attempts beyond each shard's first (transient errors retried with exponential backoff)."},
        "states": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "geometry": {"type": "string"},
                    "failure_model": {"type": "string"},
                    "state": {"type": "string", "enum": _SHARD_STATE_ENUM},
                    "attempts": {"type": "integer"},
                    "error": {"type": ["string", "null"]},
                },
            },
        },
    },
}

#: ``202 Accepted`` body returned by a successful submission.
JOB_ACCEPTED_SCHEMA: Dict = {
    "type": "object",
    "required": ["job_id", "state", "links"],
    "properties": {
        "job_id": {"type": "string"},
        "state": {"type": "string", "enum": _JOB_STATE_ENUM},
        "links": {
            "type": "object",
            "properties": {
                "status": {"type": "string"},
                "results": {"type": "string"},
                "stream": {"type": "string"},
            },
        },
    },
}

#: Status document of one job (``GET /v1/jobs/{job_id}``).
JOB_STATUS_SCHEMA: Dict = {
    "type": "object",
    "required": ["job_id", "state", "request", "cells", "shards"],
    "properties": {
        "job_id": {"type": "string"},
        "state": {"type": "string", "enum": _JOB_STATE_ENUM},
        "request": {"type": "object", "description": "The submitted sweep request, normalised."},
        "cells": {
            "type": "object",
            "description": "Cache accounting: total = cached + computed once the job is done.",
            "properties": {
                "total": {"type": "integer"},
                "done": {"type": "integer"},
                "cached": {"type": "integer", "description": "Served from the persistent store or memo — zero kernel executions."},
                "computed": {"type": "integer", "description": "Actually simulated by the engine."},
            },
        },
        "shards": SHARDS_SCHEMA,
        "error": {"type": ["string", "null"], "description": "Failure summary when state is failed, done_with_errors or cancelled."},
        "created": {"type": "number"},
        "started": {"type": ["number", "null"]},
        "finished": {"type": ["number", "null"]},
    },
}

#: ``GET /v1/jobs`` — summaries of every job the service has accepted.
JOB_LIST_SCHEMA: Dict = {
    "type": "object",
    "required": ["jobs"],
    "properties": {"jobs": {"type": "array", "items": JOB_STATUS_SCHEMA}},
}

#: Results document of one completed job (``GET /v1/jobs/{job_id}/results``).
JOB_RESULTS_SCHEMA: Dict = {
    "type": "object",
    "required": ["job_id", "state", "results"],
    "properties": {
        "job_id": {"type": "string"},
        "state": {"type": "string"},
        "shards": SHARDS_SCHEMA,
        "results": {
            "type": "array",
            "description": "One entry per completed (geometry, failure model) shard, in completion order; done_with_errors and cancelled jobs carry the completed subset only.",
            "items": {
                "type": "object",
                "properties": {
                    "geometry": {"type": "string"},
                    "system": {"type": "string"},
                    "d": {"type": "integer"},
                    "failure_model": {"type": "string"},
                    "backend": {
                        "type": "string",
                        "description": "The kernel backend that ran the shard (resolved, never 'auto').",
                    },
                    "adaptive": {
                        "type": "object",
                        "description": (
                            "Present on adaptive-allocation shards only: the trial "
                            "schedule the allocator settled on (per-point allocated "
                            "trials, attempts, CI half-width and freeze reason, plus "
                            "the totals saved versus the uniform grid)."
                        ),
                        "properties": {
                            "rounds": {"type": "integer"},
                            "trials_allocated": {"type": "integer"},
                            "trials_uniform": {"type": "integer"},
                            "trials_saved": {"type": "integer"},
                            "max_ci_halfwidth": {"type": ["number", "null"]},
                            "points": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "properties": {
                                        "q": {"type": "number"},
                                        "model": {"type": "string"},
                                        "trials": {"type": "integer"},
                                        "attempts": {"type": "integer"},
                                        "ci_halfwidth": {"type": ["number", "null"]},
                                        "frozen_by": {"type": "string"},
                                    },
                                },
                            },
                        },
                    },
                    "churn": {
                        "type": "object",
                        "description": "Churn shards only: the submission's 'churn' object, as given.",
                    },
                    "repair_every": {
                        "type": ["integer", "null"],
                        "description": "Churn shards only: the routing-table repair period in steps (null: never within the run).",
                    },
                    "rows": {
                        "type": "array",
                        "description": "Identical to ResilienceSweepResult.as_rows(): one row per q with routability, failed_path_percent and attempts; degenerate points report null. Churn shards (submissions with 'churn') instead carry ChurnSimulationResult.as_rows(): one row per step with usable_fraction, measured_routability and attempts.",
                        "items": {
                            "type": "object",
                            "properties": {
                                "q": {"type": "number"},
                                "routability": {"type": ["number", "null"]},
                                "failed_path_percent": {"type": ["number", "null"]},
                                "attempts": {"type": "integer"},
                            },
                        },
                    },
                },
            },
        },
    },
}

#: ``GET /healthz``.
HEALTH_SCHEMA: Dict = {
    "type": "object",
    "required": ["status", "version", "store", "jobs"],
    "properties": {
        "status": {"type": "string", "enum": ["ok"]},
        "version": {"type": "string"},
        "store": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "schema_version": {"type": "integer"},
                "cells": {"type": "integer"},
            },
        },
        "jobs": {
            "type": "object",
            "properties": {
                "queued": {"type": "integer"},
                "running": {"type": "integer"},
                "done": {"type": "integer"},
                "done_with_errors": {"type": "integer"},
                "failed": {"type": "integer"},
                "cancelled": {"type": "integer"},
            },
        },
        "uptime_seconds": {"type": "number"},
    },
}

#: Error envelope of every 4xx/5xx response.
ERROR_SCHEMA: Dict = {
    "type": "object",
    "required": ["error"],
    "properties": {
        "error": {"type": "string"},
        "details": {"type": "array", "items": {"type": "string"}},
    },
}

#: ``GET /openapi.json`` — the machine-readable API description itself.
OPENAPI_DOCUMENT_SCHEMA: Dict = {
    "type": "object",
    "description": "An OpenAPI 3.0 document generated from the live route table.",
    "properties": {
        "openapi": {"type": "string"},
        "info": {"type": "object"},
        "paths": {"type": "object"},
    },
}

#: ``GET /metrics`` — Prometheus text exposition format, not JSON.
METRICS_TEXT_SCHEMA: Dict = {
    "type": "string",
    "description": (
        "Prometheus text exposition: rcm_jobs{state=...}, rcm_cells_requested_total, "
        "rcm_cells_cached_total, rcm_cells_computed_total, rcm_store_hits_total, "
        "rcm_adaptive_trials_saved_total, rcm_store_cells, rcm_shard_retries_total, "
        "rcm_jobs_rejected_total{reason=...}, rcm_queue_depth, "
        "rcm_job_duration_seconds_{count,sum,max}{state=...}, rcm_uptime_seconds."
    ),
}
