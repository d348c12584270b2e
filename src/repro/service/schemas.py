"""Request/response schemas of the sweep service, plus a small validator.

Each schema is an ordinary JSON-Schema-shaped dictionary.  They serve two
masters at once:

* the HTTP layer validates request bodies against them before a job is
  accepted (:func:`validate_payload` — a deliberately small subset of JSON
  Schema: ``type``, ``required``, ``properties``, ``items``, ``enum``,
  ``minimum``/``maximum``/``exclusiveMaximum``, ``minItems``), and
* the API-reference generator (:mod:`repro.service.apidocs`) embeds them
  verbatim in the OpenAPI document and the generated ``docs/api.md`` — so
  the published schemas are, by construction, the ones actually enforced.

Keeping the validator in-repo (instead of depending on ``jsonschema``)
mirrors the ``.[fast]`` optional-dependency discipline: the service runs on
the standard library alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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

#: Body of ``POST /v1/sweeps``.  ``q`` values are interpreted by the chosen
#: failure model (failure probability for ``uniform``, severity otherwise),
#: exactly as in ``rcm simulate``.
SWEEP_REQUEST_SCHEMA: Dict = {
    "type": "object",
    "required": ["geometries", "d"],
    "additionalProperties": False,
    "properties": {
        "geometries": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
            "description": "Overlay geometries to sweep (names from the live overlay registry, e.g. ring, xor, debruijn).",
        },
        "d": {
            "type": "integer",
            "minimum": 1,
            "maximum": 24,
            "description": "Identifier length; every overlay has N = 2^d nodes.",
        },
        "q": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
            "description": "Failure-model severities to sweep (failure probability for the uniform model). Required unless 'churn' is given.",
        },
        "churn": {
            "type": "object",
            "additionalProperties": False,
            "required": ["generator", "steps"],
            "description": (
                "Trace-driven churn instead of a static q sweep: each geometry "
                "becomes one churn shard replaying a deterministically generated "
                "join/leave trace (seeded from the request seed), with one routing "
                "state carried across steps; 'q' and 'failure_models' are "
                "ignored when this is set."
            ),
            "properties": {
                "generator": {
                    "type": "string",
                    "enum": ["markov", "pareto"],
                    "description": "Trace generator: independent two-state Markov chains, or heavy-tailed Pareto online/offline sessions.",
                },
                "steps": {
                    "type": "integer",
                    "minimum": 1,
                    "maximum": 100000,
                    "description": "Churn steps to simulate (one measured row per step).",
                },
                "leave_probability": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Markov generator: per-step probability an online node leaves (default 0.02).",
                },
                "rejoin_probability": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Markov generator: per-step probability an offline node rejoins (default 0.05).",
                },
                "shape": {
                    "type": "number",
                    "minimum": 1,
                    "description": "Pareto generator: tail index of the session-length distribution (must exceed 1; default 1.5).",
                },
                "mean_online": {
                    "type": "number",
                    "minimum": 1,
                    "description": "Pareto generator: mean online-session length in steps (default 20).",
                },
                "mean_offline": {
                    "type": "number",
                    "minimum": 1,
                    "description": "Pareto generator: mean offline-session length in steps (default 5).",
                },
                "pairs_per_step": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Pairs routed among usable nodes each step (default: the request's 'pairs').",
                },
                "repair_every": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Re-establish routing tables every this many steps (default: never within the run).",
                },
            },
        },
        "adaptive": {
            "type": "object",
            "additionalProperties": False,
            "required": ["ci_target"],
            "description": (
                "Variance-adaptive trial allocation instead of the uniform "
                "trials-per-point grid: each shard's sweep runs in rounds and a q "
                "point freezes once its pooled routability CI half-width reaches "
                "ci_target; 'trials' becomes the per-point cap.  Frozen points are "
                "bit-identical to the first rounds of the equivalent uniform sweep "
                "(same per-cell streams), so cached cells still hit the shared "
                "store.  Not combinable with 'churn'."
            ),
            "properties": {
                "ci_target": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Wilson CI half-width a point must reach to freeze (strictly between 0 and 1).",
                },
                "min_trials": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Trials every point receives unconditionally in the first round (default 2).",
                },
                "max_trials": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Per-point trial cap (default: the request's 'trials').",
                },
                "confidence": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Confidence level of the Wilson interval (strictly between 0 and 1; default 0.95).",
                },
            },
        },
        "failure_models": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
            "description": "Failure-model kinds of the grid's model axis (default: [\"uniform\"]).",
        },
        "pairs": {
            "type": "integer",
            "minimum": 1,
            "description": "Surviving (source, destination) pairs sampled per cell (default: the service's --pairs).",
        },
        "trials": {
            "type": "integer",
            "minimum": 1,
            "description": "Independent failure patterns per point (default: the service's --trials).",
        },
        "seed": {
            "type": "integer",
            "minimum": 0,
            "description": "Base random seed; cells derive deterministic per-cell streams from it (default: the service's --seed).",
        },
    },
}

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
                    "backend": {"type": ["string", "null"]},
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
        "Prometheus text exposition: rcm_jobs_total{state=...}, rcm_cells_requested_total, "
        "rcm_cells_cached_total, rcm_cells_computed_total, rcm_store_hits_total, "
        "rcm_adaptive_trials_saved_total, rcm_store_cells, rcm_shard_retries_total, "
        "rcm_jobs_rejected_total{reason=...}, rcm_queue_depth, "
        "rcm_job_duration_seconds_{count,sum,max}{state=...}, rcm_uptime_seconds."
    ),
}


def _type_matches(value: object, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "null":
        return value is None
    return True


def validate_payload(payload: object, schema: Dict, path: str = "body") -> List[str]:
    """Validate ``payload`` against the supported JSON-Schema subset.

    Returns a list of human-readable error strings (empty when valid);
    the HTTP layer turns a non-empty list into a 400 response.  Unknown
    schema keywords are ignored, so the schemas can carry documentation
    (``description``) without affecting validation.
    """
    errors: List[str] = []
    expected_type = schema.get("type")
    if expected_type is not None:
        allowed = expected_type if isinstance(expected_type, list) else [expected_type]
        if not any(_type_matches(payload, entry) for entry in allowed):
            errors.append(f"{path}: expected {' or '.join(allowed)}, got {type(payload).__name__}")
            return errors
    if "enum" in schema and payload not in schema["enum"]:
        errors.append(f"{path}: {payload!r} is not one of {schema['enum']}")
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        minimum: Optional[float] = schema.get("minimum")
        if minimum is not None and payload < minimum:
            errors.append(f"{path}: {payload} is below the minimum {minimum}")
        maximum: Optional[float] = schema.get("maximum")
        if maximum is not None and payload > maximum:
            errors.append(f"{path}: {payload} is above the maximum {maximum}")
    if isinstance(payload, dict):
        for name in schema.get("required", []):
            if name not in payload:
                errors.append(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for name in payload:
                if name not in properties:
                    errors.append(f"{path}: unknown property {name!r}")
        for name, value in payload.items():
            if name in properties:
                errors.extend(validate_payload(value, properties[name], f"{path}.{name}"))
    if isinstance(payload, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(payload) < min_items:
            errors.append(f"{path}: expected at least {min_items} item(s), got {len(payload)}")
        items = schema.get("items")
        if items is not None:
            for index, value in enumerate(payload):
                errors.extend(validate_payload(value, items, f"{path}[{index}]"))
    return errors
