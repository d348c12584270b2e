"""Simulation-as-a-service: the async sweep API over the batch engine.

This package turns the library/CLI-only sweep engine into a long-running
service tier (ROADMAP north star: *serve heavy traffic*):

* :mod:`~repro.service.store` — :class:`ResultStore`, the persistent
  on-disk cell cache keyed by each cell's deterministic identity; the
  in-memory :class:`~repro.sim.engine.SweepRunner` memo generalised across
  processes and requests, so an identical cell is **never** simulated
  twice.
* :mod:`~repro.service.jobs` — submissions, the ``queued → running → done
  | done_with_errors | failed | cancelled`` lifecycle, per-shard execution
  units with bounded retries, watchdog timeouts and cooperative
  cancellation, admission control (queue bound, rate limit, TTL
  eviction), and per-job cached/computed accounting.
* :mod:`~repro.service.faults` — the deterministic fault-injection
  registry (named sites, count-based fault windows) behind the chaos
  suite that proves the failure policies end-to-end.
* :mod:`~repro.service.routes` / :mod:`~repro.service.app` — the route
  table (submit → job id → poll/stream/results, plus ``/healthz``,
  ``/metrics`` and ``/openapi.json``) served by a dependency-free stdlib
  asyncio HTTP server (``rcm serve``) or any ASGI server via
  :func:`create_asgi_app`.
* :mod:`~repro.service.apidocs` — the OpenAPI document and the generated
  endpoint reference ``docs/api.md``, both derived from the live route
  table (drift is regression-tested).

Imports resolve lazily (PEP 562), matching :mod:`repro.sim`: importing
:mod:`repro.service` is cheap, and nothing here is needed until a store or
server is actually opened.
"""

from __future__ import annotations

import importlib
from typing import Tuple

#: name -> submodule that defines it; the public surface of ``repro.service``.
_EXPORTS = {
    "ResultStore": "store",
    "cell_store_key": "store",
    "STORE_SCHEMA_VERSION": "store",
    "JobManager": "jobs",
    "SweepJob": "jobs",
    "ShardState": "jobs",
    "JOB_STATES": "jobs",
    "TERMINAL_STATES": "jobs",
    "SHARD_STATES": "jobs",
    "FaultRegistry": "faults",
    "FaultSpec": "faults",
    "InjectedFault": "faults",
    "FAULT_SITES": "faults",
    "FAULT_KINDS": "faults",
    "NO_FAULTS": "faults",
    "Route": "routes",
    "Request": "routes",
    "Response": "routes",
    "build_routes": "routes",
    "match_route": "routes",
    "ServiceConfig": "app",
    "SweepService": "app",
    "create_asgi_app": "app",
    "serve": "app",
    "generate_openapi": "apidocs",
    "generate_api_markdown": "apidocs",
}

__all__: Tuple[str, ...] = tuple(_EXPORTS)


def __getattr__(name: str):
    """Resolve the public surface lazily (PEP 562)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__():
    """Advertise the lazy exports to ``dir()`` and tab completion."""
    return sorted(set(globals()) | set(_EXPORTS))
