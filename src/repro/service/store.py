"""Persistent on-disk result store: the cross-process sweep cell cache.

The :class:`~repro.sim.engine.SweepRunner` memoizes completed cells in
memory, so a single process never simulates the same cell twice.  This
module extends that guarantee across processes and across time: a
:class:`ResultStore` persists every completed :class:`SweepCellResult` to a
single SQLite file keyed by the cell's *deterministic identity* — the same
``(geometry, d, replicate, q[, model])`` entropy key the engine seeds each
cell from, plus the run parameters that pin the cell's random streams
(``pairs``, ``base_seed``, overlay options).  Because a cell's result is a
pure function of that key (the property that makes worker fan-out
deterministic), a stored result is *bit-identical* to recomputing it — so
an identical cell is never simulated twice, no matter which process,
request or CLI invocation asks for it.

What is deliberately **not** part of the key: the kernel backend and the
worker count (nor the routing driver's fixed pair chunk).  All of
those are property-tested to produce bit-identical metrics (the two-copy
oracle/KernelSpec invariant, see ``docs/architecture.md``), so results
cached under one execution shape are valid for every other.

The store is the backing layer of the sweep service (:mod:`repro.service`)
and of ``rcm simulate --store``; hook it into a runner directly with
``SweepRunner(cell_store=ResultStore.open(path))``.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import threading
import time
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..dht.metrics import RoutingMetrics
from ..dht.routing import FailureReason
from ..exceptions import ResultStoreError
from ..sim.engine import SweepCell, SweepCellResult
from .faults import NO_FAULTS, FaultRegistry

__all__ = ["STORE_SCHEMA_VERSION", "cell_store_key", "ResultStore"]

#: How many times a transient SQLite ``database is locked``/``busy`` error
#: is retried (with exponential backoff) before surfacing as a
#: :class:`~repro.exceptions.ResultStoreError`.
_BUSY_RETRIES = 5
#: First backoff (seconds); doubles per retry.
_BUSY_BACKOFF = 0.02


def _is_busy_error(error: sqlite3.Error) -> bool:
    """Whether a SQLite error is transient cross-process lock contention."""
    message = str(error).lower()
    return "locked" in message or "busy" in message

#: Bumped whenever the key derivation or payload layout changes; stores
#: written under a different version refuse to open rather than silently
#: serving results computed under different semantics.
STORE_SCHEMA_VERSION = 1


def cell_store_key(
    cell: SweepCell,
    *,
    pairs: int,
    base_seed: int,
    overlay_options: Tuple[Tuple[str, object], ...] = (),
) -> str:
    """The canonical persistent identity of one sweep cell.

    Mirrors the engine's per-cell entropy key: the cell coordinates
    ``(geometry, d, q, replicate, model)`` plus every parameter that feeds
    the cell's random streams (``pairs``, ``base_seed``, sorted overlay
    options).  Execution-shape parameters (backend, workers) are excluded
    on purpose — they cannot change a measured number, and neither can the
    routing driver's fixed pair chunking.  The key is a canonical JSON
    string, stable across platforms and interpreter versions.
    """
    parts = {
        "v": STORE_SCHEMA_VERSION,
        "geometry": cell.geometry,
        "d": int(cell.d),
        "q": repr(float(cell.q)),
        "replicate": int(cell.replicate),
        "model": cell.model,
        "pairs": int(pairs),
        "base_seed": int(base_seed),
        "overlay_options": [[str(key), repr(value)] for key, value in overlay_options],
    }
    return json.dumps(parts, sort_keys=True, separators=(",", ":"))


def _payload_from_result(result: SweepCellResult) -> str:
    """Serialize one cell result to the store's JSON payload (strict JSON:
    non-finite means are stored as ``null``, never ``NaN``)."""
    metrics = result.metrics

    def _finite_or_none(value: float) -> Optional[float]:
        return float(value) if math.isfinite(value) else None

    payload = {
        "pairs": int(result.pairs),
        "degenerate": bool(result.degenerate),
        "metrics": {
            "attempts": int(metrics.attempts),
            "successes": int(metrics.successes),
            "mean_hops_successful": _finite_or_none(metrics.mean_hops_successful),
            "mean_hops_failed": _finite_or_none(metrics.mean_hops_failed),
            "failure_reasons": {
                reason.name: int(count) for reason, count in sorted(
                    metrics.failure_reasons.items(), key=lambda item: item[0].name
                )
            },
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _result_from_payload(cell: SweepCell, payload: str) -> SweepCellResult:
    """Rebuild a :class:`SweepCellResult` from its stored JSON payload."""
    try:
        data = json.loads(payload)
        metrics_data = data["metrics"]
        metrics = RoutingMetrics(
            attempts=int(metrics_data["attempts"]),
            successes=int(metrics_data["successes"]),
            mean_hops_successful=(
                float("nan")
                if metrics_data["mean_hops_successful"] is None
                else float(metrics_data["mean_hops_successful"])
            ),
            mean_hops_failed=(
                float("nan")
                if metrics_data["mean_hops_failed"] is None
                else float(metrics_data["mean_hops_failed"])
            ),
            failure_reasons={
                FailureReason[name]: int(count)
                for name, count in metrics_data["failure_reasons"].items()
            },
        )
        return SweepCellResult(
            cell=cell,
            pairs=int(data["pairs"]),
            metrics=metrics,
            degenerate=bool(data["degenerate"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ResultStoreError(f"corrupt result-store payload for cell {cell}: {error}") from error


class ResultStore:
    """A cross-process, cross-request cache of completed sweep cells.

    One SQLite file holds every completed cell keyed by
    :func:`cell_store_key`; SQLite's file locking makes concurrent readers
    and writers from multiple processes safe, and an internal lock makes one
    store instance safe to share between the service's job threads.

    Use :meth:`open` (which validates writability up front and raises
    :class:`~repro.exceptions.ResultStoreError` with an actionable message
    on failure) rather than the constructor.  The store implements the
    ``cell_store`` protocol the :class:`~repro.sim.engine.SweepRunner`
    consumes: :meth:`get_cells` / :meth:`put_cells`.
    """

    def __init__(
        self,
        path: str,
        connection: sqlite3.Connection,
        *,
        faults: Optional[FaultRegistry] = None,
    ) -> None:
        self.path = path
        self._connection = connection
        self._lock = threading.Lock()
        self._faults = faults if faults is not None else NO_FAULTS

    def _retrying(self, operation: str, apply, *, site: Optional[str] = None):
        """Run ``apply()`` with bounded-backoff retries on transient SQLite
        lock contention (``database is locked``/``busy`` — real or injected
        via the ``store-read``/``store-write`` fault sites); anything else
        surfaces immediately as a :class:`ResultStoreError`.

        Caller must hold ``self._lock``; retries happen under it, which is
        correct because the contention being retried is *cross-process*
        (SQLite file locks), never this process's own threads.
        """
        for attempt in range(_BUSY_RETRIES + 1):
            try:
                if site is not None:
                    self._faults.fire(site)
                return apply()
            except sqlite3.OperationalError as error:
                if _is_busy_error(error) and attempt < _BUSY_RETRIES:
                    self._connection.rollback()
                    time.sleep(_BUSY_BACKOFF * (2**attempt))
                    continue
                raise ResultStoreError(
                    f"result store {self.path!r} {operation} failed: {error}"
                ) from error
            except sqlite3.Error as error:
                raise ResultStoreError(
                    f"result store {self.path!r} {operation} failed: {error}"
                ) from error

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: str, *, faults: Optional[FaultRegistry] = None) -> "ResultStore":
        """Open (creating if needed) the result store at ``path``.

        Creates missing parent directories, initialises the schema, and
        verifies the schema version.  Raises
        :class:`~repro.exceptions.ResultStoreError` — never a bare OS or
        sqlite traceback — when the path is unwritable, is a directory, or
        holds an incompatible store.
        """
        path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as error:
            raise ResultStoreError(
                f"cannot create result-store directory {parent!r}: {error.strerror or error}"
            ) from error
        if os.path.isdir(path):
            raise ResultStoreError(f"result-store path {path!r} is a directory, expected a file")
        try:
            connection = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
        except sqlite3.Error as error:
            raise ResultStoreError(f"cannot open result store {path!r}: {error}") from error
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS cells (key TEXT PRIMARY KEY, payload TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
                connection.commit()
            elif row[0] != str(STORE_SCHEMA_VERSION):
                connection.close()
                raise ResultStoreError(
                    f"result store {path!r} has schema version {row[0]}, "
                    f"this build expects {STORE_SCHEMA_VERSION}; "
                    "point --store at a fresh path or delete the stale store"
                )
        except sqlite3.Error as error:
            connection.close()
            raise ResultStoreError(
                f"result store {path!r} is not writable: {error}. "
                "Check the path and filesystem permissions, or pass a different --store path."
            ) from error
        return cls(path, connection, faults=faults)

    def close(self) -> None:
        """Close the underlying database connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _execute(self, sql: str, parameters: Sequence = ()):  # pragma: no cover - thin helper
        if self._connection is None:
            raise ResultStoreError(f"result store {self.path!r} is closed")
        return self._connection.execute(sql, parameters)

    # ------------------------------------------------------------------ #
    # the SweepRunner cell_store protocol
    # ------------------------------------------------------------------ #
    def get_cells(
        self,
        cells: Iterable[SweepCell],
        *,
        pairs: int,
        base_seed: int,
        overlay_options: Tuple[Tuple[str, object], ...] = (),
    ) -> Dict[SweepCell, SweepCellResult]:
        """Look up previously completed cells; absent cells are simply missing
        from the returned mapping (the caller computes them)."""
        cells = list(cells)
        keyed = {
            cell_store_key(cell, pairs=pairs, base_seed=base_seed, overlay_options=overlay_options): cell
            for cell in cells
        }
        recalled: Dict[SweepCell, SweepCellResult] = {}
        keys = list(keyed)

        def _read():
            rows = []
            # SQLite caps the number of bound parameters; chunk the IN list.
            for start in range(0, len(keys), 400):
                chunk = keys[start : start + 400]
                placeholders = ",".join("?" for _ in chunk)
                rows.extend(
                    self._execute(
                        f"SELECT key, payload FROM cells WHERE key IN ({placeholders})", chunk
                    ).fetchall()
                )
            return rows

        with self._lock:
            for key, payload in self._retrying("read", _read, site="store-read"):
                cell = keyed[key]
                recalled[cell] = _result_from_payload(cell, payload)
        return recalled

    def put_cells(
        self,
        results: Iterable[SweepCellResult],
        *,
        pairs: int,
        base_seed: int,
        overlay_options: Tuple[Tuple[str, object], ...] = (),
    ) -> None:
        """Persist completed cells (last writer wins; results are deterministic,
        so concurrent writers always write identical payloads)."""
        rows = [
            (
                cell_store_key(
                    result.cell, pairs=pairs, base_seed=base_seed, overlay_options=overlay_options
                ),
                _payload_from_result(result),
            )
            for result in results
        ]
        if not rows:
            return

        def _write():
            self._execute("BEGIN")
            self._connection.executemany(
                "INSERT OR REPLACE INTO cells (key, payload) VALUES (?, ?)", rows
            )
            self._connection.commit()

        with self._lock:
            self._retrying("write", _write, site="store-write")

    # ------------------------------------------------------------------ #
    # introspection (health/metrics endpoints)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of cached cells."""
        with self._lock:
            return int(
                self._retrying(
                    "read", lambda: self._execute("SELECT COUNT(*) FROM cells").fetchone()
                )[0]
            )

    def describe(self) -> Mapping[str, object]:
        """A JSON-safe summary of the store for the health endpoint."""
        return {
            "path": self.path,
            "schema_version": STORE_SCHEMA_VERSION,
            "cells": len(self),
        }
