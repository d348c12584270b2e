"""In-memory span recorder for the traced benchmark run.

A traced run wraps the public callables at each layer boundary of the
``repro`` package by attribute replacement at run time (:meth:`Tracer.install`)
and restores the originals afterwards (:meth:`Tracer.uninstall`); no file of
the program changes.  Each call of a wrapped callable records one span: its
layer, name, geometry (where the arguments name one), start, end, parent
span, the op it belongs to and the time the wrapper itself spent
(``overhead``, summed into ``trace.wrapper_frac``).  That is a lower bound
on what tracing costs; ``trace.overhead_frac`` is measured instead as the
gap between traced and untraced latencies of the same ops.

Layers are named after the module that implements them:

* ``dht`` -- overlay builders (``Overlay.build``) and the lazily built
  routing table (``Overlay.neighbor_array``); ``dht.failures`` --
  ``FailureModel.sample``/``sample_batch`` and ``bind`` (binding a model to
  an overlay, e.g. ranking nodes for targeted failures);
* ``sim.sampling`` -- ``sample_survivor_pair_arrays``;
* ``sim.engine`` -- ``SweepRunner.sweep``/``run_cells``, ``route_pairs`` and
  ``route_pairs_stacked``;
* ``sim.backends`` -- ``NumpyBackend.prepare``/``update``/``run``;
* ``sim.churn`` -- ``simulate_churn``; ``sim.adaptive`` -- ``run_allocation``;
* ``service.app`` -- ``SweepService.dispatch`` (the HTTP routes);
  ``service.jobs`` -- ``JobManager.submit``; ``service.store`` --
  ``ResultStore.get_cells``/``put_cells``.

Only the standard library is imported at module level, so the launcher can
install the tracer before ``repro`` is imported.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import re
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "dump_spans", "load_spans", "self_times"]

# Span record layout (a tuple keeps the per-call cost low).
FIELDS = ("id", "parent", "layer", "name", "geometry", "start", "end", "overhead", "op", "thread", "counts")
ID, PARENT, LAYER, NAME, GEOMETRY, START, END, OVERHEAD, OP, THREAD, COUNTS = range(len(FIELDS))

_JOB_PATH = re.compile(r"^/v1/jobs/[^/]+")


def _overlay_geometry(position: int) -> Callable:
    """Geometry read from the ``geometry_name`` of positional argument ``position``."""

    def geometry(args, kwargs):
        return getattr(args[position], "geometry_name", None)

    return geometry


def _sweep_geometry(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("geometry")


def _cells_geometry(args, kwargs):
    cells = args[1]
    return cells[0].geometry if cells else None


def _hop_count(args, result):
    return {"pair_hops": int(result[1].sum())}


def _lookup_count(args, result):
    return {"lookups": len(args[1]), "hits": len(result)}


def _allocation_count(args, result):
    results, report = result
    return {
        "cells_requested": sum(len(cells) for cells in results.values()),
        "trials_saved": int(report.trials_saved),
    }


def _dispatch_name(args, kwargs):
    request = args[1]
    return f"{request.method} {_JOB_PATH.sub('/v1/jobs/{id}', request.path)}"


class Tracer:
    """Records spans around the program's layer boundaries while installed.

    ``op`` names the op that spans recorded from now on belong to; the
    workload loop sets it before each op.  Spans are kept in memory and
    written out with :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=0)
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        *,
        geometry: Optional[Callable] = None,
        count: Optional[Callable] = None,
        dynamic_name: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` that records one span per call."""
        spans = self.spans
        ids = self._ids
        current = self._current
        clock = time.perf_counter
        tracer = self

        def open_span():
            entered = clock()
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            return entered, span_id, parent, token

        def close_span(entered, started, ended, span_id, parent, token, args, kwargs, result, ok):
            current.reset(token)
            counts = count(args, result) if (count is not None and ok) else None
            label = dynamic_name(args, kwargs) if dynamic_name is not None else name
            where = geometry(args, kwargs) if geometry is not None else None
            thread = threading.current_thread().name if parent == 0 else None
            # The wrapper's own time: before the call, and after it up to here.
            overhead = (started - entered) + (clock() - ended)
            spans.append(
                (span_id, parent, layer, label, where, started, ended, overhead, tracer.op, thread, counts)
            )

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                entered, span_id, parent, token = open_span()
                started = clock()
                result, ok = None, False
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    ended = clock()
                    close_span(entered, started, ended, span_id, parent, token, args, kwargs, result, ok)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered, span_id, parent, token = open_span()
            started = clock()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                ended = clock()
                close_span(entered, started, ended, span_id, parent, token, args, kwargs, result, ok)

        return wrapper

    def _patch_function(self, module, attribute: str, layer: str, **options) -> None:
        """Replace a module-level function everywhere ``repro`` modules bound it."""
        original = getattr(module, attribute)
        wrapper = self.wrap(original, layer, attribute, **options)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            if getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapper)
                self._undo.append(functools.partial(setattr, loaded, attribute, original))

    def _patch_method(self, cls, attribute: str, layer: str, **options) -> None:
        """Replace a method defined on ``cls`` itself (plain or classmethod)."""
        original = cls.__dict__[attribute]
        label = f"{cls.__name__}.{attribute}"
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, layer, label, **options))
        else:
            replacement = self.wrap(original, layer, label, **options)
        setattr(cls, attribute, replacement)
        self._undo.append(functools.partial(setattr, cls, attribute, original))

    def install(self, *, service: bool = False) -> "Tracer":
        """Wrap every layer boundary (and the service tier's when ``service``)."""
        from repro.dht import OVERLAY_CLASSES, failures
        from repro.dht.network import Overlay
        from repro.sim import adaptive, churn, engine, sampling
        from repro.sim.backends.numpy_backend import NumpyBackend

        for cls in OVERLAY_CLASSES.values():
            if "build" in cls.__dict__:
                self._patch_method(cls, "build", "dht", geometry=_overlay_geometry(0))
        self._patch_method(Overlay, "neighbor_array", "dht", geometry=_overlay_geometry(0))
        for cls in vars(failures).values():
            if isinstance(cls, type) and issubclass(cls, failures.FailureModel):
                for attribute in ("sample", "sample_batch", "bind"):
                    if attribute in cls.__dict__:
                        self._patch_method(cls, attribute, "dht.failures")
        self._patch_function(sampling, "sample_survivor_pair_arrays", "sim.sampling")
        self._patch_method(engine.SweepRunner, "sweep", "sim.engine", geometry=_sweep_geometry)
        self._patch_method(engine.SweepRunner, "run_cells", "sim.engine", geometry=_cells_geometry)
        self._patch_function(engine, "route_pairs", "sim.engine", geometry=_overlay_geometry(0))
        self._patch_function(
            engine, "route_pairs_stacked", "sim.engine", geometry=_overlay_geometry(0)
        )
        for attribute in ("prepare", "update"):
            self._patch_method(NumpyBackend, attribute, "sim.backends", geometry=_overlay_geometry(1))
        self._patch_method(
            NumpyBackend, "run", "sim.backends", geometry=_overlay_geometry(1), count=_hop_count
        )
        self._patch_function(churn, "simulate_churn", "sim.churn", geometry=_overlay_geometry(0))
        self._patch_function(adaptive, "run_allocation", "sim.adaptive", count=_allocation_count)
        if service:
            from repro.service.app import SweepService
            from repro.service.jobs import JobManager
            from repro.service.store import ResultStore

            self._patch_method(SweepService, "dispatch", "service.app", dynamic_name=_dispatch_name)
            self._patch_method(JobManager, "submit", "service.jobs")
            self._patch_method(ResultStore, "get_cells", "service.store", count=_lookup_count)
            self._patch_method(ResultStore, "put_cells", "service.store")
        return self

    def uninstall(self) -> None:
        """Restore every replaced attribute (in reverse order of replacement)."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` as JSON."""
        dump_spans(path, self.spans)


def dump_spans(path: str, spans: List[tuple]) -> None:
    """Write spans to ``path`` as strict JSON records, with their self time added."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([dict(zip(FIELDS, span), self=selfs[span[ID]]) for span in spans], handle, allow_nan=False)
        handle.write("\n")


def self_times(spans) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children run inside their parent on the same thread or task, so their
    intervals never overlap and the difference is the time the parent's
    own code ran.  Rounding may leave a difference a few ulps below zero;
    that is reported as zero, anything larger is kept so a bug shows.
    """
    children: Dict[int, float] = {}
    for span in spans:
        children[span[PARENT]] = children.get(span[PARENT], 0.0) + (span[END] - span[START])
    result = {}
    for span in spans:
        own = (span[END] - span[START]) - children.get(span[ID], 0.0)
        result[span[ID]] = 0.0 if -1e-9 < own < 0.0 else own
    return result


def load_spans(path: str, id_offset: int = 0) -> List[tuple]:
    """Read spans written by :meth:`Tracer.dump` back into tuples.

    ``id_offset`` shifts span and parent ids so spans of several processes
    can be merged without collisions (parent 0, "no parent", is kept).
    """
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    for record in records:
        record["id"] += id_offset
        if record["parent"]:
            record["parent"] += id_offset
    return [tuple(record[field] for field in FIELDS) for record in records]

