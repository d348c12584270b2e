"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Errors are raised eagerly on invalid input (bad
probabilities, malformed identifiers, unknown geometries) rather than being
silently coerced.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class InvalidParameterError(ReproError, ValueError):
    """A numeric parameter is outside of its valid domain.

    Examples: a failure probability outside ``[0, 1]``, a non-positive
    identifier length, or a hop count larger than the identifier length.
    """


class UnknownGeometryError(ReproError, KeyError):
    """A routing geometry name was not found in the registry."""


class RoutingError(ReproError):
    """A DHT simulator was asked to route under impossible conditions.

    This is *not* raised for ordinary routing failures caused by failed
    nodes (those are reported through
    :class:`repro.dht.routing.RouteResult`); it indicates misuse such as
    routing from or to a node that does not exist in the overlay.
    """


class TopologyError(ReproError):
    """An overlay topology is malformed or inconsistent.

    Raised, for instance, when a routing table references an identifier
    outside the identifier space or when an overlay is built with
    incompatible parameters.
    """


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class ResultStoreError(ReproError):
    """The persistent result store could not be opened or used.

    Raised by :class:`repro.service.store.ResultStore` when its backing
    file cannot be created, read or written (missing directory, read-only
    filesystem, schema mismatch).  The CLI turns this into a clean error
    message and a non-zero exit code instead of a traceback.
    """


class ServiceError(ReproError):
    """The sweep service was asked to do something it cannot.

    Raised by the job layer (:mod:`repro.service.jobs`) for malformed
    submissions and lifecycle misuse (e.g. fetching results of an unknown
    job); the HTTP layer maps it onto 4xx responses.
    """


class BackpressureError(ServiceError):
    """A submission was refused to protect the service, not because it was
    malformed.

    Carries the HTTP status the service should answer with and a
    ``Retry-After`` hint (seconds); see the two concrete subclasses.
    """

    #: HTTP status code the service answers with.
    status = 503

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(round(retry_after)))


class ServiceOverloadedError(BackpressureError):
    """The per-instance submission rate limit was exceeded (HTTP 429).

    The client is sending faster than the configured
    ``--rate-limit``; back off ``retry_after`` seconds and resubmit.
    """

    status = 429


class ServiceUnavailableError(BackpressureError):
    """The service cannot accept the submission right now (HTTP 503).

    Raised when the bounded submission queue is full or the instance is
    draining for shutdown; the work itself may be perfectly valid.
    """

    status = 503


class ConvergenceError(ReproError):
    """A numerical convergence diagnostic could not reach a verdict."""
