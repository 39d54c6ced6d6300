"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError` so applications can catch
everything raised by this package with a single ``except`` clause while still
being able to distinguish validation problems from query-time problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied data fails validation.

    Examples: a position distribution whose probabilities do not sum to one,
    a probability outside ``[0, 1]``, or an empty uncertain string.
    """


class ThresholdError(ValidationError):
    """Raised when a probability threshold is outside its legal range.

    Query thresholds must satisfy ``tau_min <= tau <= 1`` where ``tau_min``
    is the construction-time threshold of the index being queried.
    """


class AlphabetError(ValidationError):
    """Raised when a character is not part of the expected alphabet."""


class QueryError(ReproError):
    """Raised when a query cannot be executed against an index."""


class PatternTooLongError(QueryError):
    """Raised when a pattern exceeds what an engine was configured to answer.

    The only raiser is a chunk-sharded engine, for a pattern longer than
    its ``max_pattern_len`` (such a pattern could straddle a chunk
    boundary).  Every index answers a pattern of any length: a long one
    without a blocking structure scans its suffix range.
    """


class ConstructionError(ReproError):
    """Raised when an index cannot be constructed from the given input."""


class ServiceOverloadedError(ReproError):
    """Raised when a serving front end rejects a request at admission.

    The :class:`repro.serving.AsyncSearchService` bounds its pending-request
    queue; once the bound is reached, new submissions fail fast with this
    error instead of growing the queue (and the tail latency) without limit.
    Callers should back off and retry.
    """


class NoHealthyReplicaError(ReproError):
    """Raised when a replica set has no healthy replica left to dispatch to.

    The :class:`repro.serving.ReplicaSet` tracks per-replica health and
    fails over around faulted replicas; once every replica has been marked
    unhealthy the set fails fast with this error (the HTTP tier maps it to
    a 503) instead of queueing work no copy of the index can answer.
    """


class ServiceStoppedError(ReproError, RuntimeError):
    """Raised when a request reaches a serving front end after ``stop()``.

    Derives from :class:`RuntimeError` as well so callers that treat a
    stopped service as a generic lifecycle error keep working; new code
    should catch :class:`ReproError` (or this class) instead.
    """


class WorkerError(ReproError, RuntimeError):
    """Raised when a shard worker process violates an internal invariant.

    Example: a query routed to a worker for a shard it does not own — or a
    worker pool that died (``BrokenProcessPool``) and could not be revived
    by the sharded engine's crash-recovery retry.  The class pickles across
    the process boundary, so the parent observes the same exception type
    the worker raised.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """Raised when a request outlives its end-to-end ``timeout_ms`` budget.

    Set :attr:`repro.api.requests.SearchRequest.timeout_ms` (or the
    ``timeout_ms`` wire parameter) to bound how long a caller waits: the
    serving tier stops waiting once the budget is spent, and the sharded
    engine stops waiting on its worker futures once the remaining budget
    runs out.  Derives from :class:`TimeoutError` as well, so generic
    timeout handling keeps working; the HTTP tier maps it to 504.
    """


class DrainTimeoutError(ReproError, TimeoutError):
    """Raised when a replica swap cannot drain in-flight batches in time.

    :meth:`repro.serving.ReplicaSet.swap` waits ``drain_timeout`` seconds
    for each retired replica's in-flight batches to finish before closing
    its engine; if they do not, the swap surfaces this instead of closing
    an engine mid-query.  TimeoutError-compatible; the HTTP tier maps it
    to 504 rather than letting it fall through to a generic 500.
    """


class InjectedFaultError(ReproError):
    """The error the fault-injection framework raises by default.

    Only ever raised on purpose, by an active :class:`repro.faults.FaultPlan`
    whose spec did not name a different taxonomy class — so a test (or an
    operator reading logs) can always tell an injected fault from an
    organic one.
    """


class CorrelationError(ValidationError):
    """Raised when a correlation rule is inconsistent with its string."""
