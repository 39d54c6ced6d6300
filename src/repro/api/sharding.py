"""Horizontal scale-out: :class:`ShardedEngine` over the :mod:`repro.api` façade.

One index over one big input eventually hits a wall: construction is
superlinear in practice, a single suffix array monopolizes one core, and a
single archive must be loaded whole.  :func:`build_sharded_index` splits the
input first — a collection by document, a single uncertain string into
chunks overlapping by ``max_pattern_len - 1`` positions — builds one
ordinary :class:`~repro.api.engine.Engine` per shard through the existing
planner, and merges per-shard answers back into globally correct results:

* **Document sharding** is exact and unrestricted: relevance is a
  per-document quantity, shard-local document identifiers re-base onto
  contiguous global ranges, and the merged listing order (ascending
  document, or descending relevance for ``top_k``) matches the unsharded
  engine's.
* **Chunk sharding** relies on the overlap invariant: any window of at most
  ``max_pattern_len`` characters starting at a position a chunk *owns* lies
  wholly inside that chunk, so every occurrence is found by exactly the
  shard owning its starting position — occurrences reported from a chunk's
  trailing overlap are dropped at merge time (the next shard owns them).
  Patterns longer than ``max_pattern_len`` could straddle a boundary and
  are rejected with :class:`~repro.exceptions.PatternTooLongError`.
  Occurrence probabilities depend only on window content, never on where
  the window sits.

In both modes the reported match set is the unsharded engine's; the
probability / relevance *floats* agree up to floating-point associativity
(the indexes derive values from log-prefix sums whose accumulation origin
shifts with the shard boundary, so the last few ulps can differ — the same
tolerance the index-vs-oracle property tests apply).

Shard answers stay :class:`~repro.core.base.MatchArrays` through the
merge: each shard's ids are offset onto global coordinates (and, for
chunks, masked to the owned range), then concatenated.  Plain threshold
answers are ordered by a stable argsort on position / document; ``top_k``
answers fetch ``k + overlap`` candidates per shard (at most ``overlap`` of
them can be dropped as duplicates, so ``k`` owned candidates always
survive) and are ordered by a stable ``lexsort`` on ``(-value, position)``
cut to ``k``, reproducing the unsharded tie-break.  No record is built.

Evaluation fans out per *window*, not per request: one ``search_many``
call (one :class:`~repro.serving.AsyncSearchService` window) hands its
direct cache misses to :class:`_Window` together, which sends each
persistent worker process one message carrying every request for every
shard it owns (``query_executor="process"``), or submits one task per
shard to a lazily created thread pool (the default), and reads back one
reply each; ``search`` is the window of one.  The window also owns the
deadline, retry, partial-answer and tracing logic: a bad request fails
only itself, a dead worker pool re-dispatches the window's open requests,
and every request of a degraded window names the same failed shards.

Per-shard *construction* can fan out on a process pool (``workers=N`` —
suffix-array and RMQ building is GIL-bound Python + numpy, so real
parallelism needs processes), answering byte-identically to a serial
build.  The merged evaluation sits behind the same
:class:`~repro.api.cache.ResultCache` an unsharded engine uses (the shard
engines run with their caches disabled so counters are not
double-counted), and :meth:`ShardedEngine.save` /
:func:`repro.api.engine.load_index` round-trip the whole ensemble through a
directory of ordinary ``.npz`` shard archives plus a JSON shard manifest.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.base import LISTING, OCCURRENCE, MatchArrays, evaluate_request
from ..exceptions import (
    DeadlineExceededError,
    PatternTooLongError,
    QueryError,
    ValidationError,
    WorkerError,
)
from ..faults import SITE_WORKER_DISPATCH, fire
from ..obs.metrics import MetricSample, MetricsRegistry
from .batch import WindowEvaluator
from .cache import DEFAULT_CACHE_SIZE, ResultCache
from .engine import Engine, QueryEngine, build_index
from .persistence import (
    index_from_payload,
    index_to_payload,
    load_sharded_payload,
    save_sharded_payload,
)
from .shm import export_for_index
from .workers import close_sockets_worker, initialize_worker, query_worker
from .planner import (
    DEFAULT_MAX_PATTERN_LEN,
    IndexInput,
    IndexPlan,
    ShardSpec,
    normalize_input,
    plan_index,
    record_build_observation,
    shard_input,
)
from .requests import SearchRequest

#: Errors that blame the request, not the infrastructure: never retried,
#: never degraded away — they propagate verbatim even in ``partial`` mode.
_REQUEST_ERRORS = (ValidationError, QueryError)


def _pool_killer(pool: ProcessPoolExecutor) -> Callable[[], None]:
    """Crash hook for the ``worker-dispatch`` fault site (process mode).

    SIGKILLs the pool's live worker processes, so an injected ``"crash"``
    manifests exactly like a real worker death: the pool breaks with
    :class:`BrokenProcessPool` and the recovery path has to tear it down
    and rebuild.  Workers spawn lazily on first submit, so a crash fired
    before the pool ever ran a query finds nothing to kill and is a no-op
    (chaos tests warm the pool up first).
    """

    def kill() -> None:
        processes = getattr(pool, "_processes", None) or {}
        for pid in list(processes):
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)

    return kill


def _deadline_from(request: SearchRequest) -> Optional[float]:
    """Monotonic deadline for a budgeted request (``None``: unbounded)."""
    if request.timeout_ms is None:
        return None
    return time.monotonic() + request.timeout_ms / 1000.0


def _remaining_s(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until ``deadline`` (clamped at 0); ``None``: unbounded."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


class _Settled(NamedTuple):
    """How the shards answered one request of a window.

    ``replies`` holds one ``(MatchArrays, eval_ms)`` reply per shard (the
    same shape from a worker process and a shard thread), or ``None`` for
    a shard in ``failed`` (empty unless ``partial=True``).  ``fan_out_ms``
    is the window's fan-out wall-clock, shared by every request settled
    with it.
    """

    replies: List[Any]
    failed: Tuple[int, ...]
    attempt: int
    fan_out_ms: float


class _Attempt:
    """One dispatch of a window's unsettled requests.

    ``slots`` are the window slots sent, in message order; ``jobs`` pairs
    each submitted future with the shard ordinals its reply covers (one
    job per worker message, or per shard thread task).  ``failed`` and
    ``error`` record shards whose dispatch itself failed, and ``pools``
    the worker pools used (``None`` in thread mode), so a dead set can be
    torn down.
    """

    __slots__ = ("number", "slots", "pools", "jobs", "failed", "error")

    def __init__(
        self,
        number: int,
        slots: List[int],
        pools: Optional[List[ProcessPoolExecutor]],
    ) -> None:
        self.number = number
        self.slots = slots
        self.pools = pools
        self.jobs: "List[Tuple[Future[Any], Tuple[int, ...]]]" = []
        self.failed: List[int] = []
        self.error: Optional[Exception] = None

    def fail(self, shards: Sequence[int], error: Exception) -> None:
        """Record shards that failed with an infrastructure error."""
        self.failed.extend(shards)
        if self.error is None:
            self.error = error


#: A window slot's state: open (``None``), answered, or failed.
_Outcome = Union[None, _Settled, Exception]


def _deadline_error(
    request: SearchRequest, where: str, cause: Optional[Exception] = None
) -> DeadlineExceededError:
    error = DeadlineExceededError(
        f"request exceeded its timeout_ms={request.timeout_ms} budget {where}"
    )
    error.__cause__ = cause
    return error


class _Window:
    """The shard fan-out of one window of requests, shared by their results.

    :meth:`ShardedEngine._evaluate_window` builds one over a batch's direct
    cache misses, and each request's evaluator calls :meth:`settle` with
    its slot.  The first call dispatches every request at once — one
    message per worker process, or one task per shard thread — and each
    call waits for the replies only as long as its own request's
    ``timeout_ms`` allows, so a spent budget fails that request alone
    (:class:`DeadlineExceededError`) while the others keep waiting.

    Whichever call sees an attempt complete settles every request in it:

    * a request-blaming error (:data:`_REQUEST_ERRORS`) from any shard
      fails only its own request — never retried, never degraded;
    * otherwise, when every shard answered, the request is done;
    * when a shard failed, the requests still open are re-dispatched
      together (``worker_retries`` times, exponential backoff; a dead
      worker pool is torn down first and rebuilt by the next dispatch),
      and past the retries either degrade to partial answers naming the
      same failed shards (``partial=True``) or all fail with the same
      error.

    Deadlines start when the window is built, which is when its first
    result is touched.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        requests: Sequence[SearchRequest],
        queries: Sequence[SearchRequest],
        rejected: Sequence[Optional[Exception]],
    ) -> None:
        self._engine = engine
        #: The callers' requests (traced, budgeted), and what each shard
        #: answers for them (untraced; ``top_k`` widened by the overlap).
        self.requests = list(requests)
        self.queries = list(queries)
        self._deadlines = [_deadline_from(request) for request in requests]
        self._started = time.perf_counter()
        self._lock = threading.Lock()
        # A request rejected before dispatch starts out failed, never sent.
        self._outcomes: List[_Outcome] = list(rejected)  # guarded-by: _lock
        self._attempt: Optional[_Attempt] = None  # guarded-by: _lock
        self._next_attempt = 0  # guarded-by: _lock
        self._retry_at = 0.0  # guarded-by: _lock

    def settle(self, slot: int) -> _Settled:
        """The shards' answers for ``slot``, or the error that request ends with."""
        while True:
            pause = 0.0
            with self._lock:
                outcome = self._outcomes[slot]
                attempt = self._attempt
                if outcome is None and attempt is None:
                    # A retry waits out its backoff first — slept below,
                    # outside the lock, by a request still waiting for it.
                    pause = self._retry_at - time.monotonic()
                    if pause <= 0:
                        open_slots = [
                            index
                            for index, pending in enumerate(self._outcomes)
                            if pending is None
                        ]
                        attempt = self._attempt = self._engine._dispatch(
                            self, self._next_attempt, open_slots
                        )
            if isinstance(outcome, Exception):
                # A shard's error re-raised verbatim, or one built by _finish.
                raise outcome  # repro-check: allow(exception-taxonomy)
            if outcome is not None:
                return outcome
            if attempt is None:
                time.sleep(pause)
                continue
            for future, shards in attempt.jobs:
                try:
                    # Waits without raising: _finish reads each outcome.
                    future.exception(timeout=_remaining_s(self._deadlines[slot]))
                except FutureTimeoutError:
                    with self._lock:
                        if self._outcomes[slot] is None:
                            self._outcomes[slot] = _deadline_error(
                                self.requests[slot], f"waiting on shard {shards[0]}"
                            )
                    break
            else:
                self._finish(attempt)

    def _finish(self, attempt: _Attempt) -> None:
        """Settle every request of a completed attempt (once per attempt)."""
        engine = self._engine
        with self._lock:
            if self._attempt is not attempt:
                return
            self._attempt = None
            failed = set(attempt.failed)
            error = attempt.error
            broken = isinstance(error, BrokenProcessPool)
            replies: Dict[int, List[Any]] = {}
            for future, shards in attempt.jobs:
                try:
                    rows = future.result()
                except Exception as failure:  # the whole message failed
                    failed.update(shards)
                    broken = broken or isinstance(failure, BrokenProcessPool)
                    if error is None:
                        error = failure
                    continue
                replies.update(zip(shards, rows))
            fan_out_ms = (time.perf_counter() - self._started) * 1000.0
            unsettled: List[Tuple[int, List[Any]]] = []
            for position, slot in enumerate(attempt.slots):
                if self._outcomes[slot] is not None:
                    continue  # its budget ran out while the attempt was in flight
                row = [
                    replies[shard][position] if shard in replies else None
                    for shard in range(engine.shard_count)
                ]
                blamed = next(
                    (reply for reply in row if isinstance(reply, Exception)), None
                )
                if blamed is not None:
                    self._outcomes[slot] = blamed
                elif failed:
                    unsettled.append((slot, row))
                else:
                    self._outcomes[slot] = _Settled(
                        row, (), attempt.number, fan_out_ms
                    )
            if not unsettled:
                return
            if broken and attempt.pools is not None:
                engine._discard_pools(attempt.pools)
            if attempt.number < engine.worker_retries:
                backoff = engine._worker_retry_backoff_s * (2**attempt.number)
                for slot, _ in unsettled:
                    remaining = _remaining_s(self._deadlines[slot])
                    if remaining is not None and backoff >= remaining:
                        self._outcomes[slot] = _deadline_error(
                            self.requests[slot],
                            "while recovering from a shard failure",
                            error,
                        )
                self._retry_at = time.monotonic() + backoff
                self._next_attempt = attempt.number + 1
                return
            if engine.partial:
                for slot, row in unsettled:
                    self._outcomes[slot] = _Settled(
                        row, tuple(sorted(failed)), attempt.number, fan_out_ms
                    )
                engine._partial_answers.inc(len(unsettled))
                return
            assert error is not None  # every failed shard records one
            final: Exception
            if isinstance(error, BrokenProcessPool):
                final = WorkerError(
                    f"shard worker pool died and did not recover within "
                    f"{engine.worker_retries} retry attempt(s)"
                )
                final.__cause__ = error
            else:
                final = error
            for slot, _ in unsettled:
                self._outcomes[slot] = final


def _shutdown_owned_executors(owned: List[Any]) -> None:
    """GC finalizer for a :class:`ShardedEngine`'s fan-out executors.

    Module-level and holding only the shared ``owned`` list (never the
    engine), so :func:`weakref.finalize` can run it once the engine is
    unreachable: an engine dropped without :meth:`ShardedEngine.close`
    must not leak its persistent worker processes until interpreter exit.
    ``wait=False`` keeps garbage collection non-blocking; the workers are
    idle by construction (no queries can be in flight on an unreachable
    engine), so they exit as soon as the shutdown signal drains.
    """
    while owned:
        owned.pop().shutdown(wait=False)


def _release_shared_exports(exports: List[Any]) -> None:
    """Release a :class:`ShardedEngine`'s shared-memory export references.

    Like :func:`_shutdown_owned_executors`, module-level over a shared
    list so the GC finalizer can run it: an engine dropped without
    :meth:`ShardedEngine.close` must not leave ``/dev/shm`` blocks behind.
    Unlinking while worker processes still map a block is safe — POSIX
    keeps the memory until the last mapping closes.
    """
    while exports:
        exports.pop().release()


def _finalize_engine_resources(owned: List[Any], exports: List[Any]) -> None:
    """Combined GC finalizer: shut pools down, then drop shm references."""
    _shutdown_owned_executors(owned)
    _release_shared_exports(exports)


class ShardedEngine(QueryEngine):
    """A fleet of per-shard :class:`Engine` instances behind one façade.

    Construct through :func:`build_sharded_index` (which partitions the
    input and plans the shards) or :meth:`load` (which restores a saved
    ensemble); the constructor accepts already-built shard engines plus the
    :class:`~repro.api.planner.ShardSpec` describing the partition.

    The query surface is :class:`Engine`'s, inherited from the shared
    :class:`~repro.api.engine.QueryEngine` base — ``search`` /
    ``search_many`` / ``query`` / ``top_k`` / ``count`` / ``exists`` with
    identical semantics, caching policy and lazy :class:`SearchResult`
    values — so callers can swap one for the other without touching query
    code.  Only the evaluation differs: it fans out across shards and
    merges (batch dedupe, refinement and the result cache all operate at
    the ensemble level, with per-shard caches disabled).

    ``max_workers`` sizes the fan-out independently of the shard count
    (it must be at least 1).  The default (``None``) is one thread — or,
    with ``query_executor="process"``, one worker process — per shard;
    a smaller value shares workers across shards (process worker ``w``
    owns every shard ``s`` with ``s % max_workers == w``), trading a
    little query parallelism for a bounded process/thread footprint.
    Values larger than the shard count are clamped to it.

    The fan-out works on windows, not requests (see :class:`_Window`):
    one ``search_many`` call costs one message per worker process, or one
    task per shard thread, counted by ``resilience_stats()["dispatches"]``.

    Resilience (see :class:`_Window`): a request's ``timeout_ms`` bounds
    its own wait on the shards
    (:class:`~repro.exceptions.DeadlineExceededError` on exhaustion); a
    killed worker pool is rebuilt and the window's open requests
    re-dispatched (``worker_retries`` times, exponential
    ``worker_retry_backoff_s`` backoff) before
    :class:`~repro.exceptions.WorkerError` surfaces; and ``partial=True``
    opts into degraded :class:`~repro.api.requests.PartialAnswer` results
    — matches from the healthy shards plus the failed ordinals — instead
    of an error when shards stay down after recovery."""

    def __init__(
        self,
        engines: Sequence[Engine],
        spec: ShardSpec,
        plan: IndexPlan,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_ttl_seconds: Optional[float] = None,
        max_workers: Optional[int] = None,
        query_executor: str = "thread",
        partial: bool = False,
        worker_retries: int = 1,
        worker_retry_backoff_s: float = 0.05,
    ) -> None:
        if len(engines) != spec.shard_count:
            raise ValidationError(
                f"spec describes {spec.shard_count} shards but "
                f"{len(engines)} engines were given"
            )
        if spec.mode not in ("documents", "chunks"):
            raise ValidationError(f"unknown shard mode {spec.mode!r}")
        if query_executor not in ("thread", "process"):
            raise ValidationError(
                f"unknown query_executor {query_executor!r}; "
                "expected 'thread' or 'process'"
            )
        if max_workers is not None and max_workers < 1:
            raise ValidationError(
                f"max_workers must be at least 1, got {max_workers}"
            )
        if worker_retries < 0:
            raise ValidationError(
                f"worker_retries must be >= 0, got {worker_retries}"
            )
        if worker_retry_backoff_s < 0:
            raise ValidationError(
                f"worker_retry_backoff_s must be >= 0, got {worker_retry_backoff_s}"
            )
        self._engines = list(engines)
        self._partial = bool(partial)
        self._worker_retries = worker_retries
        self._worker_retry_backoff_s = worker_retry_backoff_s
        self._spec = spec
        self._plan = plan
        self._cache = ResultCache(cache_size, ttl_seconds=cache_ttl_seconds)
        self._max_workers = max_workers
        self._query_executor = query_executor
        self._executor: Optional[ThreadPoolExecutor] = None  # guarded-by: _executor_lock
        # Re-entrant: the metrics registry shares this lock, so counter
        # increments made while the executor lock is held stay re-entrant
        # and resilience_stats() snapshots are tear-free.
        self._executor_lock = threading.RLock()
        self._metrics = MetricsRegistry(lock=self._executor_lock)
        self._recoveries = self._metrics.counter("sharding_pool_recoveries_total")
        self._partial_answers = self._metrics.counter("sharding_partial_answers_total")
        self._dispatches = self._metrics.counter("sharding_dispatches_total")
        # Per-shard persistent worker processes (query_executor="process"),
        # created lazily on the first query.  Shards restored from disk
        # record their archive paths (+ the mmap flag) here so workers
        # re-open — and, with mmap, page-cache-share — the archives instead
        # of receiving pickled indexes.
        self._process_pools: Optional[List[ProcessPoolExecutor]] = None  # guarded-by: _executor_lock
        self._shard_sources: Optional[List[str]] = None
        self._shard_mmap = False
        # Shared-memory exports backing in-RAM shards in process mode:
        # one per shard, acquired lazily at the first pool build and kept
        # across crash rebuilds (the blocks survive a dead pool; only the
        # worker processes are recreated).
        self._shm_exports: Dict[int, Any] = {}  # guarded-by: _executor_lock
        # Every live executor also sits in this list — and every acquired
        # export in the companion list — which the GC finalizer shares: an
        # engine dropped without close() still shuts its worker processes
        # down and releases its shm blocks instead of leaking them.
        self._owned_executors: List[Any] = []  # guarded-by: _executor_lock
        self._owned_exports: List[Any] = []  # guarded-by: _executor_lock
        self._finalizer = weakref.finalize(
            self,
            _finalize_engine_resources,
            self._owned_executors,
            self._owned_exports,
        )

    # -- introspection -----------------------------------------------------------------
    @property
    def shards(self) -> List[Engine]:
        """The per-shard engines, in shard order."""
        return list(self._engines)

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return self._spec.shard_count

    @property
    def spec(self) -> ShardSpec:
        """The partition this engine was built over."""
        return self._spec

    @property
    def plan(self) -> IndexPlan:
        """The plan of the full (unsharded) input that fixed the index kind."""
        return self._plan

    @property
    def kind(self) -> str:
        """Index kind shared by every shard."""
        return self._plan.kind

    @property
    def tau_min(self) -> float:
        """Smallest query threshold the ensemble supports."""
        return max(engine.tau_min for engine in self._engines)

    @property
    def is_listing(self) -> bool:
        """Whether results carry ListingMatch (documents) instead of Occurrence."""
        return self.kind == "listing"

    @property
    def max_pattern_len(self) -> Optional[int]:
        """Longest supported pattern (``None`` means unlimited)."""
        return self._spec.max_pattern_len

    @property
    def cache(self) -> ResultCache:
        """The ensemble-level LRU result cache."""
        return self._cache

    @property
    def query_executor(self) -> str:
        """How per-shard evaluation fans out: ``"thread"`` or ``"process"``."""
        return self._query_executor

    @property
    def partial(self) -> bool:
        """Whether shard failures degrade to partial answers instead of raising."""
        return self._partial

    @property
    def worker_retries(self) -> int:
        """Full re-dispatch attempts after a failed fan-out (0 disables retry)."""
        return self._worker_retries

    def describe(self) -> dict:
        """Summary: kind, sharding layout, cache counters, space, shards."""
        return {
            "kind": self.kind,
            "reason": self._plan.reason,
            "tau_min": self.tau_min,
            "plan": {
                "estimate_error": self._plan.profile.get("estimate_error"),
                "calibration": self._plan.profile.get("calibration"),
            },
            "sharding": {
                "mode": self._spec.mode,
                "shard_count": self._spec.shard_count,
                "overlap": self._spec.overlap,
                "max_pattern_len": self._spec.max_pattern_len,
                "query_executor": self._query_executor,
                "max_workers": self._fanout_workers(),
            },
            "resilience": self.resilience_stats(),
            "cache": self._cache.stats(),
            "space_report": self.space_report(),
            "shards": [
                {"kind": engine.kind, "nbytes": engine.nbytes()}
                for engine in self._engines
            ],
        }

    def resilience_stats(self) -> dict:
        """Recovery configuration and counters (surfaced by :meth:`describe`).

        Snapshotted under the executor lock (shared with the metrics
        registry), so the counters are mutually consistent.
        ``dispatches`` counts messages sent to worker processes plus tasks
        submitted to shard threads — one per worker (or shard) per
        window attempt.
        """
        with self._executor_lock:
            recoveries = self._recoveries.value
            partial_answers = self._partial_answers.value
            dispatches = self._dispatches.value
        return {
            "partial": self._partial,
            "worker_retries": self._worker_retries,
            "worker_retry_backoff_s": self._worker_retry_backoff_s,
            "pool_recoveries": recoveries,
            "partial_answers": partial_answers,
            "dispatches": dispatches,
        }

    def metrics_samples(self) -> List[MetricSample]:
        """Every metric series this engine owns (resilience + cache)."""
        return self._metrics.collect() + self._cache.metrics.collect()

    def space_report(self) -> dict:
        """Total footprint plus the per-shard totals."""
        totals = [engine.nbytes() for engine in self._engines]
        return {"total": sum(totals), "shard_totals": totals}

    def nbytes(self) -> int:
        """Total approximate memory footprint across all shards."""
        return sum(engine.nbytes() for engine in self._engines)

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(kind={self.kind!r}, shards={self.shard_count}, "
            f"mode={self._spec.mode!r}, nbytes={self.nbytes()})"
        )

    # -- fan-out (threads or worker processes) -----------------------------------------
    def _fanout_workers(self) -> int:
        """Width of the query fan-out (threads or worker processes).

        Defaults to one worker per shard; ``max_workers`` caps it and is
        clamped to the shard count.  In process mode a worker then owns
        every shard ``s`` with ``s % workers == worker``, so memory-bound
        deployments can serve many shards from a few processes —
        especially with mmap-loaded archives, where the extra shards cost
        page-cache references, not copies.
        """
        return max(1, min(self._max_workers or self.shard_count, self.shard_count))

    def _thread_pool(self) -> ThreadPoolExecutor:
        """The lazily created shard fan-out thread pool."""
        with self._executor_lock:
            executor = self._executor
            if executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=self._fanout_workers(),
                    thread_name_prefix="repro-shard",
                )
                self._executor = executor
                self._owned_executors.append(executor)
            return executor

    def _worker_spec(self, shard: int) -> Any:
        """Initialization payload for one shard (archive path or shm block).

        Disk-backed shards ship their archive path; in-RAM shards ship a
        shared-memory spec (block name + array layout, O(array count)
        pickled bytes) backed by an export the engine holds a reference
        to.  Callers hold ``_executor_lock`` (the export table is shared
        engine state).
        """
        if self._shard_sources is not None:
            return ("archive", self._shard_sources[shard], self._shard_mmap)
        with self._executor_lock:  # re-entrant under _ensure_process_pools
            export = self._shm_exports.get(shard)
            if export is None or export.closed:
                export = export_for_index(self._engines[shard].index)
                self._shm_exports[shard] = export
                self._owned_exports.append(export)
            return export.spec()

    def _ensure_process_pools(self) -> List[ProcessPoolExecutor]:
        """Lazily start the persistent worker processes (one pool each).

        Worker ``w`` is initialized exactly once with *every* shard it
        owns (archive path + mmap flag when the engine was loaded from
        disk, the shard's shared-memory spec otherwise — block name plus
        array layout, never the arrays; see :mod:`repro.api.shm`) and
        keeps them for the engine's lifetime — a window only ships one
        ``(shards, queries, trace_ids)`` message per worker out and
        ndarray payloads back.  Single-worker pools keep the shard →
        process assignment deterministic, so each shard is materialized in
        exactly one process.  The shm exports outlive any one pool: a crashed pool's
        rebuild re-attaches to the same live blocks.
        """
        with self._executor_lock:
            pools = self._process_pools
            if pools is None:
                workers = self._fanout_workers()
                pools = []
                try:
                    for worker in range(workers):
                        specs = {
                            shard: self._worker_spec(shard)
                            for shard in range(self.shard_count)
                            if shard % workers == worker
                        }
                        pools.append(
                            ProcessPoolExecutor(
                                max_workers=1,
                                initializer=initialize_worker,
                                initargs=(specs,),
                            )
                        )
                except BaseException:
                    # Construction failed midway: the pools already started
                    # would otherwise leak their worker processes (nothing
                    # references them once this raises).
                    for pool in pools:
                        pool.shutdown(wait=True)
                    raise
                self._process_pools = pools
                self._owned_executors.extend(pools)
            return pools

    def _shard_task(
        self, shard: int, queries: Sequence[SearchRequest]
    ) -> List[List[Any]]:
        """Answer a window's queries on one in-process shard (thread mode).

        The thread-mode twin of :func:`~repro.api.workers.query_worker`,
        with the same evaluation (:func:`~repro.core.base.evaluate_request`)
        and reply shape (one reply list per shard, here one shard): a
        ``(MatchArrays, eval_ms)`` reply per query, or the request-blaming
        error in its place.  The parent turns ``eval_ms`` into the
        request's ``shard`` span.
        """
        index = self._engines[shard].index
        replies: List[Any] = []
        for query in queries:
            start = time.perf_counter()
            try:
                answer = evaluate_request(index, query.pattern, query.tau, query.top_k)
            except _REQUEST_ERRORS as error:
                replies.append(error)
                continue
            replies.append((answer, (time.perf_counter() - start) * 1000.0))
        return [replies]

    def _discard_pools(self, dead: List[ProcessPoolExecutor]) -> None:
        """Tear down a broken worker-pool set so the next attempt rebuilds it.

        Identity-checked under the executor lock: with concurrent queries
        racing the same :class:`BrokenProcessPool`, only the first caller
        clears the shared reference (and counts the recovery); every caller
        shuts the dead pools down, which is idempotent.  The rebuild itself
        happens in :meth:`_ensure_process_pools` on the retry, from the
        retained archive paths / shard payloads.
        """
        with self._executor_lock:
            if self._process_pools is dead:
                self._process_pools = None
                self._owned_executors[:] = [
                    executor
                    for executor in self._owned_executors
                    if executor not in dead
                ]
                self._recoveries.inc()
        for broken in dead:
            broken.shutdown(wait=False)

    def _dispatch(
        self, window: _Window, number: int, slots: List[int]
    ) -> _Attempt:
        """Send a window's open requests to every shard: one attempt.

        The ``worker-dispatch`` fault site fires once per shard, in shard
        order, from this (single) dispatching thread, so a plan's trigger
        ordinals line up with shard ordinals; a shard whose firing fails
        sits the attempt out.  Process mode then sends each worker one
        message carrying every request for every live shard it owns; thread
        mode submits one task per live shard.  Each message or task counts
        one dispatch.
        """
        pools = (
            self._ensure_process_pools()
            if self._query_executor == "process"
            else None
        )
        attempt = _Attempt(number, slots, pools)
        queries = [window.queries[slot] for slot in slots]
        live: List[int] = []
        for shard in range(self.shard_count):
            try:
                # No crash hook in thread mode — a "crash" spec degrades to
                # its error form (there is no process to kill).
                crash = None if pools is None else _pool_killer(pools[shard % len(pools)])
                fire(SITE_WORKER_DISPATCH, crash=crash)
            except _REQUEST_ERRORS:
                raise
            except Exception as error:
                attempt.fail((shard,), error)
                continue
            live.append(shard)
        if pools is not None:
            workers = len(pools)
            # Tracing crosses the process boundary as plain payload data —
            # trace_id strings inside the message — never the live Trace
            # objects; each worker eval_ms comes back inside its reply.
            message_queries = [
                (query.pattern, query.tau, query.top_k) for query in queries
            ]
            traces = [window.requests[slot].trace for slot in slots]
            trace_ids = [None if trace is None else trace.trace_id for trace in traces]
            for worker in range(workers):
                owned = tuple(shard for shard in live if shard % workers == worker)
                if not owned:
                    continue
                try:
                    future = pools[worker].submit(
                        query_worker, (owned, message_queries, trace_ids)
                    )
                except Exception as error:
                    attempt.fail(owned, error)
                    continue
                attempt.jobs.append((future, owned))
                self._dispatches.inc()
        else:
            executor = self._thread_pool()
            for shard in live:
                try:
                    task = executor.submit(self._shard_task, shard, queries)
                except Exception as error:
                    attempt.fail((shard,), error)
                    continue
                attempt.jobs.append((task, (shard,)))
                self._dispatches.inc()
        return attempt

    def close(self) -> None:
        """Shut down the fan-out executors (idempotent; queries recreate them).

        Process-mode engines hold persistent worker processes; a serving
        deployment swapping engines (see ``ReplicaSet.swap``) must call
        this on the drained engine or the workers outlive their index.
        Engines dropped without ``close()`` are covered by a GC finalizer,
        but an explicit close is deterministic and waits for the workers.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
            pools, self._process_pools = self._process_pools, None
            self._owned_executors.clear()  # the finalizer has nothing left to do
            exports = list(self._owned_exports)
            self._owned_exports.clear()
            self._shm_exports.clear()
        if executor is not None:
            executor.shutdown(wait=True)
        if pools is not None:
            for pool in pools:
                pool.shutdown(wait=True)
        # After the workers are gone: drop the engine's shm references so
        # the last owner unlinks the blocks (replicas sharing an export
        # keep it alive through their own references).
        for export in exports:
            export.release()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- merged evaluation ---------------------------------------------------------------
    def _translate(self, shard: int, answer: MatchArrays) -> Tuple[np.ndarray, np.ndarray]:
        """A shard answer's global ids and values, overlap dropped.

        Values depend only on window content, never on where the window
        sits, so only the ids move.
        """
        spec = self._spec
        ids = answer.ids + spec.offsets[shard]
        if spec.mode == "documents":
            return ids, answer.values
        # Occurrences starting in the trailing overlap belong to (and are
        # re-found by) the next shard — drop them here.
        owned = ids < spec.owned_ends[shard]
        return ids[owned], answer.values[owned]

    def _check_pattern(self, pattern: str) -> None:
        limit = self._spec.max_pattern_len
        if limit is not None and len(pattern) > limit:
            raise PatternTooLongError(
                f"pattern of length {len(pattern)} exceeds this sharded "
                f"engine's max_pattern_len={limit}; chunks overlap by "
                f"{self._spec.overlap} positions, so longer patterns could "
                "straddle a chunk boundary — rebuild with a larger "
                "max_pattern_len to search longer patterns"
            )

    def _check_request(self, request: SearchRequest) -> None:
        """Reject patterns the chunk overlap cannot answer (``plan`` span)."""
        trace = request.trace
        if trace is None:
            self._check_pattern(request.pattern)
            return
        with trace.span(
            "plan", parent="evaluate", kind=self.kind, shards=self.shard_count
        ):
            self._check_pattern(request.pattern)

    def _shard_query(self, request: SearchRequest) -> SearchRequest:
        """What each shard answers for ``request``: untraced, ``top_k`` widened.

        Fetch k + overlap per chunk shard: the ownership filter can drop
        at most ``overlap`` matches (one occurrence per overlap position),
        so at least k owned candidates survive — and any member of the
        global top-k is necessarily in its own shard's top-(k + overlap).
        The budget stays with the window, which waits on the shards.
        """
        fetch = request.top_k
        if fetch is not None and self._spec.mode == "chunks":
            fetch += self._spec.overlap
        if request.trace is None and fetch == request.top_k:
            return request
        return SearchRequest(request.pattern, tau=request.tau, top_k=fetch)

    def _window_evaluator(self) -> WindowEvaluator:
        return self._evaluate_window

    def _evaluate_window(
        self, requests: Sequence[SearchRequest]
    ) -> List[Callable[[], MatchArrays]]:
        """Fan a window of requests out together; one lazy evaluator each.

        A pattern longer than ``max_pattern_len`` fails on its own and is
        never sent.  The rest share one :class:`_Window`: the first
        evaluator called dispatches them all, each evaluator then waits
        for (and merges) only its own request's answer.
        """
        rejected: List[Optional[Exception]] = []
        for request in requests:
            try:
                self._check_request(request)
            except PatternTooLongError as error:
                rejected.append(error)
            else:
                rejected.append(None)
        queries = [self._shard_query(request) for request in requests]
        window = _Window(self, requests, queries, rejected)
        return [partial(self._merge, window, slot) for slot in range(len(requests))]

    def _evaluate(self, request: SearchRequest) -> MatchArrays:
        """One request: the window-of-one case of :meth:`_evaluate_window`."""
        (evaluate,) = self._evaluate_window([request])
        return evaluate()

    def _merge(self, window: _Window, slot: int) -> MatchArrays:
        """One window request's answer: its shard replies merged.

        A traced request records the window's shared ``fan_out`` span, one
        ``shard`` span per shard with that shard's own evaluation time for
        this request, and its ``merge`` span.
        """
        settled = window.settle(slot)
        request = window.requests[slot]
        trace = request.trace
        if trace is not None:
            trace.add(
                "fan_out",
                settled.fan_out_ms,
                parent="evaluate",
                executor=self._query_executor,
                shards=self.shard_count,
                requests=len(window.requests),
                failed_shards=list(settled.failed),
            )
        ids: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for shard, reply in enumerate(settled.replies):
            if reply is None:  # a failed shard of a partial answer
                continue
            answer, eval_ms = reply
            matches = 0
            if len(answer):  # selective queries leave most shards empty
                shard_ids, shard_values = self._translate(shard, answer)
                ids.append(shard_ids)
                values.append(shard_values)
                matches = len(shard_ids)
            if trace is not None:
                trace.add(
                    "shard",
                    float(eval_ms),
                    parent="fan_out",
                    shard=shard,
                    attempt=settled.attempt,
                    executor=self._query_executor,
                    matches=matches,
                )
        if trace is None:
            return self._merge_answers(request, ids, values, settled.failed)
        with trace.span("merge", parent="evaluate") as meta:
            merged = self._merge_answers(request, ids, values, settled.failed)
            meta["matches"] = len(merged)
        return merged

    def _merge_answers(
        self,
        request: SearchRequest,
        ids: List[np.ndarray],
        values: List[np.ndarray],
        failed: Tuple[int, ...],
    ) -> MatchArrays:
        """The shards' translated arrays as one answer, in answer order.

        Owned id ranges are disjoint, so sorting the concatenation stably
        reproduces the unsharded order: by id for a plain answer, by
        ``(-value, id)`` cut to ``top_k`` for a ranked one (ties keep shard
        order, as a merge of the per-shard rankings would).
        """
        kind = LISTING if self.is_listing else OCCURRENCE
        if not ids:
            return MatchArrays(kind, failed_shards=failed)
        merged = MatchArrays(kind, np.concatenate(ids), np.concatenate(values), failed)
        if request.top_k is None:
            return merged.by_id()
        return merged.top(request.top_k)

    def _refine_allowed(self) -> bool:
        # Merged listing answers equal the unsharded engine's, so the
        # refinement argument of :mod:`repro.api.batch` carries over
        # unchanged: exact on uncorrelated listing ensembles only.
        return self.is_listing and not any(
            engine.index.needs_verification for engine in self._engines
        )

    # -- persistence -------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Serialize the ensemble to a directory of shard archives + manifest."""
        return save_sharded_payload(self._engines, self._spec, self._plan, path)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_ttl_seconds: Optional[float] = None,
        max_workers: Optional[int] = None,
        mmap: bool = False,
        query_executor: str = "thread",
        partial: bool = False,
        worker_retries: int = 1,
        worker_retry_backoff_s: float = 0.05,
    ) -> "ShardedEngine":
        """Restore an ensemble saved with :meth:`save`.

        ``mmap=True`` opens every shard archive memory-mapped; with
        ``query_executor="process"`` the per-shard worker processes map the
        same archives themselves, so however many workers serve the index,
        the heavy arrays exist once in physical memory.  Prefer the two
        flags *together*: in process mode the parent's shard copies only
        back introspection (``nbytes`` / ``describe``) and the thread
        fallback, so loading them eagerly onto the heap (``mmap=False``)
        holds the index roughly twice.
        """
        archive = load_sharded_payload(path, mmap=mmap)
        engines = [
            Engine(index, shard_plan, cache_size=0)
            for index, shard_plan in archive.payloads
        ]
        engine = cls(
            engines,
            archive.spec,
            archive.plan,
            cache_size=cache_size,
            cache_ttl_seconds=cache_ttl_seconds,
            max_workers=max_workers,
            query_executor=query_executor,
            partial=partial,
            worker_retries=worker_retries,
            worker_retry_backoff_s=worker_retry_backoff_s,
        )
        engine._shard_sources = [str(shard_path) for shard_path in archive.shard_paths]
        engine._shard_mmap = mmap
        return engine


def _build_shard_payload(
    arguments: Tuple[IndexInput, Dict[str, Any]]
) -> Tuple[Any, IndexPlan]:
    """Build one shard's index in a worker process.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.  Returns
    ``(payload, plan)`` — the shard's
    :class:`~repro.payload.IndexPayload`, the same currency the archives
    and query workers use — instead of the engine or the live index: the
    engine's result cache holds a ``threading.Lock`` that cannot cross the
    process boundary, and the payload ships as flat ndarrays with no
    Python object graph.  The parent rebuilds the index with
    ``from_payload`` and wraps it in a cache-less :class:`Engine`, exactly
    as :meth:`ShardedEngine.load` does.
    """
    part, build_kwargs = arguments
    engine = build_index(part, cache_size=0, **build_kwargs)
    return index_to_payload(engine.index), engine.plan


def build_sharded_index(
    data: IndexInput,
    *,
    shards: int,
    tau_min: Optional[float] = None,
    kind: str = "auto",
    max_pattern_len: int = DEFAULT_MAX_PATTERN_LEN,
    cache_size: int = DEFAULT_CACHE_SIZE,
    cache_ttl_seconds: Optional[float] = None,
    max_workers: Optional[int] = None,
    workers: Optional[int] = None,
    query_executor: str = "thread",
    partial: bool = False,
    worker_retries: int = 1,
    worker_retry_backoff_s: float = 0.05,
    space_budget_bytes: Optional[int] = None,
    epsilon: Optional[float] = None,
    metric: str = "max",
    compact: bool = False,
    **options: Any,
) -> ShardedEngine:
    """Partition ``data``, build one engine per shard, wrap them as one.

    The index kind is planned **once**, on the full input (honouring the
    same ``kind`` / ``space_budget_bytes`` / ``epsilon`` knobs as
    :func:`~repro.api.engine.build_index`), then forced onto every shard —
    a chunk of a general string could otherwise plan to a different
    variant than its siblings and change answer semantics mid-merge.

    ``shards`` is clamped to the number of documents (collections) or
    positions (single strings).  ``max_pattern_len`` fixes the chunk
    overlap (``max_pattern_len - 1``) and the longest pattern a
    chunk-sharded engine accepts; document-sharded engines ignore it.

    ``workers`` parallelizes *construction*: with ``workers > 1`` the
    per-shard suffix array / RMQ builds fan out on a
    :class:`ProcessPoolExecutor` (suffix-array construction is pure-Python
    + numpy, so threads would serialize on the GIL); shard builds ship
    ``(payload, plan)`` pairs — flat :class:`~repro.payload.IndexPayload`
    arrays, not pickled index objects — back to the parent.  The
    partition, the plan and the per-shard build arguments are identical
    to the serial path, so the resulting ensemble answers queries
    byte-identically to a ``workers=1`` build.

    ``query_executor`` selects the *query* fan-out: ``"thread"`` (default)
    shares one thread pool, ``"process"`` starts persistent worker
    processes — each initialized once with the shards it owns (payloads
    in memory, archive paths from disk) and answering via ndarray
    payloads — buying real parallelism for the GIL-bound Python portions
    of the query path at the cost of per-request IPC.  Both modes answer
    byte-identically.  ``max_workers`` sizes the query fan-out in either
    mode and is independent of ``workers``; by default one thread /
    process per shard, and smaller values share workers across shards
    (see :class:`ShardedEngine`).

    ``compact=True`` applies the same dtype-minimized payload round-trip
    as :func:`~repro.api.engine.build_index` to every shard — narrow
    in-RAM arrays, byte-identical answers — and composes with both query
    executors (the shared-memory export ships whatever dtypes the shard
    arrays carry).

    ``partial``, ``worker_retries`` and ``worker_retry_backoff_s``
    configure the resilience envelope — crash recovery, deadlines and
    graceful degradation — described on :class:`ShardedEngine`.

    Examples
    --------
    >>> from repro import build_sharded_index
    >>> engine = build_sharded_index("banana" * 20, shards=3, max_pattern_len=6)
    >>> engine.shard_count
    3
    >>> engine.count("anan", tau=0.5)  # one occurrence inside each "banana"
    20
    """
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    normalized = normalize_input(data)
    plan = plan_index(
        normalized,
        tau_min=tau_min,
        kind=kind,
        space_budget_bytes=space_budget_bytes,
        epsilon=epsilon,
        metric=metric,
        **options,
    )
    spec, parts = shard_input(normalized, shards, max_pattern_len=max_pattern_len)
    build_kwargs: Dict[str, Any] = dict(
        tau_min=tau_min,
        kind=plan.kind,
        epsilon=epsilon,
        metric=metric,
        compact=compact,
        **options,
    )
    if workers is not None and workers > 1 and len(parts) > 1:
        # close_sockets_worker: a build launched from a live serving
        # process must not trap its open connections in the forked builders.
        with ProcessPoolExecutor(
            max_workers=min(workers, len(parts)),
            initializer=close_sockets_worker,
        ) as pool:
            payloads = list(
                pool.map(_build_shard_payload, [(part, build_kwargs) for part in parts])
            )
        engines = [
            # Rebuild from the shipped payloads; the ensemble cache fronts
            # queries, so the per-shard engines stay cache-less.
            Engine(index_from_payload(payload), shard_plan, cache_size=0)
            for payload, shard_plan in payloads
        ]
    else:
        engines = [
            build_index(part, cache_size=0, **build_kwargs) for part in parts
        ]
    # Planner feedback on the ensemble plan: measured total vs the full-input
    # estimate (chunk overlap makes the sharded total slightly larger).
    record_build_observation(plan, sum(engine.nbytes() for engine in engines))
    return ShardedEngine(
        engines,
        spec,
        plan,
        cache_size=cache_size,
        cache_ttl_seconds=cache_ttl_seconds,
        max_workers=max_workers,
        query_executor=query_executor,
        partial=partial,
        worker_retries=worker_retries,
        worker_retry_backoff_s=worker_retry_backoff_s,
    )
