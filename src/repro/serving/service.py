"""The asyncio coalescing front end: :class:`AsyncSearchService`.

``Engine.search_many`` amortizes work *within one caller's batch*: identical
requests share an evaluation, and same-pattern requests at different
thresholds share one traversal (listing engines).  A serving deployment
rarely receives batches — it receives a stream of single requests from many
concurrent clients.  :class:`AsyncSearchService` turns that stream back into
batches: submissions collect inside a **micro-batch window** (up to
``max_wait_ms`` milliseconds or ``max_batch`` requests, whichever closes
first), each window is deduplicated and funnelled through **one**
``search_many`` call, and the results fan back out to the per-caller
futures.  The batch amortizations therefore apply *across users*: a burst
of clients asking popular patterns costs one evaluation per distinct
request, and same-pattern threshold refinement spans the whole window.

The service is deliberately small and explicit:

* **Admission control** — at most ``max_pending`` requests may be queued
  *or in flight* (popped into a window whose evaluation has not resolved
  their futures yet) at once; beyond that, :meth:`submit` fails fast with
  :class:`~repro.exceptions.ServiceOverloadedError` instead of growing
  the queue without bound.  Counting in-flight work matters: requests
  leave the queue the moment a window closes around them but keep
  consuming service capacity until the batch evaluation resolves them, so
  a queue-only bound would admit up to ``max_pending + max_batch``
  requests during a burst.  Load-shedding at admission keeps the tail
  latency of accepted requests bounded by ``max_wait_ms`` plus one batch
  evaluation.
* **Engine offloading** — the (synchronous, GIL-releasing-at-best) engine
  work runs on an executor thread via ``loop.run_in_executor``, so the
  event loop keeps accepting submissions while a batch evaluates.  Any
  engine speaking the :class:`~repro.api.engine.QueryEngine` vocabulary
  works: a plain :class:`~repro.api.engine.Engine`, a
  :class:`~repro.api.sharding.ShardedEngine` with thread or process
  fan-out, over heap-loaded or memory-mapped arrays.
* **Observability** — every counter lives in a
  :class:`~repro.obs.metrics.MetricsRegistry` sharing one re-entrant
  lock, so :meth:`stats` (the legacy dict view) and :meth:`metrics_samples`
  (the ``/metrics`` exposition feed) each take one consistent snapshot —
  no torn reads between ``completed`` and the latency histogram.  Traced
  requests (``SearchRequest.trace``) additionally receive ``window_wait``
  and ``evaluate`` spans, and dedupe twins adopt the primary evaluation's
  engine spans tagged ``dedupe_shared``.
* **Engine swap** — :meth:`replace_engine` atomically points new windows
  at a different engine (e.g. a freshly reloaded index).  In-flight
  windows finish against the engine they started with; result-cache
  staleness is the engine's concern (see ``Engine.replace_index`` and the
  cache's generation tags).

The service must be used from a running event loop.  Typical shape::

    engine = load_index("indexes/corpus", mmap=True, query_executor="process")
    async with AsyncSearchService(engine, max_wait_ms=2.0) as service:
        results = await asyncio.gather(
            *(service.submit(p, tau=0.3) for p in patterns)
        )
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..api.requests import SearchRequest, SearchResult
from ..exceptions import (
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ValidationError,
)
from ..faults import SITE_BATCH_FLUSH, fire
from ..obs.metrics import MetricSample, MetricsRegistry

#: Dedupe key inside one window: requests equal on these fields share one
#: evaluation and one :class:`SearchResult`.
_WindowKey = Tuple[str, Optional[float], Optional[int]]


class _Pending:
    """One submitted request waiting for (or riding in) a window.

    ``deadline`` is the monotonic instant the request's ``timeout_ms``
    budget runs out (``None``: unbounded) — computed once at submission so
    queueing time, window wait and evaluation all spend the same budget.
    """

    __slots__ = ("request", "future", "enqueued_at", "deadline")

    def __init__(
        self,
        request: SearchRequest,
        future: "asyncio.Future",
        enqueued_at: float,
        deadline: Optional[float] = None,
    ) -> None:
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline = deadline


class AsyncSearchService:
    """Coalesce concurrent ``submit`` calls into batched engine evaluations.

    Parameters
    ----------
    engine:
        Any engine speaking the unified query vocabulary (``search_many``).
    max_wait_ms:
        How long a window stays open for more arrivals after its first
        request, in milliseconds.  ``0`` dispatches whatever is queued
        immediately (pure dedupe, no added latency).
    max_batch:
        Hard cap on requests per window; a full window dispatches without
        waiting out ``max_wait_ms``.
    max_pending:
        Admission bound: maximum requests admitted (queued plus in-flight
        inside a dispatched window) at once.  Submissions beyond it raise
        :class:`~repro.exceptions.ServiceOverloadedError`.
    executor:
        Optional :class:`concurrent.futures.Executor` for the engine work;
        ``None`` uses the event loop's default thread pool.
    """

    def __init__(
        self,
        engine: Any,
        *,
        max_wait_ms: float = 2.0,
        max_batch: int = 256,
        max_pending: int = 4096,
        executor: Any = None,
    ) -> None:
        if max_wait_ms < 0:
            raise ValidationError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValidationError(f"max_pending must be >= 1, got {max_pending}")
        self._engine = engine
        self._max_wait = max_wait_ms / 1000.0
        self._max_batch = int(max_batch)
        self._max_pending = int(max_pending)
        self._executor = executor

        self._pending: Deque[_Pending] = deque()  # guarded-by: event-loop
        self._wake: Optional[asyncio.Event] = None
        self._runner: Optional["asyncio.Task[None]"] = None
        self._closed = False

        # All counters live in one registry sharing one re-entrant lock:
        # updates happen on the event-loop thread, but `stats()` and
        # `/metrics` scrapes arrive from executor/server threads, and the
        # shared lock makes each snapshot consistent across every metric.
        self._metrics_lock = threading.RLock()
        self._metrics = MetricsRegistry(lock=self._metrics_lock)
        self._submitted = self._metrics.counter("service_submitted_total")
        self._completed = self._metrics.counter("service_completed_total")
        self._failed = self._metrics.counter("service_failed_total")
        self._cancelled = self._metrics.counter("service_cancelled_total")
        self._rejected = self._metrics.counter("service_rejected_total")
        self._deduplicated = self._metrics.counter("service_deduplicated_total")
        self._batches = self._metrics.counter("service_batches_total")
        self._batched_requests = self._metrics.counter(
            "service_batched_requests_total"
        )
        self._deadline_exceeded = self._metrics.counter(
            "service_deadline_exceeded_total"
        )
        self._partial_answers = self._metrics.counter(
            "service_partial_answers_total"
        )
        self._in_flight = self._metrics.gauge("service_in_flight_count")
        self._metrics.gauge(
            "service_queue_depth_count", fn=lambda: float(len(self._pending))
        )
        self._max_batch_seen = self._metrics.gauge("service_max_batch_count")
        self._max_queue_depth = self._metrics.gauge(
            "service_max_queue_depth_count"
        )
        self._latency = self._metrics.histogram("service_latency_ms")

    # -- lifecycle ----------------------------------------------------------------
    @property
    def engine(self) -> Any:
        """The engine new windows will evaluate against."""
        return self._engine

    @property
    def running(self) -> bool:
        """Whether the batching task is active."""
        return self._runner is not None and not self._runner.done()

    @property
    def closed(self) -> bool:
        """Whether :meth:`stop` was called (new submissions are refused)."""
        return self._closed

    async def start(self) -> "AsyncSearchService":
        """Start the batching task (idempotent; ``submit`` auto-starts too)."""
        if self._closed:
            raise ServiceStoppedError("AsyncSearchService is stopped")
        if self._runner is None or self._runner.done():
            loop = asyncio.get_running_loop()
            if self._wake is None:
                self._wake = asyncio.Event()
            self._runner = loop.create_task(self._run())
        return self

    async def stop(self) -> None:
        """Drain queued requests, then stop accepting new ones.

        Every request admitted before ``stop`` was called still gets its
        answer (the run loop flushes remaining windows); submissions after
        it raise :class:`~repro.exceptions.ServiceStoppedError`.
        """
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._runner is not None:
            await self._runner
            self._runner = None

    async def __aenter__(self) -> "AsyncSearchService":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    def replace_engine(self, engine: Any) -> Any:
        """Point future windows at ``engine``; returns the previous engine.

        In-flight windows keep the engine they captured.  If the new
        engine wraps a *different* index behind the same result cache, the
        caller is responsible for the cache's generation tag (handled
        automatically by ``Engine.replace_index``).
        """
        previous, self._engine = self._engine, engine
        return previous

    # -- submission ---------------------------------------------------------------
    async def submit(
        self,
        request: Union[SearchRequest, str],
        *,
        tau: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> SearchResult:
        """Submit one request; awaits (and returns) its evaluated result.

        Accepts a bare pattern with ``tau`` / ``top_k`` keywords or a
        :class:`SearchRequest`, exactly like ``Engine.search``.  The
        returned :class:`SearchResult` is already evaluated (its answer
        arrays computed inside the batch, its records not yet built), so
        touching it never blocks.

        A request carrying ``timeout_ms`` is watched end to end: if its
        budget runs out while it queues, waits in a window or evaluates,
        ``submit`` raises :class:`~repro.exceptions.DeadlineExceededError`
        instead of waiting longer (the abandoned evaluation is left to
        finish off-loop; its answer is discarded).

        Raises
        ------
        ServiceOverloadedError
            When ``max_pending`` requests are already queued or in flight.
        ServiceStoppedError
            When the service was stopped (also a ``RuntimeError``).
        DeadlineExceededError
            When the request outlives its ``timeout_ms`` budget.
        """
        if self._closed:
            raise ServiceStoppedError("AsyncSearchService is stopped")
        normalized = SearchRequest.coerce(request, tau=tau, top_k=top_k)
        # Admission counts queued AND in-flight work: requests already
        # popped into a window still hold service capacity until their
        # futures resolve, so gating on the queue alone would admit up to
        # max_pending + max_batch requests during a burst.
        if len(self._pending) + int(self._in_flight.value) >= self._max_pending:
            self._rejected.inc()
            raise ServiceOverloadedError(
                f"request queue is full ({self._max_pending} pending); "
                "back off and retry"
            )
        if self._runner is None or self._runner.done():
            await self.start()
        wake = self._wake
        assert wake is not None  # start() created the event above
        loop = asyncio.get_running_loop()
        budget_s = (
            None if normalized.timeout_ms is None else normalized.timeout_ms / 1000.0
        )
        deadline = None if budget_s is None else time.monotonic() + budget_s
        pending = _Pending(normalized, loop.create_future(), time.perf_counter(), deadline)
        self._pending.append(pending)
        with self._metrics.hold():
            self._submitted.inc()
            self._max_queue_depth.set_max(float(len(self._pending)))
        wake.set()
        if budget_s is None:
            return await pending.future
        try:
            # No shield: an expired request's future is cancelled outright,
            # so the dispatch fan-out skips it (counted as cancelled there)
            # instead of burning a result nobody will read.
            return await asyncio.wait_for(pending.future, timeout=budget_s)
        except DeadlineExceededError:
            # The dispatcher already expired this request (pre-dispatch
            # sweep) and counted it; propagate as-is.  Ordered before the
            # TimeoutError clause: DeadlineExceededError *is* a
            # TimeoutError, which asyncio.TimeoutError aliases on 3.11+.
            raise
        except asyncio.TimeoutError:
            self._deadline_exceeded.inc()
            raise DeadlineExceededError(
                f"request {normalized.pattern!r} exceeded its "
                f"timeout_ms={normalized.timeout_ms} budget in the serving tier"
            ) from None

    # -- batching loop ------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        wake = self._wake
        assert wake is not None  # start() creates the event before scheduling _run
        while True:
            if not self._pending:
                if self._closed:
                    return
                wake.clear()
                # Re-check after clearing: a submit between the check and
                # the clear would otherwise sleep until the next arrival.
                if self._pending or self._closed:
                    continue
                await wake.wait()
                continue
            # A window opens with the oldest queued request; keep it open
            # for stragglers until the deadline passes or it fills up.
            deadline = loop.time() + self._max_wait
            while len(self._pending) < self._max_batch and not self._closed:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            window: List[_Pending] = []
            while self._pending and len(window) < self._max_batch:
                window.append(self._pending.popleft())
            await self._dispatch(window, loop)

    async def _dispatch(self, window: List[_Pending], loop: asyncio.AbstractEventLoop) -> None:
        """Evaluate one window: dedupe, one ``search_many``, fan back out."""
        self._in_flight.inc(float(len(window)))
        try:
            await self._dispatch_window(window, loop)
        finally:
            self._in_flight.dec(float(len(window)))

    def _rebudget(
        self, request: SearchRequest, bucket: List[_Pending], now: float
    ) -> SearchRequest:
        """The request to dispatch for ``bucket``, with its remaining budget.

        The engine should stop waiting on shard futures once every
        submitter behind this evaluation has given up — so the dispatched
        ``timeout_ms`` is the *largest* remaining budget in the dedupe
        bucket (``None`` if any member is unbounded), clamped to at least
        1ms.  The rewrite is answer-neutral: cache keys and batch dedupe
        ignore ``timeout_ms``.
        """
        bounded = [
            pending.deadline for pending in bucket if pending.deadline is not None
        ]
        if len(bounded) != len(bucket):  # some member is unbounded
            if request.timeout_ms is None:
                return request
            return replace(request, timeout_ms=None)
        remaining_ms = max(1.0, (max(bounded) - now) * 1000.0)
        return replace(request, timeout_ms=remaining_ms)

    async def _dispatch_window(
        self, window: List[_Pending], loop: asyncio.AbstractEventLoop
    ) -> None:
        # Pre-dispatch sweep: a request whose budget ran out while queued
        # gets its DeadlineExceededError now instead of costing engine work
        # (its submitter's watchdog may already have cancelled the future).
        dispatch_started = time.perf_counter()
        now = time.monotonic()
        live: List[_Pending] = []
        for pending in window:
            if pending.deadline is not None and now >= pending.deadline:
                if not pending.future.done():
                    self._deadline_exceeded.inc()
                    pending.future.set_exception(
                        DeadlineExceededError(
                            f"request {pending.request.pattern!r} exceeded its "
                            f"timeout_ms={pending.request.timeout_ms} budget "
                            "before dispatch"
                        )
                    )
                else:
                    self._cancelled.inc()
                continue
            live.append(pending)
        window = live
        if not window:
            return
        holders: "Dict[_WindowKey, List[_Pending]]" = {}
        unique: List[SearchRequest] = []
        for pending in window:
            request = pending.request
            key: _WindowKey = (request.pattern, request.tau, request.top_k)
            bucket = holders.get(key)
            if bucket is None:
                holders[key] = [pending]
                unique.append(request)
            else:
                bucket.append(pending)
                self._deduplicated.inc()
        # Rewrite each dispatched request's budget to what actually remains
        # of its bucket's deadlines — the engine sees the time left, not the
        # original (partly spent) figure.
        unique = [
            self._rebudget(request, holders[(request.pattern, request.tau, request.top_k)], now)
            for request in unique
        ]
        engine = self._engine
        with self._metrics.hold():
            self._batches.inc()
            self._batched_requests.inc(len(window))
            self._max_batch_seen.set_max(float(len(window)))
            window_ordinal = self._batches.value

        def evaluate() -> List[Tuple[Optional[SearchResult], Optional[BaseException]]]:
            # Evaluate off the event loop, per result: one request whose
            # evaluation raises (e.g. a tau below tau_min) must fail only
            # its own submitters, never its window-mates.  Only the answer
            # arrays are read; no record is built.
            outcomes: List[Tuple[Optional[SearchResult], Optional[BaseException]]] = []
            for result in engine.search_many(unique):
                try:
                    result.arrays
                    outcomes.append((result, None))
                except Exception as error:  # noqa: BLE001 — per-request fan-out
                    outcomes.append((None, error))
            return outcomes

        eval_started = time.perf_counter()
        try:
            # The batch-flush fault site fires inside the containment: an
            # injected error fails this window's futures (like any batch
            # setup failure) instead of killing the run loop, and an
            # injected delay blocks the loop — exactly the hang the
            # submit-side deadline watchdog must bound.
            fire(SITE_BATCH_FLUSH)
            outcomes = await loop.run_in_executor(self._executor, evaluate)
        except Exception as error:  # noqa: BLE001 — batch setup failed: fan out
            for pendings in holders.values():
                for pending in pendings:
                    if pending.future.done():  # caller cancelled mid-window
                        self._cancelled.inc()
                        continue
                    pending.future.set_exception(error)
                    self._failed.inc()
            return
        finished = time.perf_counter()
        # Per-request spans: every traced submitter gets its window wait
        # (enqueue → dispatch) and the shared evaluation duration; dedupe
        # twins additionally adopt the primary's engine spans (the engine
        # only ever saw the primary's trace) tagged ``dedupe_shared``.
        if any(pending.request.trace is not None for pending in window):
            eval_ms = (finished - eval_started) * 1000.0
            for request in unique:
                bucket = holders[(request.pattern, request.tau, request.top_k)]
                primary = request.trace
                shared = primary.extract("evaluate") if primary is not None else []
                for pending in bucket:
                    trace = pending.request.trace
                    if trace is None:
                        continue
                    trace.add(
                        "window_wait",
                        (dispatch_started - pending.enqueued_at) * 1000.0,
                        parent="service",
                        window=window_ordinal,
                    )
                    trace.add(
                        "evaluate",
                        eval_ms,
                        parent="service",
                        window=window_ordinal,
                        bucket_size=len(bucket),
                        deduplicated=trace is not primary,
                    )
                    if trace is not primary:
                        trace.adopt(shared, dedupe_shared=True)
        # Post-evaluation sweep mirror of the pre-dispatch one: a budget
        # that ran out *during* the window (e.g. an injected stall blocked
        # the loop) must expire the request even though an answer exists —
        # otherwise the submitter's overdue ``wait_for`` can lose the race
        # against ``set_result`` in the same loop tick and hand back a
        # success far past its deadline.
        expired_at = time.monotonic()
        for request, (result, error) in zip(unique, outcomes):
            key = (request.pattern, request.tau, request.top_k)
            for pending in holders[key]:
                if pending.future.done():  # caller cancelled mid-window
                    self._cancelled.inc()
                    continue
                if pending.deadline is not None and expired_at >= pending.deadline:
                    self._deadline_exceeded.inc()
                    pending.future.set_exception(
                        DeadlineExceededError(
                            f"request {pending.request.pattern!r} exceeded its "
                            f"timeout_ms={pending.request.timeout_ms} budget "
                            "during its evaluation window"
                        )
                    )
                    continue
                if error is not None:
                    if isinstance(error, DeadlineExceededError):
                        self._deadline_exceeded.inc()
                    else:
                        self._failed.inc()
                    pending.future.set_exception(error)
                    continue
                latency = finished - pending.enqueued_at
                with self._metrics.hold():
                    # One hold: the completed count and the latency
                    # histogram's count can never disagree in a snapshot.
                    self._latency.observe(latency * 1000.0)
                    self._completed.inc()
                    if result is not None and result.partial:
                        self._partial_answers.inc()
                pending.future.set_result(result)

    # -- observability ------------------------------------------------------------
    def stats(self) -> dict:
        """Serving metrics: traffic, coalescing, queue depth, latency.

        The whole dict is one snapshot under the registry lock, so the
        figures are mutually consistent — ``completed`` always equals the
        latency histogram's observation count, even mid-storm.
        """
        with self._metrics.hold():
            completed = self._completed.value
            batches = self._batches.value
            return {
                "submitted": self._submitted.value,
                "completed": completed,
                "failed": self._failed.value,
                "cancelled": self._cancelled.value,
                "rejected": self._rejected.value,
                "deadline_exceeded": self._deadline_exceeded.value,
                "partial_answers": self._partial_answers.value,
                "in_flight": int(self._in_flight.value),
                "deduplicated": self._deduplicated.value,
                "batches": batches,
                "max_batch_size": int(self._max_batch_seen.value),
                "mean_batch_size": (
                    self._batched_requests.value / batches if batches else 0.0
                ),
                "queue_depth": len(self._pending),
                "max_queue_depth": int(self._max_queue_depth.value),
                "latency": {
                    "mean_ms": self._latency.mean,
                    "max_ms": self._latency.max,
                },
                "config": {
                    "max_wait_ms": self._max_wait * 1000.0,
                    "max_batch": self._max_batch,
                    "max_pending": self._max_pending,
                },
            }

    def metrics_samples(self) -> List[MetricSample]:
        """Own metrics plus the engine's, for ``/metrics`` exposition."""
        samples = self._metrics.collect()
        engine = self._engine
        collect = getattr(engine, "metrics_samples", None)
        if callable(collect):
            samples.extend(collect())
        else:
            cache = getattr(engine, "cache", None)
            metrics = getattr(cache, "metrics", None)
            if metrics is not None:
                samples.extend(metrics.collect())
        return samples
