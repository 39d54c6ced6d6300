"""Multi-copy replica routing: :class:`ReplicaSet` behind the serving tier.

One engine — even a sharded, process-fanned one — is one dispatch target:
every batch the :class:`~repro.serving.AsyncSearchService` closes lands on
it, and a stalled or faulted copy stalls the whole service.  A
:class:`ReplicaSet` holds **N copies of the same index** and routes each
batch to one of them.  On one box the copies are nearly free when loaded
with ``mmap=True``: every replica maps the same archive, so the heavy
arrays exist once in the page cache however many replicas serve them
(:meth:`ReplicaSet.load` wires exactly that up).

Routing policy, in order of application:

* **Least-loaded dispatch** — each batch goes to the healthy replica with
  the fewest batches currently in flight (ties break on the lowest
  ordinal, so a single-caller workload is deterministic).  Replicas answer
  from copies of the same index, so any replica's answer is every
  replica's answer — the tests pin byte-identical results against a
  single-replica set.
* **Hedged requests** (optional) — with ``hedge_after_ms`` set, a batch
  still unfinished after that delay is *also* dispatched to the next
  least-loaded replica; the first completion wins and the loser's answer
  is discarded.  Hedging converts a slow replica (page-cache miss storm,
  CPU contention) into one duplicated batch instead of a tail-latency
  spike.  Because replicas are copies, hedging can never change an answer.
* **Per-replica health** — a dispatch that fails with an *infrastructure*
  error (a broken worker pool, an I/O error — anything that is not the
  request's own :class:`~repro.exceptions.ValidationError` /
  :class:`~repro.exceptions.QueryError`) counts a fault against the
  replica and the batch fails over to the next healthy one.
  ``max_consecutive_faults`` consecutive faults mark a replica unhealthy
  and routing skips it; after ``probe_after`` subsequent dispatches the
  set routes it one probe batch, and a success restores it.  When every
  replica is unhealthy, dispatch fails fast with
  :class:`~repro.exceptions.NoHealthyReplicaError` (503 over the wire).
* **Drain-then-swap** — :meth:`swap` replaces replica engines one slot at
  a time for zero-downtime index replacement: new dispatches route to the
  new engine immediately, the old engine finishes its in-flight batches,
  and once drained it is closed (releasing worker processes / executors).
  Capacity never drops below N − 1 replicas during a swap.  Callers that
  instead mutate an :class:`~repro.api.engine.Engine` in place should use
  ``Engine.replace_index``, whose cache generation tag provides the same
  no-stale-answer guarantee at the single-engine level.

The set exposes the engine vocabulary the service consumes
(``search_many`` plus the introspection properties), so it drops into
``AsyncSearchService(engine=ReplicaSet(...))`` — and therefore under the
HTTP tier — without any of them knowing replicas exist.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Union

from ..api.requests import SearchRequest, SearchResult
from ..exceptions import (
    DrainTimeoutError,
    NoHealthyReplicaError,
    QueryError,
    ValidationError,
)
from ..faults import SITE_REPLICA_CALL, fire
from ..obs.metrics import MetricSample, MetricsRegistry

#: Exceptions that blame the *request*, not the replica: they propagate to
#: the caller without costing the replica health or triggering failover.
REQUEST_ERRORS = (ValidationError, QueryError)


class _Replica:
    """One copy of the index plus its routing state.

    The mutable counters are guarded by the owning :class:`ReplicaSet`'s
    lock; the replica object itself is the unit of drain accounting — a
    swap retires the whole object, so in-flight decrements always reach
    the engine they were dispatched against.
    """

    __slots__ = (
        "engine",
        "ordinal",
        "in_flight",
        "dispatches",
        "faults",
        "consecutive_faults",
        "healthy",
        "dispatches_since_unhealthy",
        "last_fault",
    )

    def __init__(self, engine: Any, ordinal: int) -> None:
        self.engine = engine
        self.ordinal = ordinal
        self.in_flight = 0
        self.dispatches = 0
        self.faults = 0
        self.consecutive_faults = 0
        self.healthy = True
        self.dispatches_since_unhealthy = 0
        self.last_fault: Optional[str] = None


class ReplicaSet:
    """N copies of one index behind least-loaded / hedged batch dispatch.

    Parameters
    ----------
    engines:
        The replica engines — copies of the *same* index (any object
        speaking the :class:`~repro.api.engine.QueryEngine` vocabulary).
        Build them with :meth:`load` to share one mmap'd archive.
    hedge_after_ms:
        Optional hedging delay: a batch unfinished after this many
        milliseconds is also sent to the next least-loaded replica and the
        first completion wins.  ``None`` (default) disables hedging.
    max_consecutive_faults:
        Consecutive infrastructure faults after which a replica is marked
        unhealthy and skipped by routing.
    probe_after:
        Number of set-wide dispatches after which an unhealthy replica is
        routed one probe batch (a success restores it to the rotation).
    """

    def __init__(
        self,
        engines: Sequence[Any],
        *,
        hedge_after_ms: Optional[float] = None,
        max_consecutive_faults: int = 3,
        probe_after: int = 16,
    ) -> None:
        if not engines:
            raise ValidationError("ReplicaSet needs at least one engine")
        if hedge_after_ms is not None and hedge_after_ms < 0:
            raise ValidationError(
                f"hedge_after_ms must be >= 0 (or None), got {hedge_after_ms}"
            )
        if max_consecutive_faults < 1:
            raise ValidationError(
                f"max_consecutive_faults must be >= 1, got {max_consecutive_faults}"
            )
        if probe_after < 1:
            raise ValidationError(f"probe_after must be >= 1, got {probe_after}")
        # Re-entrant so registry counter increments nest cleanly inside
        # routing-critical sections already holding the lock.
        self._lock = threading.RLock()
        self._replicas: List[_Replica] = [  # guarded-by: _lock
            _Replica(engine, ordinal) for ordinal, engine in enumerate(engines)
        ]
        self._hedge_after = (
            None if hedge_after_ms is None else hedge_after_ms / 1000.0
        )
        self._max_consecutive_faults = int(max_consecutive_faults)
        self._probe_after = int(probe_after)
        self._drained = threading.Condition(self._lock)
        self._executor: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._metrics = MetricsRegistry(lock=self._lock)
        self._hedges = self._metrics.counter("replica_hedges_total")
        self._hedge_wins = self._metrics.counter("replica_hedge_wins_total")
        self._failovers = self._metrics.counter("replica_failovers_total")
        self._swaps = self._metrics.counter("replica_swaps_total")

    # -- construction -------------------------------------------------------------
    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        replicas: int,
        mmap: bool = True,
        query_executor: str = "thread",
        cache_size: Optional[int] = None,
        hedge_after_ms: Optional[float] = None,
        max_consecutive_faults: int = 3,
        probe_after: int = 16,
    ) -> "ReplicaSet":
        """Open ``replicas`` mmap-sharing copies of one saved archive.

        Every replica calls :func:`~repro.api.engine.load_index` on the
        same path; with ``mmap=True`` (the default here, unlike the bare
        loader) the copies map the same bytes, so N replicas cost one
        physical copy of the arrays plus N sets of bookkeeping.
        ``cache_size=None`` keeps the loader's default result cache per
        replica; pass ``0`` to disable caching entirely.
        """
        if replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {replicas}")
        from ..api.engine import load_index

        kwargs: dict = {"mmap": mmap, "query_executor": query_executor}
        if cache_size is not None:
            kwargs["cache_size"] = cache_size
        engines = [load_index(path, **kwargs) for _ in range(replicas)]
        return cls(
            engines,
            hedge_after_ms=hedge_after_ms,
            max_consecutive_faults=max_consecutive_faults,
            probe_after=probe_after,
        )

    @classmethod
    def from_engine(
        cls,
        engine: Any,
        *,
        replicas: int,
        hedge_after_ms: Optional[float] = None,
        max_consecutive_faults: int = 3,
        probe_after: int = 16,
    ) -> "ReplicaSet":
        """Fan ``replicas`` façades out over one in-RAM sharded engine.

        The disk-backed :meth:`load` shares physical memory through the
        page cache; this is its in-RAM counterpart for a
        :class:`~repro.api.sharding.ShardedEngine` that was *built* in
        this process.  Each replica is a new façade (own result cache,
        own worker pools, own routing slot) over the **same** shard
        engines — so in process mode every replica's workers attach to
        one set of shared-memory blocks (see :mod:`repro.api.shm`)
        instead of exporting the index once per replica.  ``engine``
        itself serves as replica 0.
        """
        if replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {replicas}")
        from ..api.sharding import ShardedEngine

        if not isinstance(engine, ShardedEngine):
            raise ValidationError(
                "from_engine replicates a ShardedEngine; build one (a "
                "single shard is fine) or use ReplicaSet(engines=...) "
                f"directly, got {type(engine).__name__}"
            )
        copies: List[Any] = [engine]
        for _ in range(replicas - 1):
            copies.append(
                ShardedEngine(
                    engine.shards,
                    engine.spec,
                    engine.plan,
                    query_executor=engine.query_executor,
                    partial=engine.partial,
                    worker_retries=engine.worker_retries,
                )
            )
        return cls(
            copies,
            hedge_after_ms=hedge_after_ms,
            max_consecutive_faults=max_consecutive_faults,
            probe_after=probe_after,
        )

    # -- introspection ------------------------------------------------------------
    @property
    def replica_count(self) -> int:
        """Number of replica slots."""
        with self._lock:
            return len(self._replicas)

    @property
    def engines(self) -> List[Any]:
        """The current replica engines, in slot order."""
        with self._lock:
            return [replica.engine for replica in self._replicas]

    def _primary(self) -> Any:
        with self._lock:
            return self._replicas[0].engine

    @property
    def kind(self) -> str:
        """Index kind shared by every replica."""
        return str(self._primary().kind)

    @property
    def tau_min(self) -> float:
        """Smallest query threshold the replicas support."""
        return float(self._primary().tau_min)

    @property
    def is_listing(self) -> bool:
        """Whether results carry ListingMatch (documents) instead of Occurrence."""
        return bool(self._primary().is_listing)

    def __repr__(self) -> str:
        with self._lock:
            healthy = sum(1 for replica in self._replicas if replica.healthy)
            total = len(self._replicas)
        return f"ReplicaSet(replicas={total}, healthy={healthy}, kind={self.kind!r})"

    def stats(self) -> dict:
        """Routing metrics: per-replica load/health plus set-wide counters."""
        with self._lock:
            per_replica = [
                {
                    "ordinal": replica.ordinal,
                    "healthy": replica.healthy,
                    "in_flight": replica.in_flight,
                    "dispatches": replica.dispatches,
                    "faults": replica.faults,
                    "consecutive_faults": replica.consecutive_faults,
                    "last_fault": replica.last_fault,
                }
                for replica in self._replicas
            ]
            return {
                "replicas": per_replica,
                "replica_count": len(self._replicas),
                "healthy_count": sum(1 for r in self._replicas if r.healthy),
                "hedges": self._hedges.value,
                "hedge_wins": self._hedge_wins.value,
                "failovers": self._failovers.value,
                "swaps": self._swaps.value,
                "config": {
                    "hedge_after_ms": (
                        None if self._hedge_after is None else self._hedge_after * 1000.0
                    ),
                    "max_consecutive_faults": self._max_consecutive_faults,
                    "probe_after": self._probe_after,
                },
            }

    def metrics_samples(self) -> List[MetricSample]:
        """Set-wide counters plus every replica engine's metrics.

        Engine samples are tagged ``replica="<ordinal>"`` so the merged
        ``/metrics`` exposition keeps the per-copy series apart (the same
        metric name appears once per replica, one label per series).
        """
        samples = self._metrics.collect()
        with self._lock:
            engines = [
                (replica.ordinal, replica.engine) for replica in self._replicas
            ]
        for ordinal, engine in engines:
            collect = getattr(engine, "metrics_samples", None)
            if callable(collect):
                engine_samples = collect()
            else:
                cache = getattr(engine, "cache", None)
                metrics = getattr(cache, "metrics", None)
                engine_samples = metrics.collect() if metrics is not None else []
            label = (("replica", str(ordinal)),)
            samples.extend(
                dataclasses.replace(sample, labels=label + sample.labels)
                for sample in engine_samples
            )
        return samples

    # -- routing ------------------------------------------------------------------
    def _pick_locked(self, exclude: Sequence[_Replica]) -> _Replica:
        """Least-loaded routable replica (caller holds ``_lock``).

        An unhealthy replica becomes *probe-due* once ``probe_after``
        routing decisions have passed since it went unhealthy; probe-due
        replicas take priority for one batch, so a recovered copy rejoins
        the rotation without an operator touching it.
        """
        excluded = set(id(replica) for replica in exclude)
        available = [
            replica for replica in self._replicas if id(replica) not in excluded
        ]
        healthy = [replica for replica in available if replica.healthy]
        probe_due = [
            replica
            for replica in available
            if not replica.healthy
            and replica.dispatches_since_unhealthy >= self._probe_after
        ]
        pool = probe_due if probe_due else healthy
        if not pool:
            # Nothing routable.  Unhealthy replicas still edge toward their
            # probe window, so a fully-unhealthy set can recover instead of
            # rejecting forever.
            for replica in available:
                if not replica.healthy:
                    replica.dispatches_since_unhealthy += 1
            raise NoHealthyReplicaError(
                "no healthy replica available to dispatch to "
                f"({len(self._replicas)} total, "
                f"{len(self._replicas) - len(available)} excluded)"
            )
        choice = min(pool, key=lambda replica: (replica.in_flight, replica.ordinal))
        choice.in_flight += 1
        choice.dispatches += 1
        for replica in self._replicas:
            if not replica.healthy and replica is not choice:
                replica.dispatches_since_unhealthy += 1
        return choice

    def _acquire(self, exclude: Sequence[_Replica]) -> _Replica:
        with self._lock:
            if self._closed:
                raise ValidationError("ReplicaSet is closed")
            return self._pick_locked(exclude)

    def _release(self, replica: _Replica, error: Optional[BaseException]) -> None:
        with self._lock:
            replica.in_flight -= 1
            if error is None:
                replica.consecutive_faults = 0
                if not replica.healthy:
                    replica.healthy = True
                    replica.dispatches_since_unhealthy = 0
            elif not isinstance(error, REQUEST_ERRORS):
                replica.faults += 1
                replica.consecutive_faults += 1
                replica.last_fault = f"{type(error).__name__}: {error}"
                if replica.consecutive_faults >= self._max_consecutive_faults:
                    replica.healthy = False
                    replica.dispatches_since_unhealthy = 0
            self._drained.notify_all()

    def _evaluate_on(
        self, replica: _Replica, requests: Sequence[SearchRequest]
    ) -> List[SearchResult]:
        """Run one batch on one replica, evaluating every result.

        Evaluation happens *here* — on the dispatching thread — so
        in-flight accounting, hedging and health observe the real work;
        it computes each answer's arrays and builds no record.
        Per-request evaluation errors are left inside the lazy result
        (touching it re-raises for the caller, matching the service's
        per-request error isolation); only infrastructure errors escape
        and are handled by the failover path.
        """
        error: Optional[BaseException] = None
        try:
            # The replica-call fault site fires inside the accounting: an
            # injected error counts a fault against this replica and takes
            # the ordinary failover path, exactly like a real dispatch
            # failure would.
            fire(SITE_REPLICA_CALL)
            results = replica.engine.search_many(requests)
            for result in results:
                try:
                    result.arrays  # evaluate without building records
                except REQUEST_ERRORS:
                    continue  # the caller's own error; re-raised when touched
            return results
        except BaseException as failure:
            error = failure
            raise
        finally:
            self._release(replica, error)

    def _hedge_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            executor = self._executor
            if executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=max(4, 2 * len(self._replicas)),
                    thread_name_prefix="repro-replica",
                )
                self._executor = executor
            return executor

    def search_many(
        self, requests: Sequence[Union[SearchRequest, str]]
    ) -> List[SearchResult]:
        """Answer one batch through the routing policy.

        The batch goes to the least-loaded healthy replica; an
        infrastructure fault fails over to the next one (every replica
        tried at most once), and with hedging enabled a slow primary races
        a duplicate on a second replica.  Answers are byte-identical to a
        single replica's — the copies index the same data.
        """
        normalized = [SearchRequest.coerce(request) for request in requests]
        attempts: List[_Replica] = []
        total = self.replica_count
        while True:
            replica = self._acquire(exclude=attempts)
            attempts.append(replica)
            try:
                if self._hedge_after is None or total - len(attempts) < 1:
                    return self._evaluate_on(replica, normalized)
                return self._search_hedged(replica, normalized, attempts)
            except REQUEST_ERRORS:
                raise
            except NoHealthyReplicaError:
                raise
            except BaseException as failure:  # noqa: BLE001 — failover boundary
                self._failovers.inc()
                if len(attempts) >= total:
                    raise failure  # every replica tried; surface the last fault

    def _search_hedged(
        self,
        primary: _Replica,
        requests: List[SearchRequest],
        attempts: List[_Replica],
    ) -> List[SearchResult]:
        """Race ``primary`` against a delayed hedge on another replica.

        The primary runs on the hedge executor so this thread can arm the
        timer; if the delay passes, the next least-loaded replica gets the
        same batch and the first successful completion wins.  The loser
        runs to completion on its executor thread (its in-flight
        accounting resolves in ``_evaluate_on``) — answers are identical,
        so nothing observes which replica won except the stats.
        """
        executor = self._hedge_executor()
        assert self._hedge_after is not None  # caller checked
        futures: List["Future[List[SearchResult]]"] = [
            executor.submit(self._evaluate_on, primary, requests)
        ]
        hedged = False
        deadline = time.monotonic() + self._hedge_after
        while True:
            timeout: Optional[float] = None
            if not hedged:
                timeout = max(0.0, deadline - time.monotonic())
            done, pending = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                error = future.exception()
                if error is None:
                    if hedged and futures.index(future) > 0:
                        self._hedge_wins.inc()
                    return future.result()
                if isinstance(error, REQUEST_ERRORS):
                    future.result()  # re-raises the caller's own error
            if done and not pending:
                # Every racer failed with an infrastructure error: re-raise
                # the primary's so search_many's failover picks a fresh replica.
                futures[0].result()
            if not hedged:
                # The delay elapsed with the primary still running: hedge.
                try:
                    hedge = self._acquire(exclude=attempts)
                except (NoHealthyReplicaError, ValidationError):
                    hedged = True  # nobody to hedge to; keep waiting
                    continue
                attempts.append(hedge)
                self._hedges.inc()
                futures.append(executor.submit(self._evaluate_on, hedge, requests))
                hedged = True

    # -- swap / lifecycle ---------------------------------------------------------
    def swap(
        self,
        build: Callable[[int], Any],
        *,
        drain_timeout: Optional[float] = 30.0,
        close_old: bool = True,
    ) -> List[Any]:
        """Replace every replica's engine with zero downtime; returns the old ones.

        One slot at a time: ``build(slot)`` constructs the replacement
        (e.g. ``lambda slot: load_index(new_path, mmap=True)``), the slot
        is atomically repointed — new dispatches route to the new engine
        immediately, so capacity never drops below N − 1 — and the *old*
        replica object drains (its in-flight batches finish against the
        engine they captured) before being closed.  Closing releases the
        old engine's worker processes / thread pools
        (:meth:`repro.api.sharding.ShardedEngine.close`); engines without
        a ``close`` are simply dropped.  Engines whose result cache would
        otherwise go stale do not need a generation bump here — the whole
        engine (cache included) is replaced, which is the same guarantee
        ``Engine.replace_index`` provides in place.

        A slot that cannot drain within ``drain_timeout`` seconds raises
        :class:`~repro.exceptions.DrainTimeoutError` (a
        :class:`TimeoutError` subclass; 503 over the wire) — the already
        swapped slots keep their new engines, the stuck slot keeps serving
        its old in-flight batches.
        """
        if drain_timeout is not None and drain_timeout <= 0:
            raise ValidationError(
                f"drain_timeout must be positive (or None), got {drain_timeout}"
            )
        previous: List[Any] = []
        for slot in range(self.replica_count):
            fresh = build(slot)
            with self._lock:
                if self._closed:
                    raise ValidationError("ReplicaSet is closed")
                old = self._replicas[slot]
                self._replicas[slot] = _Replica(fresh.engine if isinstance(fresh, _Replica) else fresh, slot)
                self._swaps.inc()
            self._drain(old, drain_timeout)
            if close_old:
                closer = getattr(old.engine, "close", None)
                if callable(closer):
                    closer()
            previous.append(old.engine)
        return previous

    def _drain(self, replica: _Replica, timeout: Optional[float]) -> None:
        """Wait until ``replica`` has no batch in flight."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while replica.in_flight > 0:
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise DrainTimeoutError(
                            f"replica {replica.ordinal} still has "
                            f"{replica.in_flight} batch(es) in flight after "
                            f"{timeout}s drain timeout"
                        )
                self._drained.wait(timeout=remaining)

    def close(self, *, close_engines: bool = True) -> None:
        """Shut the routing executor down and (by default) close every engine."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
            replicas = list(self._replicas)
        if executor is not None:
            executor.shutdown(wait=True)
        if close_engines:
            for replica in replicas:
                closer = getattr(replica.engine, "close", None)
                if callable(closer):
                    closer()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
