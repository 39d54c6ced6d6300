"""LRU result caching for the hot query path of the :mod:`repro.api` engines.

Serving traffic repeats itself: the same ``(pattern, tau, top_k)`` triples
arrive over and over, and every index in the package answers a repeated
request with exactly the same matches (queries are pure functions of the
built index).  :class:`ResultCache` exploits that — it is a thread-safe LRU
sitting in front of ``Engine._evaluate`` (and the merged evaluation of
``ShardedEngine``), keyed on ``(pattern, tau, top_k, kind)``.

Design constraints, in order:

* **Immutability** — cached values are stored as tuples and copied into a
  fresh list on every hit, so no caller (pagination included) can mutate a
  cached answer; :class:`~repro.api.requests.SearchResult` already never
  mutates its match list, the copy guards against callers reaching into
  ``result.matches`` directly.
* **Laziness** — :meth:`wrap` returns an evaluation *closure*, so the cache
  is only consulted when a lazy result is actually touched.  Untouched
  results cost neither a lookup nor a counter tick, and batch deduplication
  (:mod:`repro.api.batch`) composes: each distinct request probes the cache
  exactly once per evaluation.
* **Observability** — hit / miss / eviction counters live in a
  :class:`repro.obs.metrics.MetricsRegistry` that shares the cache's own
  lock, so :meth:`stats` is a tear-free snapshot and ``/metrics`` can
  scrape the same counters (``cache_*`` names in ``METRIC_TABLE``); the
  legacy :meth:`stats` dict shape is preserved as a view over the
  registry, because a serving cache nobody can measure is a serving
  cache nobody can size.

Two invalidation mechanisms exist for serving deployments whose index is
not immutable-forever:

* **Generation tags** — every entry is stored under the cache's current
  *generation*; :meth:`bump_generation` makes every existing entry
  unreachable in O(1), so an engine whose index was reloaded or replaced
  can never serve a stale hit (the old entries age out through ordinary
  LRU eviction).  ``Engine.replace_index`` bumps the generation
  automatically.
* **TTL** — an optional ``ttl_seconds`` bounds the lifetime of every
  entry; expired entries count as misses (and as ``expirations`` in
  :meth:`stats`) and are dropped on access.  Expired entries are also
  purged eagerly on every :meth:`put` and :meth:`stats` call — an entry
  past its TTL must not keep occupying LRU capacity (evicting live
  entries) or inflate the reported occupancy.  The clock is injectable
  for deterministic tests.

Errors are never cached: an evaluation that raises (e.g. a
:class:`~repro.exceptions.ThresholdError` for a ``tau`` below ``tau_min``)
propagates without touching the stored entries, and the failed lookup is
counted as a miss.  Neither are **partial answers**
(:class:`~repro.api.requests.PartialAnswer`, produced by a degraded
sharded engine): a transient shard outage must cost a re-evaluation on
the next request, never a cached degraded answer served until eviction.

:meth:`get` carries the ``cache-access`` fault-injection site
(:mod:`repro.faults`) — a no-op unless a chaos plan is installed.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..exceptions import ValidationError
from ..faults import SITE_CACHE_ACCESS, fire
from ..obs.metrics import MetricsRegistry
from .requests import PartialAnswer

#: Default number of distinct request keys an engine keeps hot.
DEFAULT_CACHE_SIZE = 1024

#: Cache keys are ``(pattern, tau, top_k, kind)`` tuples; typed loosely so
#: the sharded engine can reuse the same cache with its own key shape.
CacheKey = Hashable

#: Internal storage key: the caller's key tagged with the generation it was
#: written under.
_StoredKey = Tuple[int, CacheKey]


class ResultCache:
    """A bounded, thread-safe LRU over evaluated match lists.

    Parameters
    ----------
    capacity:
        Maximum number of distinct keys to retain.  ``0`` disables the
        cache entirely — :meth:`wrap` then returns the computation
        unchanged, so a disabled cache costs nothing on the query path.
    ttl_seconds:
        Optional maximum entry age.  ``None`` (default) means entries
        never expire; a positive value drops entries older than that on
        access, counting an expiration plus a miss.
    clock:
        Monotonic time source used for TTL stamps (defaults to
        :func:`time.monotonic`); injectable so TTL behaviour is testable
        without sleeping.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_SIZE,
        *,
        ttl_seconds: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 0:
            raise ValidationError(f"cache capacity must be >= 0, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValidationError(
                f"ttl_seconds must be positive (or None), got {ttl_seconds}"
            )
        self._capacity = int(capacity)
        self._ttl_seconds = ttl_seconds
        self._clock = clock if clock is not None else time.monotonic
        self._entries: "OrderedDict[_StoredKey, Tuple[Tuple, float]]" = OrderedDict()  # guarded-by: _lock
        # Re-entrant so registry updates made while the cache lock is
        # already held (and stats() snapshots) serialize on one monitor.
        self._lock = threading.RLock()
        self._generation = 0  # guarded-by: _lock
        self._metrics = MetricsRegistry(lock=self._lock)
        self._hits = self._metrics.counter("cache_hits_total")
        self._misses = self._metrics.counter("cache_misses_total")
        self._evictions = self._metrics.counter("cache_evictions_total")
        self._expirations = self._metrics.counter("cache_expirations_total")
        self._metrics.gauge("cache_size_count", fn=lambda: float(len(self._entries)))
        self._metrics.gauge("cache_generation_count", fn=lambda: float(self._generation))

    # -- configuration ------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of entries retained."""
        return self._capacity

    @property
    def enabled(self) -> bool:
        """Whether the cache retains anything at all."""
        return self._capacity > 0

    @property
    def ttl_seconds(self) -> Optional[float]:
        """Maximum entry age (``None``: entries never expire)."""
        return self._ttl_seconds

    @property
    def generation(self) -> int:
        """The index-generation tag current entries are stored under."""
        return self._generation

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache(capacity={self._capacity}, size={len(self._entries)}, "
            f"hits={self._hits.value}, misses={self._misses.value}, "
            f"generation={self._generation})"
        )

    def _expired_keys(self) -> List[_StoredKey]:
        """Stored keys past their TTL (read-only; caller holds ``_lock``).

        :meth:`put` and :meth:`stats` purge these eagerly so expired
        entries cannot occupy LRU capacity (evicting live entries) or
        inflate the reported size; each dropped entry counts an
        expiration, the same counter the lazy drop in :meth:`get` ticks.
        """
        if self._ttl_seconds is None or not self._entries:
            return []
        now = self._clock()
        return [
            stored
            for stored, (_, stamp) in self._entries.items()
            if now - stamp > self._ttl_seconds
        ]

    # -- core operations ----------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[Tuple]:
        """The cached answer for ``key``, or ``None`` (counts a hit or miss).

        Only entries written under the current generation are reachable,
        and entries older than ``ttl_seconds`` are dropped (counting an
        expiration) instead of served.
        """
        if not self.enabled:
            return None
        fire(SITE_CACHE_ACCESS)
        with self._lock:
            stored = (self._generation, key)
            entry = self._entries.get(stored)
            if entry is None:
                self._misses.inc()
                return None
            value, stamp = entry
            if (
                self._ttl_seconds is not None
                and self._clock() - stamp > self._ttl_seconds
            ):
                del self._entries[stored]
                self._expirations.inc()
                self._misses.inc()
                return None
            self._entries.move_to_end(stored)
            self._hits.inc()
            return value

    def contains(self, key: CacheKey) -> bool:
        """Whether a live entry answers ``key`` — a peek, not a lookup.

        No counter ticks, no LRU move, no fault site: a batch uses it to
        leave answered requests out of a sharded engine's window (see
        :mod:`repro.api.batch`), while the :meth:`get` that serves them
        still counts each lookup once.
        """
        if not self.enabled:
            return False
        with self._lock:
            entry = self._entries.get((self._generation, key))
            if entry is None:
                return False
            return (
                self._ttl_seconds is None
                or self._clock() - entry[1] <= self._ttl_seconds
            )

    def put(
        self, key: CacheKey, value: Sequence, *, generation: Optional[int] = None
    ) -> None:
        """Store ``value`` (copied to an immutable tuple) under ``key``.

        ``generation`` is the generation the value was *computed* under
        (pass the value of :attr:`generation` read before the computation
        started): if the cache has been invalidated in the meantime, the
        value is silently dropped instead of being stored under the new
        generation — otherwise a slow evaluation racing a
        :meth:`bump_generation` (e.g. ``Engine.replace_index`` during an
        in-flight query) could cache the *old* index's answer as fresh.
        ``None`` stores unconditionally under the current generation.
        """
        if not self.enabled:
            return
        frozen = tuple(value)
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            # Purge before the capacity check: an expired entry must never
            # force a live one out through ordinary LRU eviction.
            for expired in self._expired_keys():
                del self._entries[expired]
                self._expirations.inc()
            stored = (self._generation, key)
            stamp = self._clock()
            if stored in self._entries:
                self._entries.move_to_end(stored)
                self._entries[stored] = (frozen, stamp)
                return
            self._entries[stored] = (frozen, stamp)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def wrap(self, key: CacheKey, compute: Callable[[], List]) -> Callable[[], List]:
        """A lazy evaluation closure: cache lookup first, ``compute`` on miss.

        The returned callable is what a :class:`SearchResult` evaluates —
        nothing happens (no lookup, no counters) until the result is
        touched.  Hits return a fresh list copied from the stored tuple, so
        cached answers can never be mutated through a result.
        """
        if not self.enabled:
            return compute

        def evaluate() -> List:
            cached = self.get(key)
            if cached is not None:
                return list(cached)
            # Capture the generation *before* computing: if the index is
            # replaced mid-evaluation, put() drops this (now stale) answer.
            generation = self._generation
            value = compute()
            if isinstance(value, PartialAnswer):
                # Never cache a degraded answer: a shard outage must cost
                # re-evaluation on the next request, not pin the partial
                # result until eviction / TTL / generation bump.
                return value
            self.put(key, value, generation=generation)
            return list(value)

        return evaluate

    # -- maintenance / observability ----------------------------------------------
    def bump_generation(self) -> int:
        """Invalidate every current entry in O(1); returns the new generation.

        Entries written under earlier generations become unreachable
        immediately (lookups key on the current generation) and age out of
        the store through ordinary LRU eviction — no scan, no pause.  Used
        when the index behind the cache is reloaded or replaced, so a
        request that hit the old index can never be answered with its
        matches.
        """
        with self._lock:
            self._generation += 1
            return self._generation

    def clear(self) -> None:
        """Drop every entry (counters are preserved; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit / miss / eviction / expiration counters."""
        with self._lock:
            self._hits.reset()
            self._misses.reset()
            self._evictions.reset()
            self._expirations.reset()

    @property
    def metrics(self) -> MetricsRegistry:
        """The cache's metrics registry (``cache_*`` series for /metrics)."""
        return self._metrics

    def stats(self) -> dict:
        """Counters and occupancy, as surfaced by ``Engine.describe()``.

        A consistent view: the snapshot holds the cache lock (shared with
        the metrics registry), so no counter can advance between reads.
        """
        with self._lock:
            for expired in self._expired_keys():
                del self._entries[expired]
                self._expirations.inc()
            hits, misses, evictions = self._hits.value, self._misses.value, self._evictions.value
            expirations = self._expirations.value
            generation = self._generation
            size = len(self._entries)
        lookups = hits + misses
        return {
            "enabled": self.enabled,
            "capacity": self._capacity,
            "size": size,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "expirations": expirations,
            "generation": generation,
            "ttl_seconds": self._ttl_seconds,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }
