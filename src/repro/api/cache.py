"""LRU result caching for the hot query path of the :mod:`repro.api` engines.

Serving traffic repeats itself: the same ``(pattern, tau, top_k)`` triples
arrive over and over, and every index in the package answers a repeated
request with exactly the same matches (queries are pure functions of the
built index).  :class:`ResultCache` exploits that — it is a thread-safe LRU
sitting in front of ``Engine._evaluate`` (and the merged evaluation of
``ShardedEngine``), keyed on ``(pattern, tau, top_k, kind)``.

Design constraints, in order:

* **Immutability** — a cached value is the answer itself, a
  :class:`~repro.core.base.MatchArrays` whose arrays are read-only: it is
  stored and handed to every hit as is, shared, with no per-hit copy, and
  no caller can mutate it (writing to its arrays raises ``ValueError``;
  ``result.matches`` builds a fresh record list per result).
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

One invalidation mechanism serves deployments whose index is not
immutable-forever: **generation tags**.  Every entry is stored under the
cache's current *generation*; :meth:`bump_generation` makes every existing
entry unreachable in O(1), so an engine whose index was reloaded or
replaced can never serve a stale hit (the old entries age out through
ordinary LRU eviction).  An index changes under a key only through
``Engine.replace_index``, which bumps the generation automatically.

Errors are never cached: an evaluation that raises (e.g. a
:class:`~repro.exceptions.ThresholdError` for a ``tau`` below ``tau_min``)
propagates without touching the stored entries, and the failed lookup is
counted as a miss.  Neither are **partial answers** (a degraded sharded
engine's answer, whose ``failed_shards`` is non-empty): a transient shard
outage must cost a re-evaluation on the next request, never a cached
degraded answer served until eviction.

:meth:`get` carries the ``cache-access`` fault-injection site
(:mod:`repro.faults`) — a no-op unless a chaos plan is installed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

from ..core.base import MatchArrays
from ..exceptions import ValidationError
from ..faults import SITE_CACHE_ACCESS, fire
from ..obs.metrics import MetricsRegistry

#: Default number of distinct request keys an engine keeps hot.
DEFAULT_CACHE_SIZE = 1024

#: Cache keys are ``(pattern, tau, top_k, kind)`` tuples; typed loosely so
#: the sharded engine can reuse the same cache with its own key shape.
CacheKey = Hashable

#: Internal storage key: the caller's key tagged with the generation it was
#: written under.
_StoredKey = Tuple[int, CacheKey]


class ResultCache:
    """A bounded, thread-safe LRU over evaluated answers.

    Parameters
    ----------
    capacity:
        Maximum number of distinct keys to retain.  ``0`` disables the
        cache entirely — :meth:`wrap` then returns the computation
        unchanged, so a disabled cache costs nothing on the query path.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValidationError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[_StoredKey, MatchArrays]" = OrderedDict()  # guarded-by: _lock
        # Re-entrant so registry updates made while the cache lock is
        # already held (and stats() snapshots) serialize on one monitor.
        self._lock = threading.RLock()
        self._generation = 0  # guarded-by: _lock
        self._metrics = MetricsRegistry(lock=self._lock)
        self._hits = self._metrics.counter("cache_hits_total")
        self._misses = self._metrics.counter("cache_misses_total")
        self._evictions = self._metrics.counter("cache_evictions_total")
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

    # -- core operations ----------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[MatchArrays]:
        """The cached answer for ``key``, or ``None`` (counts a hit or miss).

        Only entries written under the current generation are reachable.
        """
        if not self.enabled:
            return None
        fire(SITE_CACHE_ACCESS)
        with self._lock:
            stored = (self._generation, key)
            value = self._entries.get(stored)
            if value is None:
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
            return (self._generation, key) in self._entries

    def put(
        self, key: CacheKey, value: MatchArrays, *, generation: Optional[int] = None
    ) -> None:
        """Store the (immutable, uncopied) answer ``value`` under ``key``.

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
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            stored = (self._generation, key)
            if stored in self._entries:
                self._entries.move_to_end(stored)
                self._entries[stored] = value
                return
            self._entries[stored] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def wrap(
        self, key: CacheKey, compute: Callable[[], MatchArrays]
    ) -> Callable[[], MatchArrays]:
        """A lazy evaluation closure: cache lookup first, ``compute`` on miss.

        The returned callable is what a :class:`SearchResult` evaluates —
        nothing happens (no lookup, no counters) until the result is
        touched.  A hit returns the stored answer itself: it is immutable,
        so every hit shares it without a copy.
        """
        if not self.enabled:
            return compute

        def evaluate() -> MatchArrays:
            cached = self.get(key)
            if cached is not None:
                return cached
            # Capture the generation *before* computing: if the index is
            # replaced mid-evaluation, put() drops this (now stale) answer.
            generation = self._generation
            value = compute()
            if value.failed_shards:
                # Never cache a degraded answer: a shard outage must cost
                # re-evaluation on the next request, not pin the partial
                # result until eviction or a generation bump.
                return value
            self.put(key, value, generation=generation)
            return value

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
        """Zero the hit / miss / eviction counters."""
        with self._lock:
            self._hits.reset()
            self._misses.reset()
            self._evictions.reset()

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
            hits, misses, evictions = self._hits.value, self._misses.value, self._evictions.value
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
            "generation": generation,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }
