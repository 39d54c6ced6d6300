"""The :class:`Engine` façade and the :func:`build_index` factory.

This module is the documented front door of the package: callers hand
:func:`build_index` whatever they have — a plain string, an
:class:`~repro.strings.UncertainString`, a
:class:`~repro.strings.SpecialUncertainString`, a collection or a sequence
of documents — and get back an :class:`Engine` wrapping the index the
planner selected (see :mod:`repro.api.planner`).  The engine answers the
unified :class:`~repro.api.requests.SearchRequest` vocabulary, batches
queries through :func:`repro.api.batch.execute_batch`, and persists itself
with :meth:`Engine.save` / :func:`load_index`.

The underlying :mod:`repro.core` classes remain public and unchanged —
the engine is a façade, not a replacement — and ``engine.index`` exposes
the wrapped instance for callers that need variant-specific extras.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Union

from ..core.base import MatchArrays, evaluate_request
from ..core.listing import UncertainStringListingIndex
from ..obs.profile import active_profiler
from ..strings.special import SpecialUncertainString
from ..strings.uncertain import UncertainString
from .batch import WindowEvaluator, execute_batch
from .cache import DEFAULT_CACHE_SIZE, CacheKey, ResultCache
from .persistence import (
    index_from_payload,
    index_to_payload,
    is_sharded_archive,
    load_index_payload,
    save_index_payload,
)
from .planner import IndexInput, IndexPlan, normalize_input, plan_index
from .requests import Match, SearchRequest, SearchResult


class QueryEngine:
    """The query surface shared by :class:`Engine` and ``ShardedEngine``.

    Subclasses provide ``_evaluate(request)`` (the actual index work), a
    ``_cache`` attribute (:class:`~repro.api.cache.ResultCache`), the
    ``kind`` / ``tau_min`` / ``is_listing`` properties and
    :meth:`_refine_allowed`; this base turns those into the full public
    vocabulary — ``search`` / ``search_many`` / ``query`` / ``top_k`` /
    ``count`` / ``exists`` — with one cache-key shape and one caching
    policy, so the two engine types cannot drift apart.
    """

    _cache: ResultCache

    def _evaluate(self, request: SearchRequest) -> MatchArrays:
        raise NotImplementedError

    def _refine_allowed(self) -> bool:
        """Whether batch threshold refinement is exact on this engine."""
        raise NotImplementedError

    def _window_evaluator(self) -> Optional[WindowEvaluator]:
        """How a batch's direct misses are evaluated together, if at all.

        ``None`` (the plain :class:`Engine`) keeps every batch result
        lazy on its own; a sharded engine returns its window fan-out.
        """
        return None

    def _cache_key(self, request: SearchRequest) -> CacheKey:
        return (request.pattern, request.tau, request.top_k, self.kind)

    def search(
        self,
        request: Union[SearchRequest, str],
        *,
        tau: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> SearchResult:
        """Answer one request (lazily — the query runs on first access).

        ``request`` may be a bare pattern (with ``tau`` / ``top_k`` given as
        keywords) or a :class:`SearchRequest`.  Evaluation routes through
        the result cache: a repeated request never touches the index.
        """
        normalized = SearchRequest.coerce(request, tau=tau, top_k=top_k)
        return SearchResult(normalized, self._wrapped_compute(normalized))

    def _wrapped_compute(self, request: SearchRequest) -> Callable[[], MatchArrays]:
        """The cached evaluation closure, with a ``cache`` span when traced.

        The cache span's ``hit`` meta is derived from whether the wrapped
        computation added any records to the trace: a cache hit never
        reaches ``_evaluate``, so the record count stays unchanged.
        """
        compute = self._cache.wrap(
            self._cache_key(request), lambda: self._evaluate(request)
        )
        trace = request.trace
        if trace is None:
            return compute

        def traced() -> MatchArrays:
            before = trace.size()
            with trace.span("cache", parent="evaluate") as meta:
                value = compute()
                meta["hit"] = trace.size() == before
            return value

        return traced

    def search_many(
        self,
        requests: Sequence[Union[SearchRequest, str]],
        *,
        tau: Optional[float] = None,
    ) -> List[SearchResult]:
        """Answer a batch of requests, amortizing work across them.

        Identical requests share one evaluation; engines whose index
        compares match values in linear space additionally share one
        traversal per pattern at the lowest threshold (see
        :mod:`repro.api.batch` and :meth:`_refine_allowed`).  Every result
        — direct or refined — reads and writes the result cache under its
        own key, so a repeated batch is answered entirely from memory.
        Results come back in request order and stay lazy until consumed;
        on a sharded engine, touching one evaluates the batch's direct
        cache misses together (one shard fan-out for the window).
        """
        return execute_batch(
            requests,
            self._evaluate,
            self.tau_min,
            default_tau=tau,
            refine_tau=self._refine_allowed(),
            cache=self._cache,
            cache_key=self._cache_key,
            evaluate_window=self._window_evaluator(),
        )

    def query(self, pattern: str, tau: Optional[float] = None) -> List[Match]:
        """Eager threshold query (the classic ``index.query`` shape)."""
        return self.search(pattern, tau=tau).matches

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> List[Match]:
        """The ``k`` most probable (most relevant) matches of ``pattern``."""
        return self.search(pattern, tau=tau, top_k=k).matches

    def count(self, pattern: str, tau: Optional[float] = None) -> int:
        """Number of matches of ``pattern`` above the threshold."""
        return self.search(pattern, tau=tau).count

    def exists(self, pattern: str, tau: Optional[float] = None) -> bool:
        """Whether ``pattern`` matches anywhere above the threshold."""
        return self.search(pattern, tau=tau).exists


class Engine(QueryEngine):
    """One built index behind the unified query vocabulary.

    Engines are normally created through :func:`build_index` (which plans
    and constructs the index) or :func:`load_index` (which restores a
    saved one); the constructor accepts any already-built core index plus
    the plan describing it.

    Every engine carries an LRU :class:`~repro.api.cache.ResultCache` on
    its evaluation path (``cache_size=0`` disables it): repeated requests —
    single or batched — are answered from memory without touching the
    index, and hit/miss/eviction counters surface in :meth:`describe`.
    """

    def __init__(
        self,
        index: Any,
        plan: IndexPlan,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self._index = index
        self._plan = plan
        self._cache = ResultCache(cache_size)

    # -- introspection -----------------------------------------------------------------
    @property
    def index(self) -> Any:
        """The wrapped :mod:`repro.core` index instance."""
        return self._index

    @property
    def plan(self) -> IndexPlan:
        """The plan that selected (or restored) this index."""
        return self._plan

    @property
    def kind(self) -> str:
        """Index kind: special / general / approximate / listing."""
        return self._plan.kind

    @property
    def tau_min(self) -> float:
        """Smallest query threshold the wrapped index supports."""
        return float(self._index.tau_min)

    @property
    def is_listing(self) -> bool:
        """Whether results carry ListingMatch (documents) instead of Occurrence."""
        return self._plan.kind == "listing"

    @property
    def cache(self) -> ResultCache:
        """The engine's LRU result cache (disabled when ``cache_size=0``)."""
        return self._cache

    def describe(self) -> dict:
        """Summary of the engine: kind, selection reason, profile, cache, space."""
        return {
            "kind": self.kind,
            "reason": self._plan.reason,
            "tau_min": self.tau_min,
            "profile": dict(self._plan.profile),
            "cache": self._cache.stats(),
            "space_report": self.space_report(),
        }

    def space_report(self) -> dict:
        """Byte sizes of the wrapped index's components."""
        return self._index.space_report()

    def nbytes(self) -> int:
        """Total approximate memory footprint of the wrapped index."""
        return int(self._index.nbytes())

    def __repr__(self) -> str:
        return f"Engine(kind={self.kind!r}, tau_min={self.tau_min}, nbytes={self.nbytes()})"

    # -- queries -----------------------------------------------------------------------
    def _evaluate(self, request: SearchRequest) -> MatchArrays:
        trace = request.trace
        profiler = active_profiler()
        if trace is None and profiler is None:
            # Zero-overhead fast path: no timers unless someone is looking.
            return evaluate_request(
                self._index, request.pattern, request.tau, request.top_k
            )
        start = time.perf_counter()
        answer = evaluate_request(self._index, request.pattern, request.tau, request.top_k)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if trace is not None:
            trace.add("kernel", elapsed_ms, parent="cache",
                      kind=self.kind, matches=len(answer))
        if profiler is not None and profiler.should_sample():
            profiler.observe(self.kind, elapsed_ms)
        return answer

    def _refine_allowed(self) -> bool:
        # Refinement is exact only when the index both stores and compares
        # the reported relevance directly: the listing index without the
        # correlated-collection verification step (which prunes candidates
        # on pre-verification values a filter over reported relevance
        # cannot reproduce).  The substring indexes compare in log space —
        # see :mod:`repro.api.batch` for the full argument.
        return self.is_listing and not self._index.needs_verification

    # -- index replacement --------------------------------------------------------------
    def replace_index(self, index: Any, plan: Optional[IndexPlan] = None) -> None:
        """Swap the wrapped index in place, invalidating the result cache.

        A serving deployment that rebuilds or reloads its index without
        restarting (e.g. behind an :class:`~repro.serving.AsyncSearchService`)
        must not answer new requests from results the *old* index produced;
        this bumps the cache's generation tag
        (:meth:`~repro.api.cache.ResultCache.bump_generation`) so every
        previously cached entry becomes unreachable in O(1).
        """
        self._index = index
        if plan is not None:
            self._plan = plan
        self._cache.bump_generation()

    # -- persistence -------------------------------------------------------------------
    def save(self, path: Union[str, Path], *, compact: bool = False) -> Path:
        """Serialize the engine to an ``.npz`` archive.

        The archive is the index's :class:`~repro.payload.IndexPayload` —
        every stored numpy component (suffix arrays, LCP, cumulative
        tables, per-length value arrays, links, RMQ block positions) plus
        a JSON manifest with the format version, the plan and the indexed
        string — written as an uncompressed, memory-mappable zip, so
        :func:`load_index` restores an engine whose answers are
        byte-identical to this one without re-running construction.
        ``compact=True`` writes narrowed dtypes and bit-packed booleans,
        with byte-identical answers on restore (see
        :func:`repro.api.persistence.save_index_payload`).
        """
        return save_index_payload(self._index, self._plan, path, compact=compact)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        mmap: bool = False,
    ) -> "Engine":
        """Restore an engine saved with :meth:`save`.

        ``mmap=True`` opens the heavy arrays as read-only memory maps into
        the archive (zero-copy cold start; concurrent processes share the
        pages) — see :func:`repro.api.persistence.load_index_payload`.
        """
        index, plan = load_index_payload(path, mmap=mmap)
        return cls(index, plan, cache_size=cache_size)


def build_index(
    data: IndexInput,
    *,
    tau_min: Optional[float] = None,
    kind: str = "auto",
    epsilon: Optional[float] = None,
    metric: str = "max",
    cache_size: int = DEFAULT_CACHE_SIZE,
    compact: bool = False,
    **options: Any,
) -> Engine:
    """Plan, build and wrap the right index for ``data``.

    This is the package's front door: it accepts a plain string, an
    :class:`UncertainString`, a :class:`SpecialUncertainString`, an
    :class:`UncertainStringCollection` or a sequence of documents, runs
    :func:`repro.api.planner.plan_index` (honouring ``kind=...``
    overrides), constructs the selected :mod:`repro.core` index and
    returns it wrapped in an :class:`Engine`.

    ``epsilon=`` selects the approximate index for a general input.
    The plan depends only on the input and these arguments.

    ``compact=True`` re-materializes the freshly built index from its
    dtype-minimized payload (:meth:`repro.payload.IndexPayload.compact`):
    every stored integer array is narrowed to the smallest dtype that
    holds its value range and bulky derived tables are rebuilt in their
    compact form, typically shrinking the in-RAM footprint several-fold
    while keeping answers byte-identical (probabilities stay float64).

    Examples
    --------
    >>> from repro import UncertainString, build_index
    >>> engine = build_index(UncertainString([
    ...     {"A": 0.6, "C": 0.4}, {"T": 1.0}, {"A": 0.5, "G": 0.5},
    ... ]), tau_min=0.1)
    >>> engine.kind
    'general'
    >>> [occ.position for occ in engine.search("AT", tau=0.3)]
    [0]
    """
    # Normalize once: plan_index passes already-canonical inputs through, so
    # the planner profiles the exact object the index is built over.
    normalized = normalize_input(data)
    plan = plan_index(
        normalized,
        tau_min=tau_min,
        kind=kind,
        epsilon=epsilon,
        metric=metric,
        **options,
    )
    index = _construct(plan, normalized)
    if compact:
        # Round-trip through the dtype-minimized payload: narrowing is a
        # property of the stored arrays, so restore-from-compact yields an
        # index whose in-RAM arrays carry the narrow dtypes directly.
        index = index_from_payload(index_to_payload(index).compact())
    return Engine(index, plan, cache_size=cache_size)


def _construct(plan: IndexPlan, normalized: Any) -> Any:
    """Instantiate the planned index class with the right input shape.

    ``plan.prepared_input`` carries the exact constructor argument the
    planner already derived (special-string view, converted string, the
    collection); the fallbacks below only run for hand-made plans.
    """
    options = dict(plan.options)
    if plan.kind == "listing":
        collection = plan.prepared_input if plan.prepared_input is not None else normalized
        return UncertainStringListingIndex(collection, plan.tau_min, **options)
    if plan.kind == "special":
        string = plan.prepared_input
        if string is None:
            string = normalized
            if isinstance(string, UncertainString):
                from .planner import _special_view

                string = _special_view(string)
        return plan.index_class(string, **options)
    # general / approximate indexes take a general uncertain string.
    string = plan.prepared_input
    if string is None:
        string = normalized
        if isinstance(string, SpecialUncertainString):
            string = string.to_uncertain_string()
    return plan.index_class(string, plan.tau_min, **options)


def load_index(
    path: Union[str, Path],
    *,
    cache_size: int = DEFAULT_CACHE_SIZE,
    mmap: bool = False,
    query_executor: str = "thread",
) -> Any:
    """Restore any saved engine — plain ``.npz`` archive or sharded directory.

    Dispatches on the archive shape: a directory holding a shard manifest
    restores a :class:`~repro.api.sharding.ShardedEngine`, everything else
    an :class:`Engine` — so callers round-trip both engine types through
    one function.

    ``mmap=True`` opens every archive memory-mapped (zero-copy cold start,
    page-cache sharing across processes).  ``query_executor`` selects the
    sharded engine's fan-out mode (``"thread"`` or ``"process"``; ignored
    for unsharded archives) — combined with ``mmap=True`` the process
    workers each map the same shard archives, so a fleet of workers holds
    one physical copy of the index.
    """
    if is_sharded_archive(path):
        from .sharding import ShardedEngine

        return ShardedEngine.load(
            path,
            cache_size=cache_size,
            mmap=mmap,
            query_executor=query_executor,
        )
    return Engine.load(path, cache_size=cache_size, mmap=mmap)
