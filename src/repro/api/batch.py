"""Batch query execution for the :mod:`repro.api` façade.

``Engine.search_many`` funnels through :func:`execute_batch`, which
amortizes work across the batch without touching index internals:

* **Deduplication** — identical requests share one lazy evaluation (and one
  cached answer); serving workloads are full of repeated patterns.
* **Threshold refinement** — several plain-reporting requests for the
  *same pattern* at different thresholds trigger a single index traversal
  at the lowest threshold; the tighter answers are derived by filtering the
  base answer (a match reported above ``tau₁`` is above ``tau₂ > tau₁``
  exactly when its value clears ``tau₂``).  Refinement is enabled only for
  engines whose index both stores and compares match values in the same
  linear space the filter uses — the listing index, whose ``ListingMatch``
  carries the exact float the direct query compares against ``tau``, so the
  derived answer is bit-identical to a direct query.  The substring indexes
  compare in *log* space and report ``exp(value)``; a linear filter over
  the reported probabilities can flip a strict comparison within a ulp of
  the boundary, and the approximate index additionally carries an additive
  error — both therefore run each distinct request directly.  ``top_k``
  requests also always run directly: their boundary semantics admit values
  a hair below ``tau`` (the indexes apply a 1e-12 tolerance), which a
  filter over a plain query's answer cannot reproduce — and the heap-driven
  ``top_k`` path is already output-sensitive, so there is little to save.

Everything stays lazy: nothing runs until some result in the batch is
actually consumed.  On a plain ``Engine``, consuming one result
materializes only the evaluations it depends on.  An engine that fans
out to shards passes a *window evaluator* instead: the first touch of
any result hands it every direct evaluation of the batch that the result
cache cannot answer, together, so the whole batch costs one shard
fan-out; each result still reads (and caches) only its own answer.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.base import Occurrence
from .cache import CacheKey, ResultCache
from .requests import Match, PartialAnswer, SearchRequest, SearchResult

#: Key identifying requests that can share one evaluation verbatim.
#: ``timeout_ms`` is deliberately absent: the budget changes how long a
#: caller waits, never what the answer is.
_RequestKey = Tuple[str, Optional[float], Optional[int]]

#: Evaluates several requests together: one lazy evaluator per request,
#: in order (see ``ShardedEngine._evaluate_window``).
WindowEvaluator = Callable[
    [Sequence[SearchRequest]], List[Callable[[], List[Match]]]
]


def _match_value(match: Match) -> float:
    """The probability (occurrence) or relevance (listing match) of a match."""
    if isinstance(match, Occurrence):
        return match.probability
    return match.relevance


def _carry_partial(base: SearchResult, matches: List[Match]) -> List[Match]:
    """Tag ``matches`` as partial when the answer they derive from is.

    A result filtered or shared from a degraded base answer is itself
    degraded — the failed shards' matches are missing from it just the
    same — so the :class:`PartialAnswer` metadata must survive refinement
    and same-threshold sharing (and keep the derived answer out of the
    cache).
    """
    source = base.matches
    if isinstance(source, PartialAnswer):
        return PartialAnswer(matches, source.failed_shards)
    return matches


def _derive_filtered(base: SearchResult, tau: float) -> Callable[[], List[Match]]:
    """Answer at threshold ``tau`` derived from a lower-threshold answer."""
    return lambda: _carry_partial(
        base, [match for match in base.matches if _match_value(match) > tau]
    )


def execute_batch(
    requests: Sequence[Union[SearchRequest, str]],
    evaluate: Callable[[SearchRequest], List[Match]],
    tau_min: float,
    *,
    default_tau: Optional[float] = None,
    refine_tau: bool = True,
    cache: Optional[ResultCache] = None,
    cache_key: Optional[Callable[[SearchRequest], CacheKey]] = None,
    evaluate_window: Optional[WindowEvaluator] = None,
) -> List[SearchResult]:
    """Turn a batch of requests into (shared, lazy, cacheable) results.

    Parameters
    ----------
    requests:
        Bare patterns or :class:`SearchRequest` objects.
    evaluate:
        Callback running one request against the engine's index.
    tau_min:
        The index's minimum supported threshold (for ``tau=None``
        resolution when grouping).
    default_tau:
        Threshold applied to bare-pattern entries.
    refine_tau:
        Enable same-pattern threshold refinement.  Only engines whose
        index compares match values in linear space (the listing index)
        pass ``True`` — see the module docstring.
    cache, cache_key:
        Optional engine-level :class:`~repro.api.cache.ResultCache` plus
        the engine's request→key function.  Every result in the batch —
        direct, refined-by-filtering, and the shared base evaluation —
        has its final evaluation closure wrapped in the cache, so a batch
        both *reads* earlier answers (a repeated batch is pure cache hits,
        never touching the index) and *writes* its own (a later single
        ``search`` reuses batch work).  The wrap happens once, at the
        result level, so dedupe and refinement never double-probe.
    evaluate_window:
        Optional engine callback evaluating several requests at once.
        When given, the first touch of any result hands it every direct
        evaluation of the batch (distinct requests and refinement bases)
        that the cache cannot answer; each of those results then reads
        its own evaluator.  ``None`` keeps every result lazy on its own.
    """
    # The batch-level default applies to bare patterns only — an explicit
    # SearchRequest keeps its own threshold.
    normalized = [
        request
        if isinstance(request, SearchRequest)
        else SearchRequest(request, tau=default_tau)
        for request in requests
    ]

    # Base (lowest-threshold full query) per pattern, for refinement.
    # Requests whose explicit threshold is below the index's tau_min are
    # never usable as a base: their own evaluation raises, and deriving a
    # valid request's answer from them would propagate that error.
    base_for_pattern: Dict[str, SearchRequest] = {}
    if refine_tau:
        for request in normalized:
            if request.top_k is not None:
                continue
            if request.tau is not None and request.tau < tau_min:
                continue
            current = base_for_pattern.get(request.pattern)
            if current is None or request.resolve_tau(tau_min) < current.resolve_tau(tau_min):
                base_for_pattern[request.pattern] = request

    shared: Dict[_RequestKey, SearchResult] = {}
    # Window hand-off state: direct evaluations not yet handed to the
    # engine, and handed-over evaluators not yet consumed.
    unsent: Dict[_RequestKey, SearchRequest] = {}
    handed: Dict[_RequestKey, Callable[[], List[Match]]] = {}
    handoff = threading.Lock()

    def in_cache(request: SearchRequest) -> bool:
        return cache is not None and cache_key is not None and cache.contains(
            cache_key(request)
        )

    def direct(request: SearchRequest) -> Callable[[], List[Match]]:
        """The evaluation of a request the engine answers itself."""
        if evaluate_window is None:
            return lambda: evaluate(request)
        evaluate_together: WindowEvaluator = evaluate_window
        key: _RequestKey = (request.pattern, request.tau, request.top_k)
        unsent[key] = request

        def compute() -> List[Match]:
            with handoff:
                evaluator = handed.pop(key, None)
                if evaluator is None:
                    # First touch (or a request the cache answered when the
                    # window left): send it with every unsent miss.
                    unsent.pop(key, None)
                    window = [request] + [
                        other for other in unsent.values() if not in_cache(other)
                    ]
                    unsent.clear()
                    evaluator, *rest = evaluate_together(window)
                    handed.update(
                        ((other.pattern, other.tau, other.top_k), later)
                        for other, later in zip(window[1:], rest)
                    )
            return evaluator()

        return compute

    def wrapped(
        request: SearchRequest, compute: Callable[[], List[Match]]
    ) -> Callable[[], List[Match]]:
        if cache is None or cache_key is None:
            return compute
        cached = cache.wrap(cache_key(request), compute)
        trace = request.trace
        if trace is None:
            return cached

        def traced() -> List[Match]:
            # A cache hit never reaches the engine, so the trace gains no
            # records from the wrapped computation — that is the hit signal.
            before = trace.size()
            with trace.span("cache", parent="evaluate") as meta:
                value = cached()
                meta["hit"] = trace.size() == before
            return value

        return traced

    def result_for(request: SearchRequest) -> SearchResult:
        key: _RequestKey = (request.pattern, request.tau, request.top_k)
        existing = shared.get(key)
        if existing is not None:
            return existing

        # top_k requests run directly (identical duplicates still share
        # through the key above); refinement applies to plain reporting only.
        base_request = (
            base_for_pattern.get(request.pattern) if request.top_k is None else None
        )
        base_result = None
        if base_request is not None and base_request is not request:
            base_key: _RequestKey = (base_request.pattern, base_request.tau, None)
            base_result = shared.get(base_key)
            if base_result is None:
                base_result = SearchResult(
                    base_request, wrapped(base_request, direct(base_request))
                )
                shared[base_key] = base_result

        tau = request.resolve_tau(tau_min)
        if base_result is not None and base_result.request.resolve_tau(tau_min) < tau:
            result = SearchResult(
                request, wrapped(request, _derive_filtered(base_result, tau))
            )
        elif base_result is not None and (
            base_result.request.resolve_tau(tau_min) == tau
        ):
            # Same pattern, same threshold, possibly different spelling of
            # the default — share the base evaluation outright.
            shared_base = base_result
            result = base_result if base_result.request == request else SearchResult(
                request,
                wrapped(
                    request,
                    lambda: _carry_partial(shared_base, list(shared_base.matches)),
                ),
            )
        else:
            result = SearchResult(request, wrapped(request, direct(request)))
        shared[key] = result
        return result

    return [result_for(request) for request in normalized]
