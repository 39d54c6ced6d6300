"""Unified query vocabulary of the :mod:`repro.api` façade.

Every index variant answers the same request shape:

* :class:`SearchRequest` — an immutable ``(pattern, tau, top_k)`` triple
  with the unified ``tau`` semantics of :func:`repro.core.base.resolve_tau`
  (``None`` means "everything the index can see": ``tau_min`` for indexes
  with a construction threshold, the tiny positive floor otherwise).
* :class:`SearchResult` — a lazy, pageable view over the answer.  Nothing
  is computed until the result is first touched, so building a large batch
  of requests costs nothing until each answer is actually consumed, and a
  batch engine can share one evaluation across duplicated requests.

An answer is a :class:`repro.core.base.MatchArrays` (ids and values as
read-only arrays).  Results read as either :class:`repro.core.base.Occurrence`
records (substring search) or :class:`repro.core.base.ListingMatch` records
(document listing), built only when a caller reads them; the sequence
protocol, paging and counting behave identically for both.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple, Union, overload

from .._validation import check_nonempty_pattern, check_threshold
from ..core.base import Match, MatchArrays, resolve_tau
from ..exceptions import ValidationError

if TYPE_CHECKING:
    from ..obs.trace import Trace

#: Largest accepted ``timeout_ms``: the longest wait ``threading`` can
#: express (``threading.TIMEOUT_MAX`` seconds, about 292 years on 64-bit
#: platforms).  A longer budget would overflow the executors' waits.
TIMEOUT_MS_MAX = threading.TIMEOUT_MAX * 1000.0


class PartialAnswer(List[Match]):
    """A degraded answer's records: matches from the healthy shards only.

    A :class:`~repro.api.sharding.ShardedEngine` running with
    ``partial=True`` answers with a :class:`~repro.core.base.MatchArrays`
    whose ``failed_shards`` is non-empty when one or more shards still fail
    after crash recovery; :attr:`SearchResult.matches` then reads as this
    list instead of a plain one.  It behaves exactly like the list it is,
    but carries :attr:`failed_shards` so a caller can tell a complete
    answer from a degraded one.  Degraded answers are never cached
    (:meth:`~repro.api.cache.ResultCache.wrap` skips them) — the next
    request re-asks the shards instead of pinning the degraded answer for
    the cache's lifetime.
    """

    __slots__ = ("failed_shards",)

    def __init__(self, matches: Sequence[Match], failed_shards: Sequence[int]) -> None:
        super().__init__(matches)
        self.failed_shards: Tuple[int, ...] = tuple(failed_shards)


@dataclass(frozen=True)
class SearchRequest:
    """One threshold query against an :class:`repro.api.Engine`.

    Attributes
    ----------
    pattern:
        The deterministic pattern to search for (non-empty).
    tau:
        Probability (or relevance) threshold.  ``None`` resolves to the
        index's minimum supported threshold — see
        :func:`repro.core.base.resolve_tau`.
    top_k:
        When set, only the ``top_k`` most probable (most relevant) answers
        are produced, in decreasing probability order; when ``None`` all
        answers above the threshold are reported in position (document)
        order.
    timeout_ms:
        Optional end-to-end deadline budget in milliseconds, a finite
        number in ``(0, TIMEOUT_MS_MAX]``.  ``None`` (default) means
        unbounded.  A budgeted request raises
        :class:`~repro.exceptions.DeadlineExceededError` (HTTP 504) once
        the budget is spent instead of waiting: the serving tier stops
        waiting for the answer, and a sharded engine stops waiting on its
        worker futures.  The budget never changes the *answer* — equal
        ``(pattern, tau, top_k)`` requests share cache entries and batch
        deduplication regardless of their budgets.
    trace:
        Optional :class:`repro.obs.trace.Trace` collecting per-stage span
        timings for this request.  Excluded from equality, hashing and
        ``repr`` so a traced request dedupes, caches and batch-refines
        byte-identically to an untraced one; ``None`` (default) keeps
        every layer on its zero-overhead fast path.
    """

    pattern: str
    tau: Optional[float] = None
    top_k: Optional[int] = None
    timeout_ms: Optional[float] = None
    trace: Optional["Trace"] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_nonempty_pattern(self.pattern)
        if self.tau is not None:
            check_threshold(self.tau)
        if self.top_k is not None and self.top_k <= 0:
            raise ValidationError(f"top_k must be positive, got {self.top_k}")
        # Written so that NaN fails too: every comparison with it is false.
        if self.timeout_ms is not None and not 0 < self.timeout_ms <= TIMEOUT_MS_MAX:
            raise ValidationError(
                f"timeout_ms must be a finite number of milliseconds in "
                f"(0, {TIMEOUT_MS_MAX:.6g}] (or None), got {self.timeout_ms}"
            )

    def resolve_tau(self, tau_min: float) -> float:
        """Concrete threshold this request uses against an index with ``tau_min``."""
        return resolve_tau(self.tau, tau_min)

    @staticmethod
    def coerce(
        request: Union["SearchRequest", str],
        *,
        tau: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> "SearchRequest":
        """Accept a bare pattern or an existing request (with overrides)."""
        if isinstance(request, SearchRequest):
            if tau is None and top_k is None:
                return request
            return SearchRequest(
                request.pattern,
                tau=request.tau if tau is None else tau,
                top_k=request.top_k if top_k is None else top_k,
                timeout_ms=request.timeout_ms,
                trace=request.trace,
            )
        return SearchRequest(request, tau=tau, top_k=top_k)


class SearchResult(Sequence[Match]):
    """Lazy, pageable answer to one :class:`SearchRequest`.

    The underlying query runs on first access and its answer is cached, so
    a result can be handed around, paged and re-read without repeating any
    index work — and a result that is never touched never costs anything.

    The answer is a :class:`~repro.core.base.MatchArrays` (:attr:`arrays`),
    and :attr:`count`, :attr:`exists`, :attr:`partial`,
    :attr:`failed_shards` and :meth:`positions` read it without building a
    record.  :attr:`matches` (and iteration and indexing) builds the
    :class:`~repro.core.base.Occurrence` / :class:`~repro.core.base.ListingMatch`
    records once, on first access; :meth:`page` and :meth:`pages` build
    only the records of the requested page.

    Examples
    --------
    >>> from repro import UncertainString, build_index
    >>> engine = build_index(UncertainString([{"a": 0.9, "b": 0.1}, {"a": 1.0}]),
    ...                      tau_min=0.05)
    >>> result = engine.search("aa", tau=0.5)
    >>> result.count
    1
    >>> [occ.position for occ in result]
    [0]
    """

    def __init__(
        self, request: SearchRequest, evaluate: Callable[[], MatchArrays]
    ) -> None:
        self._request = request
        self._evaluate = evaluate
        self._arrays: Optional[MatchArrays] = None
        self._matches: Optional[List[Match]] = None

    # -- laziness -------------------------------------------------------------------
    @property
    def request(self) -> SearchRequest:
        """The request this result answers."""
        return self._request

    @property
    def evaluated(self) -> bool:
        """Whether the underlying query has run yet."""
        return self._arrays is not None

    @property
    def arrays(self) -> MatchArrays:
        """The answer's read-only arrays (runs the query on first access)."""
        if self._arrays is None:
            self._arrays = self._evaluate()
        return self._arrays

    @property
    def matches(self) -> List[Match]:
        """The full answer as records, built on first access.

        A degraded answer reads as a :class:`PartialAnswer`.
        """
        if self._matches is None:
            arrays = self.arrays
            if arrays.failed_shards:
                self._matches = PartialAnswer(arrays, arrays.failed_shards)
            else:
                self._matches = list(arrays)
        return self._matches

    # -- degradation metadata ---------------------------------------------------------
    @property
    def partial(self) -> bool:
        """Whether this answer is degraded (some shards failed to answer).

        Only ``True`` for answers produced by a sharded engine running in
        ``partial=True`` mode while one or more shards stayed down after
        crash recovery; see :class:`PartialAnswer`.  Accessing this
        evaluates the result.
        """
        return bool(self.arrays.failed_shards)

    @property
    def failed_shards(self) -> Tuple[int, ...]:
        """Shard ordinals missing from a partial answer (empty when complete)."""
        return self.arrays.failed_shards

    # -- sequence protocol ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrays)

    def __iter__(self) -> Iterator[Match]:
        return iter(self.matches)

    @overload
    def __getitem__(self, item: int) -> Match: ...

    @overload
    def __getitem__(self, item: slice) -> List[Match]: ...

    def __getitem__(self, item: Union[int, slice]) -> Union[Match, List[Match]]:
        return self.matches[item]

    def __repr__(self) -> str:
        arrays = self._arrays
        state = f"{len(arrays)} matches" if arrays is not None else "pending"
        return f"SearchResult(pattern={self._request.pattern!r}, {state})"

    # -- conveniences ---------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of matches."""
        return len(self.arrays)

    @property
    def exists(self) -> bool:
        """Whether at least one match was found."""
        return len(self.arrays) > 0

    def page(self, offset: int = 0, limit: Optional[int] = None) -> List[Match]:
        """One page of the answer (``offset`` into the match list, ``limit`` long)."""
        if offset < 0:
            raise ValidationError(f"offset must be non-negative, got {offset}")
        if limit is not None and limit < 0:
            raise ValidationError(f"limit must be non-negative, got {limit}")
        end = None if limit is None else offset + limit
        return list(self.arrays[offset:end])

    def pages(self, size: int) -> Iterator[List[Match]]:
        """Iterate the answer in pages of ``size`` matches."""
        if size <= 0:
            raise ValidationError(f"page size must be positive, got {size}")
        arrays = self.arrays
        for offset in range(0, len(arrays), size):
            yield list(arrays[offset : offset + size])

    def positions(self) -> List[int]:
        """Positions (or document identifiers) of the matches, in answer order."""
        ids: List[int] = self.arrays.ids.tolist()
        return ids
