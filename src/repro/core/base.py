"""Shared result types and helpers for the uncertain-string indexes.

Every index in :mod:`repro.core` answers queries with the same vocabulary:

* :class:`Occurrence` — one position of the indexed uncertain string where
  the query pattern occurs with probability above the threshold.
* :class:`ListingMatch` — one document of a collection that contains the
  pattern with relevance above the threshold (Section 6).

The module also hosts the range-maximum reporting kernels shared by the
efficient indexes (Algorithm 2 / Algorithm 4 of the paper): repeatedly
extract the maximum of a value array inside a suffix range and recurse on
both sides until the maximum drops below the threshold.  The production
kernels — :func:`report_above_threshold` and
:func:`top_values_above_threshold` — are *vectorized*: they drive the whole
frontier of live sub-ranges through ``rmq.query_batch`` and return numpy
rank arrays, so no Python-level RMQ probe runs per reported occurrence.
The original per-probe implementations remain as
:func:`report_above_threshold_scalar` /
:func:`top_values_above_threshold_scalar`, the reference the property-based
equivalence suite pins the vectorized kernels against.
"""

from __future__ import annotations

# repro-check: hot-path — the reporting kernels here must stay vectorized;
# per-element Python work is only allowed in the *_scalar reference twins.

import abc
import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from .._validation import check_threshold
from ..exceptions import ValidationError
from ..payload import IndexPayload

#: Smallest threshold substituted when a ``top_k`` caller passes ``tau=None``
#: to an index whose ``tau_min`` is zero (thresholds enter log space, so an
#: exact zero is not representable).  Every index resolves the default the
#: same way through :func:`resolve_tau`.
DEFAULT_TAU_FLOOR = 1e-9


def resolve_tau(tau: Optional[float], tau_min: float) -> float:
    """Resolve the unified ``tau=None`` default of the ``top_k`` methods.

    ``None`` means *everything the index can see*: the construction threshold
    ``tau_min`` when it is positive (an index cannot report occurrences below
    it), and :data:`DEFAULT_TAU_FLOOR` for indexes that support any positive
    threshold (``tau_min == 0``).  An explicit ``tau`` is validated and used
    as-is.
    """
    if tau is None:
        return max(float(tau_min), DEFAULT_TAU_FLOOR)
    return check_threshold(tau)


@dataclass(frozen=True, order=True)
class Occurrence:
    """One probable occurrence of a pattern in an uncertain string.

    Attributes
    ----------
    position:
        Zero-based starting position in the *original* uncertain string.
    probability:
        Probability of occurrence of the pattern at that position.
    """

    position: int
    probability: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", int(self.position))
        object.__setattr__(self, "probability", float(self.probability))


@dataclass(frozen=True, order=True)
class ListingMatch:
    """One document reported by the string-listing index.

    Attributes
    ----------
    document:
        Document identifier within the indexed collection.
    relevance:
        Relevance value of the pattern in the document under the index's
        configured relevance metric (Section 6).
    """

    document: int
    relevance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "document", int(self.document))
        object.__setattr__(self, "relevance", float(self.relevance))


class SupportsRangeMaximum(Protocol):
    """Minimal protocol required of RMQ structures by the reporting routine."""

    def query(self, left: int, right: int) -> int:  # pragma: no cover - protocol
        ...

    def query_batch(
        self, lefts: Sequence[int], rights: Sequence[int]
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...


def report_above_threshold_scalar(
    rmq: SupportsRangeMaximum,
    values: np.ndarray,
    left: int,
    right: int,
    threshold: float,
) -> Iterator[int]:
    """Yield indices in ``[left, right]`` whose value exceeds ``threshold``.

    Scalar reference implementation of the recursive range-maximum
    reporting of the paper (Algorithm 2): query the RMQ for the maximum of
    the range; when it exceeds the threshold, report it and recurse into
    the two sub-ranges on either side; otherwise prune the whole range.
    The work is proportional to the number of reported indices (each
    report spawns at most two further RMQ probes), but every probe is a
    Python-level call — the production path is the vectorized
    :func:`report_above_threshold`, which the equivalence test suite pins
    to this generator.
    """
    if left > right:
        return
    # Explicit stack instead of recursion: suffix ranges can contain hundreds
    # of thousands of entries and Python's recursion limit is modest.
    stack: List[Tuple[int, int]] = [(left, right)]
    while stack:
        low, high = stack.pop()
        if low > high:
            continue
        best = rmq.query(low, high)
        if values[best] <= threshold:
            continue
        yield best
        if best > low:
            stack.append((low, best - 1))
        if best < high:
            stack.append((best + 1, high))


def report_above_threshold(
    rmq: SupportsRangeMaximum,
    values: np.ndarray,
    left: int,
    right: int,
    threshold: float,
) -> np.ndarray:
    """Indices in ``[left, right]`` whose value exceeds ``threshold``.

    Vectorized reporting kernel (Algorithm 2, batched): instead of probing
    the RMQ once per reported index, the whole *frontier* of live
    sub-ranges is answered by one :meth:`query_batch` call per round.
    Every round reports all frontier maxima above the threshold and splits
    their ranges; the number of Python-level rounds is the depth of the
    reporting recursion (logarithmic in the output size for typical value
    distributions) while the total RMQ work stays ``O(occ)``.

    Returns the reported indices as an ``int64`` array.  The set of
    indices is exactly what :func:`report_above_threshold_scalar` yields,
    but the order is frontier (breadth-first) order — callers sort by
    position/document before reporting, so no public answer depends on it.

    Parameters
    ----------
    rmq:
        A range *maximum* query structure built over ``values``.
    values:
        The value array the RMQ was built over (used to validate maxima).
    left, right:
        Inclusive range to report from.  An empty range (``left > right``)
        reports nothing.
    threshold:
        Strict lower bound on reported values.
    """
    if left > right:
        return np.empty(0, dtype=np.int64)
    lows = np.array([left], dtype=np.int64)
    highs = np.array([right], dtype=np.int64)
    reported: List[np.ndarray] = []
    while lows.size:
        best = rmq.query_batch(lows, highs)
        keep = values[best] > threshold
        lows, highs, best = lows[keep], highs[keep], best[keep]
        if best.size == 0:
            break
        reported.append(best)
        child_lows = np.concatenate([lows, best + 1])
        child_highs = np.concatenate([best - 1, highs])
        nonempty = child_lows <= child_highs
        lows = child_lows[nonempty]
        highs = child_highs[nonempty]
    if not reported:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(reported)


#: Bound on the extra entries :func:`top_values_above_threshold` extracts to
#: resolve value ties at the ``k``-th place.  Tie classes up to this size get
#: a deterministic tie-break; beyond it (realistically only runs of certain
#: characters, where every window ties at probability 1.0) the selection
#: within the boundary tie class is unspecified — the alternative would be
#: O(occ) work on every ``top_k`` over deterministic text.
TIE_EXTRACTION_LIMIT = 1024


def top_values_above_threshold_scalar(
    rmq: SupportsRangeMaximum,
    values: np.ndarray,
    left: int,
    right: int,
    k: int,
    threshold: float,
    *,
    include_ties: bool = False,
) -> List[int]:
    """Indices of the ``k`` largest values above ``threshold`` in ``[left, right]``.

    Scalar reference implementation, heap-driven: the candidate ranges are
    kept in a max-heap keyed by their range maximum, so the ``k`` largest
    entries are extracted in ``O((k + 1) log k)`` RMQ probes without
    visiting the rest of the range — but every probe is a Python-level
    call.  The production path is the batched
    :func:`top_values_above_threshold`, pinned to this one by the
    equivalence test suite.

    With ``include_ties`` the extraction continues past ``k`` while further
    entries tie the ``k``-th value exactly, up to
    :data:`TIE_EXTRACTION_LIMIT` extra entries (``O(k + t)`` probes for a
    boundary tie class of size ``t``).  Callers that promise a
    deterministic tie-break need this: the heap alone pops ties in
    suffix-rank discovery order, so a truncated extraction would keep an
    arbitrary subset of a tie class.  The limit keeps degenerate inputs
    (deterministic text, every window probability 1.0) output-sensitive
    instead of extracting the whole suffix range.
    """
    if left > right or k <= 0:
        return []
    results: List[int] = []
    last_kept = 0.0
    limit = k + TIE_EXTRACTION_LIMIT if include_ties else k
    best = rmq.query(left, right)
    heap: List[Tuple[float, int, int, int]] = [(-float(values[best]), best, left, right)]
    while heap and len(results) < limit:
        value = -heap[0][0]
        if value <= threshold:
            break
        if len(results) >= k and value != last_kept:
            break
        _, index, low, high = heapq.heappop(heap)
        results.append(index)
        last_kept = value
        if index > low:
            candidate = rmq.query(low, index - 1)
            heapq.heappush(heap, (-float(values[candidate]), candidate, low, index - 1))
        if index < high:
            candidate = rmq.query(index + 1, high)
            heapq.heappush(heap, (-float(values[candidate]), candidate, index + 1, high))
    return results


def _sort_by_value_then_rank(
    rank_chunks: List[np.ndarray], value_chunks: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate popped chunks and sort by ``(-value, rank)``.

    Shared by the in-loop stop check and the final truncation of
    :func:`top_values_above_threshold`, so the early-stop bound and the
    returned prefix always use the same ordering.
    """
    ranks = np.concatenate(rank_chunks)
    ordered_values = np.concatenate(value_chunks)
    order = np.lexsort((ranks, -ordered_values))
    return ranks[order], ordered_values[order]


def top_values_above_threshold(
    rmq: SupportsRangeMaximum,
    values: np.ndarray,
    left: int,
    right: int,
    k: int,
    threshold: float,
    *,
    include_ties: bool = False,
) -> np.ndarray:
    """Indices of the ``k`` largest values above ``threshold`` in ``[left, right]``.

    Batched variant of :func:`top_values_above_threshold_scalar`: the
    frontier of candidate ranges lives in parallel numpy arrays, every
    round pops the best ``p`` frontier entries at once (``p`` doubling each
    round, so the number of Python-level rounds is ``O(log k)``) and
    answers all of their children with a single :meth:`query_batch` call.
    The extraction stops as soon as no frontier maximum can still reach the
    result, using the same threshold / ``k``-th-value / tie rules as the
    scalar reference.

    Returns an ``int64`` array of indices sorted by ``(-value, index)``.
    With an RMQ whose ``query`` returns the *leftmost* optimum (the sparse
    table does), this is exactly the scalar heap's pop order; block RMQs
    may discover a within-tie-class member in a different order, but with
    ``include_ties`` the returned *set* is identical whenever the boundary
    tie class fits the :data:`TIE_EXTRACTION_LIMIT` budget — the same
    caveat the scalar version documents.  Without ``include_ties`` a tie
    class straddling the ``k`` boundary is truncated to its smallest-index
    members here versus heap-discovery-order members in the scalar
    reference (identical values either way); every index calls with
    ``include_ties=True``, where both kernels keep the whole class.
    """
    if left > right or k <= 0:
        return np.empty(0, dtype=np.int64)
    limit = k + TIE_EXTRACTION_LIMIT if include_ties else k

    lows = np.array([left], dtype=np.int64)
    highs = np.array([right], dtype=np.int64)
    args = rmq.query_batch(lows, highs)
    vals = values[args]
    keep = vals > threshold
    lows, highs, args, vals = lows[keep], highs[keep], args[keep], vals[keep]

    popped_ranks: List[np.ndarray] = []
    popped_vals: List[np.ndarray] = []
    count = 0
    pop_budget = 1
    while args.size:
        if count >= k:
            sorted_ranks, sorted_vals = _sort_by_value_then_rank(
                popped_ranks, popped_vals
            )
            frontier_max = vals.max()
            if count >= limit:
                bound_val = sorted_vals[limit - 1]
                if frontier_max < bound_val:
                    break
                if frontier_max == bound_val:
                    # Only a same-valued entry at a smaller index could still
                    # displace the current limit-boundary entry.
                    tied = vals == frontier_max
                    if int(args[tied].min()) > int(sorted_ranks[limit - 1]):
                        break
            elif frontier_max < sorted_vals[k - 1]:
                # Strictly below the k-th value: nothing left to report
                # (equal values continue — they are boundary ties).
                break
        pop = min(pop_budget, args.size)
        pop_budget *= 2
        order = np.lexsort((args, -vals))
        best, rest = order[:pop], order[pop:]
        popped_ranks.append(args[best])
        popped_vals.append(vals[best])
        count += pop
        child_lows = np.concatenate([lows[best], args[best] + 1])
        child_highs = np.concatenate([args[best] - 1, highs[best]])
        nonempty = child_lows <= child_highs
        child_lows = child_lows[nonempty]
        child_highs = child_highs[nonempty]
        child_args = rmq.query_batch(child_lows, child_highs)
        child_vals = values[child_args]
        child_keep = child_vals > threshold
        lows = np.concatenate([lows[rest], child_lows[child_keep]])
        highs = np.concatenate([highs[rest], child_highs[child_keep]])
        args = np.concatenate([args[rest], child_args[child_keep]])
        vals = np.concatenate([vals[rest], child_vals[child_keep]])
    if count == 0:
        return np.empty(0, dtype=np.int64)
    sorted_ranks, sorted_vals = _sort_by_value_then_rank(popped_ranks, popped_vals)
    keep_count = min(k, len(sorted_ranks))
    if include_ties and len(sorted_ranks) > keep_count:
        # Extend through the boundary tie class (values sorted descending,
        # so the tie class is the contiguous run equal to the k-th value).
        boundary = sorted_vals[keep_count - 1]
        tie_end = int(np.searchsorted(-sorted_vals, -boundary, side="right"))
        keep_count = min(limit, max(keep_count, tie_end), len(sorted_ranks))
    return sorted_ranks[:keep_count]


def restore_child_rmq(
    payload: IndexPayload, name: str, values: np.ndarray
) -> "SupportsRangeMaximum":
    """Restore the RMQ stored as child ``name`` of ``payload``.

    The structure restores in O(n/b · log n) work through
    :func:`repro.suffix.rmq.rmq_from_payload`.  A payload without that
    child (a truncated or hand-edited archive manifest) raises
    :class:`~repro.exceptions.ValidationError`.
    """
    from ..suffix.rmq import rmq_from_payload

    child = payload.children.get(name)
    if child is None:
        raise ValidationError(f"{payload.schema!r} payload has no {name!r} RMQ child")
    return rmq_from_payload(values, child)


class PayloadSerializable:
    """Mixin deriving space accounting from the payload schema.

    Indexes that implement :meth:`to_payload` — the single definition of
    "what this index is made of" (see :mod:`repro.payload`) — get
    :meth:`nbytes` and :meth:`space_report` for free: the footprint is the
    payload's arrays (stored + derived, recursively through children), and
    the component breakdown is the payload's name structure.  Nothing is
    hand-maintained per kind, so persistence, IPC and space accounting can
    never disagree about an index's contents.
    """

    def to_payload(self) -> IndexPayload:
        """The versioned array-schema payload describing this structure."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define a payload schema"
        )

    def nbytes(self) -> int:
        """Approximate memory footprint of the index payload in bytes."""
        return int(self.space_report()["total"])

    def space_report(self) -> Dict[str, int]:
        """Byte sizes of the index components (derived from the payload schema).

        Computed once and cached: indexes are immutable after construction
        (hot swaps replace the whole index object), and deriving the
        report means building the payload — including its JSON-safe input
        manifest — which is O(index size).  Only the small name → bytes
        dict is retained; the payload itself is dropped.
        """
        cached = self.__dict__.get("_space_report_cache")
        if cached is None:
            try:
                cached = self.to_payload().space_report()
            except NotImplementedError:
                # Structures without a payload schema (baselines) that
                # override nbytes() still answer the interface with a
                # single total.
                if type(self).nbytes is PayloadSerializable.nbytes:
                    raise
                cached = {"total": int(self.nbytes())}
            self.__dict__["_space_report_cache"] = cached
        return dict(cached)


class UncertainSubstringIndex(PayloadSerializable, abc.ABC):
    """Abstract interface of every substring-searching index in the package.

    Concrete indexes implement :meth:`query` (threshold reporting) and may
    override :meth:`top_k` with an output-sensitive strategy; the base class
    provides a correct (query-then-sort) default so every index answers the
    same vocabulary.  The unified ``top_k`` signature is::

        top_k(pattern, k, *, tau=None)

    where ``tau=None`` resolves through :func:`resolve_tau` — ``tau_min`` for
    indexes with a construction threshold, :data:`DEFAULT_TAU_FLOOR`
    otherwise — and results are ordered by decreasing probability with ties
    broken by position.

    Space accounting is part of the interface, derived from the payload
    schema by :class:`PayloadSerializable`: indexes that define
    :meth:`to_payload` report :meth:`nbytes` / :meth:`space_report`
    automatically; structures without a payload schema (the baselines)
    override :meth:`nbytes` directly.
    """

    @property
    @abc.abstractmethod
    def tau_min(self) -> float:
        """Smallest query threshold the index supports."""

    @abc.abstractmethod
    def query(self, pattern: str, tau: float) -> List[Occurrence]:
        """Report occurrences of ``pattern`` with probability above ``tau``."""

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> List[Occurrence]:
        """Report the ``k`` most probable occurrences of ``pattern``.

        Default implementation: query at the resolved threshold, sort by
        decreasing probability (ties by position) and keep the first ``k``.
        Indexes with per-length RMQ structures override this with the
        heap-driven ``O(k)``-probe extraction.

        The RMQ overrides include occurrences sitting exactly on ``tau``
        (they compare with a 1e-12 tolerance); the default mirrors that by
        querying a hair below the floor — clamped to ``tau_min``, since the
        public ``query`` cannot go beneath the construction threshold — so
        planner-substitutable indexes (e.g. special vs simple) agree.
        """
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        # An explicit tau below the construction threshold is an error, the
        # same one the overriding indexes raise — the clamp below is only a
        # tolerance adjustment, never a silent repair of an invalid request.
        if tau is not None:
            check_threshold(tau, tau_min=self.tau_min)
        floor = resolve_tau(tau, self.tau_min)
        adjusted = max(floor * (1.0 - 1e-12), self.tau_min, DEFAULT_TAU_FLOOR)
        occurrences = list(self.query(pattern, adjusted))
        occurrences.sort(key=lambda occurrence: (-occurrence.probability, occurrence.position))
        return occurrences[:k]

    def count(self, pattern: str, tau: float) -> int:
        """Number of occurrences of ``pattern`` with probability above ``tau``."""
        return len(self.query(pattern, tau))

    def exists(self, pattern: str, tau: float) -> bool:
        """Whether ``pattern`` occurs anywhere with probability above ``tau``."""
        return bool(self.query(pattern, tau))


def translate_match(
    match: Union[Occurrence, ListingMatch],
    *,
    position_offset: int = 0,
    document_offset: int = 0,
) -> Union[Occurrence, ListingMatch]:
    """Shift a match from shard-local to global coordinates.

    Sharded engines build each per-shard index over a slice of the input, so
    an :class:`Occurrence` reports a chunk-local position and a
    :class:`ListingMatch` a shard-local document identifier; this helper
    re-bases either onto the full input.  Probabilities and relevances are
    untouched — the value of a match depends only on the window content,
    never on where the window sits.
    """
    if isinstance(match, Occurrence):
        if position_offset == 0:
            return match
        return Occurrence(match.position + position_offset, match.probability)
    if isinstance(match, ListingMatch):
        if document_offset == 0:
            return match
        return ListingMatch(match.document + document_offset, match.relevance)
    raise TypeError(
        f"cannot translate a {type(match).__name__}; expected Occurrence or ListingMatch"
    )


def matches_to_arrays(
    matches: Sequence[Union[Occurrence, ListingMatch]],
) -> Tuple[str, np.ndarray, np.ndarray]:
    """Decompose a match list into ``(kind, ids, values)`` array payloads.

    The inverse of :func:`matches_from_arrays`; together they are the
    process-boundary wire format of the multi-process shard workers: a
    worker answers with two flat ndarrays instead of pickling one dataclass
    object per match, and the parent rebuilds the objects at the merge
    boundary.  ``kind`` is ``"occurrence"`` or ``"listing"``; ``ids`` holds
    positions (occurrences) or document identifiers (listing matches) and
    ``values`` the probabilities / relevances.  Order is preserved, and the
    ``int`` / ``float`` fields round-trip exactly (int64 / float64), so the
    rebuilt matches compare equal to the originals.
    """
    if matches and isinstance(matches[0], ListingMatch):
        kind = "listing"
        ids = np.fromiter((match.document for match in matches), dtype=np.int64, count=len(matches))
        values = np.fromiter((match.relevance for match in matches), dtype=np.float64, count=len(matches))
        return kind, ids, values
    ids = np.fromiter((match.position for match in matches), dtype=np.int64, count=len(matches))
    values = np.fromiter((match.probability for match in matches), dtype=np.float64, count=len(matches))
    return "occurrence", ids, values


def matches_from_arrays(
    kind: str, ids: np.ndarray, values: np.ndarray
) -> List[Union[Occurrence, ListingMatch]]:
    """Rebuild the match list :func:`matches_to_arrays` decomposed."""
    if kind == "occurrence":
        return [
            Occurrence(int(position), float(value))
            for position, value in zip(ids, values)
        ]
    if kind == "listing":
        return [
            ListingMatch(int(document), float(value))
            for document, value in zip(ids, values)
        ]
    raise ValueError(f"unknown match payload kind {kind!r}")


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate the inclusive integer ranges ``[starts[i], ends[i]]``.

    Vectorized replacement for ``concatenate([arange(s, e + 1), ...])``:
    the blocked query paths use it to expand every touched block into its
    member ranks without a Python loop per block.  Empty ranges
    (``start > end``) are skipped.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - starts + 1
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lengths.sum())
    # Position within the output minus the start offset of its own range
    # yields the per-range local index.
    range_offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + np.arange(total, dtype=np.int64) - range_offsets


def blocked_candidate_ranks(
    rmq: SupportsRangeMaximum,
    maxima: np.ndarray,
    sp: int,
    ep: int,
    length: int,
    threshold: float,
) -> np.ndarray:
    """Ranks inside ``[sp, ep]`` worth scanning under the blocking scheme.

    Shared core of the long-pattern blocked query paths: report the blocks
    whose maximum clears the threshold, always add the two boundary blocks
    (their maxima may sit outside ``[sp, ep]``, so they are scanned
    unconditionally — no in-range occurrence may be missed), deduplicate,
    and expand every block into its member ranks clamped to the suffix
    range.  Callers filter the returned ranks by their own value arrays.
    """
    first_block = sp // length
    last_block = ep // length
    reported_blocks = report_above_threshold(
        rmq, maxima, first_block, last_block, threshold
    )
    blocks = np.unique(
        np.concatenate(
            [reported_blocks, np.array([first_block, last_block], dtype=np.int64)]
        )
    )
    return expand_ranges(
        np.maximum(sp, blocks * length),
        np.minimum(ep, (blocks + 1) * length - 1),
    )


def occurrences_from_log_values(  # repro-check: allow(hot-path-purity) — API boundary
    positions: np.ndarray, log_values: np.ndarray
) -> List[Occurrence]:
    """Build position-sorted :class:`Occurrence` objects from parallel arrays.

    This is the public API boundary of the vectorized query pipeline: the
    internal paths carry positions and log-probabilities as numpy arrays
    end-to-end, and only the final survivors become objects here.  The
    per-element ``math.exp`` matches the scalar *RMQ* path's float
    conversion bit-for-bit; the old scan fallbacks used scalar ``np.exp``,
    which disagrees with ``math.exp`` in the last ulp on a few percent of
    inputs, so routing every path through this helper also unifies a
    pre-existing ±1-ulp inconsistency between the short-pattern and
    fallback answers.
    """
    order = np.argsort(positions, kind="stable")
    return [
        Occurrence(int(position), math.exp(float(value)))
        for position, value in zip(positions[order], log_values[order])
    ]


def listing_matches_from_arrays(
    documents: np.ndarray, relevances: np.ndarray
) -> List[ListingMatch]:
    """Build document-sorted :class:`ListingMatch` objects from parallel arrays.

    Array-native counterpart of :func:`occurrences_from_log_values` for the
    listing index (relevances are already linear, no ``exp``).
    """
    order = np.argsort(documents, kind="stable")
    return [
        ListingMatch(int(document), float(relevance))
        for document, relevance in zip(documents[order], relevances[order])
    ]


def sort_occurrences(occurrences: Sequence[Occurrence]) -> List[Occurrence]:
    """Return occurrences sorted by position (the order the paper reports)."""
    return sorted(occurrences, key=lambda occurrence: occurrence.position)


def sort_listing_matches(matches: Sequence[ListingMatch]) -> List[ListingMatch]:
    """Return listing matches sorted by document identifier."""
    return sorted(matches, key=lambda match: match.document)
