"""Shared result types and helpers for the uncertain-string indexes.

Every index in :mod:`repro.core` answers queries with the same vocabulary:

* :class:`Occurrence` — one position of the indexed uncertain string where
  the query pattern occurs with probability above the threshold.
* :class:`ListingMatch` — one document of a collection that contains the
  pattern with relevance above the threshold (Section 6).
* :class:`MatchArrays` — one whole answer: the positions (documents) and
  probabilities (relevances) as read-only numpy arrays in answer order.
  Every index's ``query`` and ``top_k`` return one, and the layers above
  (cache, batch refinement, shard merge, HTTP) work on its arrays; the
  records above are built only when a Python caller reads them.
  :func:`evaluate_request` is the one ``query``-or-``top_k`` dispatch the
  engine and both shard executors share.

The module also hosts the range-maximum reporting kernels shared by the
efficient indexes (Algorithm 2 / Algorithm 4 of the paper): repeatedly
extract the maximum of a value array inside a suffix range and recurse on
both sides until the maximum drops below the threshold.  The production
kernels — :func:`report_above_threshold` and
:func:`top_values_above_threshold` — return numpy rank arrays and dispatch
on the range width, which is known before any RMQ probe runs: a range no
wider than a measured crossover (:data:`SCAN_WIDTH` for reporting,
:data:`TOP_K_SCAN_WIDTH` for top-k) is answered by one vectorized pass over
``values[left : right + 1]``, a wider one by a batched *frontier* that
drives every live sub-range through one ``rmq.query_batch`` call per round.
Either way no Python-level RMQ probe runs per reported occurrence, and the
``O(m + occ)`` bound holds (a scan touches at most a constant number of
entries).  The original per-probe implementations remain as
:func:`report_above_threshold_scalar` /
:func:`top_values_above_threshold_scalar`, the reference the property-based
equivalence suite pins both vectorized paths against.
"""

from __future__ import annotations

# repro-check: hot-path — the reporting kernels here must stay vectorized;
# per-element Python work is only allowed in the *_scalar reference twins.

import abc
import heapq
import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

from .._validation import check_threshold
from ..exceptions import ValidationError
from ..payload import COMPACT_META_KEY, IndexPayload

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


def evaluate_request(
    index: Any, pattern: str, tau: Optional[float], top_k: Optional[int]
) -> "MatchArrays":
    """Answer one ``(pattern, tau, top_k)`` request on ``index``.

    The one evaluation every path shares: the engine, a thread-mode shard
    and a process-mode shard worker.  A ``top_k`` request calls
    ``index.top_k`` (which resolves ``tau=None`` itself), a plain one
    ``index.query`` at ``tau`` resolved against the index's ``tau_min``.
    Exactly those two methods are called, so a proxy wrapping them sees
    every kernel call.
    """
    if top_k is not None:
        return index.top_k(pattern, top_k, tau=tau)
    return index.query(pattern, resolve_tau(tau, float(index.tau_min)))


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


Match = Union[Occurrence, ListingMatch]

#: The two kinds of answer, and the record each kind's matches read as.
OCCURRENCE = "occurrence"
LISTING = "listing"
_RECORDS = {OCCURRENCE: Occurrence, LISTING: ListingMatch}

#: Shared (read-only) arrays of the empty answer, the most common one.
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_IDS.setflags(write=False)
_NO_VALUES.setflags(write=False)


class MatchArrays(Sequence[Match]):
    """One query's answer as two read-only arrays, in answer order.

    ``ids`` holds positions (``kind == "occurrence"``) or document
    identifiers (``kind == "listing"``) as int64, ``values`` the matching
    probabilities or relevances as float64.  ``failed_shards`` names the
    shards missing from a degraded sharded answer (empty when complete).

    Every index's ``query`` and ``top_k`` return one, and every layer above
    works on the arrays: the result cache shares it between hits, the shard
    merge offsets, filters and sorts it, and the HTTP tier renders a page
    straight from ``ids`` and ``values``.  Read as a sequence it yields
    :class:`Occurrence` / :class:`ListingMatch` records, built only on
    access, and it compares equal to a list (or tuple) of equal records, so
    ``index.query(...) == [Occurrence(...), ...]`` holds.  Slicing returns
    a :class:`MatchArrays` view.

    Immutable: the arrays are read-only (writing raises ``ValueError``),
    also after a pickle round trip, which re-runs the constructor.  An
    array passed in with the right dtype is taken over, not copied, and
    made read-only.
    """

    __slots__ = ("_kind", "_ids", "_values", "_failed_shards")

    def __init__(
        self,
        kind: str,
        ids: Union[np.ndarray, Sequence[int]] = _NO_IDS,
        values: Union[np.ndarray, Sequence[float]] = _NO_VALUES,
        failed_shards: Sequence[int] = (),
    ) -> None:
        if kind not in _RECORDS:
            raise ValueError(f"unknown match kind {kind!r}; expected {sorted(_RECORDS)}")
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != values.shape:
            raise ValueError(
                f"ids and values must be 1-d arrays of one length, got shapes "
                f"{ids.shape} and {values.shape}"
            )
        ids.setflags(write=False)
        values.setflags(write=False)
        self._kind = kind
        self._ids = ids
        self._values = values
        self._failed_shards: Tuple[int, ...] = tuple(failed_shards)

    @property
    def kind(self) -> str:
        """``"occurrence"`` (positions, probabilities) or ``"listing"``."""
        return self._kind

    @property
    def ids(self) -> np.ndarray:
        """Positions or document identifiers (read-only int64)."""
        return self._ids

    @property
    def values(self) -> np.ndarray:
        """Probabilities or relevances (read-only float64)."""
        return self._values

    @property
    def failed_shards(self) -> Tuple[int, ...]:
        """Shard ordinals missing from a degraded answer (empty when complete)."""
        return self._failed_shards

    def __reduce__(self) -> Tuple[type, Tuple[str, np.ndarray, np.ndarray, Tuple[int, ...]]]:
        return (MatchArrays, (self._kind, self._ids, self._values, self._failed_shards))

    # -- sequence of records --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Match]:
        return map(_RECORDS[self._kind], self._ids.tolist(), self._values.tolist())

    @overload
    def __getitem__(self, item: int) -> Match: ...

    @overload
    def __getitem__(self, item: slice) -> "MatchArrays": ...

    def __getitem__(self, item: Union[int, slice]) -> Union[Match, "MatchArrays"]:
        if isinstance(item, slice):
            return self.where(item)
        return _RECORDS[self._kind](int(self._ids[item]), float(self._values[item]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchArrays):
            if len(self) != len(other):
                return False
            return len(self) == 0 or (
                self._kind == other._kind
                and np.array_equal(self._ids, other._ids)
                and np.array_equal(self._values, other._values)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        failed = f", failed_shards={self._failed_shards}" if self._failed_shards else ""
        return f"MatchArrays({list(self)!r}{failed})"

    # -- array operations -----------------------------------------------------------
    def where(self, keep: Union[np.ndarray, slice]) -> "MatchArrays":
        """The matches a boolean mask, index array or slice selects."""
        return MatchArrays(
            self._kind, self._ids[keep], self._values[keep], self._failed_shards
        )

    def by_id(self) -> "MatchArrays":
        """This answer in position (document) order; equal ids keep their order."""
        if len(self._ids) < 2:  # most answers of a selective query: nothing to sort
            return self
        return self.where(np.argsort(self._ids, kind="stable"))

    def top(self, k: int) -> "MatchArrays":
        """The first ``k`` in decreasing-value order, ties broken by id.

        Stable, so equal ``(value, id)`` pairs keep their order.  Any
        positive ``k`` works, also one above ``sys.maxsize``.
        """
        return self.where(np.lexsort((self._ids, -self._values))[:k])


def exp_values(log_values: np.ndarray) -> np.ndarray:
    """``math.exp`` of every log-probability, as a float64 array.

    Per element on purpose: the substring indexes report ``math.exp`` of
    the log value, and numpy's vectorized ``np.exp`` differs from it in
    the last bit on a few percent of inputs.  ``tolist`` plus ``math.exp``
    costs well under a tenth of a microsecond per value.
    """
    return np.fromiter(
        map(math.exp, log_values.tolist()), dtype=np.float64, count=len(log_values)
    )


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


#: Widest range :func:`report_above_threshold` answers with one vectorized
#: scan of ``values[left : right + 1]``; wider ranges run the RMQ frontier.
#: (Top-k has its own crossover, :data:`TOP_K_SCAN_WIDTH`.)  It is the
#: largest power of two at which a zero-output scan costs no more than one
#: zero-output frontier round on :class:`~repro.suffix.rmq.SparseTableRMQ`,
#: the cheapest RMQ per round (``query-kernel`` width sweep,
#: ``BENCH_query_kernel.json``, 2-vCPU Xeon, numpy 2.4: 17 vs 22 µs at 2**16,
#: 31 vs 22 µs at 2**17, 114 vs 24 µs at 2**18).  Below it the scan wins at
#: every output size: a reporting frontier pays one round per level of the
#: recursion, and :class:`~repro.suffix.rmq.CompactRMQ` rounds cost about 3x
#: the sparse table's.  Scanning at most this many entries is constant work,
#: so the kernels keep Algorithm 2's ``O(m + occ)`` bound.
SCAN_WIDTH = 1 << 16


def report_above_threshold(
    rmq: Optional[SupportsRangeMaximum],
    values: np.ndarray,
    left: int,
    right: int,
    threshold: float,
) -> np.ndarray:
    """Indices in ``[left, right]`` whose value exceeds ``threshold``.

    Vectorized reporting kernel (Algorithm 2): a range no wider than
    :data:`SCAN_WIDTH` is scanned in one pass; a wider one runs the batched
    RMQ frontier, whose total work is ``O(occ)`` RMQ probes in a number of
    Python-level rounds equal to the depth of the reporting recursion.

    Returns the reported indices as an ``int64`` array.  The set of
    indices is exactly what :func:`report_above_threshold_scalar` yields;
    the order is rank order at or below :data:`SCAN_WIDTH` and frontier
    (breadth-first) order above it — callers sort by position/document
    before reporting, so no public answer depends on it.

    Parameters
    ----------
    rmq:
        A range *maximum* query structure built over ``values``, or
        ``None`` on a level no range of which can be wider than the scan
        (see :func:`rmq_depth`).
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
    if right - left + 1 <= SCAN_WIDTH:
        return _report_scan(values, left, right, threshold)
    assert rmq is not None  # rmq_depth keeps the RMQ of every level this wide
    return _report_frontier(rmq, values, left, right, threshold)


def _report_scan(
    values: np.ndarray, left: int, right: int, threshold: float
) -> np.ndarray:
    """Rank-ordered indices of ``[left, right]`` above ``threshold``, by one scan."""
    return np.flatnonzero(values[left : right + 1] > threshold) + left


def _report_frontier(
    rmq: SupportsRangeMaximum,
    values: np.ndarray,
    left: int,
    right: int,
    threshold: float,
) -> np.ndarray:
    """Algorithm 2 batched: one :meth:`query_batch` per frontier round.

    Every round reports all frontier maxima above the threshold and splits
    their ranges; ``left <= right`` is the caller's precondition.
    """
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


#: Bound on the extra entries :func:`top_values_above_threshold` returns to
#: resolve value ties at the ``k``-th place.  Tie classes up to this size are
#: kept whole; a larger boundary tie class (realistically only runs of
#: certain characters, where every window ties at probability 1.0) is cut
#: after this many extra entries.  At or below :data:`TOP_K_SCAN_WIDTH` the
#: scan sees the whole range, so the kept members are the smallest ranks on
#: every RMQ.  Above it the frontier stops extracting at the bound — the
#: alternative would be O(occ) work on every ``top_k`` over deterministic
#: text — and only the leftmost-optimum RMQs still keep the smallest ranks.
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
    :func:`_top_values_frontier`, so the early-stop bound and the
    returned prefix always use the same ordering.
    """
    ranks = np.concatenate(rank_chunks)
    ordered_values = np.concatenate(value_chunks)
    order = np.lexsort((ranks, -ordered_values))
    return ranks[order], ordered_values[order]


def _cut_top(
    sorted_ranks: np.ndarray, sorted_vals: np.ndarray, k: int, include_ties: bool
) -> np.ndarray:
    """The returned prefix of ``(-value, rank)``-sorted candidates.

    The first ``k``, extended under ``include_ties`` through the boundary
    tie class (the contiguous run equal to the ``k``-th value) up to
    ``k + TIE_EXTRACTION_LIMIT`` entries.
    """
    keep_count = min(k, len(sorted_ranks))
    if include_ties and len(sorted_ranks) > keep_count:
        boundary = sorted_vals[keep_count - 1]
        tie_end = int(np.searchsorted(-sorted_vals, -boundary, side="right"))
        keep_count = min(
            k + TIE_EXTRACTION_LIMIT, max(keep_count, tie_end), len(sorted_ranks)
        )
    return sorted_ranks[:keep_count]


#: Widest range :func:`top_values_above_threshold` answers with one scan.
#: Lower than :data:`SCAN_WIDTH`: a top-k scan costs a gather and an
#: ``np.partition`` over every entry above the threshold, while the top-k
#: frontier stops after ``O(log k)`` rounds whatever the width, so the scan's
#: worst case is a full output at a small ``k``.  At ``k = 10`` a full-output
#: scan meets the sparse-table frontier at about 2**16, where the winner
#: depends on where the range's maxima fall (``query-kernel`` width sweep,
#: ``BENCH_query_kernel.json``, same runner: 315 vs 336 µs at 2**16, and
#: 0.8-1.6x over repeated runs; 924 vs 342 µs at 2**17).  This is one power
#: of two lower, where the scan costs about half to two thirds of the
#: frontier (150 vs 235 µs); at ``k = 50`` and at zero output the scan wins
#: at every width up to 2**16.
TOP_K_SCAN_WIDTH = 1 << 15


def rmq_depth(lcp: np.ndarray, max_length: int) -> int:
    """How many pattern lengths, from 1 up, can reach the RMQ frontier.

    A length-``L`` pattern's suffix range lies inside one depth-``L``
    partition of the suffix array: a maximal run of ranks whose adjacent
    ``lcp`` entries are all at least ``L``.  Where the widest such
    partition is no wider than :data:`TOP_K_SCAN_WIDTH`, the smaller
    cut-off, both kernels scan every range of level ``L`` and never probe
    an RMQ, so the level needs none.  Partitions only split as ``L`` grows,
    so the levels that need one are ``1..rmq_depth`` and the walk stops at
    the first narrow level (usually level 1 or 2).  The answer is a
    function of ``lcp`` alone: a restore derives the levels the build chose
    from the stored array.
    """
    for length in range(1, max_length + 1):
        # Rank r + 1 starts a new partition wherever lcp[r + 1] < length.
        edges = np.flatnonzero(lcp[1:] < length) + 1
        widest = np.diff(edges, prepend=0, append=len(lcp)).max()
        if widest <= TOP_K_SCAN_WIDTH:
            return length - 1
    return max_length


def top_values_above_threshold(
    rmq: Optional[SupportsRangeMaximum],
    values: np.ndarray,
    left: int,
    right: int,
    k: int,
    threshold: float,
    *,
    include_ties: bool = False,
) -> np.ndarray:
    """Indices of the ``k`` largest values above ``threshold`` in ``[left, right]``.

    Vectorized variant of :func:`top_values_above_threshold_scalar`.  A
    range no wider than :data:`TOP_K_SCAN_WIDTH` is scanned in one pass: the
    entries above the threshold that tie or beat the ``k``-th largest are
    sorted by ``(-value, rank)``.  A wider range runs the batched frontier:
    candidate ranges live in parallel numpy arrays, every round pops the
    best ``p`` frontier entries at once (``p`` doubling each round, so the
    number of Python-level rounds is ``O(log k)``) and answers all of their
    children with a single :meth:`query_batch` call, stopping as soon as no
    frontier maximum can still reach the result.  Both paths apply the
    scalar reference's threshold / ``k``-th-value / tie rules.

    Returns an ``int64`` array of indices sorted by ``(-value, index)``: the
    first ``k``, plus under ``include_ties`` the rest of the boundary tie
    class up to :data:`TIE_EXTRACTION_LIMIT` extra entries.  The scan
    returns exactly that prefix of the whole range's ``(-value, index)``
    order on every RMQ; so does the frontier with an RMQ whose ``query``
    returns the *leftmost* optimum (the sparse table and
    :class:`~repro.suffix.rmq.CompactRMQ` do), which is also the scalar
    heap's pop order.  Above :data:`TOP_K_SCAN_WIDTH` a block RMQ may
    discover a within-tie-class member in a different order, but with
    ``include_ties`` the returned *set* is identical whenever the boundary
    tie class fits the :data:`TIE_EXTRACTION_LIMIT` budget — the same
    caveat the scalar version documents.  Every index calls with
    ``include_ties=True``.  ``rmq`` may be ``None`` on a level no range of
    which is wider than :data:`TOP_K_SCAN_WIDTH` (see :func:`rmq_depth`).
    """
    if left > right or k <= 0:
        return np.empty(0, dtype=np.int64)
    if right - left + 1 <= TOP_K_SCAN_WIDTH:
        return _top_values_scan(values, left, right, k, threshold, include_ties)
    assert rmq is not None  # rmq_depth keeps the RMQ of every level this wide
    return _top_values_frontier(rmq, values, left, right, k, threshold, include_ties)


def _top_values_scan(
    values: np.ndarray,
    left: int,
    right: int,
    k: int,
    threshold: float,
    include_ties: bool,
) -> np.ndarray:
    """:func:`top_values_above_threshold` by one scan of ``[left, right]``."""
    window = values[left : right + 1]
    ranks = np.flatnonzero(window > threshold)
    vals = window[ranks]
    if ranks.size > k:
        # Only entries tying or beating the k-th largest value can be kept.
        kth = np.partition(vals, ranks.size - k)[ranks.size - k]
        keep = vals >= kth
        ranks, vals = ranks[keep], vals[keep]
    order = np.lexsort((ranks, -vals))
    return _cut_top(ranks[order] + left, vals[order], k, include_ties)


def _top_values_frontier(
    rmq: SupportsRangeMaximum,
    values: np.ndarray,
    left: int,
    right: int,
    k: int,
    threshold: float,
    include_ties: bool,
) -> np.ndarray:
    """:func:`top_values_above_threshold` by the batched RMQ frontier.

    ``left <= right`` and ``k > 0`` are the caller's preconditions.
    """
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
            if frontier_max < sorted_vals[k - 1]:
                # Strictly below the k-th value: nothing left to report
                # (equal values continue — they are boundary ties).
                break
            if count >= limit and frontier_max == sorted_vals[limit - 1]:
                # Only a same-valued entry at a smaller index could still
                # displace the current limit-boundary entry.
                tied = vals == frontier_max
                if int(args[tied].min()) > int(sorted_ranks[limit - 1]):
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
    return _cut_top(sorted_ranks, sorted_vals, k, include_ties)


def stored_array(payload: IndexPayload, name: str) -> np.ndarray:
    """The stored array ``name`` of ``payload``.

    A payload without it (one written in an earlier layout, or a
    hand-edited archive manifest) raises
    :class:`~repro.exceptions.ValidationError` naming the array.
    """
    array = payload.arrays.get(name)
    if array is None:
        raise ValidationError(f"{payload.schema!r} payload has no {name!r} array")
    return array


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

    #: ``meta[COMPACT_META_KEY]`` of every node of the payload this
    #: structure was restored from, keyed by :meth:`IndexPayload.walk` path
    #: (empty for a fresh build); ``index_from_payload`` sets it.
    _compact_records: Dict[str, Dict[str, Any]] = {}

    def to_payload(self) -> IndexPayload:
        """The versioned array-schema payload describing this structure."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define a payload schema"
        )

    def recorded_payload(self) -> IndexPayload:
        """:meth:`to_payload` carrying the compact dtype records it was restored with.

        What space accounting, archives and worker exports read.  An index
        restored from a compact payload holds narrowed arrays but rebuilds
        its meta from its own fields; the records name the arrays' logical
        dtypes, so ``space_report()["total_wide"]`` counts them wide.
        """
        payload = self.to_payload()
        for path, node in payload.walk():
            record = self._compact_records.get(path)
            if record:
                # to_payload builds a fresh tree, so no shared meta changes.
                node.meta = {**node.meta, COMPACT_META_KEY: record}
        return payload

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
                cached = self.recorded_payload().space_report()
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
    broken by position.  Both methods return a :class:`MatchArrays`
    (``kind == "occurrence"``); ``query`` reports in position order.

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
    def query(self, pattern: str, tau: float) -> MatchArrays:
        """Occurrences of ``pattern`` with probability above ``tau``, by position."""

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> MatchArrays:
        """The ``k`` most probable occurrences of ``pattern``.

        Default implementation: query at the resolved threshold, sort the
        answer's arrays by decreasing probability (ties by position) and
        keep the first ``k``.
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
        return self.query(pattern, adjusted).top(k)

    def count(self, pattern: str, tau: float) -> int:
        """Number of occurrences of ``pattern`` with probability above ``tau``."""
        return len(self.query(pattern, tau))

    def exists(self, pattern: str, tau: float) -> bool:
        """Whether ``pattern`` occurs anywhere with probability above ``tau``."""
        return bool(self.query(pattern, tau))


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
