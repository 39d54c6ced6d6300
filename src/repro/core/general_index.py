"""Substring searching in general uncertain strings (paper Section 5).

The index is built in three steps (Algorithm 3):

1. transform the general uncertain string into a special one by
   concatenating its maximal factors w.r.t. ``τ_min`` (Lemma 2), keeping the
   ``Pos`` array that maps transformed positions back to original positions;
2. build the suffix array, the cumulative probability array ``C`` and, per
   rank, the depth of its duplicate (:func:`duplicate_depths`): the
   per-length array ``C_i`` (``i ≤ ⌈log2 N⌉``) is ``C[A[j]+i] − C[A[j]]`` in
   log space, with every copy of an original position but a depth-``i``
   locus partition's first masked to ``−inf``, so each original position
   keeps a single finite entry.  A query computes ``C_i`` over the ranks it
   scans from ``C``, the suffix array and that one byte per rank, as
   Section 4.2 reads ``C_i[j]`` off ``C``;
3. store a deduplicated ``C_i`` and build a range-maximum structure over it
   only where a suffix range can outgrow the kernels' scans: where the
   widest depth-``i`` partition is wider than
   :data:`~repro.core.base.TOP_K_SCAN_WIDTH`
   (:func:`~repro.core.base.rmq_depth`).  A range that wide runs the RMQ
   frontier over the stored array; every narrower one is scanned over its
   computed values, so a stored array or an RMQ on any other level would
   never be read.  Only the shallowest levels, whose partitions are few and
   wide, keep them, and on small texts none does.

A query (Algorithm 4) finds the pattern's suffix range and reports
``Pos[A[j]]`` for every entry whose probability exceeds the query
threshold: one scan of ``C_i`` over the range, or recursive range-maximum
queries where the range is wider than the scan cut-off — ``O(m + occ)``
either way for patterns of length up to ``log N``.  Longer patterns use the
paper's blocking scheme (per-block maxima and their RMQ; the candidate
blocks' values are computed like a scan's) when a structure for that length
was materialized, and a vectorized scan of the suffix range otherwise
(identical answers).

Correlated strings are supported: the transformation stores optimistic
(upper-bound) probabilities for correlated characters and every candidate is
re-verified against the original string before being reported, so pruning
never loses an answer and nothing wrong is ever reported.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_nonempty_pattern, check_threshold
from ..exceptions import ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.serialization import (
    uncertain_string_from_manifest,
    uncertain_string_to_manifest,
)
from ..strings.uncertain import UncertainString
from ..suffix.lcp import common_prefix_lengths, lcp_from_ranks
from ..suffix.rmq import make_rmq, rmq_to_payload
from ..suffix.suffix_array import SuffixArray, prefix_doubling
from . import base
from .base import (
    OCCURRENCE,
    MatchArrays,
    UncertainSubstringIndex,
    blocked_candidate_ranks,
    exp_values,
    report_above_threshold,
    resolve_tau,
    restore_child_rmq,
    rmq_depth,
    stored_array,
    top_values_above_threshold,
)
from .cumulative import (
    NEGATIVE_INFINITY,
    cumulative_log_probabilities,
    prefix_length_log_probabilities,
)
from .factors import DEFAULT_SEPARATOR, TransformedString, transform_uncertain_string

#: Payload schema of this index kind (see :mod:`repro.payload`).
GENERAL_INDEX_SCHEMA = "index/general"


def duplicate_depths(
    ranks: Sequence[np.ndarray],
    suffix_array: np.ndarray,
    keys: np.ndarray,
    limit: int,
) -> np.ndarray:
    """Per rank, the deepest level at which it repeats an earlier rank's key.

    Section 5.2's duplicate elimination keeps, inside every depth-``L``
    partition of the suffix array (a maximal run of ranks whose adjacent
    LCPs are all at least ``L``), one entry per key — the original
    position, or (document, position) for a collection — on its first
    rank.  Rank ``r`` shares its depth-``L`` partition with an earlier rank
    ``r'`` exactly when the suffixes at ``r'`` and ``r`` agree on ``L``
    characters, and the nearest earlier rank with the same key agrees the
    most.  So one stable sort by key links every rank to that rank, the
    link's LCP (:func:`~repro.suffix.lcp.common_prefix_lengths`) is the
    returned depth, and level ``L`` masks rank ``r`` iff
    ``depth[r] >= L``.  A rank with no earlier copy gets 0; a negative key
    (a separator) gets ``limit``, masked on every level.  Depths are
    clipped to ``limit`` and stored in the smallest unsigned dtype that
    holds it.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeat = np.flatnonzero((sorted_keys[1:] == sorted_keys[:-1]) & (sorted_keys[1:] >= 0))
    earlier, later = order[repeat], order[repeat + 1]
    depths = np.zeros(len(keys), dtype=np.min_scalar_type(limit))
    depths[later] = np.minimum(
        common_prefix_lengths(ranks, suffix_array[earlier], suffix_array[later]), limit
    )
    depths[keys < 0] = limit
    return depths


class GeneralUncertainStringIndex(UncertainSubstringIndex):
    """Threshold substring-search index over a general uncertain string.

    Parameters
    ----------
    string:
        The uncertain string to index.
    tau_min:
        Construction-time probability threshold; queries must use
        ``tau >= tau_min``.
    max_short_length:
        Largest pattern length served by the per-length ``C_i`` arrays
        (default ``⌈log2 N⌉`` where ``N`` is the transformed text length).
    long_lengths:
        Pattern lengths above ``max_short_length`` for which the blocking
        structures are materialized at construction time; a long pattern of
        any other length scans its suffix range.
    max_factor_length:
        Optional cap on maximal-factor length (see
        :func:`repro.core.factors.enumerate_maximal_factors`).
    rmq_implementation:
        ``"block"`` (default, linear space — mirrors the paper's succinct
        RMQs) or ``"sparse"`` (O(1) queries, O(N log N) space), for the
        levels that carry an RMQ and the blocking structures.
    separator:
        Separator character used between concatenated factors.

    Examples
    --------
    The running example of the paper's appendix (Figure 10):

    >>> from repro.strings import UncertainString
    >>> s = UncertainString([
    ...     {"Q": 0.7, "S": 0.3},
    ...     {"Q": 0.3, "P": 0.7},
    ...     {"P": 1.0},
    ...     {"A": 0.4, "F": 0.3, "P": 0.2, "Q": 0.1},
    ... ])
    >>> index = GeneralUncertainStringIndex(s, tau_min=0.1)
    >>> [(occ.position, round(occ.probability, 2)) for occ in index.query("QP", 0.4)]
    [(0, 0.49)]
    """

    def __init__(
        self,
        string: UncertainString,
        tau_min: float,
        *,
        max_short_length: Optional[int] = None,
        long_lengths: Iterable[int] = (),
        max_factor_length: Optional[int] = None,
        rmq_implementation: Literal["sparse", "block"] = "block",
        separator: str = DEFAULT_SEPARATOR,
    ):
        self._string = string
        self._tau_min = check_threshold(tau_min)
        self._rmq_implementation = rmq_implementation
        self._needs_verification = bool(string.correlations)

        self._transformed = transform_uncertain_string(
            string,
            self._tau_min,
            max_factor_length=max_factor_length,
            separator=separator,
        )
        transformed = self._transformed
        suffix_array, ranks = prefix_doubling(transformed.text)
        self._suffix_array = SuffixArray(transformed.text, array=suffix_array)
        self._lcp = lcp_from_ranks(ranks, suffix_array)
        self._prefix = cumulative_log_probabilities(transformed.probabilities)
        # Pos / Doc values aligned with lexicographic ranks.
        self._rank_positions = transformed.positions[suffix_array]

        N = len(transformed.text)
        if max_short_length is None:
            max_short_length = max(1, math.ceil(math.log2(N + 1)))
        self._max_short_length = max(1, min(max_short_length, N))
        block_lengths = sorted(
            length
            for length in set(int(value) for value in long_lengths)
            if self._max_short_length < length <= N
        )
        # A query computes a level's values from the prefix sums and this one
        # byte per rank (_level_values).  The rank arrays are the largest
        # temporaries and only the depths need them.
        self._duplicate_depths = duplicate_depths(
            ranks,
            suffix_array,
            self._rank_positions,
            max([self._max_short_length, *block_lengths]),
        )
        del ranks

        # Only the levels whose suffix ranges can outgrow the kernels' scans
        # (rmq_depth) store their values, for the RMQ frontier.
        self._short_values: Dict[int, np.ndarray] = {}
        self._short_rmq: Dict[int, object] = {}
        for length in range(1, rmq_depth(self._lcp, self._max_short_length) + 1):
            values = self._deduplicated_values(length)
            self._short_values[length] = values
            self._short_rmq[length] = make_rmq(
                values, mode="max", implementation=self._rmq_implementation
            )

        self._block_maxima: Dict[int, np.ndarray] = {}
        self._block_rmq: Dict[int, object] = {}
        for length in block_lengths:
            values = self._deduplicated_values(length)
            maxima = np.maximum.reduceat(values, np.arange(0, len(values), length))
            self._block_maxima[length] = maxima
            self._block_rmq[length] = make_rmq(
                maxima, mode="max", implementation=self._rmq_implementation
            )

    # -- construction helpers ------------------------------------------------------------
    def _deduplicated_values(self, length: int) -> np.ndarray:
        """The whole ``C_length``; a partition's later copies masked (:func:`duplicate_depths`)."""
        values = prefix_length_log_probabilities(
            self._prefix, self._suffix_array.array, length
        )
        values[self._duplicate_depths >= length] = NEGATIVE_INFINITY
        return values

    # -- metadata -------------------------------------------------------------------------
    @property
    def tau_min(self) -> float:
        """Construction-time probability threshold."""
        return self._tau_min

    @property
    def string(self) -> UncertainString:
        """The indexed uncertain string."""
        return self._string

    @property
    def transformed(self) -> TransformedString:
        """The maximal-factor transformation the index is built over."""
        return self._transformed

    @property
    def max_short_length(self) -> int:
        """Largest pattern length served by the per-length ``C_i`` arrays."""
        return self._max_short_length

    @property
    def block_lengths(self) -> Tuple[int, ...]:
        """Pattern lengths with materialized blocking structures."""
        return tuple(sorted(self._block_maxima))

    @property
    def stats(self) -> Dict[str, float]:
        """Construction statistics (sizes and expansion ratios)."""
        return {
            "source_length": self._transformed.source_length,
            "transformed_length": self._transformed.length,
            "factor_count": self._transformed.factor_count,
            "expansion_ratio": self._transformed.expansion_ratio,
            "max_short_length": self._max_short_length,
            "block_lengths": len(self._block_maxima),
        }

    # -- payload currency ----------------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The complete array-schema description of this index."""
        arrays = {
            "suffix_array": self._suffix_array.array,
            "lcp": self._lcp,
            "prefix": self._prefix,
            "rank_positions": self._rank_positions,
            "duplicate_depths": self._duplicate_depths,
        }
        children = {"transformed": self._transformed.to_payload()}
        for length, values in self._short_values.items():
            arrays[f"short_values_{length}"] = values
            children[f"rmq_short_{length}"] = rmq_to_payload(self._short_rmq[length])
        for length, maxima in self._block_maxima.items():
            arrays[f"block_maxima_{length}"] = maxima
            children[f"rmq_block_{length}"] = rmq_to_payload(self._block_rmq[length])
        return IndexPayload(
            schema=GENERAL_INDEX_SCHEMA,
            meta={
                "string": uncertain_string_to_manifest(self._string),
                "tau_min": self._tau_min,
                "max_short_length": self._max_short_length,
                "block_lengths": sorted(self._block_maxima),
                "rmq_implementation": self._rmq_implementation,
            },
            arrays=arrays,
            children=children,
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "GeneralUncertainStringIndex":
        """Restore an index from :meth:`to_payload` output (no construction).

        A payload without ``duplicate_depths`` (one written when every level
        stored its values) raises :class:`~repro.exceptions.ValidationError`:
        rebuild the index from its input.
        """
        expect_schema(payload, GENERAL_INDEX_SCHEMA)
        meta = payload.meta
        index = cls.__new__(cls)
        index._string = uncertain_string_from_manifest(meta["string"])
        index._tau_min = float(meta["tau_min"])
        index._rmq_implementation = meta["rmq_implementation"]
        index._needs_verification = bool(index._string.correlations)
        index._transformed = TransformedString.from_payload(
            payload.children["transformed"]
        )
        index._suffix_array = SuffixArray(
            index._transformed.text, array=payload.arrays["suffix_array"]
        )
        index._lcp = payload.arrays["lcp"]
        index._prefix = payload.arrays["prefix"]
        index._rank_positions = payload.arrays["rank_positions"]
        index._duplicate_depths = stored_array(payload, "duplicate_depths")
        index._max_short_length = int(meta["max_short_length"])
        # The levels that store values and an RMQ follow from the stored
        # lcp: surplus rmq_short children are not restored, and a missing
        # needed array or child raises.
        index._short_values = {}
        index._short_rmq = {}
        for length in range(1, rmq_depth(index._lcp, index._max_short_length) + 1):
            values = stored_array(payload, f"short_values_{length}")
            index._short_values[length] = values
            index._short_rmq[length] = restore_child_rmq(
                payload, f"rmq_short_{length}", values
            )
        index._block_maxima = {
            int(length): payload.arrays[f"block_maxima_{length}"]
            for length in meta["block_lengths"]
        }
        index._block_rmq = {
            length: restore_child_rmq(payload, f"rmq_block_{length}", maxima)
            for length, maxima in index._block_maxima.items()
        }
        return index

    # -- queries ------------------------------------------------------------------------------
    def query(self, pattern: str, tau: float) -> MatchArrays:
        """Original positions where ``pattern`` occurs with probability > ``tau``.

        ``tau`` must be at least ``tau_min``; the answer is identical to the
        brute-force scan :meth:`UncertainString.matching_positions`.
        Returns a :class:`~repro.core.base.MatchArrays` (positions and
        probabilities) in position order; no record is built.
        """
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau, tau_min=self._tau_min)
        log_threshold = math.log(threshold)
        length = len(pattern)
        if length > len(self._string):
            return MatchArrays(OCCURRENCE)
        interval = self._transformed.suffix_range(self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval

        if length <= self._max_short_length:
            candidates = self._candidates_short(sp, ep, length, log_threshold)
        elif length in self._block_rmq:
            candidates = self._candidates_blocked(sp, ep, length, log_threshold)
        else:
            candidates = self._candidates_scan(sp, ep, length, log_threshold)
        return self._finalize(pattern, *candidates, log_threshold)

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> MatchArrays:
        """The ``k`` most probable occurrences of ``pattern``.

        Occurrences are drawn from those with probability above ``tau``
        (``None`` resolves through :func:`repro.core.base.resolve_tau` to
        ``tau_min`` — the index cannot see anything below its construction
        threshold) and returned as a :class:`~repro.core.base.MatchArrays`
        in decreasing probability order (ties broken by position).  For
        short patterns the answer is extracted from the per-length ``C_i``
        array (one scan, or ``O(k)`` heap-driven range-maximum probes on a
        range wider than the scan); long patterns and correlated strings
        fall back to scanning the pattern's suffix range.
        """
        check_nonempty_pattern(pattern)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        threshold = check_threshold(
            resolve_tau(tau, self._tau_min), tau_min=self._tau_min
        )
        log_threshold = math.log(threshold) - 1e-12
        length = len(pattern)
        if length > len(self._string):
            return MatchArrays(OCCURRENCE)
        interval = self._transformed.suffix_range(self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval

        if (
            length <= self._max_short_length
            and not self._needs_verification
        ):
            rmq, values, offset = self._level(sp, ep, length, base.TOP_K_SCAN_WIDTH)
            ranks = top_values_above_threshold(
                rmq, values, sp - offset, ep - offset, k, log_threshold, include_ties=True
            )
            answer = MatchArrays(
                OCCURRENCE,
                self._rank_positions[offset:][ranks],
                exp_values(values[ranks]),
            )
        else:
            candidates = self._candidates_scan(sp, ep, length, log_threshold)
            answer = self._finalize(pattern, *candidates, log_threshold)
        # Ranked by the reported (exp'd) probabilities, as the answer reads.
        return answer.top(k)

    # -- candidate generation strategies ----------------------------------------------------------
    # Every strategy returns two parallel arrays — original positions and
    # window log-probabilities, each position exactly once — and candidates
    # only become an answer at the _finalize boundary.  Every rank they read
    # lies in the pattern's suffix range, so its suffix starts with the
    # pattern: no window runs off the text or starts at a separator.
    def _window_values(self, ranks: Union[slice, np.ndarray], length: int) -> np.ndarray:
        """``C[A[j] + length] − C[A[j]]`` at ``ranks`` of one length-``length`` suffix range.

        The same float64 subtraction the build stores for a level, so the
        values keep their bits.  A compact payload's narrow suffix-array
        entries are widened first: gathering with them takes numpy's slow
        index path, which costs more than the copy (6.1 against 4.6 µs for
        the level of a typical 11-rank range).
        """
        suffixes = self._suffix_array.array[ranks].astype(np.intp, copy=False)
        return self._prefix[length:][suffixes] - self._prefix[suffixes]

    def _level_values(self, ranks: Union[slice, np.ndarray], length: int) -> np.ndarray:
        """``C_length`` at ``ranks``: the windows, ``−inf`` where a duplicate is masked."""
        values = self._window_values(ranks, length)
        values[self._duplicate_depths[ranks] >= length] = NEGATIVE_INFINITY
        return values

    def _level(
        self, sp: int, ep: int, length: int, scan_width: int
    ) -> Tuple[Optional[object], np.ndarray, int]:
        """What a kernel reads for ``C_length`` over ranks ``[sp, ep]``.

        Returns ``(rmq, values, offset)``; the kernel reads ranks
        ``[sp − offset, ep − offset]`` of ``values``.  A range no wider than
        the kernel's scan cut-off ``scan_width`` (read from :mod:`.base` at
        call time, as the kernels read it) is scanned over its values
        computed from the prefix sums, rebased so that rank ``sp`` is entry
        0.  A wider one — only the levels ``1..rmq_depth`` have one — runs
        the frontier over the stored ``C_length`` and its RMQ.
        """
        if ep - sp + 1 <= scan_width:
            return None, self._level_values(slice(sp, ep + 1), length), sp
        return self._short_rmq[length], self._short_values[length], 0

    def _candidates_short(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        rmq, values, offset = self._level(sp, ep, length, base.SCAN_WIDTH)
        ranks = report_above_threshold(rmq, values, sp - offset, ep - offset, log_threshold)
        return self._rank_positions[offset:][ranks], values[ranks]

    def _candidates_blocked(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        ranks = blocked_candidate_ranks(
            self._block_rmq[length],
            self._block_maxima[length],
            sp,
            ep,
            length,
            log_threshold,
        )
        rank_values = self._level_values(ranks, length)
        keep = rank_values > log_threshold
        return self._deduplicate_candidates(
            self._rank_positions[ranks[keep]], rank_values[keep]
        )

    def _candidates_scan(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = self._window_values(slice(sp, ep + 1), length)
        keep = values > log_threshold
        return self._deduplicate_candidates(
            self._rank_positions[sp : ep + 1][keep], values[keep]
        )

    @staticmethod
    def _deduplicate_candidates(
        positions: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Different factor copies of the same original position carry the
        # same window value (marginals on the uncorrelated path, optimistic
        # bounds on the correlated one), so keeping the first copy matches
        # the scalar seen-set behaviour.
        unique_positions, first = np.unique(positions, return_index=True)
        return unique_positions, values[first]

    def _finalize(
        self,
        pattern: str,
        positions: np.ndarray,
        values: np.ndarray,
        log_threshold: float,
    ) -> MatchArrays:
        """The position-ordered answer; correlated strings re-verify each candidate."""
        if self._needs_verification:
            values = np.array(
                [
                    self._string.log_occurrence_probability(pattern, position)
                    for position in positions.tolist()
                ],
                dtype=np.float64,
            )
            keep = values > log_threshold
            positions, values = positions[keep], values[keep]
        return MatchArrays(OCCURRENCE, positions, exp_values(values)).by_id()
