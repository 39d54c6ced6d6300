"""Substring searching in general uncertain strings (paper Section 5).

The index is built in three steps (Algorithm 3):

1. transform the general uncertain string into a special one by
   concatenating its maximal factors w.r.t. ``τ_min`` (Lemma 2), keeping the
   ``Pos`` array that maps transformed positions back to original positions;
2. build the suffix array, the cumulative probability array ``C`` and the
   per-length arrays ``C_i`` (``i ≤ ⌈log2 N⌉``) over the transformed text,
   eliminating duplicates inside every depth-``i`` locus partition so that
   each original position keeps a single finite entry;
3. build a range-maximum structure over every deduplicated ``C_i``.

A query (Algorithm 4) finds the pattern's suffix range and extracts answers
by recursive range-maximum queries, reporting ``Pos[A[j]]`` for every entry
whose probability exceeds the query threshold — ``O(m + occ)`` for patterns
of length up to ``log N``.  Longer patterns use the paper's blocking scheme
when a structure for that length was materialized and otherwise fall back to
a vectorized scan of the suffix range (identical answers, see DESIGN.md).

Correlated strings are supported: the transformation stores optimistic
(upper-bound) probabilities for correlated characters and every candidate is
re-verified against the original string before being reported, so pruning
never loses an answer and nothing wrong is ever reported.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Literal, Optional, Tuple

import numpy as np

from .._validation import check_nonempty_pattern, check_threshold
from ..exceptions import PatternTooLongError, ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.serialization import (
    uncertain_string_from_manifest,
    uncertain_string_to_manifest,
)
from ..strings.uncertain import UncertainString
from ..suffix.lcp import build_lcp_array
from ..suffix.pattern_search import suffix_range
from ..suffix.rmq import make_rmq, rmq_to_payload
from ..suffix.suffix_array import SuffixArray
from .base import (
    OCCURRENCE,
    MatchArrays,
    UncertainSubstringIndex,
    blocked_candidate_ranks,
    exp_values,
    report_above_threshold,
    resolve_tau,
    restore_child_rmq,
    top_values_above_threshold,
)
from .cumulative import NEGATIVE_INFINITY, cumulative_log_probabilities
from .factors import DEFAULT_SEPARATOR, TransformedString, transform_uncertain_string

LongPatternMode = Literal["fallback", "block", "error"]

#: Payload schema of this index kind (see :mod:`repro.payload`).
GENERAL_INDEX_SCHEMA = "index/general"


def partition_identifiers(lcp: np.ndarray, prefix_length: int) -> np.ndarray:
    """Assign every lexicographic rank to its depth-``prefix_length`` partition.

    Two adjacent ranks share a partition exactly when the LCP between them is
    at least ``prefix_length`` (the partitions are the suffix ranges of the
    paper's ``L_i`` locus nodes).
    """
    if prefix_length <= 0:
        raise ValidationError(f"prefix_length must be positive, got {prefix_length}")
    boundaries = (lcp < prefix_length).astype(np.int64)
    boundaries[0] = 0
    return np.cumsum(boundaries)


def deduplicate_by_position(
    values: np.ndarray,
    partition_ids: np.ndarray,
    original_positions: np.ndarray,
) -> np.ndarray:
    """Keep one finite entry per (partition, original position) pair.

    All other copies are set to ``-inf`` so that the recursive RMQ reporting
    never returns the same original position twice for one query
    (Section 5.2's duplicate elimination).  Entries whose original position
    is ``-1`` (separator positions) are masked outright.
    """
    deduplicated = values.copy()
    separator_mask = original_positions < 0
    deduplicated[separator_mask] = NEGATIVE_INFINITY

    valid = ~separator_mask & np.isfinite(deduplicated)
    if not np.any(valid):
        return deduplicated
    indices = np.flatnonzero(valid)
    keys = (
        partition_ids[indices].astype(np.int64)
        * (int(original_positions.max()) + 2)
        + original_positions[indices].astype(np.int64)
    )
    _, first_indices = np.unique(keys, return_index=True)
    keep = np.zeros(len(indices), dtype=bool)
    keep[first_indices] = True
    deduplicated[indices[~keep]] = NEGATIVE_INFINITY
    return deduplicated


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
        Largest pattern length served by the per-length RMQ path
        (default ``⌈log2 N⌉`` where ``N`` is the transformed text length).
    long_lengths:
        Pattern lengths above ``max_short_length`` for which the blocking
        structures are materialized at construction time.
    long_pattern_mode:
        Behaviour for long patterns without a blocking structure:
        ``"fallback"`` (scan, default), ``"block"`` or ``"error"``.
    max_factor_length:
        Optional cap on maximal-factor length (see
        :func:`repro.core.factors.enumerate_maximal_factors`).
    rmq_implementation:
        ``"block"`` (default, linear space — mirrors the paper's succinct
        RMQs) or ``"sparse"`` (O(1) queries, O(N log N) space).
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
        long_pattern_mode: LongPatternMode = "fallback",
        max_factor_length: Optional[int] = None,
        rmq_implementation: Literal["sparse", "block"] = "block",
        separator: str = DEFAULT_SEPARATOR,
    ):
        self._string = string
        self._tau_min = check_threshold(tau_min)
        if long_pattern_mode not in ("fallback", "block", "error"):
            raise ValidationError(
                f"long_pattern_mode must be 'fallback', 'block' or 'error', got {long_pattern_mode!r}"
            )
        self._long_pattern_mode = long_pattern_mode
        self._rmq_implementation = rmq_implementation
        self._needs_verification = bool(string.correlations)

        self._transformed = transform_uncertain_string(
            string,
            self._tau_min,
            max_factor_length=max_factor_length,
            separator=separator,
        )
        transformed = self._transformed
        self._suffix_array = SuffixArray(transformed.text)
        self._lcp = build_lcp_array(transformed.text, self._suffix_array.array)
        self._prefix = cumulative_log_probabilities(transformed.probabilities)
        # Pos / Doc values aligned with lexicographic ranks.
        self._rank_positions = transformed.positions[self._suffix_array.array]

        N = len(transformed.text)
        if max_short_length is None:
            max_short_length = max(1, math.ceil(math.log2(N + 1)))
        self._max_short_length = max(1, min(max_short_length, N))

        self._short_values: Dict[int, np.ndarray] = {}
        self._short_rmq: Dict[int, object] = {}
        for length in range(1, self._max_short_length + 1):
            self._build_short_structure(length)

        self._block_maxima: Dict[int, np.ndarray] = {}
        self._block_values: Dict[int, np.ndarray] = {}
        self._block_rmq: Dict[int, object] = {}
        for length in sorted(set(int(value) for value in long_lengths)):
            if length <= self._max_short_length or length > N:
                continue
            self._build_blocking_structure(length)

    # -- construction helpers ------------------------------------------------------------
    def _windowed_values(self, length: int) -> np.ndarray:
        suffix_array = self._suffix_array.array
        ends = suffix_array + length
        values = np.full(len(suffix_array), NEGATIVE_INFINITY, dtype=np.float64)
        in_range = ends <= len(self._transformed.text)
        values[in_range] = self._prefix[ends[in_range]] - self._prefix[suffix_array[in_range]]
        return values

    def _build_short_structure(self, length: int) -> None:
        values = self._windowed_values(length)
        partitions = partition_identifiers(self._lcp, length)
        values = deduplicate_by_position(values, partitions, self._rank_positions)
        self._short_values[length] = values
        self._short_rmq[length] = make_rmq(
            values, mode="max", implementation=self._rmq_implementation
        )

    def _build_blocking_structure(self, length: int) -> None:
        values = self._windowed_values(length)
        partitions = partition_identifiers(self._lcp, length)
        values = deduplicate_by_position(values, partitions, self._rank_positions)
        n = len(values)
        block_count = (n + length - 1) // length
        maxima = np.full(block_count, NEGATIVE_INFINITY, dtype=np.float64)
        for block in range(block_count):
            start = block * length
            end = min(start + length, n)
            maxima[block] = values[start:end].max()
        self._block_values[length] = values
        self._block_maxima[length] = maxima
        self._block_rmq[length] = make_rmq(
            maxima, mode="max", implementation=self._rmq_implementation
        )

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
        """Largest pattern length served by the per-length RMQ path."""
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
        }
        children = {"transformed": self._transformed.to_payload()}
        for length, values in self._short_values.items():
            arrays[f"short_values_{length}"] = values
            children[f"rmq_short_{length}"] = rmq_to_payload(self._short_rmq[length])
        for length in self._block_maxima:
            arrays[f"block_values_{length}"] = self._block_values[length]
            arrays[f"block_maxima_{length}"] = self._block_maxima[length]
            children[f"rmq_block_{length}"] = rmq_to_payload(self._block_rmq[length])
        return IndexPayload(
            schema=GENERAL_INDEX_SCHEMA,
            meta={
                "string": uncertain_string_to_manifest(self._string),
                "tau_min": self._tau_min,
                "max_short_length": self._max_short_length,
                "short_lengths": sorted(self._short_values),
                "block_lengths": sorted(self._block_maxima),
                "long_pattern_mode": self._long_pattern_mode,
                "rmq_implementation": self._rmq_implementation,
            },
            arrays=arrays,
            derived={"suffix_rank": self._suffix_array.rank},
            children=children,
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "GeneralUncertainStringIndex":
        """Restore an index from :meth:`to_payload` output (no construction)."""
        expect_schema(payload, GENERAL_INDEX_SCHEMA)
        meta = payload.meta
        index = cls.__new__(cls)
        index._string = uncertain_string_from_manifest(meta["string"])
        index._tau_min = float(meta["tau_min"])
        index._long_pattern_mode = meta["long_pattern_mode"]
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
        index._max_short_length = int(meta["max_short_length"])
        index._short_values = {
            int(length): payload.arrays[f"short_values_{length}"]
            for length in meta["short_lengths"]
        }
        index._short_rmq = {
            length: restore_child_rmq(payload, f"rmq_short_{length}", values)
            for length, values in index._short_values.items()
        }
        index._block_values = {
            int(length): payload.arrays[f"block_values_{length}"]
            for length in meta["block_lengths"]
        }
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
        interval = suffix_range(
            self._transformed.text, self._suffix_array.array, pattern
        )
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval

        if length <= self._max_short_length:
            candidates = self._candidates_short(sp, ep, length, log_threshold)
        elif length in self._block_rmq:
            candidates = self._candidates_blocked(sp, ep, length, log_threshold)
        elif self._long_pattern_mode == "fallback":
            candidates = self._candidates_scan(sp, ep, length, log_threshold)
        elif self._long_pattern_mode == "block":
            raise PatternTooLongError(
                f"no blocking structure was built for pattern length {length}; "
                f"available lengths: {self.block_lengths}"
            )
        else:
            raise PatternTooLongError(
                f"pattern length {length} exceeds max_short_length={self._max_short_length}"
            )
        return self._finalize(pattern, *candidates, log_threshold)

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> MatchArrays:
        """The ``k`` most probable occurrences of ``pattern``.

        Occurrences are drawn from those with probability above ``tau``
        (``None`` resolves through :func:`repro.core.base.resolve_tau` to
        ``tau_min`` — the index cannot see anything below its construction
        threshold) and returned as a :class:`~repro.core.base.MatchArrays`
        in decreasing probability order (ties broken by position).  For
        short patterns the answer is extracted with ``O(k)`` heap-driven
        range-maximum probes; long patterns and correlated strings fall back
        to scanning the pattern's suffix range.
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
        interval = suffix_range(
            self._transformed.text, self._suffix_array.array, pattern
        )
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval

        if (
            length <= self._max_short_length
            and not self._needs_verification
        ):
            values = self._short_values[length]
            rmq = self._short_rmq[length]
            ranks = top_values_above_threshold(
                rmq, values, sp, ep, k, log_threshold, include_ties=True
            )
            answer = MatchArrays(
                OCCURRENCE, self._rank_positions[ranks], exp_values(values[ranks])
            )
        else:
            candidates = self._candidates_scan(sp, ep, length, log_threshold)
            answer = self._finalize(pattern, *candidates, log_threshold)
        # Ranked by the reported (exp'd) probabilities, as the answer reads.
        return answer.top(k)

    # -- candidate generation strategies ----------------------------------------------------------
    # Every strategy returns two parallel arrays — original positions and
    # window log-probabilities, each position exactly once — and candidates
    # only become an answer at the _finalize boundary.
    def _candidates_short(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = self._short_values[length]
        rmq = self._short_rmq[length]
        ranks = report_above_threshold(rmq, values, sp, ep, log_threshold)
        return self._rank_positions[ranks], values[ranks]

    def _candidates_blocked(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = self._block_values[length]
        ranks = blocked_candidate_ranks(
            self._block_rmq[length],
            self._block_maxima[length],
            sp,
            ep,
            length,
            log_threshold,
        )
        rank_values = values[ranks]
        keep = rank_values > log_threshold
        return self._deduplicate_candidates(
            self._rank_positions[ranks[keep]], rank_values[keep]
        )

    def _candidates_scan(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Widen before the window arithmetic: compacted payloads restore
        # narrow suffix arrays and ``suffix_array + length`` can exceed
        # their dtype range.  Positions only face comparisons and gathers.
        suffix_array = self._suffix_array.array[sp : ep + 1].astype(np.int64, copy=False)
        positions = self._rank_positions[sp : ep + 1]
        ends = suffix_array + length
        in_range = (ends <= len(self._transformed.text)) & (positions >= 0)
        suffix_array = suffix_array[in_range]
        positions = positions[in_range]
        values = self._prefix[suffix_array + length] - self._prefix[suffix_array]
        keep = values > log_threshold
        return self._deduplicate_candidates(positions[keep], values[keep])

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
