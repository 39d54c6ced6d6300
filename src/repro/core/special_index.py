"""The efficient RMQ-based index for special uncertain strings (Section 4.2).

The index keeps, for every prefix length ``i`` up to ``⌈log2 n⌉``, the array
``C_i`` of window probabilities over lexicographic ranks and a range maximum
query structure ``RMQ_i`` over it.  A query for a short pattern (``m ≤
log n``) finds the pattern's suffix range and then repeatedly extracts the
maximum-probability entry, recursing on both sides until the maximum drops
below the threshold — ``O(m + occ)`` in total (Algorithm 2).

Long patterns (``m > log n``) use the paper's blocking scheme: the suffix
array is cut into blocks of ``m`` entries, only the per-block maximum is kept
(array ``PB_m`` with its own RMQ), and a query touches one block per output,
scanning the ``m`` entries inside each touched block — ``O(m · occ)``.
Because materializing ``PB_i`` for *every* ``i ∈ [log n, n]`` costs
``Θ(n²)`` array work, blocks are built only for the lengths listed in
``long_lengths``; other long patterns fall back to a vectorized scan of the
suffix range, which returns identical results (see DESIGN.md, substitution
table).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Literal, Optional, Tuple

import numpy as np

from .._validation import check_nonempty_pattern, check_threshold
from ..exceptions import PatternTooLongError, ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.correlation import CorrelationModel
from ..strings.serialization import (
    correlation_rules_from_manifest,
    correlation_rules_to_manifest,
    special_string_from_manifest,
    special_string_to_manifest,
)
from ..strings.special import SpecialUncertainString
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
from .cumulative import (
    NEGATIVE_INFINITY,
    apply_correlation_adjustment,
    correlation_adjusted_window_log_probability,
    cumulative_log_probabilities,
    prefix_length_log_probabilities,
)

LongPatternMode = Literal["fallback", "block", "error"]

#: Payload schema of this index kind (see :mod:`repro.payload`).
SPECIAL_INDEX_SCHEMA = "index/special"


class SpecialUncertainStringIndex(UncertainSubstringIndex):
    """Efficient substring-search index over a special uncertain string.

    Parameters
    ----------
    string:
        The special uncertain string to index.
    correlations:
        Optional correlation model (Algorithm 1's correlation branch is
        applied while building the ``C_i`` arrays).
    max_short_length:
        Largest pattern length answered by the per-length RMQ structures.
        Defaults to ``⌈log2 n⌉`` as in the paper.
    long_lengths:
        Pattern lengths above ``max_short_length`` for which the blocking
        structures of the paper are materialized.
    long_pattern_mode:
        What to do with a long pattern whose length has no blocking
        structure: ``"fallback"`` (default) scans the suffix range,
        ``"block"`` requires a materialized length and otherwise raises,
        ``"error"`` always raises.
    rmq_implementation:
        ``"sparse"`` (O(1) query, O(n log n) space) or ``"block"``
        (O(log n) query, O(n) space).

    Examples
    --------
    >>> from repro.strings import SpecialUncertainString
    >>> x = SpecialUncertainString([
    ...     ("b", 0.4), ("a", 0.7), ("n", 0.5), ("a", 0.8), ("n", 0.9), ("a", 0.6),
    ... ])
    >>> index = SpecialUncertainStringIndex(x)
    >>> [(occ.position, round(occ.probability, 3)) for occ in index.query("ana", 0.3)]
    [(3, 0.432)]
    """

    def __init__(
        self,
        string: SpecialUncertainString,
        *,
        correlations: Optional[CorrelationModel] = None,
        max_short_length: Optional[int] = None,
        long_lengths: Iterable[int] = (),
        long_pattern_mode: LongPatternMode = "fallback",
        rmq_implementation: Literal["sparse", "block"] = "sparse",
    ):
        self._string = string
        self._correlations = correlations if correlations is not None else CorrelationModel()
        self._correlations.validate_against_length(len(string))
        if long_pattern_mode not in ("fallback", "block", "error"):
            raise ValidationError(
                f"long_pattern_mode must be 'fallback', 'block' or 'error', got {long_pattern_mode!r}"
            )
        self._long_pattern_mode = long_pattern_mode
        self._rmq_implementation = rmq_implementation

        n = len(string)
        self._suffix_array = SuffixArray(string.text)
        self._prefix = cumulative_log_probabilities(string.probabilities)

        if max_short_length is None:
            max_short_length = max(1, math.ceil(math.log2(n + 1)))
        if max_short_length < 1:
            raise ValidationError(
                f"max_short_length must be at least 1, got {max_short_length}"
            )
        self._max_short_length = min(max_short_length, n)

        # Per-length C_i arrays and their RMQ structures (short patterns).
        self._short_values: Dict[int, np.ndarray] = {}
        self._short_rmq: Dict[int, object] = {}
        for length in range(1, self._max_short_length + 1):
            values = prefix_length_log_probabilities(
                self._prefix, self._suffix_array.array, length
            )
            values = apply_correlation_adjustment(
                values,
                self._suffix_array.array,
                length,
                self._correlations,
                string.text,
                string.probabilities,
            )
            self._short_values[length] = values
            self._short_rmq[length] = make_rmq(
                values, mode="max", implementation=rmq_implementation
            )

        # Blocking structures for selected long pattern lengths.
        self._block_maxima: Dict[int, np.ndarray] = {}
        self._block_rmq: Dict[int, object] = {}
        for length in sorted(set(int(value) for value in long_lengths)):
            if length <= self._max_short_length:
                continue
            if length > n:
                continue
            self._build_blocking_structure(length)

    # -- construction helpers -----------------------------------------------------------
    def _build_blocking_structure(self, length: int) -> None:
        values = prefix_length_log_probabilities(
            self._prefix, self._suffix_array.array, length
        )
        values = apply_correlation_adjustment(
            values,
            self._suffix_array.array,
            length,
            self._correlations,
            self._string.text,
            self._string.probabilities,
        )
        n = len(values)
        block_count = (n + length - 1) // length
        maxima = np.full(block_count, NEGATIVE_INFINITY, dtype=np.float64)
        for block in range(block_count):
            start = block * length
            end = min(start + length, n)
            maxima[block] = values[start:end].max()
        self._block_maxima[length] = maxima
        self._block_rmq[length] = make_rmq(
            maxima, mode="max", implementation=self._rmq_implementation
        )

    # -- metadata ------------------------------------------------------------------------
    @property
    def tau_min(self) -> float:
        """The special-string index supports any positive threshold."""
        return 0.0

    @property
    def string(self) -> SpecialUncertainString:
        """The indexed special uncertain string."""
        return self._string

    @property
    def max_short_length(self) -> int:
        """Largest pattern length answered through the per-length RMQ path."""
        return self._max_short_length

    @property
    def block_lengths(self) -> Tuple[int, ...]:
        """Pattern lengths for which blocking structures are materialized."""
        return tuple(sorted(self._block_maxima))

    # -- payload currency ----------------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The complete array-schema description of this index.

        Per-length ``C_i`` arrays and block maxima are stored arrays; the
        per-length RMQ structures are child payloads (space-efficient —
        block optimum positions only, see
        :meth:`repro.suffix.rmq.SparseTableRMQ.to_payload`).
        """
        arrays = {
            "suffix_array": self._suffix_array.array,
            "prefix": self._prefix,
        }
        children = {}
        for length, values in self._short_values.items():
            arrays[f"short_values_{length}"] = values
            children[f"rmq_short_{length}"] = rmq_to_payload(self._short_rmq[length])
        for length, maxima in self._block_maxima.items():
            arrays[f"block_maxima_{length}"] = maxima
            children[f"rmq_block_{length}"] = rmq_to_payload(self._block_rmq[length])
        return IndexPayload(
            schema=SPECIAL_INDEX_SCHEMA,
            meta={
                "string": special_string_to_manifest(self._string),
                "correlations": correlation_rules_to_manifest(self._correlations),
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
    def from_payload(cls, payload: IndexPayload) -> "SpecialUncertainStringIndex":
        """Restore an index from :meth:`to_payload` output (no construction).

        Every RMQ child restores through
        :func:`repro.suffix.rmq.rmq_from_payload` in O(n/b · log n) work.
        """
        expect_schema(payload, SPECIAL_INDEX_SCHEMA)
        meta = payload.meta
        index = cls.__new__(cls)
        index._string = special_string_from_manifest(meta["string"])
        index._correlations = correlation_rules_from_manifest(meta["correlations"])
        index._long_pattern_mode = meta["long_pattern_mode"]
        index._rmq_implementation = meta["rmq_implementation"]
        index._suffix_array = SuffixArray(
            index._string.text, array=payload.arrays["suffix_array"]
        )
        index._prefix = payload.arrays["prefix"]
        index._max_short_length = int(meta["max_short_length"])
        index._short_values = {
            int(length): payload.arrays[f"short_values_{length}"]
            for length in meta["short_lengths"]
        }
        index._short_rmq = {
            length: restore_child_rmq(payload, f"rmq_short_{length}", values)
            for length, values in index._short_values.items()
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
        """All occurrences of ``pattern`` with probability > ``tau``.

        Returns a :class:`~repro.core.base.MatchArrays` (positions and
        probabilities) in position order; no record is built.
        """
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau)
        if len(pattern) > len(self._string):
            return MatchArrays(OCCURRENCE)
        interval = suffix_range(self._string.text, self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval
        log_threshold = math.log(threshold)
        length = len(pattern)

        if length <= self._max_short_length:
            return self._query_short(sp, ep, length, log_threshold)
        if length in self._block_rmq:
            return self._query_blocked(sp, ep, length, log_threshold)
        if self._long_pattern_mode == "fallback":
            return self._query_scan(sp, ep, length, log_threshold)
        if self._long_pattern_mode == "block":
            raise PatternTooLongError(
                f"no blocking structure was built for pattern length {length}; "
                f"available lengths: {self.block_lengths}"
            )
        raise PatternTooLongError(
            f"pattern length {length} exceeds max_short_length={self._max_short_length}"
        )

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> MatchArrays:
        """The ``k`` most probable occurrences of ``pattern``.

        Returns a :class:`~repro.core.base.MatchArrays` ordered by
        decreasing probability (ties broken by position), ranked by the
        reported float64 probabilities.  ``tau`` optionally floors the
        candidates considered; ``None`` resolves through
        :func:`repro.core.base.resolve_tau` (the unified default documented
        on the base class).
        """
        check_nonempty_pattern(pattern)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        threshold = resolve_tau(tau, self.tau_min)
        if len(pattern) > len(self._string):
            return MatchArrays(OCCURRENCE)
        interval = suffix_range(self._string.text, self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval
        length = len(pattern)
        log_threshold = math.log(threshold) - 1e-12

        if length <= self._max_short_length and not self._correlations:
            values = self._short_values[length]
            rmq = self._short_rmq[length]
            ranks = top_values_above_threshold(
                rmq, values, sp, ep, k, log_threshold, include_ties=True
            )
            positions, log_values = self._suffix_array.array[ranks], values[ranks]
        else:
            positions, log_values = self._scan_ranks(
                np.arange(sp, ep + 1, dtype=np.int64), length, log_threshold
            )
        # Ranked by the reported (exp'd) probabilities, as the answer reads.
        return MatchArrays(OCCURRENCE, positions, exp_values(log_values)).top(k)

    # -- query strategies ------------------------------------------------------------------------
    # Every strategy ends in a position-ordered answer of exp'd log values.
    def _query_short(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> MatchArrays:
        values = self._short_values[length]
        rmq = self._short_rmq[length]
        ranks = report_above_threshold(rmq, values, sp, ep, log_threshold)
        return _occurrences(self._suffix_array.array[ranks], values[ranks])

    def _query_blocked(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> MatchArrays:
        ranks = blocked_candidate_ranks(
            self._block_rmq[length],
            self._block_maxima[length],
            sp,
            ep,
            length,
            log_threshold,
        )
        return _occurrences(*self._scan_ranks(ranks, length, log_threshold))

    def _query_scan(
        self, sp: int, ep: int, length: int, log_threshold: float
    ) -> MatchArrays:
        return _occurrences(
            *self._scan_ranks(np.arange(sp, ep + 1, dtype=np.int64), length, log_threshold)
        )

    def _scan_ranks(
        self, ranks: np.ndarray, length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Positions and window log-probabilities above the threshold.

        Array-native scan of the given lexicographic ranks: one gather into
        the suffix array, one cumulative-probability subtraction and one
        comparison — no per-rank Python work on the uncorrelated path.
        Correlated strings still walk rank by rank (every window needs the
        correlation adjustment), returning the same array shape.
        """
        # Widen before the window arithmetic: a compacted suffix array is
        # uint8/16/32 and ``positions + length`` can exceed its dtype range.
        positions = self._suffix_array.array[ranks].astype(np.int64, copy=False)
        if not self._correlations:
            in_range = positions + length <= len(self._string)
            candidates = positions[in_range]
            values = self._prefix[candidates + length] - self._prefix[candidates]
            keep = values > log_threshold
            return candidates[keep], values[keep]
        kept_positions: List[int] = []
        kept_values: List[float] = []
        for position in positions:
            value = correlation_adjusted_window_log_probability(
                self._prefix,
                int(position),
                length,
                self._correlations,
                self._string.text,
                self._string.probabilities,
            )
            if value > log_threshold:
                kept_positions.append(int(position))
                kept_values.append(value)
        return (
            np.asarray(kept_positions, dtype=np.int64),
            np.asarray(kept_values, dtype=np.float64),
        )


def _occurrences(positions: np.ndarray, log_values: np.ndarray) -> MatchArrays:
    """The position-ordered answer of parallel position / log-value arrays."""
    return MatchArrays(OCCURRENCE, positions, exp_values(log_values)).by_id()
