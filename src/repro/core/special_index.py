"""The index for special uncertain strings (Sections 4.1 and 4.2).

A query finds the pattern's suffix range in the suffix array of the
deterministic text ``t`` and reads, over that range, the array ``C_i`` of
window probabilities for the pattern's length ``i``: entry ``j`` is
``C[A[j]+i] − C[A[j]]`` in log space (``C`` the prefix sums of log
probabilities), so Section 4.1's scan and Section 4.2's per-length arrays
read the same values.  Every occurrence above the threshold is reported
(Algorithm 2): one scan of the range, or, on a range wider than the
kernels' scan cut-offs, recursive range-maximum queries over a stored
``C_i`` and its ``RMQ_i`` — ``O(m + occ)`` either way for ``m ≤ log n``.

Only the levels whose widest suffix range can outgrow the scans
(:func:`~repro.core.base.rmq_depth`; on random ACGT text none below ~2^17
positions) store ``C_i`` and ``RMQ_i``; every other range computes its ``C_i`` from
``C`` and the suffix array at query time, so on most inputs the index
holds just those two arrays, the space of Section 4.1's simple index.  A
correlated string (Algorithm 1) stores every level up to ``⌈log2 n⌉``:
its correction cannot be read off the prefix sums.

Long patterns (``m > log n``) use the paper's blocking scheme: the suffix
array is cut into blocks of ``m`` entries, only the per-block maximum is kept
(array ``PB_m`` with its own RMQ), and a query touches one block per output,
scanning the ``m`` entries inside each touched block — ``O(m · occ)``.
Because materializing ``PB_i`` for *every* ``i ∈ [log n, n]`` costs
``Θ(n²)`` array work, blocks are built only for the lengths listed in
``long_lengths``; every other long pattern takes a vectorized scan of its
suffix range, which returns identical results.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Literal, Optional, Tuple, Union

import numpy as np

from .._validation import check_nonempty_pattern, check_threshold
from ..exceptions import ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.correlation import CorrelationModel
from ..strings.serialization import (
    correlation_rules_from_manifest,
    correlation_rules_to_manifest,
    special_string_from_manifest,
    special_string_to_manifest,
)
from ..strings.special import SpecialUncertainString
from ..suffix.lcp import lcp_from_ranks
from ..suffix.pattern_search import suffix_range
from ..suffix.rmq import make_rmq, rmq_to_payload
from ..suffix.suffix_array import SuffixArray, prefix_doubling
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
    apply_correlation_adjustment,
    correlation_adjusted_window_log_probability,
    cumulative_log_probabilities,
    prefix_length_log_probabilities,
)

#: Payload schema of this index kind (see :mod:`repro.payload`).
SPECIAL_INDEX_SCHEMA = "index/special"


class SpecialUncertainStringIndex(UncertainSubstringIndex):
    """Substring-search index over a special uncertain string.

    Parameters
    ----------
    string:
        The special uncertain string to index.
    correlations:
        Optional correlation model (Algorithm 1's correlation branch is
        applied while building the ``C_i`` arrays, all of which are then
        stored).
    max_short_length:
        Largest pattern length answered through the per-length ``C_i``
        arrays.  Defaults to ``⌈log2 n⌉`` as in the paper.
    long_lengths:
        Pattern lengths above ``max_short_length`` for which the blocking
        structures of the paper are materialized; a long pattern of any
        other length scans its suffix range.
    rmq_implementation:
        ``"sparse"`` (O(1) query, O(n log n) space) or ``"block"``
        (O(log n) query, O(n) space), for the levels that store an RMQ and
        the blocking structures.

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
        rmq_implementation: Literal["sparse", "block"] = "sparse",
    ):
        self._string = string
        self._correlations = correlations if correlations is not None else CorrelationModel()
        self._correlations.validate_against_length(len(string))
        self._rmq_implementation = rmq_implementation

        n = len(string)
        suffix_array, ranks = prefix_doubling(string.text)
        self._suffix_array = SuffixArray(string.text, array=suffix_array)
        self._prefix = cumulative_log_probabilities(string.probabilities)

        if max_short_length is None:
            max_short_length = max(1, math.ceil(math.log2(n + 1)))
        if max_short_length < 1:
            raise ValidationError(
                f"max_short_length must be at least 1, got {max_short_length}"
            )
        self._max_short_length = min(max_short_length, n)

        # A query computes a level's C_i from the prefix sums (_level), so
        # only the levels whose suffix ranges can outgrow the kernels' scans
        # (rmq_depth) store it, for the RMQ frontier.  A correlated string
        # stores every level: Algorithm 1's correction is not a prefix sum.
        if self._correlations:
            stored = self._max_short_length
        else:
            stored = rmq_depth(lcp_from_ranks(ranks, suffix_array), self._max_short_length)
        del ranks
        self._short_values: Dict[int, np.ndarray] = {}
        self._short_rmq: Dict[int, object] = {}
        for length in range(1, stored + 1):
            values = self._adjusted_values(length)
            self._short_values[length] = values
            self._short_rmq[length] = make_rmq(
                values, mode="max", implementation=rmq_implementation
            )

        # Blocking structures for selected long pattern lengths.
        self._block_maxima: Dict[int, np.ndarray] = {}
        self._block_rmq: Dict[int, object] = {}
        for length in sorted(set(int(value) for value in long_lengths)):
            if self._max_short_length < length <= n:
                values = self._adjusted_values(length)
                maxima = np.maximum.reduceat(values, np.arange(0, n, length))
                self._block_maxima[length] = maxima
                self._block_rmq[length] = make_rmq(
                    maxima, mode="max", implementation=rmq_implementation
                )

    # -- construction helpers -----------------------------------------------------------
    def _adjusted_values(self, length: int) -> np.ndarray:
        """The whole ``C_length``, corrected for the correlation rules."""
        values = prefix_length_log_probabilities(
            self._prefix, self._suffix_array.array, length
        )
        return apply_correlation_adjustment(
            values,
            self._suffix_array.array,
            length,
            self._correlations,
            self._string.text,
            self._string.probabilities,
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
        """Largest pattern length answered through the per-length ``C_i`` arrays."""
        return self._max_short_length

    @property
    def block_lengths(self) -> Tuple[int, ...]:
        """Pattern lengths for which blocking structures are materialized."""
        return tuple(sorted(self._block_maxima))

    # -- payload currency ----------------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The complete array-schema description of this index.

        The stored ``C_i`` arrays and block maxima are stored arrays; their
        RMQ structures are child payloads (space-efficient — block optimum
        positions only, see
        :meth:`repro.suffix.rmq.SparseTableRMQ.to_payload`).  The
        ``short_lengths`` meta key lists the stored levels.
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
                "rmq_implementation": self._rmq_implementation,
            },
            arrays=arrays,
            children=children,
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "SpecialUncertainStringIndex":
        """Restore an index from :meth:`to_payload` output (no construction).

        Restores the levels ``short_lengths`` lists — also an archive
        written when every level was stored, whose surplus levels are then
        read instead of computed, with the same values.  A listed array or
        RMQ child that is missing raises
        :class:`~repro.exceptions.ValidationError`.
        """
        expect_schema(payload, SPECIAL_INDEX_SCHEMA)
        meta = payload.meta
        index = cls.__new__(cls)
        index._string = special_string_from_manifest(meta["string"])
        index._correlations = correlation_rules_from_manifest(meta["correlations"])
        index._rmq_implementation = meta["rmq_implementation"]
        index._suffix_array = SuffixArray(
            index._string.text, array=payload.arrays["suffix_array"]
        )
        # A plain view of a memory-mapped array: every computed range indexes
        # the prefix sums three times, and np.memmap's subclass hooks cost
        # more than the gathers on a narrow range.
        index._prefix = np.asarray(payload.arrays["prefix"])
        index._max_short_length = int(meta["max_short_length"])
        index._short_values = {
            int(length): stored_array(payload, f"short_values_{length}")
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
            rmq, values, positions, offset = self._level(sp, ep, length)
            ranks = report_above_threshold(
                rmq, values, sp - offset, ep - offset, log_threshold
            )
            positions, log_values = positions[ranks], values[ranks]
        elif length in self._block_rmq:
            ranks = blocked_candidate_ranks(
                self._block_rmq[length],
                self._block_maxima[length],
                sp,
                ep,
                length,
                log_threshold,
            )
            positions, log_values = self._scan(ranks, length, log_threshold)
        else:
            positions, log_values = self._scan(slice(sp, ep + 1), length, log_threshold)
        return MatchArrays(OCCURRENCE, positions, exp_values(log_values)).by_id()

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

        if length <= self._max_short_length:
            rmq, values, positions, offset = self._level(sp, ep, length)
            ranks = top_values_above_threshold(
                rmq, values, sp - offset, ep - offset, k, log_threshold, include_ties=True
            )
            positions, log_values = positions[ranks], values[ranks]
        else:
            positions, log_values = self._scan(slice(sp, ep + 1), length, log_threshold)
        # Ranked by the reported (exp'd) probabilities, as the answer reads.
        return MatchArrays(OCCURRENCE, positions, exp_values(log_values)).top(k)

    # -- what the kernels read ------------------------------------------------------------
    # Every rank read below lies in the pattern's suffix range, so its
    # suffix starts with the pattern and no window runs off the text.  A
    # compact payload's narrow suffix-array entries are widened before the
    # window arithmetic: ``positions + length`` can exceed their dtype, and
    # gathering with them takes numpy's slow index path.
    def _level(
        self, sp: int, ep: int, length: int
    ) -> Tuple[Optional[object], np.ndarray, np.ndarray, int]:
        """What a kernel reads for ``C_length`` over ranks ``[sp, ep]``.

        Returns ``(rmq, values, positions, offset)``; the kernel reads
        ranks ``[sp − offset, ep − offset]`` of ``values`` and, by the
        range's width against the cut-offs it reads from :mod:`.base` at
        call time, scans them or runs the frontier; ``positions`` holds
        each of those ranks' text position.  A stored level is read whole
        with its RMQ.  Any other level's ranges are no wider than the scans
        (:func:`~repro.core.base.rmq_depth`), so its values are computed
        over the range alone — the same float64 subtraction a stored level
        holds — rebased so that rank ``sp`` is entry 0.
        """
        values = self._short_values.get(length)
        if values is not None:
            return self._short_rmq[length], values, self._suffix_array.array, 0
        positions = self._suffix_array.array[sp : ep + 1].astype(np.intp, copy=False)
        values = self._prefix[length:][positions] - self._prefix[positions]
        return None, values, positions, sp

    def _scan(
        self, ranks: Union[slice, np.ndarray], length: int, log_threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Positions and window log-probabilities above the threshold at ``ranks``.

        A long pattern's scan: one gather and one subtraction on an
        uncorrelated string; a correlated one corrects every window rank by
        rank (Algorithm 1).
        """
        positions = self._suffix_array.array[ranks].astype(np.intp, copy=False)
        if not self._correlations:
            values = self._prefix[length:][positions] - self._prefix[positions]
        else:
            values = np.array(
                [
                    correlation_adjusted_window_log_probability(
                        self._prefix,
                        position,
                        length,
                        self._correlations,
                        self._string.text,
                        self._string.probabilities,
                    )
                    for position in positions.tolist()
                ],
                dtype=np.float64,
            )
        keep = values > log_threshold
        return positions[keep], values[keep]
