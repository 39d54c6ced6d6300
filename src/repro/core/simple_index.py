"""The simple (scanning) index for special uncertain strings (Section 4.1).

This is the paper's baseline index: a suffix array over the deterministic
character string ``t`` of the special uncertain string plus the cumulative
probability array ``C``.  A query finds the pattern's suffix range and then
*scans every element of the range*, validating each occurrence's probability
against the threshold.  Its weakness — time proportional to the number of
deterministic matches rather than the number of probable matches — is
exactly what motivates the RMQ-based efficient index of Section 4.2, and the
two are compared head-to-head by ``python -m repro.bench --figure
ablation-variants``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .._validation import check_nonempty_pattern, check_threshold
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
from ..suffix.suffix_array import SuffixArray
from .base import OCCURRENCE, MatchArrays, UncertainSubstringIndex, exp_values
from .cumulative import (
    correlation_adjusted_window_log_probability,
    cumulative_log_probabilities,
)

#: Payload schema of this index kind (see :mod:`repro.payload`).
SIMPLE_INDEX_SCHEMA = "index/simple"


class SimpleSpecialIndex(UncertainSubstringIndex):
    """Suffix-array + cumulative-probability scan index (paper Section 4.1).

    Parameters
    ----------
    string:
        The special uncertain string to index.
    correlations:
        Optional correlation model over the string's positions; handled at
        validation time exactly as described for the naive index.

    Examples
    --------
    >>> from repro.strings import SpecialUncertainString
    >>> x = SpecialUncertainString([
    ...     ("b", 0.4), ("a", 0.7), ("n", 0.5), ("a", 0.8), ("n", 0.9), ("a", 0.6),
    ... ])
    >>> index = SimpleSpecialIndex(x)
    >>> [occ.position for occ in index.query("ana", 0.3)]
    [3]
    """

    def __init__(
        self,
        string: SpecialUncertainString,
        *,
        correlations: Optional[CorrelationModel] = None,
    ):
        self._string = string
        self._correlations = correlations if correlations is not None else CorrelationModel()
        self._correlations.validate_against_length(len(string))
        self._suffix_array = SuffixArray(string.text)
        self._prefix = cumulative_log_probabilities(string.probabilities)

    # -- metadata ------------------------------------------------------------------
    @property
    def tau_min(self) -> float:
        """The simple index supports any positive threshold."""
        return 0.0

    @property
    def string(self) -> SpecialUncertainString:
        """The indexed special uncertain string."""
        return self._string

    @property
    def suffix_array(self) -> SuffixArray:
        """The suffix array over the deterministic character string."""
        return self._suffix_array

    # -- payload currency ---------------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The complete array-schema description of this index."""
        return IndexPayload(
            schema=SIMPLE_INDEX_SCHEMA,
            meta={
                "string": special_string_to_manifest(self._string),
                "correlations": correlation_rules_to_manifest(self._correlations),
            },
            arrays={
                "suffix_array": self._suffix_array.array,
                "prefix": self._prefix,
            },
            # The inverse suffix array is a cheap O(n) function of the
            # suffix array; restore recomputes it instead of storing it.
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "SimpleSpecialIndex":
        """Restore an index from :meth:`to_payload` output (no construction)."""
        expect_schema(payload, SIMPLE_INDEX_SCHEMA)
        index = cls.__new__(cls)
        index._string = special_string_from_manifest(payload.meta["string"])
        index._correlations = correlation_rules_from_manifest(
            payload.meta["correlations"]
        )
        index._suffix_array = SuffixArray(
            index._string.text, array=payload.arrays["suffix_array"]
        )
        index._prefix = payload.arrays["prefix"]
        return index

    # -- queries ----------------------------------------------------------------------
    def query(self, pattern: str, tau: float) -> MatchArrays:
        """All occurrences of ``pattern`` with probability > ``tau``.

        Runs in time proportional to the number of *deterministic* matches of
        ``pattern`` in the text (plus the suffix-range lookup), validating
        each candidate against the threshold.  Returns a
        :class:`~repro.core.base.MatchArrays` in position order; ``top_k``
        is the base class's, which ranks this answer's arrays.
        """
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau)
        interval = suffix_range(self._string.text, self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval
        log_threshold = math.log(threshold)
        length = len(pattern)
        # Widen before the window arithmetic: a compacted suffix array is
        # uint8/16/32 and ``positions + length`` can exceed its dtype range.
        positions = self._suffix_array.array[sp : ep + 1].astype(np.int64, copy=False)

        if not self._correlations:
            # Vectorized validation: windows never run past the end inside a
            # valid suffix range (every suffix there has >= m characters).
            # This index has always reported numpy's exp, here vectorized.
            values = self._prefix[positions + length] - self._prefix[positions]
            keep = values > log_threshold
            return MatchArrays(OCCURRENCE, positions[keep], np.exp(values[keep])).by_id()

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
        return MatchArrays(OCCURRENCE, positions[keep], exp_values(values[keep])).by_id()

    def scanned_candidates(self, pattern: str) -> int:
        """Number of suffix-range entries a query for ``pattern`` must scan.

        Exposed for the benchmark harness so the simple-vs-efficient ablation
        can report work done, not just wall-clock time.
        """
        check_nonempty_pattern(pattern)
        interval = suffix_range(self._string.text, self._suffix_array.array, pattern)
        if interval is None:
            return 0
        sp, ep = interval
        return ep - sp + 1
