"""Index-free baselines (related work, Section 1.3).

Two comparison points are provided for the benchmarks and the test suite:

* :class:`OnlineDynamicProgrammingMatcher` — the algorithmic approach of
  Li et al. [20]: no preprocessing, each query scans the uncertain string
  and multiplies probabilities position by position (``O(n · m)`` per
  query, with early termination once the running product drops below the
  threshold).  This is the "no index" baseline.
* :class:`BruteForceOracle` — exhaustive verification used as ground truth
  in tests: it simply defers to the exact probability computation of the
  string/collection classes.
"""

from __future__ import annotations

import math
from typing import List, Optional

from .._validation import check_nonempty_pattern, check_threshold
from ..strings.collection import UncertainStringCollection
from ..strings.uncertain import UncertainString
from .base import OCCURRENCE, ListingMatch, MatchArrays, Occurrence, UncertainSubstringIndex
from .listing import RelevanceMetric, combine_relevance


class OnlineDynamicProgrammingMatcher(UncertainSubstringIndex):
    """Scan-based matcher requiring no index (Li et al. style baseline).

    Parameters
    ----------
    string:
        The uncertain string queries will run against.

    Examples
    --------
    >>> from repro.strings import UncertainString
    >>> s = UncertainString([{"a": 0.9, "b": 0.1}, {"a": 1.0}, {"b": 0.5, "c": 0.5}])
    >>> matcher = OnlineDynamicProgrammingMatcher(s)
    >>> [occ.position for occ in matcher.query("aa", 0.5)]
    [0]
    """

    def __init__(self, string: UncertainString):
        self._string = string

    @property
    def tau_min(self) -> float:
        """The online matcher supports any positive threshold."""
        return 0.0

    @property
    def string(self) -> UncertainString:
        """The string queries run against."""
        return self._string

    def nbytes(self) -> int:
        """The online matcher keeps no payload beyond the string itself."""
        return 0

    def query(self, pattern: str, tau: float) -> MatchArrays:
        """Occurrences of ``pattern`` with probability > ``tau``.

        Performs an ``O(n · m)`` scan with early termination: the inner
        product over pattern characters stops as soon as it falls to or
        below the threshold.  Returns a :class:`~repro.core.base.MatchArrays`
        in position order, like every index.
        """
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau)
        log_threshold = math.log(threshold)
        string = self._string
        n = len(string)
        m = len(pattern)
        correlated = bool(string.correlations)
        positions: List[int] = []
        probabilities: List[float] = []
        for start in range(n - m + 1):
            if correlated:
                # Correlation rules couple positions, so the incremental
                # early-exit product is not valid; evaluate exactly.
                value = string.log_occurrence_probability(pattern, start)
                if value > log_threshold:
                    positions.append(start)
                    probabilities.append(math.exp(value))
                continue
            running = 0.0
            matched = True
            for offset, character in enumerate(pattern):
                probability = string[start + offset].probability(character)
                if probability <= 0.0:
                    matched = False
                    break
                running += math.log(probability)
                if running <= log_threshold:
                    matched = False
                    break
            if matched and running > log_threshold:
                positions.append(start)
                probabilities.append(math.exp(running))
        # The scan visits start positions in increasing order.
        return MatchArrays(OCCURRENCE, positions, probabilities)


class BruteForceOracle:
    """Exhaustive ground-truth answers for both query problems.

    Used by the test suite to validate every index; also handy when
    debugging an application because its answers are trivially correct.
    """

    def __init__(
        self,
        string: Optional[UncertainString] = None,
        collection: Optional[UncertainStringCollection] = None,
    ):
        self._string = string
        self._collection = collection

    # -- substring searching -------------------------------------------------------------
    def substring_occurrences(self, pattern: str, tau: float) -> List[Occurrence]:
        """All occurrences of ``pattern`` with probability > ``tau`` in the string."""
        if self._string is None:
            raise ValueError("this oracle was not given an uncertain string")
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau)
        occurrences = [
            Occurrence(position, self._string.occurrence_probability(pattern, position))
            for position in self._string.matching_positions(pattern, threshold)
        ]
        return sorted(occurrences, key=lambda occurrence: occurrence.position)

    # -- string listing ---------------------------------------------------------------------
    def listing_matches(
        self, pattern: str, tau: float, *, metric: RelevanceMetric = "max"
    ) -> List[ListingMatch]:
        """All documents whose relevance for ``pattern`` exceeds ``tau``."""
        if self._collection is None:
            raise ValueError("this oracle was not given a collection")
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau)
        matches = []
        for identifier, document in enumerate(self._collection):
            probabilities = [
                document.occurrence_probability(pattern, position)
                for position in range(len(document) - len(pattern) + 1)
            ]
            relevance = combine_relevance(probabilities, metric)
            if relevance > threshold:
                matches.append(ListingMatch(identifier, relevance))
        return sorted(matches, key=lambda match: match.document)
