"""Tests for repro.core.base (result types and recursive RMQ reporting)."""

import numpy as np
import pytest

from repro.core.base import (
    ListingMatch,
    MatchArrays,
    Occurrence,
    report_above_threshold,
)
from repro.suffix.rmq import SparseTableRMQ


class TestResultTypes:
    def test_occurrence_coerces_types(self):
        occurrence = Occurrence(np.int64(3), np.float64(0.5))
        assert isinstance(occurrence.position, int)
        assert isinstance(occurrence.probability, float)

    def test_occurrence_ordering(self):
        assert Occurrence(1, 0.9) < Occurrence(2, 0.1)

    def test_listing_match_coerces_types(self):
        match = ListingMatch(np.int64(7), np.float64(0.25))
        assert match.document == 7
        assert match.relevance == pytest.approx(0.25)

    def test_by_id_orders_occurrences_by_position(self):
        answer = MatchArrays("occurrence", [5, 1, 3], [0.1, 0.9, 0.5])
        assert [occ.position for occ in answer.by_id()] == [1, 3, 5]

    def test_by_id_orders_listing_matches_by_document(self):
        answer = MatchArrays("listing", [2, 0], [0.1, 0.9])
        assert [match.document for match in answer.by_id()] == [0, 2]


class TestReportAboveThreshold:
    def _report(self, values, left, right, threshold):
        array = np.asarray(values, dtype=np.float64)
        rmq = SparseTableRMQ(array)
        return sorted(report_above_threshold(rmq, array, left, right, threshold))

    def test_reports_exactly_the_values_above_threshold(self):
        values = [0.1, 0.9, 0.3, 0.7, 0.2, 0.8]
        expected = [index for index, value in enumerate(values) if value > 0.5]
        assert self._report(values, 0, 5, 0.5) == expected

    def test_respects_range_bounds(self):
        values = [0.9, 0.1, 0.9, 0.1, 0.9]
        assert self._report(values, 1, 3, 0.5) == [2]

    def test_empty_when_nothing_qualifies(self):
        assert self._report([0.1, 0.2, 0.3], 0, 2, 0.9) == []

    def test_empty_range_yields_nothing(self):
        values = np.asarray([1.0, 2.0])
        rmq = SparseTableRMQ(values)
        assert list(report_above_threshold(rmq, values, 1, 0, 0.0)) == []

    def test_threshold_is_strict(self):
        assert self._report([0.5, 0.5], 0, 1, 0.5) == []

    def test_single_element_ranges(self):
        assert self._report([0.7], 0, 0, 0.5) == [0]
        assert self._report([0.3], 0, 0, 0.5) == []

    def test_handles_negative_infinity_entries(self):
        values = [float("-inf"), 1.0, float("-inf"), 2.0]
        assert self._report(values, 0, 3, 0.0) == [1, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_on_random_arrays(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(200)
        threshold = float(rng.random())
        left, right = sorted(rng.integers(0, 200, size=2).tolist())
        expected = [
            index for index in range(left, right + 1) if values[index] > threshold
        ]
        assert self._report(values, left, right, threshold) == expected

    def test_large_range_does_not_hit_recursion_limit(self):
        # 50k elements all above the threshold: a recursive implementation
        # would overflow Python's recursion limit.
        values = np.linspace(0.5, 1.0, 50_000)
        rmq = SparseTableRMQ(values)
        reported = list(report_above_threshold(rmq, values, 0, len(values) - 1, 0.0))
        assert len(reported) == len(values)
