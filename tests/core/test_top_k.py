"""Tests for the top-k most-probable-occurrence queries."""

import numpy as np
import pytest

from repro.core.base import top_values_above_threshold
from repro.core.baseline import BruteForceOracle
from repro.core.general_index import GeneralUncertainStringIndex
from repro.core.special_index import SpecialUncertainStringIndex
from repro.exceptions import ValidationError
from repro.suffix.rmq import SparseTableRMQ


class TestTopValuesHelper:
    def _top(self, values, left, right, k, threshold):
        array = np.asarray(values, dtype=np.float64)
        rmq = SparseTableRMQ(array)
        return top_values_above_threshold(
            rmq, array, left, right, k, threshold
        ).tolist()

    def test_returns_largest_first(self):
        values = [0.1, 0.9, 0.3, 0.7, 0.5]
        assert self._top(values, 0, 4, 3, 0.0) == [1, 3, 4]

    def test_respects_threshold(self):
        values = [0.1, 0.9, 0.3]
        assert self._top(values, 0, 2, 5, 0.2) == [1, 2]

    def test_respects_range(self):
        values = [0.9, 0.1, 0.8, 0.2]
        assert self._top(values, 1, 3, 2, 0.0) == [2, 3]

    def test_empty_inputs(self):
        values = [0.5]
        assert self._top(values, 1, 0, 3, 0.0) == []
        assert self._top(values, 0, 0, 0, 0.0) == []

    def test_include_ties_extends_past_k(self):
        values = [0.5, 0.9, 0.9, 0.9, 0.1]
        array = np.asarray(values, dtype=np.float64)
        rmq = SparseTableRMQ(array)
        truncated = top_values_above_threshold(rmq, array, 0, 4, 2, 0.0)
        assert len(truncated) == 2
        with_ties = top_values_above_threshold(
            rmq, array, 0, 4, 2, 0.0, include_ties=True
        )
        assert sorted(with_ties) == [1, 2, 3]  # the whole 0.9 tie class

    def test_include_ties_extraction_is_bounded(self):
        # A giant tie class must not degrade the heap path to O(occ): the
        # extraction stops at k + TIE_EXTRACTION_LIMIT entries.
        from repro.core.base import TIE_EXTRACTION_LIMIT

        array = np.ones(TIE_EXTRACTION_LIMIT * 4, dtype=np.float64)
        rmq = SparseTableRMQ(array)
        k = 3
        extracted = top_values_above_threshold(
            rmq, array, 0, len(array) - 1, k, 0.0, include_ties=True
        )
        assert len(extracted) == k + TIE_EXTRACTION_LIMIT

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_numpy_argsort(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(80)
        k = int(rng.integers(1, 15))
        got = self._top(values, 0, 79, k, 0.0)
        expected_values = sorted(values, reverse=True)[:k]
        assert [values[i] for i in got] == pytest.approx(expected_values)


class TestGeneralIndexTopK:
    def test_figure10_top_k(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        top = index.top_k("QP", 2)
        assert [occ.position for occ in top] == [0, 1]
        assert top[0].probability == pytest.approx(0.49)
        assert top[1].probability == pytest.approx(0.3)

    def test_k_one_returns_best(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        best = index.top_k("P", 1)[0]
        assert best.probability == pytest.approx(1.0)
        assert best.position == 2

    def test_invalid_k(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        with pytest.raises(ValidationError):
            index.top_k("P", 0)

    def test_absent_pattern(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        assert index.top_k("ZZ", 3) == []

    def test_tau_floor_applies(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        top = index.top_k("QP", 5, tau=0.4)
        assert [occ.position for occ in top] == [0]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_ranking(self, random_uncertain_string, seed):
        string = random_uncertain_string(25, 0.4, 500 + seed)
        index = GeneralUncertainStringIndex(string, tau_min=0.1)
        oracle = BruteForceOracle(string=string)
        backbone = string.most_likely_string()
        for pattern in (backbone[:1], backbone[2:5], backbone[4:8]):
            for k in (1, 3, 10):
                expected = sorted(
                    oracle.substring_occurrences(pattern, 0.1),
                    key=lambda occ: (-occ.probability, occ.position),
                )[:k]
                got = index.top_k(pattern, k)
                assert [occ.probability for occ in got] == pytest.approx(
                    [occ.probability for occ in expected]
                )

    def test_probabilities_are_non_increasing(self, random_uncertain_string):
        string = random_uncertain_string(30, 0.5, 901)
        index = GeneralUncertainStringIndex(string, tau_min=0.1)
        probabilities = [
            occ.probability for occ in index.top_k(string.most_likely_string()[:2], 10)
        ]
        assert probabilities == sorted(probabilities, reverse=True)


class TestSpecialIndexTopK:
    def test_figure5_top_k(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        top = index.top_k("ana", 2)
        assert [occ.position for occ in top] == [3, 1]
        assert top[0].probability == pytest.approx(0.432)

    def test_matches_scan_ranking(self, random_special_string):
        string = random_special_string(50, 12)
        index = SpecialUncertainStringIndex(string)
        pattern = string.text[5:7]
        expected = sorted(
            (
                (string.occurrence_probability(pattern, position), position)
                for position in string.matching_positions(pattern, 1e-9)
            ),
            reverse=True,
        )
        got = index.top_k(pattern, 4)
        assert [occ.probability for occ in got] == pytest.approx(
            [probability for probability, _ in expected[:4]]
        )

    def test_invalid_k(self, figure5_special_string):
        with pytest.raises(ValidationError):
            SpecialUncertainStringIndex(figure5_special_string).top_k("a", -1)

    def test_pattern_longer_than_string(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        assert index.top_k("bananabanana", 2) == []


class TestUnifiedSignature:
    """The top_k signature is the same across every index (ISSUE 1)."""

    def test_tau_defaults_to_none_everywhere(self, figure10_string, figure5_special_string):
        import inspect

        from repro.core.approximate import ApproximateSubstringIndex
        from repro.core.listing import UncertainStringListingIndex

        for cls in (
            GeneralUncertainStringIndex,
            SpecialUncertainStringIndex,
            UncertainStringListingIndex,
            ApproximateSubstringIndex,
        ):
            parameter = inspect.signature(cls.top_k).parameters["tau"]
            assert parameter.default is None, cls
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, cls

    def test_special_default_matches_legacy_floor(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        assert index.top_k("ana", 3) == index.top_k("ana", 3, tau=1e-9)

    def test_general_default_matches_tau_min(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        assert index.top_k("P", 3) == index.top_k("P", 3, tau=0.1)

    def test_top_k_ranks_the_oracle_answer(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        oracle = BruteForceOracle(string=figure5_special_string.to_uncertain_string())
        expected = sorted(
            oracle.substring_occurrences("ana", 1e-9),
            key=lambda occ: (-occ.probability, occ.position),
        )[:2]
        got = index.top_k("ana", 2)
        assert [occ.position for occ in got] == [occ.position for occ in expected]
        assert [occ.probability for occ in got] == pytest.approx(
            [occ.probability for occ in expected]
        )
        with pytest.raises(ValidationError):
            index.top_k("ana", 0)

    def test_boundary_tau_agrees_with_the_oracle(self):
        # An occurrence sitting exactly on tau is included by the top-k
        # kernels (1e-12 tolerance), as by the base-class default.
        from repro.strings import SpecialUncertainString

        string = SpecialUncertainString([("a", 0.5), ("b", 1.0)])
        special = SpecialUncertainStringIndex(string).top_k("ab", 5, tau=0.5)
        assert [occ.position for occ in special] == [0]
        assert [occ.probability for occ in special] == [pytest.approx(0.5)]


class TestListingIndexTopK:
    @pytest.fixture
    def collection_index(self):
        from repro.core.listing import UncertainStringListingIndex
        from repro.strings import UncertainString, UncertainStringCollection

        collection = UncertainStringCollection(
            [
                UncertainString([{"A": 0.9, "B": 0.1}, {"B": 0.8, "C": 0.2}]),
                UncertainString([{"A": 0.5, "B": 0.5}, {"B": 1.0}]),
                UncertainString([{"A": 1.0}, {"C": 1.0}]),
            ]
        )
        return UncertainStringListingIndex(collection, tau_min=0.05)

    def test_orders_by_decreasing_relevance(self, collection_index):
        top = collection_index.top_k("A", 3)
        relevances = [match.relevance for match in top]
        assert relevances == sorted(relevances, reverse=True)
        assert top[0].document == 2  # A certain at position 0

    def test_k_truncates(self, collection_index):
        assert len(collection_index.top_k("A", 2)) == 2
        assert len(collection_index.top_k("A", 10)) == 3

    def test_matches_full_query_ranking(self, collection_index):
        full = sorted(
            collection_index.query("B", 0.05),
            key=lambda match: (-match.relevance, match.document),
        )
        assert collection_index.top_k("B", len(full)) == full

    def test_tau_floor_filters(self, collection_index):
        top = collection_index.top_k("AB", 5, tau=0.6)
        assert all(match.relevance >= 0.6 for match in top)

    def test_absent_pattern(self, collection_index):
        assert collection_index.top_k("ZZ", 3) == []

    def test_invalid_k(self, collection_index):
        with pytest.raises(ValidationError):
            collection_index.top_k("A", 0)

    def test_long_pattern_fallback(self):
        from repro.core.listing import UncertainStringListingIndex
        from repro.strings import UncertainString, UncertainStringCollection

        documents = [
            UncertainString([{c: 1.0} for c in "abcabcabcabc"]),
            UncertainString([{c: 1.0} for c in "abcabc"]),
        ]
        index = UncertainStringListingIndex(
            UncertainStringCollection(documents), tau_min=0.5, max_short_length=2
        )
        top = index.top_k("abcabc", 2)
        assert [match.document for match in top] == [0, 1]

    def test_relevance_ties_break_by_document_id(self):
        # Four identical documents tie on relevance; the heap fast path must
        # keep the lowest document ids, matching the documented tie-break
        # (and the batch-derived ordering in repro.api.batch).
        from repro.core.listing import UncertainStringListingIndex
        from repro.strings import UncertainString, UncertainStringCollection

        documents = [
            UncertainString([{c: 1.0} for c in "AB"]) for _ in range(4)
        ]
        index = UncertainStringListingIndex(
            UncertainStringCollection(documents), tau_min=0.05
        )
        assert [match.document for match in index.top_k("A", 2, tau=0.1)] == [0, 1]
