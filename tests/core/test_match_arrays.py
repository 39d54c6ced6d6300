"""The MatchArrays answer type: read-only arrays that read as records."""

import pickle

import numpy as np
import pytest

from repro import build_index
from repro.api.requests import PartialAnswer, SearchRequest, SearchResult
from repro.core.base import (
    LISTING,
    OCCURRENCE,
    ListingMatch,
    MatchArrays,
    Occurrence,
    evaluate_request,
)


def occurrences():
    return MatchArrays(OCCURRENCE, [4, 9, 17], [0.5, 0.25, 0.125])


def listing():
    return MatchArrays(LISTING, [2, 0], [0.75, 0.3])


def assert_read_only(answer):
    with pytest.raises(ValueError):
        answer.ids[0] = 99
    with pytest.raises(ValueError):
        answer.values[0] = 0.99
    with pytest.raises(ValueError):
        answer.ids.sort()


class TestReadOnly:
    def test_fresh_answer(self):
        assert_read_only(occurrences())
        assert_read_only(listing())

    def test_after_a_pickle_round_trip(self):
        for answer in (occurrences(), listing(), MatchArrays(OCCURRENCE, [1], [0.5], (2,))):
            restored = pickle.loads(pickle.dumps(answer))
            assert_read_only(restored)
            assert restored == answer
            assert restored.kind == answer.kind
            assert restored.failed_shards == answer.failed_shards
            assert restored.ids.dtype == np.int64
            assert restored.values.dtype == np.float64

    def test_answer_handed_out_by_the_cache(self, figure3_string):
        engine = build_index(figure3_string, tau_min=0.1)
        first = engine.search("PA", tau=0.1).arrays
        hit = engine.search("PA", tau=0.1).arrays
        assert engine.cache.stats()["hits"] == 1
        assert hit is first
        assert len(hit) > 0
        assert_read_only(hit)

    def test_index_answers_are_read_only(self, figure3_string):
        engine = build_index(figure3_string, tau_min=0.1)
        assert_read_only(engine.index.query("PA", 0.1))
        assert_read_only(engine.index.top_k("PA", 2))

    def test_attributes_cannot_be_rebound(self):
        answer = occurrences()
        with pytest.raises(AttributeError):
            answer.ids = np.zeros(3, dtype=np.int64)
        with pytest.raises(AttributeError):
            answer.extra = 1

    def test_constructor_leaves_the_callers_data_alone(self):
        ids = [3, 1]
        answer = MatchArrays(OCCURRENCE, ids, [0.5, 0.25])
        assert ids == [3, 1]
        assert answer.ids.tolist() == [3, 1]


class TestEquality:
    def test_equals_a_list_of_equal_records(self):
        assert occurrences() == [
            Occurrence(4, 0.5),
            Occurrence(9, 0.25),
            Occurrence(17, 0.125),
        ]
        assert [ListingMatch(2, 0.75), ListingMatch(0, 0.3)] == listing()
        assert occurrences() == tuple(occurrences())

    def test_differs_from_unequal_records(self):
        assert occurrences() != [Occurrence(4, 0.5), Occurrence(9, 0.25)]
        assert occurrences() != [
            Occurrence(4, 0.5),
            Occurrence(9, 0.25),
            Occurrence(17, 0.126),
        ]
        # Same numbers, other record type.
        assert MatchArrays(LISTING, [4, 9, 17], [0.5, 0.25, 0.125]) != list(occurrences())

    def test_equals_another_match_arrays(self):
        assert occurrences() == occurrences()
        assert occurrences() != listing()
        assert MatchArrays(LISTING, [4, 9, 17], [0.5, 0.25, 0.125]) != occurrences()
        assert occurrences() != occurrences()[:2]
        assert occurrences() != MatchArrays(OCCURRENCE, [4, 9, 18], [0.5, 0.25, 0.125])

    def test_failed_shards_do_not_change_equality(self):
        degraded = MatchArrays(OCCURRENCE, [4, 9, 17], [0.5, 0.25, 0.125], (1,))
        assert degraded == occurrences()
        assert degraded == list(occurrences())

    def test_not_equal_to_other_types(self):
        assert occurrences() != "abc"
        assert occurrences() != {4: 0.5}

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(occurrences())


class TestSequence:
    def test_iteration_builds_records(self):
        records = list(occurrences())
        assert records == [Occurrence(4, 0.5), Occurrence(9, 0.25), Occurrence(17, 0.125)]
        assert all(type(record.position) is int for record in records)
        assert all(type(record.probability) is float for record in records)
        assert [match.document for match in listing()] == [2, 0]

    def test_positive_and_negative_indexing(self):
        answer = occurrences()
        assert answer[0] == Occurrence(4, 0.5)
        assert answer[2] == Occurrence(17, 0.125)
        assert answer[-1] == Occurrence(17, 0.125)
        assert answer[-3] == Occurrence(4, 0.5)
        assert listing()[-1] == ListingMatch(0, 0.3)
        with pytest.raises(IndexError):
            answer[3]
        with pytest.raises(IndexError):
            answer[-4]

    def test_slicing_returns_match_arrays(self):
        answer = MatchArrays(OCCURRENCE, [4, 9, 17], [0.5, 0.25, 0.125], (3,))
        head = answer[:2]
        assert isinstance(head, MatchArrays)
        assert head == [Occurrence(4, 0.5), Occurrence(9, 0.25)]
        assert head.failed_shards == (3,)
        assert answer[1:] == list(answer)[1:]
        assert answer[::-1] == list(answer)[::-1]
        assert answer[-2:] == list(answer)[-2:]
        assert answer[5:] == []
        assert answer[: 10**20] == list(answer)
        assert_read_only(head)

    def test_sequence_mixins(self):
        answer = occurrences()
        assert Occurrence(9, 0.25) in answer
        assert Occurrence(9, 0.3) not in answer
        assert answer.index(Occurrence(17, 0.125)) == 2
        assert list(reversed(answer)) == list(answer)[::-1]
        assert len(answer) == 3
        assert bool(answer)

    def test_repr_shows_the_records(self):
        assert "Occurrence(position=4, probability=0.5)" in repr(occurrences())
        assert "failed_shards=(1,)" in repr(MatchArrays(OCCURRENCE, failed_shards=(1,)))

    @pytest.mark.parametrize("kind", [OCCURRENCE, LISTING])
    def test_empty_answers(self, kind):
        empty = MatchArrays(kind)
        assert len(empty) == 0
        assert not empty
        assert list(empty) == []
        assert empty == []
        assert empty == MatchArrays(OCCURRENCE)
        assert empty == MatchArrays(LISTING)
        assert empty.ids.dtype == np.int64 and empty.values.dtype == np.float64
        assert empty[:3] == []
        assert empty.by_id() == [] and empty.top(5) == []
        with pytest.raises(IndexError):
            empty[0]
        assert pickle.loads(pickle.dumps(empty)) == []

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MatchArrays("positions", [1], [0.5])
        with pytest.raises(ValueError):
            MatchArrays(OCCURRENCE, [1, 2], [0.5])
        with pytest.raises(ValueError):
            MatchArrays(OCCURRENCE, [[1]], [[0.5]])


class TestArrayOperations:
    def test_by_id_is_stable(self):
        answer = MatchArrays(OCCURRENCE, [5, 1, 5, 3], [0.1, 0.2, 0.3, 0.4])
        ordered = answer.by_id()
        assert ordered.ids.tolist() == [1, 3, 5, 5]
        assert ordered.values.tolist() == [0.2, 0.4, 0.1, 0.3]

    def test_top_orders_by_value_then_id(self):
        answer = MatchArrays(LISTING, [7, 2, 9, 4], [0.5, 0.9, 0.5, 0.1])
        assert answer.top(3) == [
            ListingMatch(2, 0.9),
            ListingMatch(7, 0.5),
            ListingMatch(9, 0.5),
        ]
        assert answer.top(10**20) == answer.top(4)

    def test_where_keeps_failed_shards(self):
        answer = MatchArrays(OCCURRENCE, [1, 2, 3], [0.2, 0.6, 0.9], (0,))
        kept = answer.where(answer.values > 0.5)
        assert kept == [Occurrence(2, 0.6), Occurrence(3, 0.9)]
        assert kept.failed_shards == (0,)


class TestSearchResultOverArrays:
    def test_degraded_answer_reads_as_partial_answer(self):
        answer = MatchArrays(OCCURRENCE, [3, 8], [0.5, 0.25], (1, 2))
        result = SearchResult(SearchRequest("AB", tau=0.1), lambda: answer)
        assert result.partial
        assert result.failed_shards == (1, 2)
        assert result.count == 2
        matches = result.matches
        assert isinstance(matches, PartialAnswer)
        assert matches.failed_shards == (1, 2)
        assert matches == [Occurrence(3, 0.5), Occurrence(8, 0.25)]
        assert result.matches is matches  # built once

    def test_complete_answer_reads_as_a_plain_list(self):
        result = SearchResult(SearchRequest("AB", tau=0.1), listing)
        assert type(result.matches) is list
        assert not result.partial
        assert result.failed_shards == ()

    def test_counting_and_paging_read_the_arrays(self):
        calls = []

        def evaluate():
            calls.append(1)
            return occurrences()

        result = SearchResult(SearchRequest("AB", tau=0.1), evaluate)
        assert not result.evaluated
        assert result.count == 3 and result.exists and len(result) == 3
        assert result.positions() == [4, 9, 17]
        assert result.page(1, 1) == [Occurrence(9, 0.25)]
        assert result.page(2) == [Occurrence(17, 0.125)]
        assert result.page(5, 2) == []
        assert list(result.pages(2)) == [
            [Occurrence(4, 0.5), Occurrence(9, 0.25)],
            [Occurrence(17, 0.125)],
        ]
        assert result.arrays is result.arrays
        assert calls == [1]


class TestEvaluateRequest:
    def test_dispatches_to_query_or_top_k(self, figure3_string):
        index = build_index(figure3_string, tau_min=0.1).index
        assert evaluate_request(index, "PA", 0.2, None) == index.query("PA", 0.2)
        assert evaluate_request(index, "PA", None, None) == index.query("PA", index.tau_min)
        assert evaluate_request(index, "PA", None, 2) == index.top_k("PA", 2)
        assert evaluate_request(index, "PA", 0.2, 2) == index.top_k("PA", 2, tau=0.2)
