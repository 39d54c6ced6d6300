"""Tests for repro.core.special_index (the Section 4.2 efficient index)."""

import pytest

from repro.core.simple_index import SimpleSpecialIndex
from repro.core.special_index import SpecialUncertainStringIndex
from repro.exceptions import ValidationError
from repro.strings import CorrelationModel, CorrelationRule, SpecialUncertainString


class TestFigure5Example:
    def test_short_pattern_query(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        assert [occ.position for occ in index.query("ana", 0.3)] == [3]
        assert [occ.position for occ in index.query("ana", 0.2)] == [1, 3]
        assert [occ.position for occ in index.query("an", 0.3)] == [1, 3]

    def test_probabilities_match_string(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        for pattern in ("a", "an", "ana", "banana"):
            for occurrence in index.query(pattern, 0.01):
                assert occurrence.probability == pytest.approx(
                    figure5_special_string.occurrence_probability(
                        pattern, occurrence.position
                    )
                )


class TestConfiguration:
    def test_default_max_short_length(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        assert index.max_short_length == 3  # ceil(log2(7))

    def test_explicit_max_short_length_clamped_to_n(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string, max_short_length=100)
        assert index.max_short_length == len(figure5_special_string)

    def test_invalid_max_short_length(self, figure5_special_string):
        with pytest.raises(ValidationError):
            SpecialUncertainStringIndex(figure5_special_string, max_short_length=0)

    def test_block_lengths_registered(self, figure5_special_string):
        index = SpecialUncertainStringIndex(
            figure5_special_string, long_lengths=[5, 6, 99, 2]
        )
        # 2 is below max_short_length and 99 exceeds n: both ignored.
        assert index.block_lengths == (5, 6)

    def test_rmq_implementation_block(self, figure5_special_string):
        index = SpecialUncertainStringIndex(
            figure5_special_string, rmq_implementation="block"
        )
        assert [occ.position for occ in index.query("ana", 0.3)] == [3]

    def test_nbytes_positive(self, figure5_special_string):
        assert SpecialUncertainStringIndex(figure5_special_string).nbytes() > 0

    def test_tau_min_zero(self, figure5_special_string):
        assert SpecialUncertainStringIndex(figure5_special_string).tau_min == 0.0


class TestLongPatterns:
    def test_fallback_mode_answers_long_patterns(self, random_special_string):
        string = random_special_string(80, 5)
        index = SpecialUncertainStringIndex(string)
        pattern = string.text[10:40]  # length 30 > log2(80)
        assert len(pattern) > index.max_short_length
        expected = string.matching_positions(pattern, 0.001)
        assert [occ.position for occ in index.query(pattern, 0.001)] == expected

    def test_blocked_mode_matches_fallback(self, random_special_string):
        string = random_special_string(120, 9)
        pattern = string.text[17:37]
        length = len(pattern)
        blocked = SpecialUncertainStringIndex(string, long_lengths=[length])
        fallback = SpecialUncertainStringIndex(string)
        for tau in (0.0001, 0.001, 0.01):
            assert [occ.position for occ in blocked.query(pattern, tau)] == [
                occ.position for occ in fallback.query(pattern, tau)
            ]

    def test_pattern_longer_than_string(self, figure5_special_string):
        index = SpecialUncertainStringIndex(figure5_special_string)
        assert index.query("bananabanana", 0.1) == []


class TestAgainstSimpleIndex:
    @pytest.mark.parametrize("seed", range(15))
    def test_agrees_with_simple_index(self, random_special_string, seed):
        string = random_special_string(50 + seed, seed, alphabet="ABC")
        efficient = SpecialUncertainStringIndex(string, long_lengths=[8, 12])
        simple = SimpleSpecialIndex(string)
        for length in (1, 2, 3, 5, 8, 12):
            if length > len(string):
                continue
            start = (7 * seed) % (len(string) - length + 1)
            pattern = string.text[start : start + length]
            for tau in (0.05, 0.2, 0.5, 0.9):
                assert [occ.position for occ in efficient.query(pattern, tau)] == [
                    occ.position for occ in simple.query(pattern, tau)
                ], (pattern, tau)


class TestCorrelationHandling:
    def test_correlated_probabilities_used_in_rmq_path(self):
        string = SpecialUncertainString([("e", 0.6), ("q", 1.0), ("z", 0.3), ("q", 1.0)])
        correlations = CorrelationModel([CorrelationRule(2, "z", 0, "e", 0.3, 0.4)])
        index = SpecialUncertainStringIndex(string, correlations=correlations)
        # "qz" (partner outside window): mixture 0.34 > 0.33 threshold.
        occurrences = index.query("qz", 0.33)
        assert [occ.position for occ in occurrences] == [1]
        assert occurrences[0].probability == pytest.approx(0.34)
        # "eqz" (partner inside window, present): 0.6*1*0.3 = 0.18.
        occurrences = index.query("eqz", 0.15)
        assert [occ.position for occ in occurrences] == [0]
        assert occurrences[0].probability == pytest.approx(0.18)
