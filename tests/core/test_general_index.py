"""Tests for repro.core.general_index (Section 5 substring searching)."""

import numpy as np
import pytest

from repro.core.baseline import BruteForceOracle
from repro.core.general_index import GeneralUncertainStringIndex, duplicate_depths
from repro.exceptions import ThresholdError, ValidationError
from repro.strings import CorrelationModel, CorrelationRule, UncertainString
from repro.suffix.suffix_array import prefix_doubling


def abab_depths(keys, limit=4):
    """``duplicate_depths`` over ``"abab\x01"`` with one key per rank.

    Suffix array [4, 2, 0, 3, 1]: ranks "\x01", "ab\x01", "abab\x01",
    "b\x01", "bab\x01", adjacent LCPs [0, 0, 2, 0, 1].
    """
    suffix_array, ranks = prefix_doubling("abab\x01")
    assert suffix_array.tolist() == [4, 2, 0, 3, 1]
    return duplicate_depths(ranks, suffix_array, np.asarray(keys), limit)


class TestPartitionHelpers:
    """Section 5.2's duplicate elimination, read off ``duplicate_depths``."""

    KEYS = [-1, 7, 7, 3, 3]

    def test_partitions_split_at_small_lcp(self):
        depths = abab_depths(self.KEYS)
        # Ranks 1 and 2 agree on "ab": one depth-2 partition, two depth-3 ones.
        assert depths[2] >= 2 and depths[2] < 3
        # Ranks 3 and 4 agree on "b" only.
        assert depths[4] >= 1 and depths[4] < 2

    def test_deduplicate_keeps_one_entry_per_position(self):
        depths = abab_depths(self.KEYS)
        assert depths.tolist() == [4, 0, 2, 0, 1]
        # Level 1: partitions {1, 2} and {3, 4} keep positions 7 and 3 once.
        assert np.flatnonzero(depths < 1).tolist() == [1, 3]

    def test_deduplicate_masks_separator_positions(self):
        depths = abab_depths(self.KEYS, limit=9)
        assert depths[0] == 9
        assert depths.dtype == np.uint8

    def test_same_position_in_different_partitions_kept(self):
        depths = abab_depths(self.KEYS)
        # Level 2 splits {3, 4}: both copies of position 3 stay.
        assert np.flatnonzero(depths < 2).tolist() == [1, 3, 4]
        assert np.flatnonzero(depths < 3).tolist() == [1, 2, 3, 4]

    def test_depths_clip_to_the_limit(self):
        depths = abab_depths([0, 5, 5, 6, 6], limit=1)
        assert depths.tolist() == [0, 0, 1, 0, 1]
        assert abab_depths(self.KEYS, limit=300).dtype == np.uint16


class TestFigure10RunningExample:
    def test_qp_query(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        # Appendix B: query ("QP", 0.4) outputs position 1 (1-based) = 0 with
        # probability 0.49.
        occurrences = index.query("QP", 0.4)
        assert [occ.position for occ in occurrences] == [0]
        assert occurrences[0].probability == pytest.approx(0.49)

    def test_qp_query_lower_threshold_adds_position_1(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        # Position 1 has QP with probability 0.3 * 1.0 = 0.3, so it appears
        # below 0.3 and disappears above it.
        assert [occ.position for occ in index.query("QP", 0.2)] == [0, 1]
        assert [occ.position for occ in index.query("QP", 0.35)] == [0]

    def test_no_duplicate_positions_reported(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        for pattern in ("P", "Q", "QP", "PP", "PA"):
            for tau in (0.1, 0.2, 0.4):
                positions = [occ.position for occ in index.query(pattern, tau)]
                assert len(positions) == len(set(positions)), (pattern, tau)


class TestQueryValidation:
    def test_threshold_below_tau_min_rejected(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.2)
        with pytest.raises(ThresholdError):
            index.query("QP", 0.1)

    def test_empty_pattern_rejected(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        with pytest.raises(ValidationError):
            index.query("", 0.5)

    def test_pattern_longer_than_string_returns_empty(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        assert index.query("QPPAQPPA", 0.5) == []

    def test_absent_pattern_returns_empty(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        assert index.query("ZZ", 0.5) == []

    def test_tau_min_property(self, figure10_string):
        assert GeneralUncertainStringIndex(figure10_string, tau_min=0.15).tau_min == 0.15


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bruteforce_for_random_strings(self, random_uncertain_string, seed):
        string = random_uncertain_string(30, 0.4, seed)
        tau_min = 0.1
        index = GeneralUncertainStringIndex(string, tau_min=tau_min)
        oracle = BruteForceOracle(string=string)
        backbone = string.most_likely_string()
        rng = np.random.default_rng(seed)
        for _ in range(10):
            length = int(rng.integers(1, 7))
            start = int(rng.integers(0, len(string) - length + 1))
            pattern = backbone[start : start + length]
            tau = float(rng.uniform(tau_min, 0.9))
            expected = oracle.substring_occurrences(pattern, tau)
            got = index.query(pattern, tau)
            assert [occ.position for occ in got] == [occ.position for occ in expected]
            for got_occ, expected_occ in zip(got, expected):
                assert got_occ.probability == pytest.approx(expected_occ.probability)

    def test_long_pattern_fallback_matches_oracle(self, random_uncertain_string):
        string = random_uncertain_string(60, 0.2, 77)
        index = GeneralUncertainStringIndex(string, tau_min=0.1)
        backbone = string.most_likely_string()
        pattern = backbone[5:45]  # well beyond max_short_length
        assert len(pattern) > index.max_short_length
        oracle = BruteForceOracle(string=string)
        assert [occ.position for occ in index.query(pattern, 0.1)] == [
            occ.position for occ in oracle.substring_occurrences(pattern, 0.1)
        ]

    def test_blocked_long_pattern_matches_oracle(self, random_uncertain_string):
        string = random_uncertain_string(60, 0.2, 78)
        backbone = string.most_likely_string()
        pattern = backbone[3:33]
        index = GeneralUncertainStringIndex(
            string, tau_min=0.1, long_lengths=[len(pattern)]
        )
        assert len(pattern) in index.block_lengths
        oracle = BruteForceOracle(string=string)
        assert [occ.position for occ in index.query(pattern, 0.1)] == [
            occ.position for occ in oracle.substring_occurrences(pattern, 0.1)
        ]

    def test_sparse_rmq_variant_matches_oracle(self, random_uncertain_string):
        string = random_uncertain_string(25, 0.4, 81)
        index = GeneralUncertainStringIndex(
            string, tau_min=0.1, rmq_implementation="sparse"
        )
        oracle = BruteForceOracle(string=string)
        pattern = string.most_likely_string()[2:6]
        assert [occ.position for occ in index.query(pattern, 0.15)] == [
            occ.position for occ in oracle.substring_occurrences(pattern, 0.15)
        ]


class TestCorrelatedStrings:
    @pytest.fixture
    def correlated_string(self):
        return UncertainString(
            [
                {"e": 0.6, "f": 0.4},
                {"q": 1.0},
                {"z": 0.7, "w": 0.3},
                {"a": 0.5, "b": 0.5},
            ],
            correlations=CorrelationModel([CorrelationRule(2, "z", 0, "e", 0.3, 0.9)]),
        )

    def test_correlated_queries_match_oracle(self, correlated_string):
        index = GeneralUncertainStringIndex(correlated_string, tau_min=0.05)
        oracle = BruteForceOracle(string=correlated_string)
        for pattern in ("eqz", "fqz", "qz", "za", "qzb", "e"):
            for tau in (0.06, 0.1, 0.2, 0.4):
                expected = oracle.substring_occurrences(pattern, tau)
                got = index.query(pattern, tau)
                assert [occ.position for occ in got] == [
                    occ.position for occ in expected
                ], (pattern, tau)
                for got_occ, expected_occ in zip(got, expected):
                    assert got_occ.probability == pytest.approx(
                        expected_occ.probability
                    )


class TestMetadata:
    def test_stats_and_space_report(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        stats = index.stats
        assert stats["source_length"] == 4
        assert stats["transformed_length"] == index.transformed.length
        report = index.space_report()
        assert report["total"] == sum(
            value
            for key, value in report.items()
            if key not in ("total", "total_wide")
        )
        assert report["total_wide"] >= report["total"]
        assert index.nbytes() == report["total"]

    def test_string_and_transformed_accessors(self, figure10_string):
        index = GeneralUncertainStringIndex(figure10_string, tau_min=0.1)
        assert index.string is figure10_string
        assert index.transformed.tau_min == pytest.approx(0.1)
