"""Tests for repro.suffix.pattern_search."""

import random

import pytest

from repro.exceptions import ValidationError
from repro.suffix.pattern_search import suffix_range
from repro.suffix.suffix_array import build_suffix_array


class TestSuffixRange:
    def test_banana_ana(self):
        text = "banana"
        assert suffix_range(text, build_suffix_array(text), "ana") == (1, 2)

    def test_banana_full_text(self):
        text = "banana"
        assert suffix_range(text, build_suffix_array(text), "banana") == (3, 3)

    def test_absent_pattern(self):
        text = "banana"
        assert suffix_range(text, build_suffix_array(text), "nab") is None
        assert suffix_range(text, build_suffix_array(text), "x") is None

    def test_pattern_longer_than_text(self):
        text = "abc"
        assert suffix_range(text, build_suffix_array(text), "abcd") is None

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValidationError):
            suffix_range("abc", build_suffix_array("abc"), "")

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            suffix_range("", [], "a")

    @pytest.mark.parametrize("seed", range(20))
    def test_range_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        text = "".join(rng.choice("ab") for _ in range(rng.randint(5, 120)))
        suffix_array = build_suffix_array(text)
        length = rng.randint(1, 5)
        start = rng.randint(0, len(text) - length)
        pattern = text[start : start + length]
        interval = suffix_range(text, suffix_array, pattern)
        assert interval is not None
        sp, ep = interval
        positions = sorted(int(suffix_array[j]) for j in range(sp, ep + 1))
        expected = [
            j for j in range(len(text) - length + 1) if text[j : j + length] == pattern
        ]
        assert positions == expected


class TestOccurrencesFromRange:
    def test_range_width_counts_occurrences(self):
        text = "abracadabra"
        suffix_array = build_suffix_array(text)
        sp, ep = suffix_range(text, suffix_array, "abra")
        assert ep - sp + 1 == 2
        assert suffix_range(text, suffix_array, "zzz") is None

    def test_range_holds_the_occurrence_positions(self):
        text = "abracadabra"
        suffix_array = build_suffix_array(text)
        sp, ep = suffix_range(text, suffix_array, "abra")
        assert sorted(suffix_array[sp : ep + 1].tolist()) == [0, 7]
