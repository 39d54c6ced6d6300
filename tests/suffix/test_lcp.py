"""Tests for repro.suffix.lcp."""

import random

import pytest

from repro.suffix.lcp import lcp_from_ranks, naive_lcp_array
from repro.suffix.suffix_array import prefix_doubling


def lcp_of(text):
    """The LCP array of ``text``, as every index builds it."""
    suffix_array, ranks = prefix_doubling(text)
    return lcp_from_ranks(ranks, suffix_array)


class TestLcpFromRanks:
    def test_banana(self):
        assert lcp_of("banana").tolist() == [0, 1, 3, 0, 0, 2]

    def test_all_equal_characters(self):
        assert lcp_of("aaaa").tolist() == [0, 1, 2, 3]

    def test_single_character(self):
        assert lcp_of("z").tolist() == [0]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_naive_on_random_strings(self, seed):
        rng = random.Random(seed)
        text = "".join(rng.choice("ab\x01") for _ in range(rng.randint(1, 150)))
        suffix_array, ranks = prefix_doubling(text)
        assert lcp_from_ranks(ranks, suffix_array).tolist() == naive_lcp_array(
            text, suffix_array.tolist()
        )

    def test_first_entry_always_zero(self):
        for text in ("abc", "zzz", "abab"):
            assert lcp_of(text)[0] == 0
