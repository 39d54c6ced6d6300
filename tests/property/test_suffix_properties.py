"""Property-based tests for the suffix-array / LCP substrate and the suffix
tree read off it (rank ranges plus string depths, never built as nodes)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.approximate import _minimum_levels, _node_ranges
from repro.suffix.lcp import common_prefix_lengths, lcp_from_ranks, naive_lcp_array
from repro.suffix.pattern_search import suffix_range
from repro.suffix.suffix_array import (
    build_suffix_array,
    naive_suffix_array,
    prefix_doubling,
)

#: Texts over a tiny alphabet maximize repeated substrings, which is where
#: suffix structures earn their keep (and where bugs hide).
texts = st.text(alphabet="ab$", min_size=1, max_size=120)
busy_texts = st.text(alphabet="ab", min_size=2, max_size=80)


@settings(max_examples=60, deadline=None)
@given(texts)
def test_suffix_array_matches_naive(text):
    assert build_suffix_array(text).tolist() == naive_suffix_array(text)


@settings(max_examples=60, deadline=None)
@given(texts)
def test_suffix_array_is_sorted_permutation(text):
    suffix_array = build_suffix_array(text).tolist()
    assert sorted(suffix_array) == list(range(len(text)))
    suffixes = [text[start:] for start in suffix_array]
    assert suffixes == sorted(suffixes)


@settings(max_examples=60, deadline=None)
@given(texts)
def test_lcp_matches_naive(text):
    suffix_array, ranks = prefix_doubling(text)
    assert lcp_from_ranks(ranks, suffix_array).tolist() == naive_lcp_array(
        text, suffix_array.tolist()
    )


@settings(max_examples=60, deadline=None)
@given(texts)
def test_lcp_values_are_actual_common_prefix_lengths(text):
    suffix_array, ranks = prefix_doubling(text)
    lcp = lcp_from_ranks(ranks, suffix_array)
    for rank in range(1, len(text)):
        a = text[int(suffix_array[rank - 1]) :]
        b = text[int(suffix_array[rank]) :]
        length = int(lcp[rank])
        assert a[:length] == b[:length]
        assert length == min(len(a), len(b)) or a[length] != b[length]


@settings(max_examples=50, deadline=None)
@given(busy_texts, st.data())
def test_suffix_range_reports_exactly_the_occurrences(text, data):
    length = data.draw(st.integers(min_value=1, max_value=min(4, len(text))))
    start = data.draw(st.integers(min_value=0, max_value=len(text) - length))
    pattern = text[start : start + length]
    suffix_array = build_suffix_array(text)
    interval = suffix_range(text, suffix_array, pattern)
    assert interval is not None
    sp, ep = interval
    positions = sorted(int(suffix_array[rank]) for rank in range(sp, ep + 1))
    assert positions == [
        index
        for index in range(len(text) - length + 1)
        if text[index : index + length] == pattern
    ]


def implicit_tree(text):
    """Suffix array, LCP array and node-range function of ``text``'s suffix tree.

    A node is a rank range plus a string depth, read off the LCP array as
    the approximate index reads it: ``node(first, last, depth)`` is the
    range of the depth-``depth`` node holding ranks ``first..last``.
    """
    suffix_array, ranks = prefix_doubling(text)
    lcp = lcp_from_ranks(ranks, suffix_array)
    levels = _minimum_levels(lcp)

    def node(first, last, depth):
        left, right = _node_ranges(levels, np.array([first]), np.array([last]), np.array([depth]))
        return int(left[0]), int(right[0])

    return suffix_array, lcp, node


@settings(max_examples=40, deadline=None)
@given(busy_texts)
def test_suffix_tree_structure_invariants(text):
    suffix_array, _, node = implicit_tree(text)
    for rank in range(len(text)):
        parent = None
        for depth in range(1, len(text) - int(suffix_array[rank]) + 1):
            left, right = node(rank, rank, depth)
            assert 0 <= left <= rank <= right < len(text)
            if parent is not None:
                assert parent[0] <= left and right <= parent[1]
            parent = left, right
        # The leaf's range starts at its own rank.
        assert parent[0] == rank


@settings(max_examples=40, deadline=None)
@given(busy_texts, st.integers(min_value=1, max_value=6))
def test_depth_partitions_tile_the_leaves(text, depth):
    suffix_array, _, node = implicit_tree(text)
    partitions = sorted({node(rank, rank, depth) for rank in range(len(text))})
    covered = []
    for left, right in partitions:
        assert left <= right
        covered.extend(range(left, right + 1))
    assert covered == list(range(len(text)))
    # Members of one partition share their length-`depth` prefix.
    for left, right in partitions:
        prefixes = {
            text[int(suffix_array[rank]) : int(suffix_array[rank]) + depth]
            for rank in range(left, right + 1)
            if int(suffix_array[rank]) + depth <= len(text)
        }
        assert len(prefixes) <= 1


@settings(max_examples=40, deadline=None)
@given(busy_texts, st.data())
def test_locus_is_highest_node_spelling_pattern(text, data):
    length = data.draw(st.integers(min_value=1, max_value=min(5, len(text))))
    start = data.draw(st.integers(min_value=0, max_value=len(text) - length))
    pattern = text[start : start + length]
    suffix_array, lcp, node = implicit_tree(text)
    sp, ep = suffix_range(text, suffix_array, pattern)
    occurrence = int(np.flatnonzero(suffix_array == start)[0])
    assert node(occurrence, occurrence, length) == (sp, ep)
    # The locus is the node holding exactly sp..ep; its depth is at least
    # the pattern's, and one character deeper the range splits.
    depth = len(text) - int(suffix_array[sp]) if sp == ep else int(lcp[sp + 1 : ep + 1].min())
    assert depth >= length
    assert node(sp, ep, depth) == (sp, ep)
    if sp < ep:
        assert node(sp, sp, depth + 1) != (sp, ep)


#: Separators, non-BMP code points and periodic texts: the inputs the
#: doubling rounds find hardest (long equal runs, many rounds).
wide_alphabet_texts = st.text(
    alphabet=["a", "b", "\x01", "\U0001F600", "\U00010348"], min_size=1, max_size=90
)
periodic_texts = st.builds(
    lambda unit, repeats, tail: unit * repeats + tail,
    st.text(alphabet="ab\x01", min_size=1, max_size=4),
    st.integers(min_value=1, max_value=40),
    st.text(alphabet="ab\x01", max_size=3),
)
doubling_texts = st.one_of(wide_alphabet_texts, periodic_texts)


@settings(max_examples=80, deadline=None)
@given(doubling_texts)
def test_doubling_suffix_array_and_lcp_match_naive(text):
    suffix_array, ranks = prefix_doubling(text)
    assert suffix_array.tolist() == naive_suffix_array(text)
    assert lcp_from_ranks(ranks, suffix_array).tolist() == naive_lcp_array(
        text, suffix_array.tolist()
    )


@settings(max_examples=60, deadline=None)
@given(doubling_texts, st.data())
def test_common_prefix_of_any_two_suffixes(text, data):
    suffix_array, ranks = prefix_doubling(text)
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(text) - 1),
                st.integers(min_value=0, max_value=len(text) - 1),
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=12,
        )
    )
    left = np.asarray([a for a, _ in pairs], dtype=np.int64)
    right = np.asarray([b for _, b in pairs], dtype=np.int64)
    expected = [
        next(
            (k for k in range(min(len(text) - a, len(text) - b)) if text[a + k] != text[b + k]),
            min(len(text) - a, len(text) - b),
        )
        for a, b in pairs
    ]
    assert common_prefix_lengths(ranks, left, right).tolist() == expected


def test_one_letter_run_takes_seventeen_rounds():
    n = 65536
    suffix_array, ranks = prefix_doubling("A" * n)
    assert len(ranks) == 17
    assert all(rank.dtype == np.int32 and len(rank) == n + 1 for rank in ranks)
    # Shorter suffixes sort first, and each shares all of itself with the next.
    assert (suffix_array == np.arange(n - 1, -1, -1)).all()
    assert (lcp_from_ranks(ranks, suffix_array) == np.arange(n)).all()
