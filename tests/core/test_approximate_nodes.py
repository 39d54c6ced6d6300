"""The implicit suffix tree and the chain helpers of the approximate build.

:mod:`repro.core.approximate` never builds a suffix tree: a node is a rank
range plus a string depth, read off the LCP array by ``_node_ranges`` over
the sparse table of ``_minimum_levels``.  The tests here check that tree
against its definition (the node of rank ``r`` at depth ``d`` holds the
ranks whose suffixes start with the first ``d`` characters of ``r``'s):

* leaves at their suffix lengths, nodes nesting by depth, the depth-``d``
  partitions tiling the ranks, path labels and leaf sets on banana;
* every node of random texts, one at a time and in one batch;
* the locus of a pattern equal to its suffix range, and the LCA of two
  leaves at the depth of their common prefix;

and the depth cap, the ε split and the widest first-character slice
against depth-by-depth scans.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.approximate import (
    _capped_depths,
    _minimum_levels,
    _node_ranges,
    _split_chains,
    widest_first_character_slice,
)
from repro.core.cumulative import cumulative_log_probabilities
from repro.suffix.lcp import common_prefix_lengths, lcp_from_ranks
from repro.suffix.pattern_search import suffix_range
from repro.suffix.suffix_array import prefix_doubling


class ImplicitTree:
    """A text's suffix array, LCP array and the node ranges read off them."""

    def __init__(self, text):
        self.text = text
        self.suffix_array, self.ranks = prefix_doubling(text)
        self.lcp = lcp_from_ranks(self.ranks, self.suffix_array)
        self.levels = _minimum_levels(self.lcp)

    def __len__(self):
        return len(self.text)

    def suffix(self, rank):
        return self.text[int(self.suffix_array[rank]) :]

    def leaf_depth(self, rank):
        return len(self.suffix(rank))

    def node_range(self, first, last, depth):
        left, right = _node_ranges(
            self.levels, np.array([first]), np.array([last]), np.array([depth])
        )
        return int(left[0]), int(right[0])

    def defined_range(self, rank, depth):
        """The ranks whose suffixes start with ``rank``'s first ``depth`` characters."""
        label = self.suffix(rank)[:depth]
        members = [q for q in range(len(self)) if self.suffix(q).startswith(label)]
        assert members == list(range(members[0], members[-1] + 1))
        return members[0], members[-1]

    def partitions(self, depth):
        """The distinct depth-``depth`` node ranges of all ranks, in rank order."""
        ranks = np.arange(len(self))
        left, right = _node_ranges(self.levels, ranks, ranks, np.full(len(self), depth))
        return sorted(set(zip(left.tolist(), right.tolist())))


@pytest.fixture
def banana():
    return ImplicitTree("banana")


def random_text(seed, alphabet="abc"):
    rng = random.Random(seed)
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 80)))


class TestLeaves:
    def test_leaf_depths_are_suffix_lengths(self, banana):
        # A leaf's range starts at its own rank; when the suffix is a prefix
        # of later suffixes ("a" of "ana" and "anana", "na" of "nana"), the
        # leaf is also the node covering them.
        ranges = [banana.node_range(rank, rank, banana.leaf_depth(rank)) for rank in range(6)]
        assert ranges == [(0, 2), (1, 2), (2, 2), (3, 3), (4, 5), (5, 5)]

    def test_unique_terminator_makes_every_leaf_one_rank(self):
        tree = ImplicitTree("banana$")
        for rank in range(len(tree)):
            assert tree.node_range(rank, rank, tree.leaf_depth(rank)) == (rank, rank)


class TestNodeRanges:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_node_matches_the_definition(self, seed):
        tree = ImplicitTree(random_text(seed, "ab\x01" if seed % 2 else "abc"))
        firsts, depths, expected = [], [], []
        for rank in range(len(tree)):
            for depth in range(1, tree.leaf_depth(rank) + 1):
                assert tree.node_range(rank, rank, depth) == tree.defined_range(rank, depth)
                firsts.append(rank)
                depths.append(depth)
                expected.append(tree.defined_range(rank, depth))
        # All nodes in one batch, as the build asks for them.
        firsts = np.array(firsts)
        left, right = _node_ranges(tree.levels, firsts, firsts, np.array(depths))
        assert list(zip(left.tolist(), right.tolist())) == expected

    def test_parent_ranges_contain_children(self, banana):
        for rank in range(6):
            for depth in range(2, banana.leaf_depth(rank) + 1):
                parent_left, parent_right = banana.node_range(rank, rank, depth - 1)
                left, right = banana.node_range(rank, rank, depth)
                assert parent_left <= left <= rank <= right <= parent_right

    def test_ancestors_widen_to_the_first_character(self, banana):
        # Leaf "anana" (rank 2) up to the depth-1 node of "a".
        ancestors = [banana.node_range(2, 2, depth) for depth in range(5, 0, -1)]
        assert ancestors == [(2, 2), (2, 2), (1, 2), (1, 2), (0, 2)]

    def test_range_of_several_ranks(self, banana):
        assert banana.node_range(1, 2, 3) == (1, 2)
        assert banana.node_range(1, 2, 1) == (0, 2)
        assert banana.node_range(4, 5, 2) == (4, 5)

    def test_path_label(self, banana):
        left, right = banana.node_range(1, 1, 3)
        for rank in range(6):
            assert banana.suffix(rank).startswith("ana") == (left <= rank <= right)

    def test_subtree_size_and_leaves(self, banana):
        left, right = banana.node_range(2, 2, 3)
        assert right - left + 1 == 2
        assert sorted(banana.suffix_array[left : right + 1].tolist()) == [1, 3]


class TestDepthPartitions:
    def test_partitions_cover_all_leaves(self, banana):
        for depth in range(1, 7):
            covered = []
            for left, right in banana.partitions(depth):
                covered.extend(range(left, right + 1))
            assert covered == list(range(6))

    def test_partitions_split_at_small_lcp(self, banana):
        # At depth 1: a-suffixes (3), banana (1) and na-suffixes (2) group.
        assert banana.partitions(1) == [(0, 2), (3, 3), (4, 5)]
        assert banana.partitions(2) == [(0, 0), (1, 2), (3, 3), (4, 5)]

    def test_partitions_at_large_depth_are_singletons(self, banana):
        assert banana.partitions(6) == [(i, i) for i in range(6)]

    def test_partition_members_share_prefix(self):
        rng = random.Random(3)
        tree = ImplicitTree("".join(rng.choice("ab") for _ in range(60)))
        for depth in (1, 2, 3):
            for left, right in tree.partitions(depth):
                prefixes = {
                    tree.suffix(rank)[:depth]
                    for rank in range(left, right + 1)
                    if tree.leaf_depth(rank) >= depth
                }
                assert len(prefixes) <= 1


def locus_depth(tree, sp, ep):
    """String depth of the node holding exactly the ranks ``sp..ep``."""
    if sp == ep:
        return tree.leaf_depth(sp)
    return int(tree.lcp[sp + 1 : ep + 1].min())


class TestPatternLocus:
    def test_pattern_range_matches_search(self, banana):
        assert banana.node_range(2, 2, 3) == suffix_range("banana", banana.suffix_array, "ana")
        assert banana.node_range(2, 2, 3) == (1, 2)

    def test_locus_properties(self, banana):
        sp, ep = suffix_range("banana", banana.suffix_array, "an")
        assert banana.node_range(sp, sp, 2) == (sp, ep) == (1, 2)
        # The locus of "an" is the depth-3 node of "ana"; its parent is the
        # depth-1 node of "a".
        assert locus_depth(banana, sp, ep) == 3
        assert banana.node_range(sp, ep, 3) == (sp, ep)
        assert banana.node_range(sp, ep, 1) == (0, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_locus_on_random_strings(self, seed):
        rng = random.Random(seed)
        text = random_text(seed)
        tree = ImplicitTree(text)
        for _ in range(10):
            length = rng.randint(1, 4)
            start = rng.randint(0, len(text) - length)
            pattern = text[start : start + length]
            sp, ep = suffix_range(text, tree.suffix_array, pattern)
            occurrence = int(np.flatnonzero(tree.suffix_array == start)[0])
            assert tree.node_range(occurrence, occurrence, length) == (sp, ep)
            depth = locus_depth(tree, sp, ep)
            assert depth >= length
            assert tree.node_range(sp, ep, depth) == (sp, ep)
            if sp < ep:
                assert tree.node_range(sp, sp, depth + 1) != (sp, ep)


class TestLowestCommonAncestor:
    def test_lca_covers_both_leaves(self, banana):
        for a in range(6):
            for b in range(a + 1, 6):
                depth = int(
                    common_prefix_lengths(
                        banana.ranks, banana.suffix_array[[a]], banana.suffix_array[[b]]
                    )[0]
                )
                if depth == 0:
                    continue  # the root
                left, right = banana.node_range(a, b, depth)
                assert left <= a < b <= right
                assert banana.node_range(a, a, depth) == banana.node_range(b, b, depth)

    def test_lca_is_deepest_common_ancestor(self, banana):
        # banana: leaves 1 and 2 are "ana..." suffixes sharing the depth-3 node.
        depth = int(
            common_prefix_lengths(
                banana.ranks, banana.suffix_array[[1]], banana.suffix_array[[2]]
            )[0]
        )
        assert depth == 3
        assert banana.node_range(1, 2, depth) == (1, 2)
        assert banana.node_range(1, 1, depth + 1) != banana.node_range(2, 2, depth + 1)


class TestMinimumLevels:
    @pytest.mark.parametrize("seed", range(3))
    def test_levels_are_window_minima(self, seed):
        lcp = ImplicitTree(random_text(seed, "ab")).lcp
        levels = _minimum_levels(lcp)
        for k, level in enumerate(levels):
            width = 1 << k
            assert level.tolist() == [
                int(lcp[i : i + width].min()) for i in range(len(lcp) - width + 1)
            ]

    def test_one_level_per_power_of_two(self):
        for length in range(1, 40):
            levels = _minimum_levels(np.zeros(length, dtype=np.int64))
            assert len(levels) == length.bit_length()
            assert all(level.dtype == np.int32 for level in levels)


def random_prefix(rng, length, certain=0.3):
    """Log prefix sums of ``length`` probabilities, a share of them exactly 1."""
    probabilities = [
        1.0 if rng.random() < certain else rng.uniform(0.2, 1.0) for _ in range(length)
    ]
    return cumulative_log_probabilities(probabilities)


class TestCappedDepths:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_a_depth_by_depth_count(self, seed):
        rng = random.Random(seed)
        prefix = random_prefix(rng, 60)
        starts = np.array([rng.randrange(60) for _ in range(200)])
        depths = np.array([rng.randint(0, 60 - int(start)) for start in starts])
        threshold = np.log(rng.uniform(0.05, 0.5)) - 1e-12
        expected = [
            sum(1 for d in range(1, depth + 1) if prefix[start + d] - prefix[start] >= threshold)
            for start, depth in zip(starts.tolist(), depths.tolist())
        ]
        assert _capped_depths(prefix, starts, depths, threshold).tolist() == expected

    def test_certain_text_keeps_every_depth(self):
        prefix = cumulative_log_probabilities([1.0] * 10)
        depths = np.array([0, 1, 5, 10])
        capped = _capped_depths(prefix, np.zeros(4, dtype=np.int64), depths, np.log(0.9))
        assert capped.tolist() == depths.tolist()


def probability(prefix, start, depth):
    if depth == 0:
        return 1.0
    return float(np.exp(prefix[start + depth] - prefix[start]))


def greedy_sub_links(prefix, starts, targets, origins, epsilon):
    """Split the chains and check every sub-link against a depth-by-depth scan.

    Returns the ``(top, cut)`` depths of each chain's sub-links, deepest first.
    """
    chains, tops, cuts, values = _split_chains(prefix, starts, targets, origins, epsilon)
    assert chains.dtype == tops.dtype == cuts.dtype == np.int64
    assert values.dtype == np.float64
    by_chain = {}
    for chain, top, cut, value in zip(chains, tops, cuts, values):
        by_chain.setdefault(int(chain), []).append((int(top), int(cut), value))
    assert sorted(by_chain) == list(range(len(starts)))
    for chain, links in by_chain.items():
        start = int(starts[chain])
        links.sort(reverse=True)
        # The sub-links run from the origin down to the target, unbroken.
        assert links[0][0] == origins[chain]
        assert links[-1][1] == targets[chain]
        assert all(upper[1] == lower[0] for upper, lower in zip(links, links[1:]))
        for top, cut, value in links:
            top_value = probability(prefix, start, top)
            assert value.tobytes() == np.float64(top_value).tobytes()
            # No depth between the cut and the top rises above the top's
            # probability by more than epsilon; a cut above the target
            # sits just below the deepest depth that does, or one step
            # up when the next depth already does.
            rises = [
                probability(prefix, start, depth) - top_value > epsilon
                for depth in range(top + 1)
            ]
            assert not any(rises[cut + 1 : top])
            if cut < top - 1:
                assert not rises[cut]
            if cut > targets[chain]:
                assert rises[cut - 1] or rises[cut]
    return {chain: [link[:2] for link in links] for chain, links in by_chain.items()}


class TestSplitChains:
    """A chain's sub-links are the greedy ε cuts of a depth-by-depth scan."""

    @pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5])
    def test_sub_links_are_the_greedy_cuts(self, epsilon):
        rng = random.Random(int(epsilon * 100))
        prefix = random_prefix(rng, 80)
        starts = np.array([rng.randrange(70) for _ in range(100)])
        origins = np.array([rng.randint(1, 80 - int(start)) for start in starts])
        targets = np.array([rng.randint(0, int(origin) - 1) for origin in origins])
        greedy_sub_links(prefix, starts, targets, origins, epsilon)

    def test_a_rise_of_exactly_epsilon_is_not_cut(self):
        prefix = cumulative_log_probabilities([0.5, 0.8, 0.9, 0.7])
        epsilon = probability(prefix, 0, 2) - probability(prefix, 0, 4)
        one = np.array([0])
        links = greedy_sub_links(prefix, one, one * 0, one + 4, epsilon)
        assert links == {0: [(4, 2), (2, 1), (1, 0)]}

    def test_no_chains(self):
        empty = np.empty(0, dtype=np.int64)
        chains, tops, cuts, values = _split_chains(
            cumulative_log_probabilities([0.5]), empty, empty, empty, 0.1
        )
        assert len(chains) == len(tops) == len(cuts) == len(values) == 0
        assert chains.dtype == np.int64 and values.dtype == np.float64


class TestWidestFirstCharacterSlice:
    @pytest.mark.parametrize("seed", range(3))
    def test_counts_origins_per_first_character(self, seed):
        rng = random.Random(seed)
        text = random_text(seed, "abcd\x01")
        suffix_array, _ = prefix_doubling(text)
        origin_left = np.sort(np.array([rng.randrange(len(text)) for _ in range(50)]))
        counts = Counter(text[int(suffix_array[rank])] for rank in origin_left)
        widest = widest_first_character_slice(text, suffix_array, origin_left)
        assert widest == max(counts.values())

    def test_no_links_give_zero(self):
        suffix_array, _ = prefix_doubling("banana")
        empty = np.empty(0, dtype=np.int64)
        assert widest_first_character_slice("banana", suffix_array, empty) == 0
