"""Tests for repro.core.approximate (Section 7 approximate substring search)."""

import random

import numpy as np
import pytest

import repro.core.base as base
from repro.api.persistence import index_to_payload, load_index_payload, save_index_payload
from repro.core.approximate import LINK_ARRAYS, ApproximateSubstringIndex
from repro.core.base import SCAN_WIDTH
from repro.core.baseline import BruteForceOracle
from repro.core.cumulative import cumulative_log_probabilities
from repro.core.factors import transform_uncertain_string
from repro.exceptions import ConstructionError, ThresholdError, ValidationError
from repro.strings import CorrelationModel, CorrelationRule, UncertainString
from repro.suffix.lcp import lcp_from_ranks, naive_lcp_array
from repro.suffix.rmq import make_rmq, rmq_to_payload
from repro.suffix.suffix_array import naive_suffix_array, prefix_doubling
from tests.conftest import make_random_uncertain_string


class TestConstruction:
    def test_epsilon_bounds(self, figure10_string):
        with pytest.raises(ValidationError):
            ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=0.0)
        with pytest.raises(ValidationError):
            ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=1.0)
        with pytest.raises(Exception):
            ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=-0.5)

    def test_metadata(self, figure10_string):
        index = ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=0.05)
        assert index.tau_min == pytest.approx(0.1)
        assert index.epsilon == pytest.approx(0.05)
        assert index.string is figure10_string
        assert index.link_count > 0
        assert index.nbytes() > 0
        assert index.transformed.tau_min == pytest.approx(0.1)

    def test_smaller_epsilon_means_more_links(self, random_uncertain_string):
        string = random_uncertain_string(25, 0.4, 5)
        coarse = ApproximateSubstringIndex(string, tau_min=0.1, epsilon=0.3)
        fine = ApproximateSubstringIndex(string, tau_min=0.1, epsilon=0.02)
        assert fine.link_count >= coarse.link_count


class TestFigure10Example:
    def test_qp_query(self, figure10_string):
        index = ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=0.05)
        occurrences = index.query("QP", 0.4)
        assert 0 in {occ.position for occ in occurrences}
        # Every reported occurrence is within epsilon of the threshold.
        for occurrence in occurrences:
            true_probability = figure10_string.occurrence_probability(
                "QP", occurrence.position
            )
            assert true_probability > 0.4 - 0.05 - 1e-9

    def test_verify_gives_exact_answer(self, figure10_string):
        index = ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=0.2)
        exact_positions = {
            position
            for position in range(len(figure10_string) - 1)
            if figure10_string.occurrence_probability("QP", position) > 0.4
        }
        verified = {occ.position for occ in index.query("QP", 0.4, verify=True)}
        assert verified == exact_positions


class TestGuarantees:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("epsilon", [0.05, 0.15])
    def test_completeness_and_soundness(self, random_uncertain_string, seed, epsilon):
        string = random_uncertain_string(25, 0.4, seed)
        tau_min = 0.1
        index = ApproximateSubstringIndex(string, tau_min=tau_min, epsilon=epsilon)
        oracle = BruteForceOracle(string=string)
        backbone = string.most_likely_string()
        rng = np.random.default_rng(seed)
        for _ in range(8):
            length = int(rng.integers(1, 6))
            start = int(rng.integers(0, len(string) - length + 1))
            pattern = backbone[start : start + length]
            tau = float(rng.uniform(tau_min + epsilon, 0.95))
            exact = {occ.position for occ in oracle.substring_occurrences(pattern, tau)}
            approximate = {occ.position for occ in index.query(pattern, tau)}
            # Completeness: everything above tau is reported.
            assert exact <= approximate, (pattern, tau)
            # Soundness: everything reported is above tau - epsilon.
            for position in approximate:
                true_probability = string.occurrence_probability(pattern, position)
                assert true_probability > tau - epsilon - 1e-9, (pattern, tau, position)

    @pytest.mark.parametrize("seed", range(5))
    def test_verify_matches_oracle(self, random_uncertain_string, seed):
        string = random_uncertain_string(20, 0.4, 100 + seed)
        index = ApproximateSubstringIndex(string, tau_min=0.1, epsilon=0.1)
        oracle = BruteForceOracle(string=string)
        backbone = string.most_likely_string()
        for pattern in (backbone[:2], backbone[3:6], backbone[1:2]):
            for tau in (0.25, 0.5):
                assert {occ.position for occ in index.query(pattern, tau, verify=True)} == {
                    occ.position for occ in oracle.substring_occurrences(pattern, tau)
                }

    def test_reported_probability_is_lower_bound(self, random_uncertain_string):
        string = random_uncertain_string(20, 0.5, 55)
        index = ApproximateSubstringIndex(string, tau_min=0.1, epsilon=0.1)
        backbone = string.most_likely_string()
        pattern = backbone[:3]
        for occurrence in index.query(pattern, 0.2):
            true_probability = string.occurrence_probability(pattern, occurrence.position)
            assert occurrence.probability <= true_probability + 1e-9


class TestValidation:
    def test_threshold_below_tau_min_rejected(self, figure10_string):
        index = ApproximateSubstringIndex(figure10_string, tau_min=0.2, epsilon=0.05)
        with pytest.raises(ThresholdError):
            index.query("QP", 0.1)

    def test_empty_pattern_rejected(self, figure10_string):
        index = ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=0.05)
        with pytest.raises(ValidationError):
            index.query("", 0.3)

    def test_absent_pattern_empty(self, figure10_string):
        index = ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=0.05)
        assert index.query("ZZ", 0.3) == []


def reference_links(string, tau_min, epsilon, max_factor_length=None):
    """Section 7's links from the definitions, one node and one depth at a time.

    Leaves per position; each LCA of rank-adjacent leaves found by scanning
    ``lcp``; the target found by scanning the position's marked set; the
    chain cut with one ``float(np.exp(...))`` per depth.  Sorted like the
    index: by origin, positions in order of their smallest rank.
    """
    transformed = transform_uncertain_string(
        string, tau_min, max_factor_length=max_factor_length
    )
    text = transformed.text
    count = len(text)
    sa = naive_suffix_array(text)
    lcp = naive_lcp_array(text, sa)
    prefix = cumulative_log_probabilities(transformed.probabilities)
    threshold = np.log(tau_min) - 1e-12

    def node(first, last, depth):
        left, right = first, last
        while lcp[left] >= depth:
            left -= 1
        while right + 1 < count and lcp[right + 1] >= depth:
            right += 1
        return left, right, depth

    def probability(start, depth):
        if depth == 0:
            return 1.0
        return float(np.exp(prefix[start + depth] - prefix[start]))

    leaves_by_position = {}
    for rank, start in enumerate(sa):
        position = int(transformed.positions[start])
        if position >= 0:
            leaves_by_position.setdefault(position, []).append(rank)
    links = []
    for position, leaves in leaves_by_position.items():
        marked = {node(rank, rank, count - sa[rank]) for rank in leaves}
        for a, b in zip(leaves, leaves[1:]):
            depth = min(lcp[a + 1 : b + 1])
            if depth > 0:
                marked.add(node(a, b, depth))
        for left, right, depth in marked:
            target = max(
                (
                    other
                    for other_left, other_right, other in marked
                    if other_left <= left and right <= other_right and other < depth
                ),
                default=0,
            )
            start = sa[min(rank for rank in leaves if left <= rank <= right)]
            origin = min(
                depth,
                sum(
                    1
                    for step in range(1, depth + 1)
                    if prefix[start + step] - prefix[start] >= threshold
                ),
            )
            current, value = origin, probability(start, origin)
            while current > target:
                cut = target
                for step in range(current - 1, target - 1, -1):
                    if probability(start, step) - value > epsilon:
                        cut = step + 1
                        break
                cut = min(cut, current - 1)
                links.append((left, right, current, cut, position, value))
                current, value = cut, probability(start, cut)
    links.sort(key=lambda link: link[:3])
    columns = list(zip(*links)) or [()] * 6
    return {
        name: np.array(column, dtype=np.float64 if name == "link_probability" else np.int64)
        for name, column in zip(LINK_ARRAYS, columns)
    }


def link_input(seed):
    """A small random input: uncertain, certain, one-position or correlated."""
    rng = random.Random(seed)
    length = 1 if seed % 8 == 1 else rng.randint(2, 30)
    theta = {2: 0.0, 4: 1.0}.get(seed % 6, rng.random())
    alphabet = "ABCDEFGH"[: rng.randint(2, 6)]
    string = make_random_uncertain_string(length, theta, seed, alphabet=alphabet)
    if seed % 4 == 3 and length > 1:
        rules = {}
        for _ in range(rng.randint(1, 4)):
            position, partner = rng.sample(range(length), 2)
            character = rng.choice(sorted(string[position].characters))
            rules[position, character] = CorrelationRule(
                position,
                character,
                partner,
                rng.choice(sorted(string[partner].characters)),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.05, 1.0),
            )
        string = UncertainString(list(string), correlations=CorrelationModel(rules.values()))
    options = {
        "tau_min": rng.uniform(0.05, 0.5),
        "epsilon": rng.uniform(0.01, 0.9),
        "max_factor_length": rng.randint(1, 8) if seed % 5 == 0 else None,
    }
    return string, options


class TestLinkArrays:
    """The numpy build gives the definitions' links, in dtype and bits."""

    @pytest.mark.parametrize("batch", range(8))
    def test_random_inputs_match_the_reference(self, batch):
        checked = 0
        for seed in range(30 * batch, 30 * (batch + 1)):
            string, options = link_input(seed)
            try:
                index = ApproximateSubstringIndex(string, **options)
            except ConstructionError:
                continue
            expected = reference_links(string, **options)
            arrays = index_to_payload(index).arrays
            for name in LINK_ARRAYS:
                assert arrays[name].dtype == expected[name].dtype, (seed, name)
                assert arrays[name].tobytes() == expected[name].tobytes(), (seed, name)
            checked += 1
        assert checked >= 25

    def test_figure10_matches_the_reference(self, figure10_string):
        index = ApproximateSubstringIndex(figure10_string, tau_min=0.1, epsilon=0.05)
        expected = reference_links(figure10_string, 0.1, 0.05)
        arrays = index_to_payload(index).arrays
        assert index.link_count == len(expected["link_position"]) > 0
        for name in LINK_ARRAYS:
            assert arrays[name].tobytes() == expected[name].tobytes(), name


def same_bits(first, second):
    return (
        first.ids.tobytes() == second.ids.tobytes()
        and first.values.tobytes() == second.values.tobytes()
    )


def link_rmq_string():
    return make_random_uncertain_string(120, 0.3, seed=21)


def stabbing_patterns(index):
    text = index.transformed.text.replace("\x01", "")
    rng = random.Random(3)
    patterns = []
    for length in (1, 1, 2, 3, 5):
        start = rng.randrange(len(text) - length)
        patterns.append(text[start : start + length])
    return patterns


def assert_same_answers(index, other, patterns):
    for pattern in patterns:
        for tau in (0.1, 0.2, 0.5):
            assert same_bits(index.query(pattern, tau), other.query(pattern, tau))
            assert same_bits(
                index.query(pattern, tau, verify=True),
                other.query(pattern, tau, verify=True),
            )
            assert same_bits(index.top_k(pattern, 3, tau=tau), other.top_k(pattern, 3, tau=tau))


class TestLinkRmq:
    """The link RMQ exists only where a stabbed slice can outgrow the scan."""

    def test_small_input_has_no_link_rmq(self):
        index = ApproximateSubstringIndex(link_rmq_string(), tau_min=0.1, epsilon=0.05)
        assert "rmq_links" not in index_to_payload(index).children

    def test_low_cut_offs_keep_the_rmq_and_answer_identically(self, low_cut_offs):
        index = ApproximateSubstringIndex(link_rmq_string(), tau_min=0.1, epsilon=0.05)
        assert "rmq_links" in index_to_payload(index).children
        with pytest.MonkeyPatch.context() as real:
            real.setattr(base, "SCAN_WIDTH", SCAN_WIDTH)
            scanned = ApproximateSubstringIndex(
                link_rmq_string(), tau_min=0.1, epsilon=0.05
            )
            assert "rmq_links" not in index_to_payload(scanned).children
            patterns = stabbing_patterns(index)
            expected = {
                pattern: [
                    (scanned.query(pattern, tau), scanned.top_k(pattern, 3, tau=tau))
                    for tau in (0.1, 0.2, 0.5)
                ]
                for pattern in patterns
            }
        for pattern in patterns:
            for tau, (query, top) in zip((0.1, 0.2, 0.5), expected[pattern]):
                assert same_bits(index.query(pattern, tau), query)
                assert same_bits(index.top_k(pattern, 3, tau=tau), top)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_missing_needed_child_raises(self, tmp_path, monkeypatch, low_cut_offs, mmap):
        index = ApproximateSubstringIndex(link_rmq_string(), tau_min=0.1, epsilon=0.05)
        payload = index_to_payload(index)
        del payload.children["rmq_links"]
        monkeypatch.setattr(index, "to_payload", lambda: payload)
        path = save_index_payload(index, None, tmp_path / "no-link-rmq")
        with pytest.raises(ValidationError, match="rmq_links"):
            load_index_payload(path, mmap=mmap)


class TestEarlierArchiveLayout:
    """Archives that also store ``lcp``, ``prefix``, ``rank_positions`` and the RMQ."""

    @pytest.mark.parametrize("mmap", [False, True])
    def test_loads_and_answers_identically(self, tmp_path, monkeypatch, mmap):
        index = ApproximateSubstringIndex(link_rmq_string(), tau_min=0.1, epsilon=0.05)
        payload = index_to_payload(index)
        transformed = index.transformed
        suffix_array, ranks = prefix_doubling(transformed.text)
        payload.arrays["lcp"] = lcp_from_ranks(ranks, suffix_array)
        payload.arrays["prefix"] = cumulative_log_probabilities(transformed.probabilities)
        payload.arrays["rank_positions"] = transformed.positions[suffix_array]
        payload.children["rmq_links"] = rmq_to_payload(
            make_rmq(payload.arrays["link_probability"], mode="max")
        )
        monkeypatch.setattr(index, "to_payload", lambda: payload)
        path = save_index_payload(index, None, tmp_path / "earlier-layout")
        loaded, _ = load_index_payload(path, mmap=mmap)
        # The surplus arrays and RMQ child are not read.
        assert "lcp" not in index_to_payload(loaded).arrays
        assert "rmq_links" not in index_to_payload(loaded).children
        assert loaded.link_count == index.link_count
        assert_same_answers(loaded, index, stabbing_patterns(index))
