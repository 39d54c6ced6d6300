"""Property-based equivalence tests: every index vs the brute-force oracle.

These are the strongest correctness tests in the suite: hypothesis generates
random uncertain strings, random patterns and random thresholds, and every
index must return exactly the occurrences the definition (Section 3.2)
prescribes.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.baseline import BruteForceOracle, OnlineDynamicProgrammingMatcher
from repro.core.general_index import GeneralUncertainStringIndex
from repro.core.special_index import SpecialUncertainStringIndex
from repro.strings import SpecialUncertainString, UncertainString

ALPHABET = "AB"


@st.composite
def special_strings(draw):
    """Random special uncertain strings over a 2-letter alphabet."""
    length = draw(st.integers(min_value=2, max_value=40))
    pairs = [
        (
            draw(st.sampled_from(ALPHABET)),
            draw(st.floats(min_value=0.05, max_value=1.0)),
        )
        for _ in range(length)
    ]
    return SpecialUncertainString(pairs)


@st.composite
def uncertain_strings(draw):
    """Random general uncertain strings over a 3-letter alphabet."""
    length = draw(st.integers(min_value=2, max_value=25))
    rows = []
    for _ in range(length):
        support = draw(st.sets(st.sampled_from("ABC"), min_size=1, max_size=3))
        weights = {c: draw(st.floats(min_value=0.05, max_value=1.0)) for c in support}
        total = sum(weights.values())
        rows.append({c: w / total for c, w in weights.items()})
    return UncertainString.from_table(rows)


def _pattern_from(draw_data, backbone, max_length=6):
    length = draw_data.draw(
        st.integers(min_value=1, max_value=min(max_length, len(backbone)))
    )
    start = draw_data.draw(st.integers(min_value=0, max_value=len(backbone) - length))
    return backbone[start : start + length]


def _assert_same_positions(got, expected, probability_of, tau, tolerance=1e-9):
    """Position sets must agree except where the probability sits exactly on τ.

    The indexes compare log-space sums against ``log τ`` while the oracle
    multiplies probabilities directly; when an occurrence probability equals
    the threshold to within floating-point rounding the strict ``> τ`` test
    may legitimately go either way.
    """
    got_set, expected_set = set(got), set(expected)
    for position in got_set ^ expected_set:
        assert abs(probability_of(position) - tau) <= tolerance, (
            position,
            probability_of(position),
            tau,
        )


@settings(max_examples=40, deadline=None)
@given(special_strings(), st.data())
def test_special_indexes_agree_with_scan(string, data):
    pattern = _pattern_from(data, string.text)
    tau = data.draw(st.floats(min_value=0.01, max_value=0.95))
    expected = string.matching_positions(pattern, tau)
    index = SpecialUncertainStringIndex(string)

    def probability_of(position):
        return string.occurrence_probability(pattern, position)

    _assert_same_positions(
        [occ.position for occ in index.query(pattern, tau)],
        expected,
        probability_of,
        tau,
    )


@settings(max_examples=30, deadline=None)
@given(uncertain_strings(), st.data())
def test_general_index_matches_oracle(string, data):
    tau_min = 0.1
    pattern = _pattern_from(data, string.most_likely_string())
    tau = data.draw(st.floats(min_value=tau_min, max_value=0.95))
    index = GeneralUncertainStringIndex(string, tau_min=tau_min)
    oracle = BruteForceOracle(string=string)
    expected = oracle.substring_occurrences(pattern, tau)
    got = index.query(pattern, tau)
    _assert_same_positions(
        [occ.position for occ in got],
        [occ.position for occ in expected],
        lambda position: string.occurrence_probability(pattern, position),
        tau,
    )
    expected_by_position = {occ.position: occ.probability for occ in expected}
    for got_occurrence in got:
        if got_occurrence.position in expected_by_position:
            assert math.isclose(
                got_occurrence.probability,
                expected_by_position[got_occurrence.position],
                rel_tol=1e-9,
            )


@settings(max_examples=30, deadline=None)
@given(uncertain_strings(), st.data())
def test_online_matcher_matches_oracle(string, data):
    pattern = _pattern_from(data, string.most_likely_string())
    tau = data.draw(st.floats(min_value=0.01, max_value=0.95))
    matcher = OnlineDynamicProgrammingMatcher(string)
    oracle = BruteForceOracle(string=string)
    _assert_same_positions(
        [occ.position for occ in matcher.query(pattern, tau)],
        [occ.position for occ in oracle.substring_occurrences(pattern, tau)],
        lambda position: string.occurrence_probability(pattern, position),
        tau,
    )


@settings(max_examples=25, deadline=None)
@given(uncertain_strings(), st.data())
def test_general_index_monotone_in_threshold(string, data):
    """Raising the threshold can only shrink the answer set."""
    tau_min = 0.1
    pattern = _pattern_from(data, string.most_likely_string(), max_length=4)
    index = GeneralUncertainStringIndex(string, tau_min=tau_min)
    low = data.draw(st.floats(min_value=tau_min, max_value=0.5))
    high = data.draw(st.floats(min_value=0.5, max_value=0.95))
    low_positions = {occ.position for occ in index.query(pattern, low)}
    high_positions = {occ.position for occ in index.query(pattern, high)}
    assert high_positions <= low_positions


@settings(max_examples=25, deadline=None)
@given(uncertain_strings(), st.data())
def test_reported_probabilities_exceed_threshold(string, data):
    tau_min = 0.1
    pattern = _pattern_from(data, string.most_likely_string(), max_length=4)
    tau = data.draw(st.floats(min_value=tau_min, max_value=0.9))
    index = GeneralUncertainStringIndex(string, tau_min=tau_min)
    for occurrence in index.query(pattern, tau):
        assert occurrence.probability > tau - 1e-9
        assert math.isclose(
            occurrence.probability,
            string.occurrence_probability(pattern, occurrence.position),
            rel_tol=1e-9,
        )
