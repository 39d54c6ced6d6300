"""Per-level arrays of the general and listing indexes against a sort-based reference.

The indexes mask duplicates and group documents through links between
ranks (``duplicate_depths``, the listing's occurrence runs).  The reference
below is the earlier construction, which sorted every level's keys with
``np.unique``; each level array must equal it byte for byte.  The general
index computes a level's values at query time and stores them only on the
levels that keep an RMQ, so every level is checked through the values a
query computes, and the stored ones as arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.persistence import (
    index_from_payload,
    index_to_payload,
    load_index_payload,
    save_index_payload,
)
from repro.core.base import rmq_depth
from repro.core.cumulative import NEGATIVE_INFINITY
from repro.core.general_index import GeneralUncertainStringIndex
from repro.core.listing import UncertainStringListingIndex
from repro.datasets.synthetic import generate_collection, generate_uncertain_string
from repro.strings import (
    CorrelationModel,
    CorrelationRule,
    UncertainString,
    UncertainStringCollection,
)
from tests.conftest import make_random_uncertain_string


# -- the sort-based reference ------------------------------------------------------------
def partition_identifiers(lcp, prefix_length):
    """Every rank's depth-``prefix_length`` partition (a new one where lcp < length)."""
    boundaries = (lcp < prefix_length).astype(np.int64)
    boundaries[0] = 0
    return np.cumsum(boundaries)


def deduplicate_by_position(values, partition_ids, original_positions):
    """One finite entry per (partition, original position); separators masked."""
    separator_mask = original_positions < 0
    indices = np.flatnonzero(~separator_mask & np.isfinite(values))
    keys = (
        partition_ids[indices].astype(np.int64) * (int(original_positions.max()) + 2)
        + original_positions[indices].astype(np.int64)
    )
    _, first_indices = np.unique(keys, return_index=True)
    keep = np.zeros(len(indices), dtype=bool)
    keep[first_indices] = True
    deduplicated = values.copy()
    deduplicated[separator_mask] = NEGATIVE_INFINITY
    deduplicated[indices[~keep]] = NEGATIVE_INFINITY
    return deduplicated


def windowed_values(index, length):
    suffix_array = index._suffix_array.array.astype(np.int64)
    ends = suffix_array + length
    values = np.full(len(suffix_array), NEGATIVE_INFINITY, dtype=np.float64)
    in_range = ends <= len(index.transformed.text)
    values[in_range] = index._prefix[ends[in_range]] - index._prefix[suffix_array[in_range]]
    return values


def reference_general_level(index, length):
    return deduplicate_by_position(
        windowed_values(index, length),
        partition_identifiers(index._lcp, length),
        index._rank_positions,
    )


def reference_relevance(index, length):
    """``R_length`` by two ``np.unique`` passes over (partition, document[, position])."""
    order = index._suffix_array.array
    ends = order + length
    probabilities = np.zeros(len(order), dtype=np.float64)
    in_range = ends <= len(index.transformed.text)
    probabilities[in_range] = np.exp(index._prefix[ends[in_range]] - index._prefix[order[in_range]])
    partitions = partition_identifiers(index._lcp, length)
    documents = index._rank_documents
    positions = index._rank_positions
    valid = (documents >= 0) & (positions >= 0) & (probabilities > 0.0)
    indices = np.flatnonzero(valid)
    if len(indices) == 0:
        return np.zeros(len(probabilities), dtype=np.float64)
    max_position = int(positions[indices].max()) + 2
    document_count = len(index.collection) + 2
    occurrence_keys = (
        partitions[indices].astype(np.int64) * document_count
        + (documents[indices].astype(np.int64) + 1)
    ) * max_position + (positions[indices].astype(np.int64) + 1)
    _, unique_occurrence_indices = np.unique(occurrence_keys, return_index=True)
    indices = indices[np.sort(unique_occurrence_indices)]
    group_keys = partitions[indices].astype(np.int64) * document_count + (
        documents[indices].astype(np.int64) + 1
    )
    unique_keys, group_first, inverse = np.unique(
        group_keys, return_index=True, return_inverse=True
    )
    group_values = probabilities[indices]
    group_count = len(unique_keys)
    if index.metric == "max":
        combined = np.zeros(group_count, dtype=np.float64)
        np.maximum.at(combined, inverse, group_values)
    else:
        counts = np.zeros(group_count, dtype=np.int64)
        np.add.at(counts, inverse, 1)
        sums = np.zeros(group_count, dtype=np.float64)
        np.add.at(sums, inverse, group_values)
        log_products = np.zeros(group_count, dtype=np.float64)
        if index.metric == "or":
            np.add.at(log_products, inverse, np.log(group_values))
            combined = sums - np.exp(log_products)
        else:
            np.add.at(
                log_products, inverse, np.log1p(-np.clip(group_values, 0.0, 1.0 - 1e-15))
            )
            combined = 1.0 - np.exp(log_products)
        combined = np.where(counts == 1, sums, combined)
    relevance = np.zeros(len(probabilities), dtype=np.float64)
    relevance[indices[group_first]] = combined
    return relevance


# -- inputs ----------------------------------------------------------------------------------
def correlated(string):
    """``string`` with correlation rules between a few pairs of positions."""
    rows = [dict(string[position]) for position in range(len(string))]
    rules = []
    for position in range(3, len(rows), 7):
        partner = position - 3
        rules.append(
            CorrelationRule(
                position,
                next(iter(rows[position])),
                partner,
                next(iter(rows[partner])),
                0.3,
                0.9,
            )
        )
    return UncertainString(rows, correlations=CorrelationModel(rules))


def assert_general_levels_match(index):
    """Every level a query can read equals the reference, byte for byte.

    A length-``L`` query reads ``C_L`` over its suffix range, whose suffixes
    all start with the pattern, so the values it computes cover exactly the
    ranks whose suffix is at least ``L`` long; on every other rank the
    reference holds ``-inf`` (the window runs off the text).  The levels
    that keep an RMQ also store the whole array, which must match as is.
    """
    suffix_array = index._suffix_array.array.astype(np.int64)
    text_length = len(index.transformed.text)
    lengths = [*range(1, index.max_short_length + 1), *index.block_lengths]
    for length in lengths:
        expected = reference_general_level(index, length)
        long_enough = suffix_array + length <= text_length
        computed = index._level_values(np.flatnonzero(long_enough), length)
        assert computed.dtype == expected.dtype
        assert computed.tobytes() == expected[long_enough].tobytes(), length
        assert np.all(expected[~long_enough] == NEGATIVE_INFINITY), length
    depth = rmq_depth(index._lcp, index.max_short_length)
    assert sorted(index._short_values) == list(range(1, depth + 1))
    for length, values in index._short_values.items():
        expected = reference_general_level(index, length)
        assert values.dtype == expected.dtype
        assert values.tobytes() == expected.tobytes(), length


def assert_listing_levels_match(index):
    for length, values in index._relevance.items():
        expected = reference_relevance(index, length)
        assert values.dtype == expected.dtype
        assert values.tobytes() == expected.tobytes(), length


class TestGeneralLevels:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_random_strings(self, seed, theta):
        string = generate_uncertain_string(400, theta=theta, seed=seed)
        assert_general_levels_match(GeneralUncertainStringIndex(string, tau_min=0.1))

    @pytest.mark.parametrize("seed", [4, 5])
    def test_long_lengths(self, seed):
        string = make_random_uncertain_string(300, 0.3, seed, alphabet="ACGT")
        index = GeneralUncertainStringIndex(
            string, tau_min=0.1, max_short_length=4, long_lengths=(6, 9, 15)
        )
        assert index.block_lengths == (6, 9, 15)
        assert_general_levels_match(index)

    @pytest.mark.parametrize("cap", [1, 3, 8])
    def test_max_factor_length(self, cap):
        string = make_random_uncertain_string(250, 0.5, 6, alphabet="AB")
        index = GeneralUncertainStringIndex(
            string, tau_min=0.05, max_factor_length=cap, long_lengths=(cap + 2,)
        )
        assert_general_levels_match(index)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_correlated_strings(self, seed):
        string = correlated(make_random_uncertain_string(120, 0.5, seed, alphabet="ACG"))
        assert string.correlations
        assert_general_levels_match(GeneralUncertainStringIndex(string, tau_min=0.05))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.sampled_from([0.2, 0.5, 0.9]),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.05, 0.2]),
    )
    def test_levels_match_reference_property(self, length, theta, seed, tau_min):
        string = make_random_uncertain_string(length, theta, seed, alphabet="AB")
        assert_general_levels_match(GeneralUncertainStringIndex(string, tau_min=tau_min))


def restored(index, how, tmp_path):
    """``index`` restored from a compact payload, or memory-mapped from an archive."""
    if how == "compact":
        return index_from_payload(index_to_payload(index).compact())
    path = save_index_payload(index, None, tmp_path / how, compact=how == "mmap-compact")
    return load_index_payload(path, mmap=True)[0]


class TestRestoredGeneralLevels:
    """Compact and memory-mapped indexes compute the same levels from narrow arrays."""

    @pytest.mark.parametrize("how", ["compact", "mmap-wide", "mmap-compact"])
    @pytest.mark.parametrize(
        "source",
        [
            lambda: (generate_uncertain_string(400, theta=0.3, seed=1), {}),
            lambda: (
                make_random_uncertain_string(300, 0.3, 4, alphabet="ACGT"),
                {"max_short_length": 4, "long_lengths": (6, 9, 15)},
            ),
            lambda: (correlated(make_random_uncertain_string(120, 0.5, 7, alphabet="ACG")), {}),
        ],
        ids=["random", "long-lengths", "correlated"],
    )
    def test_levels_match_reference(self, tmp_path, how, source):
        string, options = source()
        index = restored(GeneralUncertainStringIndex(string, tau_min=0.1, **options), how, tmp_path)
        if how != "mmap-wide":
            assert index._suffix_array.array.dtype != np.int64
        assert_general_levels_match(index)


class TestListingLevels:
    @pytest.mark.parametrize("metric", ["max", "or", "noisy_or"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_collections(self, metric, seed):
        collection = generate_collection(900, theta=0.4, seed=seed)
        index = UncertainStringListingIndex(collection, tau_min=0.1, metric=metric)
        assert_listing_levels_match(index)

    @pytest.mark.parametrize("metric", ["max", "or", "noisy_or"])
    def test_repetitive_documents(self, metric):
        # Few letters and repeated documents: many copies of each occurrence
        # and long same-document runs inside one partition.
        documents = [make_random_uncertain_string(30, 0.5, seed % 3, alphabet="AB") for seed in range(9)]
        index = UncertainStringListingIndex(
            UncertainStringCollection(documents), tau_min=0.05, metric=metric
        )
        assert_listing_levels_match(index)

    @pytest.mark.parametrize("metric", ["max", "or", "noisy_or"])
    def test_max_factor_length(self, metric):
        documents = [make_random_uncertain_string(25, 0.6, seed, alphabet="ABC") for seed in range(6)]
        index = UncertainStringListingIndex(
            UncertainStringCollection(documents), tau_min=0.05, metric=metric, max_factor_length=3
        )
        assert_listing_levels_match(index)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["max", "or", "noisy_or"]),
    )
    def test_levels_match_reference_property(self, lengths, seed, metric):
        documents = [
            make_random_uncertain_string(length, 0.5, seed + offset, alphabet="AB")
            for offset, length in enumerate(lengths)
        ]
        index = UncertainStringListingIndex(
            UncertainStringCollection(documents), tau_min=0.1, metric=metric
        )
        assert_listing_levels_match(index)
