"""Property-based equivalence: vectorized query kernels vs the scalar path.

The vectorized pipeline (``query_batch``, array ``report_above_threshold``,
batched ``top_values_above_threshold``) must answer exactly like the scalar
reference implementations it replaced:

* ``query_batch`` equals ``query`` element-wise, including tie-breaks, for
  all three RMQ implementations (sparse, compact, block) and both modes;
* both reporting paths — the range scan the public kernels use up to
  ``SCAN_WIDTH`` and the RMQ frontier above it — return the same rank set
  as the scalar generator;
* both top-k paths return the scalar heap's exact list for
  leftmost-optimum RMQs (sparse table, compact) and the same set under
  ``include_ties`` for block RMQs;
* the public kernels dispatch on the range width exactly at
  ``SCAN_WIDTH`` (reporting) and ``TOP_K_SCAN_WIDTH`` (top-k) and agree
  with the scalar references on both sides of it;
* the top-k frontier stops once nothing left can reach the ``k``-th
  value, instead of draining a wide range;
* every index kind answers queries byte-identically to a replay of its
  pre-vectorization scalar path over the same internal arrays.
"""

import math

import numpy as np
import pytest

from repro.core.base import (
    SCAN_WIDTH,
    TIE_EXTRACTION_LIMIT,
    TOP_K_SCAN_WIDTH,
    Occurrence,
    _report_frontier,
    _report_scan,
    _top_values_frontier,
    _top_values_scan,
    report_above_threshold,
    report_above_threshold_scalar,
    top_values_above_threshold,
    top_values_above_threshold_scalar,
)
from repro.core.cumulative import prefix_length_log_probabilities
from repro.suffix.rmq import (
    BlockRMQ,
    CompactRMQ,
    SparseTableRMQ,
    make_rmq,
    rmq_from_payload,
)


def random_values(rng, n, *, with_ties=False, with_infinities=False):
    values = rng.random(n)
    if with_ties:
        values = np.round(values, 1)
    if with_infinities:
        values[rng.random(n) < 0.25] = -np.inf
    return values


def make_compact(values, mode="max"):
    """The CompactRMQ every mmap-loaded or compact index serves with."""
    rmq = rmq_from_payload(values, SparseTableRMQ(values, mode=mode).to_payload())
    assert isinstance(rmq, CompactRMQ)
    return rmq


def make_impls(rng, values, mode="max"):
    return [
        SparseTableRMQ(values, mode=mode),
        make_compact(values, mode=mode),
        BlockRMQ(values, mode=mode, block_size=int(rng.integers(1, 9))),
    ]


def make_leftmost_impls(values):
    """The RMQs whose ``query`` returns the leftmost optimum."""
    return [SparseTableRMQ(values), make_compact(values)]


#: The two private kernel paths behind each public kernel, with one
#: signature: the range scan ignores the RMQ.
REPORT_PATHS = {
    "scan": lambda rmq, values, left, right, threshold: _report_scan(
        values, left, right, threshold
    ),
    "frontier": _report_frontier,
}
TOP_VALUES_PATHS = {
    "scan": lambda rmq, values, left, right, k, threshold, include_ties: (
        _top_values_scan(values, left, right, k, threshold, include_ties)
    ),
    "frontier": _top_values_frontier,
}


class TestQueryBatchEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_matches_scalar_query_elementwise(self, seed, mode):
        rng = np.random.default_rng(seed)
        for trial in range(20):
            n = int(rng.integers(1, 120))
            values = random_values(
                rng, n, with_ties=trial % 3 == 0, with_infinities=trial % 4 == 0
            )
            lefts = rng.integers(0, n, 25)
            rights = rng.integers(0, n, 25)
            lefts, rights = np.minimum(lefts, rights), np.maximum(lefts, rights)
            for rmq in make_impls(rng, values, mode=mode):
                batch = rmq.query_batch(lefts, rights)
                scalar = [rmq.query(int(l), int(r)) for l, r in zip(lefts, rights)]
                assert batch.tolist() == scalar

    def test_empty_batch(self):
        rmq = SparseTableRMQ([1.0, 2.0])
        assert rmq.query_batch([], []).tolist() == []
        assert BlockRMQ([1.0, 2.0]).query_batch([], []).tolist() == []

    def test_invalid_ranges_rejected(self):
        from repro.exceptions import ValidationError

        for rmq in (SparseTableRMQ([1.0, 2.0]), BlockRMQ([1.0, 2.0])):
            with pytest.raises(ValidationError):
                rmq.query_batch([0], [2])
            with pytest.raises(ValidationError):
                rmq.query_batch([1], [0])
            with pytest.raises(ValidationError):
                rmq.query_batch([-1], [1])


class TestReportEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("path", sorted(REPORT_PATHS))
    def test_same_rank_set_as_scalar_generator(self, path, seed):
        report = REPORT_PATHS[path]
        rng = np.random.default_rng(100 + seed)
        for trial in range(20):
            n = int(rng.integers(1, 160))
            values = random_values(
                rng, n, with_ties=trial % 3 == 0, with_infinities=trial % 4 == 0
            )
            left = int(rng.integers(0, n))
            right = int(rng.integers(left, n))
            threshold = float(rng.choice([0.0, 0.3, 0.5, 0.9, -np.inf]))
            for rmq in make_impls(rng, values):
                reported = report(rmq, values, left, right, threshold)
                reference = list(
                    report_above_threshold_scalar(rmq, values, left, right, threshold)
                )
                assert reported.dtype == np.int64
                assert len(reported) == len(reference)
                assert set(reported.tolist()) == set(reference)
                if path == "scan":
                    assert reported.tolist() == sorted(reference)

    def test_empty_range(self):
        values = np.asarray([1.0, 2.0])
        rmq = SparseTableRMQ(values)
        assert report_above_threshold(rmq, values, 1, 0, 0.0).tolist() == []


class TestTopValuesEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("path", sorted(TOP_VALUES_PATHS))
    def test_exact_order_with_leftmost_rmq(self, path, seed):
        top_values = TOP_VALUES_PATHS[path]
        rng = np.random.default_rng(200 + seed)
        for trial in range(20):
            n = int(rng.integers(1, 160))
            values = random_values(rng, n, with_ties=trial % 2 == 0)
            left = int(rng.integers(0, n))
            right = int(rng.integers(left, n))
            threshold = float(rng.choice([0.0, 0.4, 0.8]))
            k = int(rng.integers(1, 14))
            for rmq in make_leftmost_impls(values):
                for include_ties in (False, True):
                    batched = top_values(
                        rmq, values, left, right, k, threshold, include_ties
                    )
                    scalar = top_values_above_threshold_scalar(
                        rmq, values, left, right, k, threshold, include_ties=include_ties
                    )
                    # Sparse and compact return the leftmost optimum, so the
                    # heap pop order is exactly (-value, rank) — incl. ties.
                    assert batched.tolist() == scalar

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("path", sorted(TOP_VALUES_PATHS))
    def test_same_set_with_block_rmq_under_include_ties(self, path, seed):
        top_values = TOP_VALUES_PATHS[path]
        rng = np.random.default_rng(300 + seed)
        for trial in range(15):
            n = int(rng.integers(1, 160))
            values = random_values(rng, n, with_ties=trial % 2 == 0)
            rmq = BlockRMQ(values, block_size=int(rng.integers(1, 9)))
            left = int(rng.integers(0, n))
            right = int(rng.integers(left, n))
            k = int(rng.integers(1, 14))
            batched = top_values(rmq, values, left, right, k, 0.0, True)
            scalar = top_values_above_threshold_scalar(
                rmq, values, left, right, k, 0.0, include_ties=True
            )
            # include_ties extracts whole tie classes, so the selected set is
            # implementation-independent even though a block RMQ discovers
            # within-class members in a different order.
            assert set(batched.tolist()) == set(scalar)

    @pytest.mark.parametrize("path", sorted(TOP_VALUES_PATHS))
    def test_giant_tie_class_stays_bounded(self, path):
        values = np.ones(TIE_EXTRACTION_LIMIT * 4, dtype=np.float64)
        k = 5
        for rmq in make_leftmost_impls(values):
            batched = TOP_VALUES_PATHS[path](
                rmq, values, 0, len(values) - 1, k, 0.0, True
            )
            scalar = top_values_above_threshold_scalar(
                rmq, values, 0, len(values) - 1, k, 0.0, include_ties=True
            )
            assert batched.tolist() == scalar
            assert len(batched) == k + TIE_EXTRACTION_LIMIT

    @pytest.mark.parametrize("seed", range(8))
    def test_frontier_stops_below_the_kth_value(self, seed):
        # Once more than k + TIE_EXTRACTION_LIMIT entries are popped, the
        # frontier must still stop as soon as every frontier maximum is
        # strictly below the k-th popped value.  A stop test against only
        # the (k + TIE_EXTRACTION_LIMIT)-th value drains most of the range
        # on five of these seeds (80-98k probes); this rule needs <= ~9k.
        values = np.random.default_rng(seed).random(1 << 17)
        rmq = _CountingRMQ(SparseTableRMQ(values))
        got = _top_values_frontier(rmq, values, 0, len(values) - 1, 50, -1.0, True)
        expected = np.lexsort((np.arange(len(values)), -values))[:50]
        assert got.tolist() == expected.tolist()
        assert rmq.probes < len(values) // 8


class _CountingRMQ:
    """Counts the ranges a wrapped RMQ answers through ``query_batch``."""

    def __init__(self, rmq):
        self.rmq = rmq
        self.probes = 0

    def query(self, left, right):
        return self.rmq.query(left, right)

    def query_batch(self, lefts, rights):
        self.probes += len(lefts)
        return self.rmq.query_batch(lefts, rights)


class _ProbeForbidden(Exception):
    pass


class _RaisingRMQ:
    """An RMQ that fails any probe: the scan path must never touch it."""

    def query(self, left, right):
        raise _ProbeForbidden(f"query({left}, {right})")

    def query_batch(self, lefts, rights):
        raise _ProbeForbidden("query_batch")


class TestScanWidthDispatch:
    """The public kernels switch from the scan to the frontier at their width."""

    #: The boundary widths, each anchored away from index 0.
    WIDTHS = (SCAN_WIDTH - 1, SCAN_WIDTH, SCAN_WIDTH + 1)
    TOP_K_WIDTHS = (TOP_K_SCAN_WIDTH - 1, TOP_K_SCAN_WIDTH, TOP_K_SCAN_WIDTH + 1)

    def test_scan_width_never_probes_the_rmq(self):
        values = np.zeros(SCAN_WIDTH + 1, dtype=np.float64)
        values[::7] = 0.5
        rmq = _RaisingRMQ()
        reported = report_above_threshold(rmq, values, 0, SCAN_WIDTH - 1, 0.25)
        assert reported.tolist() == list(range(0, SCAN_WIDTH, 7))
        top = top_values_above_threshold(
            rmq, values, 1, TOP_K_SCAN_WIDTH, 3, 0.25, include_ties=True
        )
        assert top.tolist()[:3] == [7, 14, 21]
        with pytest.raises(_ProbeForbidden):
            report_above_threshold(rmq, values, 0, SCAN_WIDTH, 0.25)
        with pytest.raises(_ProbeForbidden):
            top_values_above_threshold(rmq, values, 0, TOP_K_SCAN_WIDTH, 3, 0.25)

    @pytest.fixture(scope="class")
    def boundary_values(self):
        rng = np.random.default_rng(900)
        n = SCAN_WIDTH + 64
        # Four-decimal values tie in classes of ~6 entries; a quarter of
        # the entries are -inf, which no threshold reports.
        values = np.round(rng.random(n), 4)
        values[rng.random(n) < 0.25] = -np.inf
        block = BlockRMQ(values)
        return values, [SparseTableRMQ(values), make_compact(values), block]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_report_matches_scalar_on_every_rmq(self, boundary_values, width):
        values, rmqs = boundary_values
        left, right = 17, 17 + width - 1
        for threshold in (0.995, -np.inf):
            for rmq in rmqs:
                reported = report_above_threshold(rmq, values, left, right, threshold)
                if threshold == -np.inf:
                    expected = np.flatnonzero(values[left : right + 1] > -np.inf) + left
                    assert sorted(reported.tolist()) == expected.tolist()
                    continue
                reference = list(
                    report_above_threshold_scalar(rmq, values, left, right, threshold)
                )
                assert len(reported) == len(reference)
                assert set(reported.tolist()) == set(reference)

    @pytest.mark.parametrize("width", TOP_K_WIDTHS)
    def test_top_values_match_scalar_on_every_rmq(self, boundary_values, width):
        values, rmqs = boundary_values
        left, right = 17, 17 + width - 1
        *leftmost, block = rmqs
        for k in (1, 12):
            for threshold in (0.5, -np.inf):
                for rmq in leftmost:
                    for include_ties in (False, True):
                        got = top_values_above_threshold(
                            rmq, values, left, right, k, threshold,
                            include_ties=include_ties,
                        )
                        scalar = top_values_above_threshold_scalar(
                            rmq, values, left, right, k, threshold,
                            include_ties=include_ties,
                        )
                        assert got.tolist() == scalar
                got = top_values_above_threshold(
                    block, values, left, right, k, threshold, include_ties=True
                )
                scalar = top_values_above_threshold_scalar(
                    block, values, left, right, k, threshold, include_ties=True
                )
                assert set(got.tolist()) == set(scalar)

    @pytest.mark.parametrize("width", TOP_K_WIDTHS)
    def test_giant_tie_class_at_the_boundary(self, width):
        rng = np.random.default_rng(901)
        n = TOP_K_SCAN_WIDTH + 64
        # A tie class at the maximum larger than the extraction budget, a
        # few lower values, and -inf everywhere else (which keeps the
        # frontier's one-tie-per-round extraction cheap enough for a test).
        values = np.full(n, -np.inf)
        positions = rng.choice(n, TIE_EXTRACTION_LIMIT + 500, replace=False)
        values[positions[:300]] = rng.random(300) * 0.5
        values[positions[300:]] = 1.0
        left, right = 17, 17 + width - 1
        k = 4
        for rmq in make_leftmost_impls(values):
            got = top_values_above_threshold(
                rmq, values, left, right, k, 0.0, include_ties=True
            )
            scalar = top_values_above_threshold_scalar(
                rmq, values, left, right, k, 0.0, include_ties=True
            )
            assert got.tolist() == scalar
            assert len(got) == k + TIE_EXTRACTION_LIMIT


def by_position(occurrences):
    """Occurrence records in position order, the order every index reports."""
    return sorted(occurrences, key=lambda occurrence: occurrence.position)


def replay_special_short(index, pattern, tau):
    """The pre-vectorization scalar short-pattern path of the special index."""
    from repro.suffix.pattern_search import suffix_range

    interval = suffix_range(index.string.text, index._suffix_array.array, pattern)
    if interval is None:
        return []
    sp, ep = interval
    # The index stores a level's C_L and RMQ only where its ranges can
    # outgrow the scan, so the replay builds the whole C_L and its own RMQ.
    values = prefix_length_log_probabilities(
        index._prefix, index._suffix_array.array, len(pattern)
    )
    rmq = make_rmq(values)
    occurrences = []
    for rank in report_above_threshold_scalar(rmq, values, sp, ep, math.log(tau)):
        position = int(index._suffix_array.array[rank])
        occurrences.append(Occurrence(position, math.exp(float(values[rank]))))
    return by_position(occurrences)


def replay_general_short(index, pattern, tau):
    """The pre-vectorization scalar short-pattern path of the general index."""
    from repro.suffix.pattern_search import suffix_range

    interval = suffix_range(
        index.transformed.text, index._suffix_array.array, pattern
    )
    if interval is None:
        return []
    sp, ep = interval
    # The index stores a level's values and RMQ only where its ranges can
    # outgrow the scan, so the replay builds the whole C_L itself (the
    # windows, minus every duplicate copy) and its own RMQ over it.
    length = len(pattern)
    values = prefix_length_log_probabilities(
        index._prefix, index._suffix_array.array, length
    )
    values[index._duplicate_depths >= length] = -np.inf
    rmq = make_rmq(values)
    occurrences = []
    for rank in report_above_threshold_scalar(rmq, values, sp, ep, math.log(tau)):
        occurrences.append(
            Occurrence(int(index._rank_positions[rank]), math.exp(float(values[rank])))
        )
    return by_position(occurrences)


def replay_listing_short(index, pattern, tau):
    """The pre-vectorization scalar short-pattern path of the listing index."""
    from repro.core.base import ListingMatch
    from repro.suffix.pattern_search import suffix_range

    interval = suffix_range(
        index.transformed.text, index._suffix_array.array, pattern
    )
    if interval is None:
        return []
    sp, ep = interval
    values = index._relevance[len(pattern)]
    rmq = make_rmq(values)  # as in replay_general_short
    matches = []
    for rank in report_above_threshold_scalar(rmq, values, sp, ep, tau):
        matches.append(
            ListingMatch(int(index._rank_documents[rank]), float(values[rank]))
        )
    return sorted(matches, key=lambda match: match.document)


class TestIndexesMatchScalarReplay:
    """Every index kind answers byte-identically to the scalar-kernel replay."""

    @pytest.mark.parametrize("seed", range(6))
    def test_special_index(self, seed):
        from repro.core.special_index import SpecialUncertainStringIndex
        from repro.strings.special import SpecialUncertainString

        rng = np.random.default_rng(400 + seed)
        n = 80
        text = "".join(rng.choice(list("abc"), n))
        probabilities = rng.uniform(0.3, 1.0, n)
        string = SpecialUncertainString.from_characters_and_probabilities(
            text, probabilities
        )
        index = SpecialUncertainStringIndex(string)
        for length in (1, 2, 3):
            pattern = text[int(rng.integers(0, n - length)) :][:length]
            for tau in (0.2, 0.5):
                assert index.query(pattern, tau) == replay_special_short(
                    index, pattern, tau
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_general_index(self, seed):
        from repro.bench.workloads import cached_uncertain_string
        from repro.core.general_index import GeneralUncertainStringIndex

        string = cached_uncertain_string(60, 0.3, seed=500 + seed)
        index = GeneralUncertainStringIndex(string, tau_min=0.1)
        backbone = string.most_likely_string()
        for pattern in (backbone[:2], backbone[5:8], backbone[10:13]):
            for tau in (0.1, 0.3):
                assert index.query(pattern, tau) == replay_general_short(
                    index, pattern, tau
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_listing_index(self, seed):
        from repro.bench.workloads import cached_collection
        from repro.core.listing import UncertainStringListingIndex

        collection = cached_collection(120, 0.3, seed=600 + seed)
        index = UncertainStringListingIndex(collection, tau_min=0.1)
        backbone = collection[0].most_likely_string()
        for pattern in (backbone[:2], backbone[1:4]):
            for tau in (0.1, 0.3):
                assert index.query(pattern, tau) == replay_listing_short(
                    index, pattern, tau
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_simple_index_substitutable_for_special(self, seed):
        # The special index is also Section 4.1's simple scanning index:
        # with no stored level it scans every range, and answers like the
        # possible-worlds oracle.
        from repro.core.baseline import BruteForceOracle
        from repro.core.special_index import SpecialUncertainStringIndex
        from repro.strings.special import SpecialUncertainString

        rng = np.random.default_rng(700 + seed)
        n = 60
        text = "".join(rng.choice(list("ab"), n))
        string = SpecialUncertainString.from_characters_and_probabilities(
            text, rng.uniform(0.4, 1.0, n)
        )
        special = SpecialUncertainStringIndex(string)
        assert special._short_values == {} and special._short_rmq == {}
        oracle = BruteForceOracle(string=string.to_uncertain_string())
        for length in (1, 2, 4):
            pattern = text[:length]
            got = special.query(pattern, 0.3)
            reference = oracle.substring_occurrences(pattern, 0.3)
            # The index subtracts log-prefix sums, the oracle multiplies
            # probabilities, so values agree to the last couple of ulps.
            assert [occ.position for occ in got] == [
                occ.position for occ in reference
            ]
            assert [occ.probability for occ in got] == pytest.approx(
                [occ.probability for occ in reference], rel=1e-12
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_approximate_index(self, seed):
        # The approximate index masks the reporting kernel's rank set and
        # keeps the largest link probability per position — order-insensitive,
        # so the vectorized kernel must leave its answers untouched.  Replay
        # the stabbing pass over the link arrays with the scalar generator.
        from repro.bench.workloads import cached_uncertain_string
        from repro.core.approximate import ApproximateSubstringIndex
        from repro.suffix.rmq import make_rmq

        string = cached_uncertain_string(50, 0.3, seed=800 + seed)
        index = ApproximateSubstringIndex(string, tau_min=0.1, epsilon=0.05)
        links = index.to_payload().arrays
        rmq = make_rmq(links["link_probability"], mode="max")
        backbone = string.most_likely_string()
        for pattern in (backbone[:2], backbone[3:6]):
            for tau in (0.1, 0.25):
                got = index.query(pattern, tau)
                interval = index.transformed.suffix_range(links["suffix_array"], pattern)
                if interval is None:
                    assert got == []
                    continue
                sp, ep = interval
                first = int(np.searchsorted(links["link_origin_left"], sp, side="left"))
                last = int(np.searchsorted(links["link_origin_left"], ep, side="right")) - 1
                reported = {}
                for link in report_above_threshold_scalar(
                    rmq, links["link_probability"], first, last, tau - index.epsilon
                ):
                    if links["link_origin_right"][link] > ep:
                        continue
                    if (
                        links["link_origin_depth"][link] < len(pattern)
                        or links["link_target_depth"][link] >= len(pattern)
                    ):
                        continue
                    position = int(links["link_position"][link])
                    probability = float(links["link_probability"][link])
                    previous = reported.get(position)
                    if previous is None or probability > previous:
                        reported[position] = probability
                expected = by_position(
                    [Occurrence(p, value) for p, value in reported.items()]
                )
                assert got == expected
