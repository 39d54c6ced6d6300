"""Engine façade: unified vocabulary, laziness, batching, introspection."""

import pytest

from repro.api import SearchRequest, SearchResult, build_index
from repro.core.base import Occurrence
from repro.exceptions import ValidationError
from repro.strings import UncertainString


@pytest.fixture
def figure3_engine():
    string = UncertainString(
        [
            {"P": 1.0},
            {"S": 0.7, "F": 0.3},
            {"F": 1.0},
            {"P": 1.0},
            {"Q": 0.5, "T": 0.5},
            {"P": 1.0},
            {"A": 0.4, "F": 0.4, "P": 0.2},
            {"I": 0.3, "L": 0.3, "T": 0.3, "P": 0.1},
            {"A": 1.0},
            {"S": 0.5, "T": 0.5},
            {"A": 1.0},
        ],
        name="At4g15440",
    )
    return build_index(string, tau_min=0.1)


@pytest.fixture
def listing_engine():
    documents = [
        UncertainString([{"A": 0.9, "B": 0.1}, {"B": 0.8, "C": 0.2}]),
        UncertainString([{"A": 0.5, "B": 0.5}, {"B": 1.0}]),
        UncertainString([{"C": 1.0}, {"C": 1.0}]),
    ]
    return build_index(documents, tau_min=0.05)


class TestSearchRequest:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SearchRequest("")
        with pytest.raises(ValidationError):
            SearchRequest("a", tau=1.5)
        with pytest.raises(ValidationError):
            SearchRequest("a", top_k=0)

    @pytest.mark.parametrize("timeout_ms", [float("nan"), float("inf"), 1e13])
    def test_non_finite_or_overlarge_timeout_rejected(self, timeout_ms):
        # NaN slips past a plain ``<= 0`` check, and budgets beyond
        # threading.TIMEOUT_MAX overflowed the sharded executors' waits.
        with pytest.raises(ValidationError, match=r"timeout_ms must be a finite"):
            SearchRequest("a", timeout_ms=timeout_ms)

    def test_largest_timeout_accepted(self):
        from repro.api.requests import TIMEOUT_MS_MAX

        assert SearchRequest("a", timeout_ms=9e12).timeout_ms == 9e12
        assert SearchRequest("a", timeout_ms=TIMEOUT_MS_MAX).timeout_ms == TIMEOUT_MS_MAX

    def test_coerce_overrides(self):
        base = SearchRequest("ab", tau=0.2)
        assert SearchRequest.coerce(base) is base
        overridden = SearchRequest.coerce(base, top_k=5)
        assert overridden.tau == pytest.approx(0.2)
        assert overridden.top_k == 5

    def test_resolve_tau_default(self):
        assert SearchRequest("a").resolve_tau(0.1) == pytest.approx(0.1)
        assert SearchRequest("a", tau=0.4).resolve_tau(0.1) == pytest.approx(0.4)


class TestSearchResult:
    def test_lazy_until_touched(self, figure3_engine):
        result = figure3_engine.search("PA", tau=0.1)
        assert isinstance(result, SearchResult)
        assert not result.evaluated
        assert result.count == 1
        assert result.evaluated

    def test_sequence_protocol(self, figure3_engine):
        result = figure3_engine.search("PA", tau=0.1)
        assert len(result) == 1
        assert isinstance(result[0], Occurrence)
        assert [occ.position for occ in result] == [5]

    def test_paging(self, figure3_engine):
        result = figure3_engine.search("P", tau=0.1)
        matches = result.matches
        assert len(matches) >= 3
        assert result.page(0, 2) == matches[:2]
        assert result.page(2) == matches[2:]
        pages = list(result.pages(2))
        assert [m for page in pages for m in page] == matches
        with pytest.raises(ValidationError):
            result.page(-1)
        with pytest.raises(ValidationError):
            list(result.pages(0))

    def test_positions_helper(self, figure3_engine, listing_engine):
        assert figure3_engine.search("PA", tau=0.1).positions() == [5]
        assert listing_engine.search("AB", tau=0.6).positions() == [0]


class TestEngineQueries:
    def test_query_top_k_count_exists(self, figure3_engine):
        assert figure3_engine.count("P", tau=0.1) == figure3_engine.index.count("P", 0.1)
        assert figure3_engine.exists("PA", tau=0.1)
        assert not figure3_engine.exists("PAQQ", tau=0.1)
        top = figure3_engine.top_k("P", 2)
        assert len(top) == 2
        assert top[0].probability >= top[1].probability

    def test_search_with_top_k(self, figure3_engine):
        result = figure3_engine.search("P", top_k=2)
        assert result.count == 2
        assert result.matches == figure3_engine.top_k("P", 2)

    def test_listing_engine_vocabulary(self, listing_engine):
        matches = listing_engine.search("AB", tau=0.6).matches
        assert [m.document for m in matches] == [0]
        top = listing_engine.top_k("B", 2)
        assert len(top) == 2
        assert top[0].relevance >= top[1].relevance

    def test_describe_and_space(self, figure3_engine):
        description = figure3_engine.describe()
        assert description["kind"] == "general"
        assert description["reason"]
        assert description["space_report"]["total"] == figure3_engine.nbytes()
        assert figure3_engine.nbytes() > 0


class TestSearchMany:
    def test_results_in_request_order(self, figure3_engine):
        results = figure3_engine.search_many(["PA", "AT", "ZZ"], tau=0.2)
        assert [r.request.pattern for r in results] == ["PA", "AT", "ZZ"]
        assert [r.count for r in results] == [1, 1, 0]

    def test_matches_direct_queries(self, figure3_engine):
        requests = [
            SearchRequest("PA", tau=0.1),
            SearchRequest("PA", tau=0.3),
            SearchRequest("P", tau=0.5),
            SearchRequest("PA", top_k=1, tau=0.2),
            SearchRequest("AT", tau=0.4),
        ]
        results = figure3_engine.search_many(requests)
        for request, result in zip(requests, results):
            if request.top_k is not None:
                expected = figure3_engine.index.top_k(
                    request.pattern, request.top_k, tau=request.tau
                )
            else:
                expected = figure3_engine.index.query(
                    request.pattern, request.resolve_tau(figure3_engine.tau_min)
                )
            assert result.matches == expected

    def test_identical_requests_share_one_result(self, figure3_engine):
        results = figure3_engine.search_many(
            [SearchRequest("PA", tau=0.2), SearchRequest("PA", tau=0.2)]
        )
        assert results[0] is results[1]

    def test_batch_is_lazy(self, figure3_engine):
        results = figure3_engine.search_many(["PA", "AT"])
        assert not any(result.evaluated for result in results)
        results[0].matches
        assert results[0].evaluated
        assert not results[1].evaluated

    def test_substring_engines_evaluate_each_threshold_directly(self, figure3_engine):
        # Substring indexes compare in log space, so threshold refinement is
        # off for them (see repro.api.batch); each distinct request runs
        # directly and matches a direct query exactly.
        low, high = figure3_engine.search_many(
            [SearchRequest("P", tau=0.1), SearchRequest("P", tau=0.9)]
        )
        assert high.matches == figure3_engine.index.query("P", 0.9)
        assert not low.evaluated
        assert low.matches == figure3_engine.index.query("P", 0.1)

    def test_listing_refinement_derives_from_lowest_threshold(self, listing_engine):
        low, high = listing_engine.search_many(
            [SearchRequest("B", tau=0.05), SearchRequest("B", tau=0.6)]
        )
        # Touch only the refined result: the base evaluation must run too.
        assert high.matches == listing_engine.index.query("B", 0.6)
        assert low.evaluated

    def test_invalid_tau_request_does_not_poison_the_batch(self, listing_engine):
        from repro.exceptions import ThresholdError

        bad, good = listing_engine.search_many(
            [SearchRequest("B", tau=0.01), SearchRequest("B", tau=0.3)]
        )
        # The valid request answers correctly even though a same-pattern
        # request with tau below tau_min sits in the batch...
        assert good.matches == listing_engine.index.query("B", 0.3)
        # ...and only the offending request fails, on its own evaluation.
        with pytest.raises(ThresholdError):
            bad.matches

    def test_log_space_boundary_taus_match_direct(self):
        # Regression: taus exactly equal to a reported probability must get
        # the same answer batched and direct (the reason refinement is
        # restricted to the listing index).
        string = UncertainString([{"A": 0.0125, "C": 0.9875}, {"T": 1.0}])
        engine = build_index(string, tau_min=0.01)
        for tau in (0.0125, 0.01):
            direct = engine.search(SearchRequest("AT", tau=tau)).matches
            batched = engine.search_many(
                [SearchRequest("AT", tau=0.01), SearchRequest("AT", tau=tau)]
            )[1].matches
            assert direct == batched

    def test_approximate_engine_batches_without_refinement(self):
        string = UncertainString(
            [
                {"Q": 0.7, "S": 0.3},
                {"Q": 0.3, "P": 0.7},
                {"P": 1.0},
                {"A": 0.4, "F": 0.3, "P": 0.2, "Q": 0.1},
            ]
        )
        engine = build_index(string, tau_min=0.1, epsilon=0.05)
        requests = [SearchRequest("QP", tau=0.2), SearchRequest("QP", tau=0.45)]
        results = engine.search_many(requests)
        for request, result in zip(requests, results):
            assert result.matches == engine.index.query(
                request.pattern, request.tau
            )

    def test_correlated_listing_engine_skips_refinement(self):
        # Correlated collections re-verify candidates; a filter over the
        # reported relevance cannot reproduce the pre-verification pruning,
        # so such engines must evaluate each request directly.
        from repro.strings import CorrelationModel, CorrelationRule, UncertainStringCollection

        documents = [
            UncertainString(
                [{"A": 0.6, "B": 0.4}, {"A": 0.5, "B": 0.5}],
                correlations=CorrelationModel(
                    [CorrelationRule(1, "A", 0, "A", 0.9, 0.2)]
                ),
            ),
            UncertainString([{"A": 0.7, "B": 0.3}, {"A": 0.4, "B": 0.6}]),
        ]
        engine = build_index(UncertainStringCollection(documents), tau_min=0.1)
        assert engine.index.needs_verification
        for tau in (0.3, 0.5):
            direct = engine.search(SearchRequest("AA", tau=tau)).matches
            batched = engine.search_many(
                [SearchRequest("AA", tau=0.1), SearchRequest("AA", tau=tau)]
            )[1].matches
            assert direct == batched

    def test_listing_refinement(self, listing_engine):
        requests = [SearchRequest("B", tau=0.05), SearchRequest("B", tau=0.6)]
        low, high = listing_engine.search_many(requests)
        assert high.matches == listing_engine.index.query("B", 0.6)
        assert low.matches == listing_engine.index.query("B", 0.05)


class TestPlannerFeedback:
    """Observed-vs-estimated size feedback recorded at build time."""

    def test_estimate_error_recorded_for_general(self, figure3_string):
        engine = build_index(figure3_string, tau_min=0.1)
        plan_info = engine.describe()["plan"]
        error = plan_info["estimate_error"]
        assert error is not None
        assert error["observed_bytes"] == engine.nbytes()
        assert error["estimated_bytes"] == engine.plan.profile["estimated_bytes"]
        assert error["ratio"] == pytest.approx(
            error["observed_bytes"] / error["estimated_bytes"]
        )
        import math

        assert error["log2_error"] == pytest.approx(math.log2(error["ratio"]))

    def test_estimate_error_recorded_for_listing(self):
        engine = build_index(["banana", "ananas", "bandana"], tau_min=0.1)
        error = engine.describe()["plan"]["estimate_error"]
        assert error is not None
        assert error["observed_bytes"] > 0

    def test_observed_bytes_always_recorded(self):
        engine = build_index("banana" * 4)
        assert engine.plan.profile["observed_bytes"] == engine.nbytes()

    def test_restored_plan_has_no_estimate_error(self, tmp_path, figure3_string):
        engine = build_index(figure3_string, tau_min=0.1)
        path = engine.save(tmp_path / "fb")
        from repro.api import load_index

        loaded = load_index(path)
        # The archive round-trips the profile, so the recorded feedback
        # survives; a hand-made plan (no estimate) reports None.
        assert loaded.describe()["plan"]["estimate_error"] is not None

    def test_sharded_plan_records_ensemble_total(self):
        from repro.api import build_sharded_index

        engine = build_sharded_index("banana" * 20, shards=3, max_pattern_len=6)
        error = engine.describe()["plan"]["estimate_error"]
        assert error is not None
        assert error["observed_bytes"] == engine.nbytes()
        engine.close()


class KernelCallCounter:
    """An index proxy counting ``query`` / ``top_k`` calls, and only those.

    The shape of a benchmark's kernel span: it wraps exactly the two
    methods an engine's evaluation must call, and forwards the rest.
    """

    def __init__(self, index):
        self._index = index
        self.calls = 0

    def query(self, pattern, tau):
        self.calls += 1
        return self._index.query(pattern, tau)

    def top_k(self, pattern, k, *, tau=None):
        self.calls += 1
        return self._index.top_k(pattern, k, tau=tau)

    def __getattr__(self, name):
        return getattr(self._index, name)


class TestKernelCallsThroughAnIndexProxy:
    def test_one_kernel_call_per_evaluated_cache_miss(self, figure3_engine):
        from repro.api import Engine
        from repro.obs import Trace, profile_kernels

        proxy = KernelCallCounter(figure3_engine.index)
        engine = Engine(proxy, figure3_engine.plan)
        engine.query("PA", tau=0.1)  # miss
        engine.query("PA", tau=0.1)  # hit
        engine.top_k("PA", 2)  # miss
        engine.search(SearchRequest("PA", tau=0.3, trace=Trace())).matches  # timed miss
        with profile_kernels():
            engine.count("FP", tau=0.2)  # profiled miss
        results = engine.search_many(
            ["PA", "PA", SearchRequest("AT", tau=0.2), SearchRequest("AT", top_k=1)],
            tau=0.1,
        )
        assert results[0] is results[1]  # duplicates share one evaluation
        for result in results:
            result.arrays
        misses = engine.cache.stats()["misses"]
        assert misses == 6
        assert proxy.calls == misses
        # The answers are the wrapped index's, unchanged by the proxy.
        assert engine.query("AT", tau=0.2) == figure3_engine.query("AT", tau=0.2)
