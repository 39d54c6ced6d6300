"""Result-cache invariants: hits, misses, LRU order, counters, immutability."""

import pytest

from repro.api import SearchRequest, build_index
from repro.api.cache import ResultCache
from repro.core.base import MatchArrays
from repro.exceptions import ThresholdError, ValidationError
from repro.strings import UncertainString


def answer(*ids):
    """A cacheable answer holding ``ids`` (the cache stores answers as is)."""
    return MatchArrays("occurrence", ids, [0.5] * len(ids))


@pytest.fixture
def engine(figure3_string):
    return build_index(figure3_string, tau_min=0.1)


@pytest.fixture
def listing_engine(figure2_collection):
    return build_index(figure2_collection, tau_min=0.05)


class TestResultCacheUnit:
    def test_put_get_round_trip(self):
        cache = ResultCache(4)
        stored = answer(1, 2, 3)
        cache.put(("a", 0.1, None, "general"), stored)
        got = cache.get(("a", 0.1, None, "general"))
        assert got == answer(1, 2, 3)
        assert got is stored  # stored and returned without a copy
        assert cache.stats()["hits"] == 1

    def test_miss_counts(self):
        cache = ResultCache(4)
        assert cache.get("absent") is None
        assert cache.stats() == {
            "enabled": True,
            "capacity": 4,
            "size": 0,
            "hits": 0,
            "misses": 1,
            "evictions": 0,
            "generation": 0,
            "hit_rate": 0.0,
        }

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", answer(1))
        cache.put("b", answer(2))
        cache.get("a")  # refresh "a": now "b" is least recently used
        cache.put("c", answer(3))
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == answer(1)
        assert cache.get("c") == answer(3)
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_put_refreshes_recency_and_value(self):
        cache = ResultCache(2)
        cache.put("a", answer(1))
        cache.put("b", answer(2))
        cache.put("a", answer(9))  # overwrite refreshes recency too
        cache.put("c", answer(3))
        assert cache.get("a") == answer(9)
        assert cache.get("b") is None

    def test_capacity_zero_disables(self):
        cache = ResultCache(0)
        cache.put("a", answer(1))
        assert cache.get("a") is None
        assert not cache.enabled
        assert cache.stats()["misses"] == 0  # disabled caches do not count
        compute = lambda: [1]
        assert cache.wrap("a", compute) is compute

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            ResultCache(-1)

    def test_wrap_shares_the_read_only_answer_on_hit(self):
        cache = ResultCache(4)
        evaluate = cache.wrap("k", lambda: answer(1, 2))
        first = evaluate()
        with pytest.raises(ValueError):
            first.ids[0] = 99  # a returned answer cannot poison the cache
        with pytest.raises(ValueError):
            first.values[0] = 0.99
        assert evaluate() is first  # every hit shares it, uncopied
        assert evaluate() == answer(1, 2)

    def test_clear_keeps_counters(self):
        cache = ResultCache(4)
        cache.put("a", answer(1))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1
        cache.reset_stats()
        assert cache.stats()["hits"] == 0


class TestEngineCaching:
    def test_hit_after_identical_request(self, engine):
        engine.search("PA", tau=0.2).matches
        engine.search("PA", tau=0.2).matches
        stats = engine.cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_miss_after_differing_tau_or_k(self, engine):
        engine.search("PA", tau=0.2).matches
        engine.search("PA", tau=0.3).matches           # different tau
        engine.search("PA", tau=0.2, top_k=1).matches  # different top_k
        stats = engine.cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 3

    def test_cached_answer_is_identical(self, engine):
        cold = engine.search("P", tau=0.1).matches
        warm = engine.search("P", tau=0.1).matches
        assert cold == warm
        assert engine.cache.stats()["hits"] == 1

    def test_top_k_routes_through_cache(self, engine):
        first = engine.top_k("P", 2)
        second = engine.top_k("P", 2)
        assert first == second
        assert engine.cache.stats()["hits"] == 1

    def test_describe_surfaces_counters(self, engine):
        engine.query("PA", tau=0.2)
        engine.query("PA", tau=0.2)
        engine.query("AT", tau=0.2)
        description = engine.describe()
        assert description["cache"]["hits"] == 1
        assert description["cache"]["misses"] == 2
        assert description["cache"]["size"] == 2
        assert description["cache"]["hit_rate"] == pytest.approx(1 / 3)

    def test_lazy_results_do_not_touch_the_cache(self, engine):
        engine.search("PA", tau=0.2)  # never consumed
        assert engine.cache.stats() == {
            "enabled": True,
            "capacity": 1024,
            "size": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "generation": 0,
            "hit_rate": 0.0,
        }

    def test_errors_are_not_cached(self, listing_engine):
        for _ in range(2):
            with pytest.raises(ThresholdError):
                listing_engine.query("B", tau=0.001)  # below tau_min
        stats = listing_engine.cache.stats()
        assert stats["size"] == 0
        assert stats["misses"] == 2

    def test_cache_size_zero_engine(self, figure3_string):
        engine = build_index(figure3_string, tau_min=0.1, cache_size=0)
        engine.query("PA", tau=0.2)
        engine.query("PA", tau=0.2)
        assert engine.cache.stats()["hits"] == 0
        assert not engine.describe()["cache"]["enabled"]

    def test_eviction_on_engine(self, figure3_string):
        engine = build_index(figure3_string, tau_min=0.1, cache_size=2)
        engine.query("P", tau=0.2)
        engine.query("A", tau=0.2)
        engine.query("F", tau=0.2)  # evicts "P"
        engine.query("P", tau=0.2)  # miss again
        stats = engine.cache.stats()
        assert stats["evictions"] >= 1
        assert stats["hits"] == 0

    def test_cached_results_never_mutated_by_pagination(self, engine):
        # Regression: paging a cached result (or mutating what it returns)
        # must not corrupt the stored answer.
        first = engine.search("P", tau=0.1)
        baseline = list(first.matches)
        page = first.page(0, 2)
        page.clear()
        first.matches.append("poison")
        second = engine.search("P", tau=0.1)
        assert second.matches == baseline
        assert engine.cache.stats()["hits"] == 1


class TestBatchCaching:
    """`Engine.search_many` must compose with the cache (satellite fix)."""

    def _consume(self, results):
        for result in results:
            result.matches

    def test_second_batch_is_all_cache_hits(self, engine):
        requests = [
            SearchRequest("PA", tau=0.1),
            SearchRequest("PA", tau=0.3),
            SearchRequest("P", tau=0.5),
            SearchRequest("AT", top_k=1, tau=0.2),
        ]
        self._consume(engine.search_many(requests))
        cold = engine.cache.stats()
        assert cold["hits"] == 0
        assert cold["misses"] == len(requests)

        self._consume(engine.search_many(requests))
        warm = engine.cache.stats()
        assert warm["misses"] == len(requests)          # no new misses
        assert warm["hits"] == len(requests)            # every request served hot

    def test_second_batch_is_all_hits_with_refinement(self, listing_engine):
        # On the listing engine the high-tau answer is derived by filtering;
        # the derived answer must be cached under its own key too.
        requests = [SearchRequest("B", tau=0.05), SearchRequest("B", tau=0.6)]
        self._consume(listing_engine.search_many(requests))
        self._consume(listing_engine.search_many(requests))
        stats = listing_engine.cache.stats()
        assert stats["hits"] == len(requests)
        assert stats["misses"] == len(requests)

    def test_batch_and_single_share_the_cache(self, engine):
        engine.query("PA", tau=0.2)
        results = engine.search_many([SearchRequest("PA", tau=0.2)])
        self._consume(results)
        assert engine.cache.stats()["hits"] == 1

    def test_batched_answers_match_direct_after_caching(self, engine):
        requests = [SearchRequest("PA", tau=0.1), SearchRequest("P", tau=0.4)]
        self._consume(engine.search_many(requests))
        for request in requests:
            direct = engine.index.query(
                request.pattern, request.resolve_tau(engine.tau_min)
            )
            assert engine.search(request).matches == direct

    def test_duplicate_requests_in_one_batch_probe_once(self, engine):
        requests = [SearchRequest("PA", tau=0.2)] * 3
        self._consume(engine.search_many(requests))
        stats = engine.cache.stats()
        # Dedupe shares one SearchResult, so the cache sees one lookup.
        assert stats["hits"] + stats["misses"] == 1


class TestGenerationTags:
    """Index-generation tags, the cache's one invalidation mechanism."""

    def test_bump_generation_invalidates_everything(self):
        cache = ResultCache(4)
        cache.put("a", answer(1))
        cache.put("b", answer(2))
        assert cache.get("a") == answer(1)
        generation = cache.bump_generation()
        assert generation == 1
        assert cache.generation == 1
        assert cache.get("a") is None
        assert cache.get("b") is None
        # New-generation writes work normally.
        cache.put("a", answer(9))
        assert cache.get("a") == answer(9)

    def test_old_generation_entries_age_out_by_lru(self):
        cache = ResultCache(2)
        cache.put("a", answer(1))
        cache.put("b", answer(2))
        cache.bump_generation()
        cache.put("c", answer(3))
        cache.put("d", answer(4))
        # Capacity 2: the two old-generation entries were evicted to make
        # room, so the store never grows past its bound across generations.
        assert len(cache) == 2
        assert cache.get("c") == answer(3)
        assert cache.get("d") == answer(4)

    def test_replace_index_cannot_serve_stale_hits(self, figure3_string):
        # Two different indexes behind one engine: after replace_index the
        # cached answers of the old index must be unreachable.
        engine = build_index(figure3_string, tau_min=0.1)
        other = build_index("banana" * 3)
        stale = engine.query("PA", tau=0.2)
        engine.replace_index(other.index, other.plan)
        assert engine.cache.generation == 1
        fresh = engine.query("PA", tau=0.2)
        assert fresh == other.query("PA", tau=0.2)
        assert fresh != stale

    def test_in_flight_evaluation_not_cached_across_generation_bump(self):
        # A slow evaluation racing a generation bump (index replaced while
        # the query runs) must not store the old index's answer as fresh.
        cache = ResultCache(4)

        def compute():
            cache.bump_generation()  # index swapped mid-evaluation
            return answer(1, 2, 3)

        evaluate = cache.wrap("k", compute)
        assert evaluate() == answer(1, 2, 3)  # the caller still gets the answer
        assert cache.get("k") is None  # but it was dropped, not cached
        assert len(cache) == 0

    def test_put_with_current_generation_stores(self):
        cache = ResultCache(4)
        cache.put("k", answer(1), generation=cache.generation)
        assert cache.get("k") == answer(1)
        cache.put("stale", answer(2), generation=cache.generation - 1)
        assert cache.get("stale") is None
