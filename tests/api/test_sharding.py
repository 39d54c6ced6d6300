"""Sharded-vs-unsharded equivalence, pinned against the brute-force oracle.

The chunk-with-overlap design is easy to get subtly wrong (an occurrence
straddling a boundary missed, or reported twice from the overlap), so the
core of this module is an equivalence oracle: for shard counts {1, 2, 5}
the :class:`ShardedEngine` must answer exactly like the unsharded
:class:`Engine` on the same data — and both must agree with the exhaustive
possible-worlds computation (:class:`repro.core.baseline.BruteForceOracle` /
``matching_positions``) the property suite uses.

Probabilities and relevances are compared with
``math.isclose(rel_tol=1e-9)`` rather than bit equality: the indexes
derive values from log-prefix sums whose accumulation origin shifts with
the shard boundary (chunk start, or the document's offset in the
concatenated transformed text), so the last few ulps can differ — the same
reason the index-vs-oracle tests carve out thresholds within a ulp of a
match.  Match *sets* (positions / documents) must agree exactly away from
those threshold boundaries.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SearchRequest, build_index, build_sharded_index, shard_input
from repro.api.planner import ShardSpec
from repro.core.baseline import BruteForceOracle
from repro.exceptions import PatternTooLongError, ThresholdError, ValidationError
from repro.strings import (
    CorrelationModel,
    CorrelationRule,
    SpecialUncertainString,
    UncertainString,
    UncertainStringCollection,
)
from tests.conftest import make_random_special_string, make_random_uncertain_string

SHARD_COUNTS = (1, 2, 5)


def assert_occurrences_equivalent(flat, sharded, *, tau=None):
    """Same positions; probabilities equal to within floating-point noise.

    When ``tau`` is given, a position present on one side only is tolerated
    if its probability sits within a ulp of the threshold (the strict
    ``> tau`` comparison may legitimately flip — same carve-out as the
    index-vs-oracle property tests).
    """
    flat_by_position = {occ.position: occ.probability for occ in flat}
    sharded_by_position = {occ.position: occ.probability for occ in sharded}
    for position in set(flat_by_position) ^ set(sharded_by_position):
        probability = flat_by_position.get(
            position, sharded_by_position.get(position)
        )
        assert tau is not None and abs(probability - tau) <= 1e-9 * max(
            1.0, tau
        ), (position, probability, tau)
    for position in set(flat_by_position) & set(sharded_by_position):
        assert math.isclose(
            flat_by_position[position],
            sharded_by_position[position],
            rel_tol=1e-9,
        ), position


class TestShardInput:
    def test_chunks_cover_with_overlap(self):
        string = SpecialUncertainString.from_deterministic("ABCDEFGHIJ")
        spec, parts = shard_input(string, 3, max_pattern_len=3)
        assert spec.mode == "chunks"
        assert spec.shard_count == 3
        assert spec.overlap == 2
        assert spec.offsets == (0, 4, 8)
        assert spec.owned_ends == (4, 8, 10)
        # Each chunk extends `overlap` past its owned range (capped at n).
        assert [part.text for part in parts] == ["ABCDEF", "EFGHIJ", "IJ"]

    def test_documents_partition_is_contiguous_and_near_equal(self):
        collection = UncertainStringCollection(
            [UncertainString.from_deterministic(f"DOC{i}") for i in range(7)]
        )
        spec, parts = shard_input(collection, 3)
        assert spec.mode == "documents"
        assert spec.offsets == (0, 3, 5)
        assert spec.owned_ends == (3, 5, 7)
        assert [len(part) for part in parts] == [3, 2, 2]
        assert parts[1].name_of(0) == collection.name_of(3)

    def test_shard_count_clamped(self):
        spec, parts = shard_input("ABC", 10, max_pattern_len=2)
        assert spec.shard_count == len(parts) == 3
        collection = UncertainStringCollection(
            [UncertainString.from_deterministic("A")]
        )
        spec, _ = shard_input(collection, 10)
        assert spec.shard_count == 1

    def test_owner_of(self):
        spec, _ = shard_input("ABCDEFGHIJ", 3, max_pattern_len=3)
        assert [spec.owner_of(p) for p in (0, 3, 4, 7, 8, 9)] == [0, 0, 1, 1, 2, 2]
        with pytest.raises(ValidationError):
            spec.owner_of(10)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValidationError):
            shard_input("ABC", 0)
        with pytest.raises(ValidationError):
            shard_input("ABC", 2, max_pattern_len=0)

    def test_correlated_string_rejected_in_chunk_mode(self):
        string = UncertainString(
            [{"a": 0.5, "b": 0.5}, {"a": 1.0}, {"c": 0.5, "d": 0.5}],
            correlations=CorrelationModel([CorrelationRule(2, "c", 0, "a", 0.9, 0.1)]),
        )
        with pytest.raises(ValidationError):
            shard_input(string, 2, max_pattern_len=2)

    def test_correlated_collection_allowed(self):
        correlated = UncertainString(
            [{"A": 0.6, "B": 0.4}, {"A": 0.5, "B": 0.5}],
            correlations=CorrelationModel([CorrelationRule(1, "A", 0, "A", 0.9, 0.2)]),
        )
        collection = UncertainStringCollection(
            [correlated, UncertainString.from_deterministic("AB")]
        )
        spec, parts = shard_input(collection, 2)
        assert spec.shard_count == 2


class TestChunkEquivalenceGeneral:
    """Chunk-sharded general engine vs unsharded engine vs oracle."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_random_strings_tau_sweep(self, shards):
        string = make_random_uncertain_string(60, 0.35, seed=11 + shards)
        flat = build_index(string, tau_min=0.1)
        sharded = build_sharded_index(
            string, shards=shards, tau_min=0.1, max_pattern_len=6
        )
        assert sharded.kind == flat.kind == "general"
        backbone = string.most_likely_string()
        oracle = BruteForceOracle(string=string)
        for start in range(0, len(backbone) - 4, 5):
            pattern = backbone[start : start + 4]
            for tau in (0.1, 0.2, 0.35, 0.6, 0.9):
                flat_matches = flat.query(pattern, tau=tau)
                sharded_matches = sharded.query(pattern, tau=tau)
                assert_occurrences_equivalent(
                    flat_matches, sharded_matches, tau=tau
                )
                # ...and both agree with the possible-worlds oracle.
                assert_occurrences_equivalent(
                    oracle.substring_occurrences(pattern, tau),
                    sharded_matches,
                    tau=tau,
                )
        sharded.close()

    @pytest.mark.parametrize("shards", (2, 5))
    def test_patterns_straddling_every_chunk_edge(self, shards):
        string = make_random_uncertain_string(50, 0.3, seed=99)
        flat = build_index(string, tau_min=0.1)
        sharded = build_sharded_index(
            string, shards=shards, tau_min=0.1, max_pattern_len=5
        )
        backbone = string.most_likely_string()
        for boundary in sharded.spec.owned_ends[:-1]:
            # Windows overlapping the boundary from every offset.
            for length in (2, 3, 5):
                for start in range(
                    max(0, boundary - length), min(boundary + 1, len(backbone) - length + 1)
                ):
                    pattern = backbone[start : start + length]
                    for tau in (0.1, 0.3, 0.5):
                        assert_occurrences_equivalent(
                            flat.query(pattern, tau=tau),
                            sharded.query(pattern, tau=tau),
                            tau=tau,
                        )
        sharded.close()

    def test_search_many_matches_flat_batch(self):
        string = make_random_uncertain_string(40, 0.3, seed=5)
        flat = build_index(string, tau_min=0.1)
        sharded = build_sharded_index(string, shards=3, tau_min=0.1, max_pattern_len=4)
        backbone = string.most_likely_string()
        requests = [
            SearchRequest(backbone[i : i + 3], tau=tau)
            for i in (0, 7, 19, 30)
            for tau in (0.1, 0.4)
        ]
        for flat_result, sharded_result in zip(
            flat.search_many(requests), sharded.search_many(requests)
        ):
            assert_occurrences_equivalent(
                flat_result.matches,
                sharded_result.matches,
                tau=flat_result.request.resolve_tau(flat.tau_min),
            )
        sharded.close()


class TestChunkEquivalenceSpecial:
    """Chunk-sharded special / simple engines vs the unsharded answers."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", ["special", "simple"])
    def test_random_special_strings(self, shards, kind):
        string = make_random_special_string(48, seed=3 * shards + 1)
        flat = build_index(string, kind=kind)
        sharded = build_sharded_index(
            string, shards=shards, kind=kind, max_pattern_len=4
        )
        assert sharded.kind == kind
        for start in range(0, len(string.text) - 3, 3):
            pattern = string.text[start : start + 3]
            for tau in (0.05, 0.2, 0.5, 0.8):
                assert_occurrences_equivalent(
                    flat.query(pattern, tau=tau),
                    sharded.query(pattern, tau=tau),
                    tau=tau,
                )
        sharded.close()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.05, max_value=0.9),
        st.data(),
    )
    def test_property_style_equivalence(self, length, shards, tau, data):
        string = make_random_special_string(
            length, seed=data.draw(st.integers(min_value=0, max_value=10_000))
        )
        pattern_length = data.draw(
            st.integers(min_value=1, max_value=min(4, length))
        )
        start = data.draw(st.integers(min_value=0, max_value=length - pattern_length))
        pattern = string.text[start : start + pattern_length]
        expected = string.matching_positions(pattern, tau)

        sharded = build_sharded_index(
            string, shards=shards, max_pattern_len=4
        )
        got = sharded.query(pattern, tau=tau)
        got_positions = {occ.position for occ in got}
        for position in got_positions ^ set(expected):
            probability = string.occurrence_probability(pattern, position)
            assert abs(probability - tau) <= 1e-9, (position, probability, tau)
        sharded.close()


def assert_listing_equivalent(flat, sharded, *, tau=None):
    """Same documents (threshold-boundary carve-out); relevances to 1e-9."""
    flat_by_document = {match.document: match.relevance for match in flat}
    sharded_by_document = {match.document: match.relevance for match in sharded}
    for document in set(flat_by_document) ^ set(sharded_by_document):
        relevance = flat_by_document.get(
            document, sharded_by_document.get(document)
        )
        assert tau is not None and abs(relevance - tau) <= 1e-9 * max(
            1.0, tau
        ), (document, relevance, tau)
    for document in set(flat_by_document) & set(sharded_by_document):
        assert math.isclose(
            flat_by_document[document],
            sharded_by_document[document],
            rel_tol=1e-9,
        ), document


class TestDocumentEquivalenceListing:
    """Document-sharded listing engine vs unsharded vs the oracle."""

    @pytest.fixture
    def collection(self):
        documents = []
        for i in range(11):
            documents.append(
                make_random_uncertain_string(8 + (i % 5), 0.4, seed=100 + i)
            )
        return UncertainStringCollection(documents)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("metric", ["max", "or"])
    def test_listing_queries_equivalent(self, collection, shards, metric):
        flat = build_index(collection, tau_min=0.05, metric=metric)
        sharded = build_sharded_index(
            collection, shards=shards, tau_min=0.05, metric=metric
        )
        assert sharded.is_listing
        patterns = {
            document.most_likely_string()[:2] for document in collection
        } | {"A", "B"}
        for pattern in sorted(patterns):
            for tau in (0.05, 0.1, 0.3, 0.7):
                assert_listing_equivalent(
                    flat.query(pattern, tau=tau),
                    sharded.query(pattern, tau=tau),
                    tau=tau,
                )
                flat_top = flat.top_k(pattern, 3, tau=tau)
                sharded_top = sharded.top_k(pattern, 3, tau=tau)
                assert [m.document for m in flat_top] == [
                    m.document for m in sharded_top
                ]
        sharded.close()

    @pytest.mark.parametrize("shards", (2, 5))
    def test_listing_matches_possible_worlds_oracle(self, collection, shards):
        sharded = build_sharded_index(collection, shards=shards, tau_min=0.05)
        for pattern in ("A", "BA", "CD"):
            for tau in (0.05, 0.2, 0.6):
                expected = collection.matching_documents(pattern, tau)
                got = [m.document for m in sharded.query(pattern, tau=tau)]
                boundary = {
                    document
                    for document in set(expected) ^ set(got)
                    if abs(
                        collection.document_relevance(pattern, document) - tau
                    )
                    <= 1e-9
                }
                assert set(expected) ^ set(got) <= boundary
        sharded.close()

    def test_document_identifiers_are_global(self, collection):
        sharded = build_sharded_index(collection, shards=5, tau_min=0.05)
        flat = build_index(collection, tau_min=0.05)
        matches = sharded.query("A", tau=0.05)
        assert_listing_equivalent(flat.query("A", tau=0.05), matches, tau=0.05)
        assert [m.document for m in matches] == sorted(m.document for m in matches)
        sharded.close()


class TestTopKEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_top_k_with_exact_ties(self, shards):
        # A periodic deterministic string: every "AB" occurrence ties at
        # probability 1.0, so top_k is decided purely by the position
        # tie-break — which must survive the shard merge.
        string = "AB" * 15
        flat = build_index(string)
        sharded = build_sharded_index(string, shards=shards, max_pattern_len=4)
        for k in (1, 3, 7, 30):
            assert flat.top_k("AB", k) == sharded.top_k("AB", k)
        sharded.close()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_top_k_random_general(self, shards):
        string = make_random_uncertain_string(50, 0.3, seed=42)
        flat = build_index(string, tau_min=0.1)
        sharded = build_sharded_index(
            string, shards=shards, tau_min=0.1, max_pattern_len=4
        )
        backbone = string.most_likely_string()
        for start in (0, 11, 23, 37):
            pattern = backbone[start : start + 3]
            for k in (1, 2, 5, 100):
                flat_top = flat.top_k(pattern, k)
                sharded_top = sharded.top_k(pattern, k)
                assert [o.position for o in flat_top] == [
                    o.position for o in sharded_top
                ]
                for a, b in zip(flat_top, sharded_top):
                    assert math.isclose(a.probability, b.probability, rel_tol=1e-9)
        sharded.close()


class TestShardedEngineSurface:
    def test_pattern_longer_than_limit_rejected(self):
        sharded = build_sharded_index("ABCDEFGH" * 4, shards=2, max_pattern_len=3)
        with pytest.raises(PatternTooLongError):
            sharded.query("ABCD", tau=0.5)
        sharded.close()

    def test_document_mode_has_no_pattern_limit(self):
        collection = UncertainStringCollection(
            [UncertainString.from_deterministic("ABCDEFGH")]
        )
        sharded = build_sharded_index(collection, shards=1, tau_min=0.1)
        assert sharded.max_pattern_len is None
        assert sharded.query("ABCDEFGH", tau=0.5)
        sharded.close()

    def test_threshold_errors_propagate_from_shards(self):
        string = make_random_uncertain_string(30, 0.3, seed=1)
        sharded = build_sharded_index(string, shards=3, tau_min=0.2, max_pattern_len=4)
        with pytest.raises(ThresholdError):
            sharded.query("A", tau=0.05)
        sharded.close()

    def test_describe_and_space(self):
        string = make_random_uncertain_string(40, 0.3, seed=2)
        sharded = build_sharded_index(string, shards=2, tau_min=0.1, max_pattern_len=4)
        description = sharded.describe()
        assert description["kind"] == "general"
        assert description["sharding"]["shard_count"] == 2
        assert description["sharding"]["mode"] == "chunks"
        assert description["sharding"]["overlap"] == 3
        assert description["cache"]["enabled"]
        assert description["space_report"]["total"] == sharded.nbytes()
        assert len(description["shards"]) == 2
        assert sharded.nbytes() == sum(e.nbytes() for e in sharded.shards)
        sharded.close()

    def test_sharded_cache_serves_repeats(self):
        string = make_random_uncertain_string(40, 0.3, seed=3)
        sharded = build_sharded_index(string, shards=2, tau_min=0.1, max_pattern_len=4)
        pattern = string.most_likely_string()[:3]
        first = sharded.query(pattern, tau=0.2)
        second = sharded.query(pattern, tau=0.2)
        assert first == second
        stats = sharded.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # Shard-level caches are disabled: no double counting.
        assert all(not e.cache.enabled for e in sharded.shards)
        sharded.close()

    def test_spec_engine_count_mismatch_rejected(self):
        string = make_random_uncertain_string(20, 0.3, seed=4)
        sharded = build_sharded_index(string, shards=2, tau_min=0.1, max_pattern_len=4)
        from repro.api.sharding import ShardedEngine

        with pytest.raises(ValidationError):
            ShardedEngine(sharded.shards[:1], sharded.spec, sharded.plan)
        sharded.close()

    def test_context_manager_closes_pool(self):
        with build_sharded_index(
            "ABAB" * 8, shards=2, max_pattern_len=3
        ) as sharded:
            assert sharded.count("AB", tau=0.5) == 16
        assert sharded._executor is None


class TestShardConstruction:
    """Every shard builds in the calling process; ``workers`` has no effect."""

    def test_workers_must_be_positive(self):
        with pytest.raises(ValidationError):
            build_sharded_index("ABAB" * 8, shards=2, max_pattern_len=3, workers=0)

    @staticmethod
    def _input(shape):
        """An input of ``shape`` and a few patterns that occur in it."""
        if shape == "general-chunks":
            data = make_random_uncertain_string(120, 0.3, seed=42)
            backbone = data.most_likely_string()
            return data, (backbone[:2], backbone[10:14], backbone[50:53])
        if shape == "special-chunks":
            data = make_random_special_string(100, seed=7)
            return data, (data.text[:2], data.text[10:13], data.text[40:45])
        documents = [
            make_random_uncertain_string(24, 0.4, seed=100 + index)
            for index in range(6)
        ]
        backbone = documents[0].most_likely_string()
        return UncertainStringCollection(documents), (backbone[:2], backbone[3:6])

    @pytest.mark.parametrize("compact", [False, True], ids=["wide", "compact"])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("shape", ["general-chunks", "special-chunks", "documents"])
    def test_workers_start_no_process_pool(self, monkeypatch, shape, executor, compact):
        """A ``workers=2`` build answers exactly like a serial, wide, thread build."""
        from repro.api import sharding

        data, patterns = self._input(shape)
        options = dict(shards=3, tau_min=0.1, max_pattern_len=6)
        reference = build_sharded_index(data, **options)

        def refuse(*args, **kwargs):
            raise AssertionError("the shard build started a process pool")

        # Only the build is guarded: the process executor starts its query
        # pools lazily, on the first query.
        with monkeypatch.context() as patch:
            patch.setattr(sharding, "ProcessPoolExecutor", refuse)
            built = build_sharded_index(
                data, workers=2, query_executor=executor, compact=compact, **options
            )
        try:
            assert built.spec == reference.spec
            assert [shard.kind for shard in built.shards] == [
                shard.kind for shard in reference.shards
            ]
            for pattern in patterns:
                for tau in (0.1, 0.3):
                    assert built.query(pattern, tau=tau) == reference.query(pattern, tau=tau)
                assert built.top_k(pattern, 5) == reference.top_k(pattern, 5)
        finally:
            reference.close()
            built.close()


class TestResilienceConfig:
    """Recovery / degradation knobs: validation, surfacing, persistence."""

    def test_invalid_recovery_config_rejected(self):
        string = SpecialUncertainString.from_deterministic("ABCABCAB")
        with pytest.raises(ValidationError):
            build_sharded_index(string, shards=2, max_pattern_len=4, worker_retries=-1)
        with pytest.raises(ValidationError):
            build_sharded_index(
                string, shards=2, max_pattern_len=4, worker_retry_backoff_s=-0.5
            )

    def test_resilience_stats_surface_in_describe(self):
        string = SpecialUncertainString.from_deterministic("ABCABCAB")
        engine = build_sharded_index(
            string, shards=2, max_pattern_len=4, partial=True, worker_retries=3
        )
        try:
            assert engine.partial is True
            assert engine.worker_retries == 3
            assert engine.describe()["resilience"] == {
                "partial": True,
                "worker_retries": 3,
                "worker_retry_backoff_s": 0.05,
                "pool_recoveries": 0,
                "partial_answers": 0,
                "dispatches": 0,
            }
        finally:
            engine.close()

    def test_defaults_are_strict_and_single_retry(self):
        string = SpecialUncertainString.from_deterministic("ABCABCAB")
        engine = build_sharded_index(string, shards=2, max_pattern_len=4)
        try:
            stats = engine.resilience_stats()
            assert stats["partial"] is False
            assert stats["worker_retries"] == 1
        finally:
            engine.close()

    def test_timeout_ms_preserved_through_top_k_shard_requests(self):
        # The widened per-shard top-k fetch must keep carrying the
        # caller's budget (a fresh SearchRequest is built per shard).
        string = SpecialUncertainString.from_deterministic("ABCABCABCABC")
        engine = build_sharded_index(string, shards=2, max_pattern_len=4)
        try:
            request = SearchRequest("ABC", tau=0.2, top_k=2, timeout_ms=30_000.0)
            bounded = engine.search(request)
            unbounded = engine.search(SearchRequest("ABC", tau=0.2, top_k=2))
            assert bounded.matches == unbounded.matches
            assert bounded.partial is False
            assert bounded.failed_shards == ()
        finally:
            engine.close()
