"""Chaos suite: seeded fault plans replayed against the HTTP-to-worker stack.

Every test installs a fixed-seed :class:`~repro.faults.FaultPlan` and
drives the full serving stack (``SearchHttpApp`` → ``AsyncSearchService``
→ sharded engine → shard workers), then asserts a *resilience invariant*
rather than a particular failure:

* faults that are retried away leave answers **byte-identical** to the
  fault-free run;
* ``partial=True`` responses enumerate **exactly** the faulted shards;
* no request outlives its deadline by more than the injected blocking
  window plus one batch window;
* a SIGKILLed worker pool recovers and subsequent answers are
  byte-identical;
* a window of several requests — one shard fan-out for all of them —
  recovers from a crash with one pool rebuild, degrades every request to
  the same failed shards, and leaks no worker process or shm block;
* no stale cache entry survives an index swap.

Deterministic by construction: the plans pin seeds and ordinals, so CI
replays the same faults every run (the ``chaos`` marker gives the suite
its own CI step).
"""

import asyncio
import json
import multiprocessing
import os
import time

import pytest

from repro.api import build_sharded_index
from repro.faults import (
    SITE_BATCH_FLUSH,
    SITE_CACHE_ACCESS,
    SITE_WORKER_DISPATCH,
    FaultPlan,
    FaultSpec,
    inject_faults,
)
from repro.serving import AsyncSearchService, ReplicaSet, SearchHttpApp
from tests.conftest import make_random_uncertain_string

pytestmark = pytest.mark.chaos

#: Wall-clock bound for any single dispatch in this suite — a hang is the
#: one failure mode chaos tests must never themselves exhibit.
HARD_WATCHDOG_S = 30.0


def _search_body(pattern, tau, timeout_ms=None):
    body = {"pattern": pattern, "tau": tau}
    if timeout_ms is not None:
        body["timeout_ms"] = timeout_ms
    return json.dumps(body).encode("utf-8")


def _dispatch(engine, body, **service_kwargs):
    """One POST /search through app → service → engine; returns the response."""

    async def go():
        async with AsyncSearchService(engine, **service_kwargs) as service:
            return await asyncio.wait_for(
                SearchHttpApp(service).dispatch("POST", "/search", body),
                timeout=HARD_WATCHDOG_S,
            )

    return asyncio.run(go())


def _dispatch_window(engine, bodies):
    """Several POST /search at once, so they share one service window.

    Returns the responses (in ``bodies`` order) and the service stats.
    """

    async def go():
        async with AsyncSearchService(engine, max_wait_ms=20.0) as service:
            app = SearchHttpApp(service)
            responses = await asyncio.wait_for(
                asyncio.gather(
                    *(app.dispatch("POST", "/search", body) for body in bodies)
                ),
                timeout=HARD_WATCHDOG_S,
            )
            return responses, service.stats()

    return asyncio.run(go())


def _window_bodies(corpus, count=6):
    backbone = corpus.most_likely_string()
    return [
        _search_body(backbone[start : start + 3], tau=0.2)
        for start in range(0, 5 * count, 5)
    ]


def _leak_probe():
    """Live multiprocessing children and ``/dev/shm`` entries right now."""
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    return {child.pid for child in multiprocessing.active_children()}, shm


def _assert_no_leaks(before):
    children_before, shm_before = before
    deadline = time.monotonic() + 15.0
    while True:
        children, shm = _leak_probe()
        leaked = children - children_before
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not leaked, f"worker processes leaked: {sorted(leaked)}"
    assert not shm - shm_before, f"shm blocks leaked: {sorted(shm - shm_before)}"


@pytest.fixture(scope="module")
def corpus():
    return make_random_uncertain_string(60, 0.3, seed=31)


@pytest.fixture()
def thread_engine(corpus):
    # cache_size=0 so a replayed query actually fans out again instead of
    # answering from the result cache (which would starve the fault site).
    engine = build_sharded_index(
        corpus,
        shards=3,
        tau_min=0.1,
        kind="general",
        max_pattern_len=6,
        cache_size=0,
    )
    yield engine
    engine.close()


class TestRetriedAwayFaults:
    def test_transient_dispatch_fault_leaves_answer_byte_identical(
        self, corpus, thread_engine
    ):
        pattern = corpus.most_likely_string()[:3]
        body = _search_body(pattern, tau=0.2)
        baseline = _dispatch(thread_engine, body)
        assert baseline.status == 200

        # One transient fault on the first shard dispatch; the engine's
        # retry (worker_retries=1 by default) re-attempts the fan-out.
        plan = FaultPlan(
            specs=(FaultSpec(SITE_WORKER_DISPATCH, kind="error", at=0, times=1),),
            seed=42,
        )
        with inject_faults(plan) as injector:
            chaotic = _dispatch(thread_engine, body)
        assert injector.stats()["fired"] == {SITE_WORKER_DISPATCH: 1}
        assert chaotic.status == 200
        assert chaotic.body() == baseline.body()  # byte-identical, not "close"

    def test_persistent_fault_surfaces_as_taxonomy_error(self, thread_engine, corpus):
        pattern = corpus.most_likely_string()[:3]
        # More certain faults than the engine has retries: the injected
        # error must come back over the wire as its taxonomy class, never
        # as a hang or a bare 500 with no type.
        plan = FaultPlan(
            specs=(FaultSpec(SITE_WORKER_DISPATCH, kind="error", times=50),),
            seed=42,
        )
        with inject_faults(plan):
            response = _dispatch(thread_engine, _search_body(pattern, tau=0.2))
        assert response.status == 500
        assert response.payload["error"]["type"] == "InjectedFaultError"


class TestPartialAnswers:
    @pytest.mark.parametrize(
        ("ordinals", "expected_shards"),
        [((1,), [1]), ((0, 2), [0, 2])],
    )
    def test_partial_response_enumerates_exactly_the_faulted_shards(
        self, corpus, ordinals, expected_shards
    ):
        engine = build_sharded_index(
            corpus,
            shards=3,
            tau_min=0.1,
            kind="general",
            max_pattern_len=6,
            cache_size=0,
            partial=True,
            worker_retries=0,
        )
        try:
            pattern = corpus.most_likely_string()[:3]
            body = _search_body(pattern, tau=0.2)
            baseline = _dispatch(engine, body)
            assert baseline.status == 200
            assert "partial" not in baseline.payload  # complete answers stay bare

            # The thread fan-out fires worker-dispatch once per shard in
            # shard order, so ordinal k *is* shard k within one query.
            plan = FaultPlan(
                specs=tuple(
                    FaultSpec(SITE_WORKER_DISPATCH, at=ordinal, times=1)
                    for ordinal in ordinals
                ),
                seed=7,
            )
            with inject_faults(plan) as injector:
                degraded = _dispatch(engine, body)
            assert injector.stats()["fired"] == {
                SITE_WORKER_DISPATCH: len(ordinals)
            }
            assert degraded.status == 200
            assert degraded.payload["partial"] is True
            assert degraded.payload["failed_shards"] == expected_shards
            # Healthy-shard results are a subset of the complete answer.
            complete = {
                json.dumps(match, sort_keys=True)
                for match in baseline.payload["matches"]
            }
            for match in degraded.payload["matches"]:
                assert json.dumps(match, sort_keys=True) in complete
            assert engine.resilience_stats()["partial_answers"] == 1
        finally:
            engine.close()


class TestDeadlines:
    def test_blocked_batch_flush_cannot_outlive_deadline_by_a_window(
        self, thread_engine, corpus
    ):
        pattern = corpus.most_likely_string()[:3]
        delay_s = 0.3
        timeout_ms = 100.0
        window_ms = 2.0
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    SITE_BATCH_FLUSH, kind="delay", delay_s=delay_s, times=1
                ),
            ),
            seed=13,
        )
        with inject_faults(plan) as injector:
            started = time.perf_counter()
            response = _dispatch(
                thread_engine,
                _search_body(pattern, tau=0.2, timeout_ms=timeout_ms),
                max_wait_ms=window_ms,
            )
            elapsed = time.perf_counter() - started
        assert injector.stats()["fired"] == {SITE_BATCH_FLUSH: 1}
        assert response.status == 504
        assert response.payload["error"]["type"] == "DeadlineExceededError"
        # The injected delay blocks the event loop (that is the hang this
        # invariant bounds): the 504 lands as soon as the loop unblocks —
        # deadline + blocking window + one batch window, plus slack for
        # the evaluation the flush had already committed to.
        assert elapsed <= timeout_ms / 1000.0 + delay_s + window_ms / 1000.0 + 1.0

    def test_expired_budget_beats_an_instant_answer(self, corpus):
        # Regression: with a *cached* (instant) answer, the stalled window
        # used to win the same-loop-tick race against the submitter's
        # overdue watchdog — ``set_result`` landed before the cancellation
        # took effect and ``wait_for`` handed back a 200 five times over
        # budget.  The dispatcher's post-evaluation sweep must expire the
        # request deterministically instead.
        pattern = corpus.most_likely_string()[:3]
        engine = build_sharded_index(
            corpus, shards=3, tau_min=0.1, kind="general", max_pattern_len=6
        )
        try:
            plan = FaultPlan(
                specs=(
                    FaultSpec(SITE_BATCH_FLUSH, kind="delay", delay_s=0.3, times=1),
                ),
                seed=17,
            )

            async def go():
                async with AsyncSearchService(engine, max_wait_ms=2.0) as service:
                    app = SearchHttpApp(service)
                    warm = await asyncio.wait_for(
                        app.dispatch(
                            "POST", "/search", _search_body(pattern, tau=0.2)
                        ),
                        timeout=HARD_WATCHDOG_S,
                    )
                    assert warm.status == 200  # cache now holds the answer
                    with inject_faults(plan) as injector:
                        stalled = await asyncio.wait_for(
                            app.dispatch(
                                "POST",
                                "/search",
                                _search_body(pattern, tau=0.2, timeout_ms=100.0),
                            ),
                            timeout=HARD_WATCHDOG_S,
                        )
                    assert injector.stats()["fired"] == {SITE_BATCH_FLUSH: 1}
                    return stalled, service.stats()

            stalled, stats = asyncio.run(go())
            assert stalled.status == 504
            assert stalled.payload["error"]["type"] == "DeadlineExceededError"
            assert stats["deadline_exceeded"] == 1
        finally:
            engine.close()


class TestWorkerCrashRecovery:
    def test_sigkilled_pool_recovers_with_byte_identical_answers(self, corpus):
        engine = build_sharded_index(
            corpus,
            shards=2,
            tau_min=0.1,
            kind="general",
            max_pattern_len=6,
            cache_size=0,
            query_executor="process",
            worker_retries=2,
        )
        try:
            pattern = corpus.most_likely_string()[:3]
            body = _search_body(pattern, tau=0.2)
            # Warm the pool: workers spawn lazily on first dispatch, and a
            # crash hook against a cold pool has nothing to kill.
            baseline = _dispatch(engine, body)
            assert baseline.status == 200

            plan = FaultPlan(
                specs=(
                    FaultSpec(SITE_WORKER_DISPATCH, kind="crash", at=0, times=1),
                ),
                seed=99,
            )
            with inject_faults(plan) as injector:
                recovered = _dispatch(engine, body)
            assert injector.stats()["fired"] == {SITE_WORKER_DISPATCH: 1}
            assert recovered.status == 200
            assert recovered.body() == baseline.body()
            assert engine.resilience_stats()["pool_recoveries"] >= 1

            # And the stack stays healthy afterwards: same answer again,
            # no plan installed.
            assert _dispatch(engine, body).body() == baseline.body()
        finally:
            engine.close()


class TestWindowChaos:
    """A service window of several requests is one fan-out: it fails and
    recovers as a unit, and every request in it sees the same outcome."""

    def test_crash_on_a_window_rebuilds_once_with_byte_identical_answers(
        self, corpus
    ):
        before = _leak_probe()
        engine = build_sharded_index(
            corpus,
            shards=2,
            tau_min=0.1,
            kind="general",
            max_pattern_len=6,
            cache_size=0,
            query_executor="process",
            worker_retries=2,
        )
        try:
            bodies = _window_bodies(corpus)
            # Warm the pool (workers spawn lazily on first dispatch, and a
            # crash hook against a cold pool has nothing to kill).
            baseline, stats = _dispatch_window(engine, bodies)
            assert stats["max_batch_size"] == len(bodies)
            assert all(response.status == 200 for response in baseline)

            plan = FaultPlan(
                specs=(
                    FaultSpec(SITE_WORKER_DISPATCH, kind="crash", at=0, times=1),
                ),
                seed=99,
            )
            with inject_faults(plan) as injector:
                recovered, stats = _dispatch_window(engine, bodies)
            assert injector.stats()["fired"] == {SITE_WORKER_DISPATCH: 1}
            assert stats["max_batch_size"] == len(bodies)
            assert [response.body() for response in recovered] == [
                response.body() for response in baseline
            ]
            assert engine.resilience_stats()["pool_recoveries"] == 1
        finally:
            engine.close()
        _assert_no_leaks(before)

    @pytest.mark.parametrize("query_executor", ["thread", "process"])
    def test_partial_window_requests_share_the_failed_shards(
        self, corpus, query_executor
    ):
        before = _leak_probe()
        engine = build_sharded_index(
            corpus,
            shards=3,
            tau_min=0.1,
            kind="general",
            max_pattern_len=6,
            cache_size=0,
            query_executor=query_executor,
            partial=True,
            worker_retries=0,
        )
        try:
            bodies = _window_bodies(corpus)
            baseline, _ = _dispatch_window(engine, bodies)
            # Shard 1's dispatch crashes (SIGKILLing its worker process in
            # process mode; the error form in thread mode).
            plan = FaultPlan(
                specs=(
                    FaultSpec(SITE_WORKER_DISPATCH, kind="crash", at=1, times=1),
                ),
                seed=7,
            )
            with inject_faults(plan) as injector:
                degraded, stats = _dispatch_window(engine, bodies)
            assert injector.stats()["fired"] == {SITE_WORKER_DISPATCH: 1}
            assert stats["max_batch_size"] == len(bodies)
            for response, complete in zip(degraded, baseline):
                assert response.status == 200
                assert response.payload["partial"] is True
                assert response.payload["failed_shards"] == [1]
                whole = {
                    json.dumps(match, sort_keys=True)
                    for match in complete.payload["matches"]
                }
                for match in response.payload["matches"]:
                    assert json.dumps(match, sort_keys=True) in whole
            assert engine.resilience_stats()["partial_answers"] == len(bodies)
        finally:
            engine.close()
        _assert_no_leaks(before)


class TestCacheAcrossSwap:
    def test_no_stale_cache_entry_survives_an_index_swap(self):
        old_corpus = make_random_uncertain_string(40, 0.3, seed=51)
        new_corpus = make_random_uncertain_string(48, 0.3, seed=52)
        pattern = old_corpus.most_likely_string()[:2]

        def build_engine(corpus):
            return build_sharded_index(
                corpus, shards=2, tau_min=0.1, kind="general", max_pattern_len=6
            )

        replicas = ReplicaSet([build_engine(old_corpus), build_engine(old_corpus)])
        reference = build_engine(new_corpus)
        try:
            body = _search_body(pattern, tau=0.2)
            # Warm every replica's result cache under cache-access delays
            # (the fault keeps lookups slow enough that a stale read after
            # the swap could not hide in timing noise).
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        SITE_CACHE_ACCESS, kind="delay", delay_s=0.002, times=500
                    ),
                ),
                seed=3,
            )
            with inject_faults(plan):
                before = [_dispatch(replicas, body) for _ in range(4)]
                assert all(response.status == 200 for response in before)

                replicas.swap(lambda slot: build_engine(new_corpus))

                after = _dispatch(replicas, body)
            assert after.status == 200
            expected = _dispatch(reference, body)
            # The swapped-in engines answer from the *new* index — the old
            # engines' warmed caches went with the old engines.
            assert (
                after.payload["matches"] == expected.payload["matches"]
            )
            assert replicas.stats()["swaps"] == replicas.replica_count
        finally:
            replicas.close()
            reference.close()
