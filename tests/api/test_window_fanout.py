"""Window-batched shard fan-out: one dispatch per worker per window.

A ``search_many`` call on a sharded engine sends its direct cache misses
to the shards together — one message per worker process, one task per
shard thread — instead of one per shard per request.  These tests pin
the contract in both executors:

* **cost** — ``resilience_stats()["dispatches"]`` counts one per message
  or task, so a window of 8 requests over 2 process-served shards costs 1
  dispatch with one worker and 2 with one worker per shard;
* **answers** — every good request of a mixed window answers
  byte-identically to a lone ``search()`` (and matches the unsharded
  engine), while a ``tau`` below ``tau_min`` and an over-long pattern
  fail only themselves, through ``search_many`` and through
  ``AsyncSearchService``;
* **cache** — a request the result cache already answers is never sent;
* **deadlines** — a request's ``timeout_ms`` bounds only its own wait,
  on the shards and through a retry's backoff;
* **tracing** — the window's traced requests share one ``fan_out`` span
  and keep their own ``shard`` spans;
* **concurrency** — threads touching one window's results at once still
  send it exactly once.
"""

import asyncio
import math
import sys
import threading
import time

import pytest

from repro.api import SearchRequest, build_index, build_sharded_index
from repro.exceptions import (
    DeadlineExceededError,
    PatternTooLongError,
    ThresholdError,
)
from repro.faults import SITE_WORKER_DISPATCH, FaultPlan, FaultSpec, inject_faults
from repro.obs.trace import Trace
from repro.serving import AsyncSearchService
from tests.conftest import make_random_uncertain_string

EXECUTORS = ("thread", "process")


@pytest.fixture(scope="module")
def string():
    return make_random_uncertain_string(70, 0.3, seed=21)


@pytest.fixture(scope="module")
def flat(string):
    return build_index(string, tau_min=0.1, kind="general")


def _sharded(string, executor, **options):
    options.setdefault("cache_size", 0)
    return build_sharded_index(
        string,
        shards=2,
        tau_min=0.1,
        kind="general",
        max_pattern_len=6,
        query_executor=executor,
        **options,
    )


def _distinct_requests(string, count=8):
    backbone = string.most_likely_string()
    return [
        SearchRequest(backbone[start : start + 3], tau=0.15 + 0.01 * start)
        for start in range(0, 5 * count, 5)
    ]


def _mixed_window(string):
    """Plain and top_k requests plus one of each request-blaming error."""
    backbone = string.most_likely_string()
    return [
        SearchRequest(backbone[0:3], tau=0.2),
        SearchRequest(backbone[10:12], top_k=3),
        SearchRequest(backbone[:2], tau=0.05),  # below tau_min: ThresholdError
        SearchRequest(backbone[20:24], tau=0.3),
        SearchRequest(backbone[:8], tau=0.2),  # over max_pattern_len=6
        SearchRequest(backbone[31:33], tau=0.1, top_k=5),
        SearchRequest(backbone[40:41]),
    ]


#: Expected error type per position of :func:`_mixed_window` (None: answers).
MIXED_ERRORS = [None, None, ThresholdError, None, PatternTooLongError, None, None]


def _assert_close_to_flat(matches, reference):
    """Same answer as the unsharded engine, up to the last ulps of a value.

    Chunk shards sum their log-probabilities from shard-local origins
    (see ``repro.api.sharding``), so values may differ in the last bits.
    """
    assert len(matches) == len(reference)
    for got, want in zip(matches, reference):
        assert math.isclose(got.probability, want.probability, rel_tol=1e-9, abs_tol=1e-12)
    assert sorted(m.position for m in matches) == sorted(m.position for m in reference)


def _dispatches(engine):
    return engine.resilience_stats()["dispatches"]


class TestDispatchCount:
    @pytest.mark.parametrize(("max_workers", "expected"), [(1, 1), (None, 2)])
    def test_process_window_costs_one_message_per_worker(
        self, string, max_workers, expected
    ):
        engine = _sharded(string, "process", max_workers=max_workers)
        try:
            results = engine.search_many(_distinct_requests(string))
            assert len({result.request for result in results}) == 8
            for result in results:
                result.matches
            assert _dispatches(engine) == expected
            # A lone search is the window of one: the same cost again.
            engine.search(SearchRequest("A", tau=0.2)).matches
            assert _dispatches(engine) == 2 * expected
        finally:
            engine.close()

    @pytest.mark.parametrize("max_workers", [1, None])
    def test_thread_window_costs_one_task_per_shard(self, string, max_workers):
        engine = _sharded(string, "thread", max_workers=max_workers)
        try:
            for result in engine.search_many(_distinct_requests(string)):
                result.matches
            assert _dispatches(engine) == 2
        finally:
            engine.close()

    def test_dispatch_counter_is_exported(self, string):
        engine = _sharded(string, "thread")
        try:
            engine.search(SearchRequest("AB", tau=0.2)).matches
            samples = {sample.name: sample for sample in engine.metrics_samples()}
            assert samples["sharding_dispatches_total"].value == 2
        finally:
            engine.close()


@pytest.mark.parametrize("executor", EXECUTORS)
class TestWindowSemantics:
    def test_mixed_window_matches_lone_searches(self, string, flat, executor):
        engine = _sharded(string, executor)
        try:
            window = _mixed_window(string)
            results = engine.search_many(window)
            outcomes = []
            for result in results:
                try:
                    outcomes.append(result.matches)
                except Exception as error:  # noqa: BLE001 — compared below
                    outcomes.append(error)
            for request, outcome, error_type in zip(window, outcomes, MIXED_ERRORS):
                if error_type is not None:
                    assert isinstance(outcome, error_type), (request, outcome)
                    with pytest.raises(error_type):
                        engine.search(request).matches
                    continue
                # Byte-identical to the same request searched on its own...
                assert outcome == engine.search(request).matches, request
                # ...and the unsharded engine's answer.
                _assert_close_to_flat(outcome, flat.search(request).matches)
        finally:
            engine.close()

    def test_mixed_window_through_the_service(self, string, executor):
        engine = _sharded(string, executor, max_workers=1)
        try:
            window = _mixed_window(string)
            expected = []
            for request in window:
                try:
                    expected.append(engine.search(request).matches)
                except Exception as error:  # noqa: BLE001 — compared below
                    expected.append(error)
            before = _dispatches(engine)

            async def go():
                async with AsyncSearchService(engine, max_wait_ms=20.0) as service:
                    answers = await asyncio.gather(
                        *(service.submit(request) for request in window),
                        return_exceptions=True,
                    )
                    return answers, service.stats()

            answers, stats = asyncio.run(go())
            assert stats["batches"] == 1
            for request, answer, want in zip(window, answers, expected):
                if isinstance(want, Exception):
                    assert type(answer) is type(want), request
                else:
                    assert answer.matches == want, request
            # One window: one message to the single worker, or one task
            # per shard thread.
            assert _dispatches(engine) - before == (1 if executor == "process" else 2)
        finally:
            engine.close()

    def test_cached_request_is_never_sent(self, string, executor):
        engine = _sharded(string, executor, cache_size=64, max_workers=1)
        try:
            warm, *cold = _distinct_requests(string, count=3)
            expected = engine.search(warm).matches
            sent = []
            evaluate_window = engine._evaluate_window

            def recording(requests):
                sent.append(list(requests))
                return evaluate_window(requests)

            engine._evaluate_window = recording
            before = _dispatches(engine)
            results = engine.search_many([warm, *cold])
            assert [result.matches for result in results][0] == expected
            assert sent == [cold]
            assert _dispatches(engine) - before == (1 if executor == "process" else 2)
            assert engine.cache.stats()["hits"] == 1
        finally:
            engine.close()

    def test_timeout_bounds_only_its_own_wait(self, string, executor):
        engine = _sharded(string, executor)
        try:
            bounded, unbounded = _distinct_requests(string, count=2)
            expected = engine.search(unbounded).matches  # also warms the pools
            bounded = SearchRequest(bounded.pattern, tau=bounded.tau, timeout_ms=100.0)
            # Keep every shard worker busy for a while, so the window's
            # replies queue behind the blockers.
            if executor == "process":
                pools = engine._ensure_process_pools()
                blockers = [pool.submit(time.sleep, 0.8) for pool in pools]
            else:
                pool = engine._thread_pool()
                blockers = [pool.submit(time.sleep, 0.8) for _ in engine.shards]
            first, second = engine.search_many([bounded, unbounded])
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                first.matches
            assert time.perf_counter() - started < 0.6
            assert second.matches == expected
            for blocker in blockers:
                blocker.result()
        finally:
            engine.close()

    def test_timeout_bounds_only_its_own_wait_during_recovery(self, string, executor):
        engine = _sharded(string, executor, max_workers=1, worker_retry_backoff_s=0.5)
        try:
            bounded, unbounded = _distinct_requests(string, count=2)
            expected = engine.search(unbounded).matches
            bounded = SearchRequest(bounded.pattern, tau=bounded.tau, timeout_ms=200.0)
            # Shard 0's first dispatch fails: the window retries after a
            # 0.5 s backoff, which the 200 ms budget cannot cover.
            plan = FaultPlan(specs=(FaultSpec(SITE_WORKER_DISPATCH, at=0, times=1),))
            with inject_faults(plan) as injector:
                first, second = engine.search_many([bounded, unbounded])
                started = time.perf_counter()
                with pytest.raises(DeadlineExceededError, match="recovering"):
                    first.matches
                assert time.perf_counter() - started < 0.4
                assert second.matches == expected
            assert injector.stats()["fired"] == {SITE_WORKER_DISPATCH: 1}
        finally:
            engine.close()

    def test_traced_window_shares_one_fan_out_span(self, string, executor):
        engine = _sharded(string, executor)
        try:
            traces = [Trace(), Trace()]
            requests = [
                SearchRequest(request.pattern, tau=request.tau, trace=trace)
                for request, trace in zip(_distinct_requests(string, count=2), traces)
            ]
            for result in engine.search_many(requests):
                result.matches
            fan_outs = [
                [r for r in trace.records() if r["name"] == "fan_out"] for trace in traces
            ]
            assert all(len(spans) == 1 for spans in fan_outs)
            (first,), (second,) = fan_outs
            assert first["duration_ms"] == second["duration_ms"]
            assert first["meta"]["requests"] == 2
            for trace in traces:
                shards = [r for r in trace.records() if r["name"] == "shard"]
                assert sorted(r["meta"]["shard"] for r in shards) == [0, 1]
                assert all(r["meta"]["executor"] == executor for r in shards)
                assert {"plan", "merge"} <= {r["name"] for r in trace.records()}
        finally:
            engine.close()


class TestConcurrentTouches:
    def test_threads_touching_one_window_send_it_once(self, string):
        engine = _sharded(string, "thread")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            requests = _distinct_requests(string)
            expected = [engine.search(request).matches for request in requests]
            for _ in range(20):
                before = _dispatches(engine)
                results = engine.search_many(requests)
                answers = [None] * len(results)

                def touch(position):
                    answers[position] = results[position].matches

                threads = [
                    threading.Thread(target=touch, args=(position,))
                    for position in range(len(results))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert answers == expected
                # One task per shard: a second dispatch would read 4.
                assert _dispatches(engine) - before == 2
        finally:
            sys.setswitchinterval(interval)
            engine.close()
