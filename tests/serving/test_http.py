"""HTTP tier: routes, the exception→status contract, pagination, sockets.

Most tests drive :meth:`SearchHttpApp.dispatch` in-process — the same
transport the load generator and the CI perf smoke use — so the whole
HTTP surface is covered without binding a port; one class round-trips
through a real :class:`SearchHttpServer` socket to pin the transport.
"""

import asyncio
import json
import random
import threading

import pytest

from repro.api import SearchRequest, build_index
from repro.exceptions import (
    AlphabetError,
    DeadlineExceededError,
    DrainTimeoutError,
    NoHealthyReplicaError,
    PatternTooLongError,
    QueryError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ThresholdError,
    ValidationError,
    WorkerError,
)
from repro.serving import (
    AsyncSearchService,
    ReplicaSet,
    SearchHttpApp,
    SearchHttpServer,
    status_for_exception,
)
from repro.serving.http import HttpResponse, _parse_search, match_to_json
from tests.conftest import make_random_uncertain_string


@pytest.fixture(scope="module")
def listing_engine():
    rng = random.Random(11)
    documents = [
        make_random_uncertain_string(rng.randint(12, 30), 0.3, seed=seed)
        for seed in range(6)
    ]
    return build_index(documents, tau_min=0.05)


def _with_app(engine, handler, **service_kwargs):
    """Run ``handler(app)`` inside a started service; returns its result."""

    async def go():
        async with AsyncSearchService(engine, **service_kwargs) as service:
            return await handler(SearchHttpApp(service))

    return asyncio.run(go())


class TestStatusMapping:
    @pytest.mark.parametrize(
        ("error", "status"),
        [
            (ServiceOverloadedError("full"), 429),
            (ServiceStoppedError("stopped"), 503),
            (NoHealthyReplicaError("none"), 503),
            (DrainTimeoutError("drain"), 503),
            (DeadlineExceededError("late"), 504),
            (PatternTooLongError("long"), 400),
            (ThresholdError("tau"), 400),
            (AlphabetError("sigma"), 400),
            (ValidationError("bad"), 400),
            (QueryError("query"), 400),
            (WorkerError("worker"), 500),  # ReproError without its own row
            (RuntimeError("boom"), 500),  # outside the taxonomy entirely
        ],
    )
    def test_fixed_mapping(self, error, status):
        assert status_for_exception(error) == status

    def test_subclasses_precede_bases(self):
        # PatternTooLongError is a QueryError and ThresholdError is a
        # ValidationError: both must hit their own (or their parent 400)
        # row before the generic ReproError→500 row.
        assert status_for_exception(PatternTooLongError("x")) == 400
        assert status_for_exception(ThresholdError("x")) == 400


class TestRoutes:
    def test_healthz_while_running(self, listing_engine):
        async def handler(app):
            return await app.dispatch("GET", "/healthz")

        response = _with_app(listing_engine, handler)
        assert response.status == 200
        assert response.payload == {"status": "ok", "running": True}

    def test_healthz_after_stop_is_503(self, listing_engine):
        async def go():
            service = AsyncSearchService(listing_engine)
            await service.start()
            await service.stop()
            return await SearchHttpApp(service).dispatch("GET", "/healthz")

        response = asyncio.run(go())
        assert response.status == 503
        assert response.payload["status"] == "stopped"

    def test_search_get_matches_engine(self, listing_engine):
        request = SearchRequest("A", tau=0.1)

        async def handler(app):
            return await app.dispatch("GET", "/search?pattern=A&tau=0.1")

        response = _with_app(listing_engine, handler)
        expected = listing_engine.search(request).matches
        assert response.status == 200
        assert response.payload["count"] == len(expected)
        assert response.payload["matches"] == [match_to_json(m) for m in expected]
        assert response.payload["pattern"] == "A"
        assert response.payload["tau"] == 0.1

    def test_search_post_equals_get(self, listing_engine):
        async def handler(app):
            get = await app.dispatch("GET", "/search?pattern=A&tau=0.2&top_k=3")
            post = await app.dispatch(
                "POST",
                "/search",
                json.dumps({"pattern": "A", "tau": 0.2, "top_k": 3}).encode(),
            )
            return get, post

        get, post = _with_app(listing_engine, handler)
        assert get.status == post.status == 200
        assert get.payload == post.payload

    def test_pagination_over_the_wire(self, listing_engine):
        request = SearchRequest("A", tau=0.1)
        expected = listing_engine.search(request).matches

        async def handler(app):
            return await app.dispatch("GET", "/search?pattern=A&tau=0.1&offset=1&limit=2")

        response = _with_app(listing_engine, handler)
        assert response.payload["count"] == len(expected)  # count is pre-paging
        assert response.payload["offset"] == 1
        assert response.payload["limit"] == 2
        assert response.payload["matches"] == [
            match_to_json(m) for m in expected[1:3]
        ]

    def test_stats_merges_service_and_engine(self, listing_engine):
        replicas = ReplicaSet([listing_engine])

        async def handler(app):
            await app.dispatch("GET", "/search?pattern=A&tau=0.1")
            return await app.dispatch("GET", "/stats")

        try:
            response = _with_app(replicas, handler)
        finally:
            replicas.close(close_engines=False)
        assert response.status == 200
        assert response.payload["service"]["completed"] == 1
        assert response.payload["engine"]["replica_count"] == 1

    def test_unknown_path_is_404(self, listing_engine):
        async def handler(app):
            return await app.dispatch("GET", "/nope")

        response = _with_app(listing_engine, handler)
        assert response.status == 404
        assert response.payload["error"]["status"] == 404

    def test_wrong_method_is_405_with_allow(self, listing_engine):
        async def handler(app):
            return (
                await app.dispatch("DELETE", "/search"),
                await app.dispatch("POST", "/healthz"),
            )

        search, healthz = _with_app(listing_engine, handler)
        assert search.status == 405
        assert dict(search.headers)["Allow"] == "GET, POST"
        assert healthz.status == 405


class TestRequestValidation:
    @pytest.mark.parametrize(
        "target",
        [
            "/search",  # pattern missing
            "/search?pattern=A&tau=nope",  # tau not a number
            "/search?pattern=A&tau=2.0",  # tau out of range
            "/search?pattern=A&top_k=0",  # top_k not positive
            "/search?pattern=A&offset=-1",  # negative offset
            "/search?pattern=A&limit=-1",  # negative limit
            "/search?pattern=A&taau=0.3",  # unknown parameter
            "/search?pattern=A&tau=0.1&tau=0.2",  # repeated parameter
        ],
    )
    def test_bad_get_parameters_are_400(self, listing_engine, target):
        async def handler(app):
            return await app.dispatch("GET", target)

        response = _with_app(listing_engine, handler)
        assert response.status == 400
        assert response.payload["error"]["status"] == 400

    @pytest.mark.parametrize("body", [None, b"", b"not json", b"[1, 2]"])
    def test_bad_post_bodies_are_400(self, listing_engine, body):
        async def handler(app):
            return await app.dispatch("POST", "/search", body)

        response = _with_app(listing_engine, handler)
        assert response.status == 400

    def test_threshold_error_end_to_end(self, listing_engine):
        async def handler(app):
            return await app.dispatch("GET", "/search?pattern=A&tau=0.001")

        response = _with_app(listing_engine, handler)
        assert response.status == 400
        assert response.payload["error"]["type"] == "ThresholdError"

    def test_stopped_service_maps_to_503(self, listing_engine):
        async def go():
            service = AsyncSearchService(listing_engine)
            await service.start()
            await service.stop()
            return await SearchHttpApp(service).dispatch(
                "GET", "/search?pattern=A&tau=0.1"
            )

        response = asyncio.run(go())
        assert response.status == 503
        assert response.payload["error"]["type"] == "ServiceStoppedError"

    def test_overload_maps_to_429(self, listing_engine):
        gate = threading.Event()

        class _Gated:
            def __getattr__(self, name):
                return getattr(listing_engine, name)

            def search_many(self, requests):
                assert gate.wait(timeout=10.0)
                return listing_engine.search_many(requests)

        async def go():
            async with AsyncSearchService(
                _Gated(), max_wait_ms=0.0, max_batch=1, max_pending=1
            ) as service:
                app = SearchHttpApp(service)
                first = asyncio.ensure_future(
                    app.dispatch("GET", "/search?pattern=A&tau=0.1")
                )
                # Let the first request enter its window and block in the
                # gated engine, holding the single admission slot.
                for _ in range(50):
                    await asyncio.sleep(0.001)
                    if service.stats()["in_flight"] == 1:
                        break
                second = await app.dispatch("GET", "/search?pattern=A&tau=0.1")
                gate.set()
                return await first, second

        first, second = asyncio.run(go())
        assert first.status == 200
        assert second.status == 429
        assert second.payload["error"]["type"] == "ServiceOverloadedError"


class TestHttpResponse:
    def test_encode_shape(self):
        response = HttpResponse(200, {"a": 1}, headers=(("X-Extra", "y"),))
        raw = response.encode()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert b"X-Extra: y" in head
        assert json.loads(body) == {"a": 1}
        assert f"Content-Length: {len(body)}".encode() in head
        assert response.ok

    def test_unknown_status_reason(self):
        assert HttpResponse(418, {}).reason == "Unknown"


class TestDeadlinesOverHttp:
    def test_expired_timeout_ms_answers_504(self, listing_engine):
        async def handler(app):
            body = json.dumps(
                {"pattern": "A", "tau": 0.1, "timeout_ms": 0.001}
            ).encode("utf-8")
            return await app.dispatch("POST", "/search", body)

        # A 50ms batch window dwarfs the microscopic budget, so the
        # watchdog deterministically fires before dispatch.
        response = _with_app(listing_engine, handler, max_wait_ms=50.0)
        assert response.status == 504
        assert response.payload["error"]["type"] == "DeadlineExceededError"

    def test_invalid_timeout_ms_rejected(self, listing_engine):
        async def handler(app):
            negative = await app.dispatch(
                "POST",
                "/search",
                json.dumps({"pattern": "A", "tau": 0.1, "timeout_ms": -5}).encode(),
            )
            not_a_number = await app.dispatch(
                "POST",
                "/search",
                json.dumps(
                    {"pattern": "A", "tau": 0.1, "timeout_ms": "soon"}
                ).encode(),
            )
            return negative, not_a_number

        negative, not_a_number = _with_app(listing_engine, handler)
        assert negative.status == 400
        assert not_a_number.status == 400

    @pytest.mark.parametrize(
        "raw",
        ["nan", "inf", "1e13", float("nan"), 1e13],
        ids=["nan-query", "inf-query", "1e13-query", "nan-json", "1e13-json"],
    )
    def test_parse_rejects_non_finite_or_overlarge_timeout(self, raw):
        with pytest.raises(ValidationError, match=r"timeout_ms must be a finite"):
            _parse_search({"pattern": "A", "timeout_ms": raw})

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_non_finite_or_overlarge_timeout_is_400_on_sharded_engines(
        self, executor
    ):
        # Regression: NaN answered 504 (every deadline comparison is
        # false), and budgets beyond threading.TIMEOUT_MAX answered 500
        # from the executors' overflowing waits.
        from repro.api import build_sharded_index

        engine = build_sharded_index(
            make_random_uncertain_string(40, 0.3, seed=23),
            shards=2,
            tau_min=0.1,
            kind="general",
            max_pattern_len=4,
            query_executor=executor,
            cache_size=0,
        )
        try:

            async def handler(app):
                return [
                    await app.dispatch(
                        "GET", f"/search?pattern=A&tau=0.2&timeout_ms={raw}"
                    )
                    for raw in ("nan", "inf", "1e13", "9e12")
                ]

            *rejected, largest = _with_app(engine, handler)
        finally:
            engine.close()
        for response in rejected:
            assert response.status == 400
            assert response.payload["error"]["type"] == "ValidationError"
        assert largest.status == 200

    def test_generous_timeout_ms_answers_normally(self, listing_engine):
        async def handler(app):
            plain = await app.dispatch(
                "POST",
                "/search",
                json.dumps({"pattern": "A", "tau": 0.1}).encode(),
            )
            bounded = await app.dispatch(
                "POST",
                "/search",
                json.dumps(
                    {"pattern": "A", "tau": 0.1, "timeout_ms": 30_000.0}
                ).encode(),
            )
            return plain, bounded

        plain, bounded = _with_app(listing_engine, handler)
        assert plain.status == bounded.status == 200
        assert bounded.payload["matches"] == plain.payload["matches"]
        # Complete answers never carry the degradation keys.
        assert "partial" not in bounded.payload
        assert "failed_shards" not in bounded.payload


class TestSocketServer:
    def test_round_trip_and_keep_alive(self, listing_engine):
        async def go():
            async with AsyncSearchService(listing_engine, max_wait_ms=0.5) as service:
                async with SearchHttpServer(SearchHttpApp(service)) as server:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    responses = []
                    try:
                        for _ in range(2):  # two requests, one connection
                            writer.write(
                                b"GET /search?pattern=A&tau=0.1 HTTP/1.1\r\n"
                                b"Host: t\r\n\r\n"
                            )
                            await writer.drain()
                            status_line = await reader.readline()
                            length = 0
                            while True:
                                header = await reader.readline()
                                if header in (b"\r\n", b"\n"):
                                    break
                                name, _, value = header.decode().partition(":")
                                if name.strip().lower() == "content-length":
                                    length = int(value.strip())
                            body = await reader.readexactly(length)
                            responses.append((status_line, json.loads(body)))
                    finally:
                        writer.close()
                        await writer.wait_closed()
                    return responses

        responses = asyncio.run(go())
        expected = listing_engine.search(SearchRequest("A", tau=0.1)).matches
        for status_line, payload in responses:
            assert b"200" in status_line
            assert payload["count"] == len(expected)

    def test_server_accepts_service_directly_and_connection_close(self, listing_engine):
        async def go():
            async with AsyncSearchService(listing_engine, max_wait_ms=0.5) as service:
                async with SearchHttpServer(service) as server:
                    assert server.app.service is service
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    writer.write(
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                    )
                    await writer.drain()
                    raw = await reader.read()  # server closes after answering
                    writer.close()
                    await writer.wait_closed()
                    return raw

        raw = asyncio.run(go())
        assert raw.startswith(b"HTTP/1.1 200 OK")

    def test_garbage_request_line_closes_connection(self, listing_engine):
        async def go():
            async with AsyncSearchService(listing_engine) as service:
                async with SearchHttpServer(service) as server:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    writer.write(b"garbage\r\n\r\n")
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    return raw

        assert asyncio.run(go()) == b""

    def test_idle_timeout_closes_silent_connection_cleanly(self, listing_engine):
        async def go():
            async with AsyncSearchService(listing_engine) as service:
                async with SearchHttpServer(service, idle_timeout_s=0.2) as server:
                    assert server.idle_timeout_s == 0.2
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    # Send nothing: the server must close the connection
                    # itself once the idle window lapses.
                    raw = await asyncio.wait_for(reader.read(), timeout=10.0)
                    writer.close()
                    await writer.wait_closed()
                    return raw

        assert asyncio.run(go()) == b""  # clean close: no response bytes

    def test_idle_timeout_still_serves_prompt_requests(self, listing_engine):
        async def go():
            async with AsyncSearchService(listing_engine, max_wait_ms=0.5) as service:
                async with SearchHttpServer(service, idle_timeout_s=5.0) as server:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    writer.write(
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    return raw

        assert asyncio.run(go()).startswith(b"HTTP/1.1 200 OK")

    def test_invalid_idle_timeout_rejected(self, listing_engine):
        service = AsyncSearchService(listing_engine)
        with pytest.raises(ValidationError):
            SearchHttpServer(service, idle_timeout_s=0.0)

    def test_cold_process_pool_does_not_trap_open_connections(self):
        # Regression: the first query against a process-mode engine forks
        # the worker pool lazily — mid-connection, when driven over a
        # socket.  Forked workers inherit a duplicate of the accepted
        # connection's fd; unless they close it, the TCP session stays
        # established after the server's own close and a client reading to
        # EOF hangs forever.  The worker initializer must drop inherited
        # sockets, so this read-to-EOF completes.
        from repro.api import build_sharded_index

        engine = build_sharded_index(
            make_random_uncertain_string(40, 0.3, seed=23),
            shards=2,
            tau_min=0.1,
            kind="general",
            max_pattern_len=4,
            query_executor="process",
            cache_size=0,
        )
        try:

            async def go():
                async with AsyncSearchService(engine, max_wait_ms=0.5) as service:
                    async with SearchHttpServer(service) as server:
                        reader, writer = await asyncio.open_connection(
                            server.host, server.port
                        )
                        writer.write(
                            b"GET /search?pattern=A&tau=0.2 HTTP/1.1\r\n"
                            b"Host: t\r\nConnection: close\r\n\r\n"
                        )
                        await writer.drain()
                        # Pre-fix this never returned: the fork kept the
                        # connection open, so EOF never arrived.
                        raw = await asyncio.wait_for(reader.read(), timeout=30.0)
                        writer.close()
                        await writer.wait_closed()
                        return raw

            raw = asyncio.run(go())
            assert raw.startswith(b"HTTP/1.1 200 OK")
        finally:
            engine.close()
