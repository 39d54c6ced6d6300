"""Answers stay arrays from the kernel to the wire.

Two guards over ``SearchHttpApp.dispatch``:

* serving a ``/search`` request builds no ``Occurrence`` / ``ListingMatch``
  record in the serving process — not on a cache miss, a cache hit, a
  refined listing window, a ``top_k`` request or a paged one, unsharded or
  thread- / process-sharded;
* every served body equals the body rendered from the record path: the
  records of ``result.matches``, in the ``{"position", "probability"}`` /
  ``{"document", "relevance"}`` wire shape, through the same
  ``json.dumps(..., sort_keys=True)``, over every index kind, wide and
  compact, eager and mmap, unsharded and thread- / process-sharded, with
  the result cache on and off, and for a degraded partial answer.
"""

import asyncio
import json
import random

import pytest

from repro.api import SearchRequest, build_index, build_sharded_index, load_index
from repro.api.requests import PartialAnswer
from repro.core.base import ListingMatch, Occurrence
from repro.faults import SITE_WORKER_DISPATCH, FaultPlan, FaultSpec, inject_faults
from repro.serving import AsyncSearchService, SearchHttpApp
from tests.conftest import make_random_special_string, make_random_uncertain_string

#: Wall-clock bound for one dispatch: a hang must fail, not stall the suite.
WATCHDOG_S = 30.0


def _serve(engine, targets, *, together=False):
    """Dispatch GET ``targets`` through a started service; returns responses.

    ``together`` sends them at once, so they share one service window.
    """

    async def go():
        # A window long enough to gather concurrent requests, and none to
        # wait out for sequential ones.
        async with AsyncSearchService(engine, max_wait_ms=5.0 if together else 0.2) as service:
            app = SearchHttpApp(service)
            if together:
                return await asyncio.wait_for(
                    asyncio.gather(*(app.dispatch("GET", target) for target in targets)),
                    WATCHDOG_S,
                )
            responses = []
            for target in targets:
                responses.append(
                    await asyncio.wait_for(app.dispatch("GET", target), WATCHDOG_S)
                )
            return responses

    return asyncio.run(go())


def _target(pattern, tau=None, top_k=None, offset=None, limit=None):
    params = [f"pattern={pattern}"]
    for name, value in (("tau", tau), ("top_k", top_k), ("offset", offset), ("limit", limit)):
        if value is not None:
            params.append(f"{name}={value}")
    return "/search?" + "&".join(params)


def _record_json(match):
    """The wire dict of one record, built from the record's own fields."""
    if isinstance(match, Occurrence):
        return {"position": match.position, "probability": match.probability}
    return {"document": match.document, "relevance": match.relevance}


def _record_body(result, offset=0, limit=None):
    """The body the record path renders for ``result``'s page."""
    request = result.request
    matches = result.matches
    records = list(matches)
    page = records[offset:] if limit is None else records[offset : offset + limit]
    payload = {
        "pattern": request.pattern,
        "tau": request.tau,
        "top_k": request.top_k,
        "count": len(records),
        "offset": offset,
        "limit": limit,
        "matches": [_record_json(match) for match in page],
    }
    if isinstance(matches, PartialAnswer):
        payload["partial"] = True
        payload["failed_shards"] = list(matches.failed_shards)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


# -- inputs ---------------------------------------------------------------------

SPECIAL = make_random_special_string(400, 3, alphabet="ACGT", min_probability=0.5)
GENERAL = make_random_uncertain_string(300, 0.3, seed=4)
DOCUMENTS = [
    make_random_uncertain_string(random.Random(seed).randint(15, 40), 0.4, seed=60 + seed)
    for seed in range(12)
]


def _patterns(kind):
    if kind == "listing":
        text = DOCUMENTS[0].most_likely_string()
        return [text[:1], text[2:4]]
    text = {
        "special": SPECIAL.text,
        "general": GENERAL.most_likely_string(),
        "approximate": GENERAL.most_likely_string(),
    }[kind]
    return [text[:1], text[10:12]]


KIND_INPUTS = {
    "special": (SPECIAL, {}),
    "general": (GENERAL, {"tau_min": 0.05}),
    "approximate": (GENERAL, {"tau_min": 0.05, "epsilon": 0.02}),
    "listing": (DOCUMENTS, {"tau_min": 0.05}),
}


def _wire_requests(kind):
    """(target, offset, limit) triples: plain, ranked, paged, past the end."""
    requests = []
    for pattern in _patterns(kind):
        requests += [
            (_target(pattern, tau=0.05), 0, None),
            (_target(pattern, tau=0.2, top_k=3), 0, None),
            (_target(pattern, tau=0.05, offset=1, limit=2), 1, 2),
            (_target(pattern, tau=0.1, top_k=4, offset=2, limit=1), 2, 1),
            (_target(pattern, top_k=10**20), 0, None),
            (_target(pattern, tau=0.05, offset=10**6, limit=3), 10**6, 3),
        ]
    return requests


# -- record counting ------------------------------------------------------------


@pytest.fixture
def record_count(monkeypatch):
    """Counts every Occurrence / ListingMatch built while the test runs."""
    built = {"records": 0}
    for cls in (Occurrence, ListingMatch):
        original = cls.__post_init__

        def counting(self, _original=original):
            built["records"] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


@pytest.fixture(scope="module")
def record_free_engines():
    special = build_index(SPECIAL)
    general = build_index(GENERAL, tau_min=0.05, kind="general")
    listing = build_index(DOCUMENTS, tau_min=0.05)
    sharded = {}
    for executor in ("thread", "process"):
        sharded[f"general-{executor}"] = build_sharded_index(
            GENERAL, shards=2, tau_min=0.05, kind="general", max_pattern_len=6,
            query_executor=executor, max_workers=1,
        )
        sharded[f"listing-{executor}"] = build_sharded_index(
            DOCUMENTS, shards=2, tau_min=0.05, query_executor=executor, max_workers=1,
        )
    yield {"special": special, "general": general, "listing": listing, **sharded}
    for engine in sharded.values():
        engine.close()


class TestRecordFreeServing:
    @pytest.mark.parametrize(
        "name",
        [
            "special",
            "general",
            "listing",
            "general-thread",
            "general-process",
            "listing-thread",
            "listing-process",
        ],
    )
    def test_serving_builds_no_record(self, record_free_engines, record_count, name):
        engine = record_free_engines[name]
        engine.cache.clear()
        pattern = _patterns(name.split("-")[0])[1]
        miss = _target(pattern, tau=0.05)
        responses = _serve(
            engine,
            [
                miss,  # cache miss
                miss,  # cache hit
                _target(pattern, tau=0.1, top_k=3),
                _target(pattern, tau=0.05, offset=1, limit=2),
            ],
        )
        # One window, one pattern, several thresholds: refined on listing
        # engines (one traversal at the lowest tau, the rest filtered).
        responses += _serve(
            engine, [_target(pattern, tau=tau) for tau in (0.06, 0.15, 0.3)], together=True
        )
        assert [response.status for response in responses] == [200] * 7
        assert responses[0].payload["count"] > 2  # a real answer was served
        assert responses[1].body() == responses[0].body()
        assert engine.cache.stats()["hits"] >= 1
        assert record_count["records"] == 0
        # The guard counts: the record path would have built them.
        result = engine.search(SearchRequest(pattern, tau=0.05))
        assert len(result.matches) == responses[0].payload["count"]
        assert record_count["records"] == responses[0].payload["count"]


# -- byte identity with the record path ----------------------------------------


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Per (kind, layout): an unsharded and a 2-shard sharded archive."""
    directory = tmp_path_factory.mktemp("wire")
    paths = {}
    for kind, (data, options) in KIND_INPUTS.items():
        for compact in (False, True):
            layout = "compact" if compact else "wide"
            engine = build_index(data, compact=compact, **options)
            assert engine.kind == kind
            paths[kind, layout, None] = engine.save(directory / f"{kind}-{layout}")
            sharded = build_sharded_index(
                data, shards=2, compact=compact, max_pattern_len=6, **options
            )
            paths[kind, layout, "shards"] = sharded.save(directory / f"{kind}-{layout}-shards")
            sharded.close()
    return paths


@pytest.mark.parametrize("executor", [None, "thread", "process"])
@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("layout", ["wide", "compact"])
@pytest.mark.parametrize("kind", sorted(KIND_INPUTS))
def test_served_bodies_equal_the_record_path(archives, kind, layout, mmap, executor):
    requests = _wire_requests(kind)
    for cache_size in (0, 64):
        if executor is None:
            engine = load_index(archives[kind, layout, None], mmap=mmap, cache_size=cache_size)
        else:
            engine = load_index(
                archives[kind, layout, "shards"],
                mmap=mmap,
                cache_size=cache_size,
                query_executor=executor,
            )
        try:
            assert engine.kind == kind
            responses = _serve(engine, [target for target, _, _ in requests])
            for (target, offset, limit), response in zip(requests, responses):
                assert response.status == 200, (target, response.payload)
                parsed = SearchRequest(
                    response.payload["pattern"],
                    tau=response.payload["tau"],
                    top_k=response.payload["top_k"],
                )
                expected = _record_body(engine.search(parsed), offset, limit)
                assert response.body() == expected, target
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_degraded_body_equals_the_record_path(executor):
    engine = build_sharded_index(
        GENERAL,
        shards=3,
        tau_min=0.05,
        kind="general",
        max_pattern_len=6,
        cache_size=0,
        partial=True,
        worker_retries=0,
        query_executor=executor,
    )
    try:
        pattern = _patterns("general")[1]
        target = _target(pattern, tau=0.05, offset=1, limit=3)
        engine.search(SearchRequest(pattern, tau=0.05)).arrays  # start the workers

        def fault_on_shard_one():
            # worker-dispatch fires once per shard in shard order: ordinal
            # 1 is shard 1 of the next fan-out.
            plan = FaultPlan(specs=(FaultSpec(SITE_WORKER_DISPATCH, at=1, times=1),), seed=3)
            return inject_faults(plan)

        with fault_on_shard_one():
            (response,) = _serve(engine, [target])
        with fault_on_shard_one():
            result = engine.search(SearchRequest(pattern, tau=0.05))
            expected = _record_body(result, 1, 3)
        assert response.status == 200
        assert response.payload["partial"] is True
        assert response.payload["failed_shards"] == [1]
        assert response.body() == expected
    finally:
        engine.close()
