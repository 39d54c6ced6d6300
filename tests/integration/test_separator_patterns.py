"""A pattern that holds the factor separator matches nothing.

The general, approximate and listing kinds index the maximal factors of
their input concatenated with ``"\\x01"`` after each one.  A pattern holding
that separator can only match the transformed text across a factor
boundary, which is no occurrence in the source: every kind, eager, mmap and
sharded, must answer it empty, as the possible-worlds oracle does.
"""

import asyncio
import random
from urllib.parse import quote

import pytest

from repro.api import build_index, load_index
from repro.api.sharding import build_sharded_index
from repro.core.baseline import BruteForceOracle
from repro.core.factors import DEFAULT_SEPARATOR
from repro.datasets.synthetic import generate_collection, generate_uncertain_string
from repro.serving import AsyncSearchService, SearchHttpApp

TAUS = (0.1, 0.3)


def spanning_patterns(text, count, seed):
    """Windows of the transformed ``text`` that straddle a separator."""
    rng = random.Random(seed)
    separators = [i for i, c in enumerate(text) if c == DEFAULT_SEPARATOR and 3 <= i < len(text) - 3]
    patterns = {DEFAULT_SEPARATOR, text[separators[0] - 2 : separators[0] + 1]}
    while len(patterns) < count:
        at = rng.choice(separators)
        patterns.add(text[at - rng.randint(0, 3) : at + 1 + rng.randint(0, 3)])
    return sorted(patterns)


@pytest.fixture(scope="module")
def string():
    return generate_uncertain_string(300, theta=0.3, seed=1)


@pytest.fixture(scope="module")
def collection():
    return generate_collection(600, theta=0.4, seed=1)


def engines(kind_engine, tmp_path_factory, sharded):
    """The engine as built, loaded back memory-mapped, and sharded."""
    yield "eager", kind_engine
    path = kind_engine.save(tmp_path_factory.mktemp("separator") / "index")
    yield "mmap", load_index(path, mmap=True)
    yield "sharded", sharded


def assert_answers_empty(engine, patterns, expected):
    for pattern in patterns:
        for tau in TAUS:
            assert expected(pattern, tau) == []
            assert engine.query(pattern, tau) == [], (pattern, tau)
            assert engine.top_k(pattern, 5, tau=tau) == [], (pattern, tau)


@pytest.mark.parametrize("kind", ["general", "approximate"])
def test_substring_kinds_answer_empty(kind, string, tmp_path_factory):
    options = {"epsilon": 0.05} if kind == "approximate" else {}
    engine = build_index(string, tau_min=0.1, **options)
    assert engine.kind == kind
    text = engine.index.transformed.text
    patterns = spanning_patterns(text, 40, seed=7)
    if kind == "general":
        # The pattern that reported position 5 (p ~ 0.238) here.
        patterns.append("VW\x01H")
        assert "VW\x01H" in text
    oracle = BruteForceOracle(string=string)
    with build_sharded_index(string, shards=2, tau_min=0.1, **options) as sharded:
        for mode, candidate in engines(engine, tmp_path_factory, sharded):
            assert_answers_empty(
                candidate,
                patterns,
                lambda pattern, tau: oracle.substring_occurrences(pattern, tau),
            )


def test_listing_answers_empty(collection, tmp_path_factory):
    engine = build_index(collection, tau_min=0.1)
    assert engine.kind == "listing"
    patterns = spanning_patterns(engine.index.transformed.text, 60, seed=11)
    oracle = BruteForceOracle(collection=collection)
    with build_sharded_index(collection, shards=2, tau_min=0.1) as sharded:
        for mode, candidate in engines(engine, tmp_path_factory, sharded):
            assert_answers_empty(
                candidate,
                patterns,
                lambda pattern, tau: oracle.listing_matches(pattern, tau),
            )


def test_http_search_answers_empty(collection):
    engine = build_index(collection, tau_min=0.1)
    pattern = spanning_patterns(engine.index.transformed.text, 2, seed=3)[-1]

    async def go():
        service = AsyncSearchService(engine)
        await service.start()
        try:
            return await SearchHttpApp(service).dispatch(
                "GET", f"/search?pattern={quote(pattern)}&tau=0.1"
            )
        finally:
            await service.stop()

    response = asyncio.run(go())
    assert response.status == 200
    assert response.payload["count"] == 0
    assert response.payload["matches"] == []
