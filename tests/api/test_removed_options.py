"""Options that no caller set are gone: passing one raises ``TypeError``.

``build_index`` and ``build_sharded_index`` forward unknown keywords to
the index constructor (``**options``), which refuses them; the other entry
points have no ``**`` catch-all at all.
"""

import time

import pytest

from repro import GeneralUncertainStringIndex, SpecialUncertainStringIndex
from repro.api import Engine, ShardedEngine, build_index, build_sharded_index, load_index
from repro.api.cache import ResultCache
from repro.serving import AsyncSearchService
from repro.serving.http import SearchHttpApp
from repro.strings import SpecialUncertainString
from tests.conftest import make_random_uncertain_string

REMOVED_BUILD_OPTIONS = {
    "cache_ttl_seconds": 1.0,
    "space_budget_bytes": 10,
    "long_pattern_mode": "error",
}

INPUTS = {
    "special": lambda: "banana" * 4,
    "general": lambda: make_random_uncertain_string(30, 0.3, seed=1),
}


def build_sharded(data, **options):
    return build_sharded_index(data, shards=2, max_pattern_len=4, **options)


@pytest.mark.parametrize("builder", [build_index, build_sharded], ids=["single", "sharded"])
@pytest.mark.parametrize("shape", sorted(INPUTS))
@pytest.mark.parametrize("option", sorted(REMOVED_BUILD_OPTIONS))
def test_builders_refuse_removed_options(builder, shape, option):
    with pytest.raises(TypeError, match=option):
        builder(INPUTS[shape](), **{option: REMOVED_BUILD_OPTIONS[option]})


def test_load_index_refuses_a_cache_ttl(tmp_path):
    path = build_index("banana" * 4).save(tmp_path / "ttl")
    with pytest.raises(TypeError, match="cache_ttl_seconds"):
        load_index(path, cache_ttl_seconds=1)


def test_result_cache_refuses_a_ttl():
    with pytest.raises(TypeError, match="ttl_seconds"):
        ResultCache(4, ttl_seconds=1)


def test_http_app_refuses_trace_all():
    service = AsyncSearchService(build_index("banana" * 4))
    with pytest.raises(TypeError, match="trace_all"):
        SearchHttpApp(service, trace_all=True)


def test_engine_refuses_a_cache_ttl():
    built = build_index("banana" * 4)
    with pytest.raises(TypeError, match="cache_ttl_seconds"):
        Engine(built.index, built.plan, cache_ttl_seconds=1)


def test_sharded_engine_refuses_a_cache_ttl():
    built = build_sharded(INPUTS["special"]())
    try:
        with pytest.raises(TypeError, match="cache_ttl_seconds"):
            ShardedEngine(built.shards, built.spec, built.plan, cache_ttl_seconds=1)
    finally:
        built.close()


def save_sharded(data, path):
    built = build_sharded(data)
    try:
        return built.save(path)
    finally:
        built.close()


@pytest.mark.parametrize(
    "save, engine_class",
    [(lambda data, path: build_index(data).save(path), Engine), (save_sharded, ShardedEngine)],
    ids=["Engine.load", "ShardedEngine.load"],
)
def test_engine_loaders_refuse_a_cache_ttl(tmp_path, save, engine_class):
    path = save("banana" * 4, tmp_path / "ttl")
    with pytest.raises(TypeError, match="cache_ttl_seconds"):
        engine_class.load(path, cache_ttl_seconds=1)


def test_result_cache_refuses_a_clock():
    with pytest.raises(TypeError, match="clock"):
        ResultCache(4, clock=time.monotonic)


def test_special_index_refuses_long_pattern_mode():
    string = SpecialUncertainString.from_deterministic("banana" * 4)
    with pytest.raises(TypeError, match="long_pattern_mode"):
        SpecialUncertainStringIndex(string, long_pattern_mode="error")


def test_general_index_refuses_long_pattern_mode():
    string = INPUTS["general"]()
    with pytest.raises(TypeError, match="long_pattern_mode"):
        GeneralUncertainStringIndex(string, 0.1, long_pattern_mode="error")
