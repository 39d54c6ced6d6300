"""Save/load round-trips: loaded indexes answer byte-identically."""

import json
import random
import zipfile

import numpy as np
import pytest

from repro.api import (
    FORMAT_NAME,
    FORMAT_VERSION,
    build_index,
    build_sharded_index,
    is_sharded_archive,
    load_index,
    load_index_payload,
    read_manifest,
    read_sharded_manifest,
    save_index_payload,
)
from repro.api.sharding import ShardedEngine
from repro.bench import workloads
from repro.exceptions import ValidationError
from repro.strings import (
    CorrelationModel,
    CorrelationRule,
    SpecialUncertainString,
    UncertainString,
    UncertainStringCollection,
)
from tests.conftest import (
    make_random_special_string,
    make_random_uncertain_string,
    rezip_archive,
    write_malformed_archives,
)


@pytest.fixture
def general_string():
    return UncertainString(
        [
            {"Q": 0.7, "S": 0.3},
            {"Q": 0.3, "P": 0.7},
            {"P": 1.0},
            {"A": 0.4, "F": 0.3, "P": 0.2, "Q": 0.1},
        ],
        name="figure10",
    )


def _assert_same_answers(engine, loaded, patterns, taus):
    for pattern in patterns:
        for tau in taus:
            assert engine.query(pattern, tau=tau) == loaded.query(pattern, tau=tau)
        assert engine.top_k(pattern, 3) == loaded.top_k(pattern, 3)


class TestRoundTrips:
    def test_special_round_trip(self, tmp_path):
        string = SpecialUncertainString(
            [("b", 0.4), ("a", 0.7), ("n", 0.5), ("a", 0.8), ("n", 0.9), ("a", 0.6)],
            name="banana",
        )
        engine = build_index(string)
        loaded = load_index(engine.save(tmp_path / "special"))
        _assert_same_answers(engine, loaded, ["a", "ana", "ban", "zzz"], [0.1, 0.3, 0.7])
        assert loaded.kind == "special"
        assert loaded.index.string.name == "banana"

    @pytest.mark.parametrize("mmap", [False, True])
    def test_simple_archive_rejected(self, tmp_path, mmap):
        # kind="simple" folded into the special index, which stores what
        # the simple index stored wherever no suffix range outgrows the
        # scans; an index/simple archive now fails loudly.
        path = build_index("banana" * 4).save(tmp_path / "simple")
        manifest = read_manifest(path)
        meta = manifest["payload"]["meta"]
        manifest["payload"]["meta"] = {
            "string": meta["string"],
            "correlations": meta["correlations"],
        }
        manifest["payload"]["schema"] = "index/simple"
        manifest["kind"] = manifest["plan"]["kind"] = "simple"
        rezip_archive(path, manifest=manifest)
        with pytest.raises(ValidationError, match="simple"):
            load_index(path, mmap=mmap)

    def test_general_round_trip(self, tmp_path, general_string):
        engine = build_index(general_string, tau_min=0.1)
        loaded = load_index(engine.save(tmp_path / "general"))
        _assert_same_answers(
            engine, loaded, ["QP", "PP", "P", "QPP", "ZZ"], [0.1, 0.25, 0.4]
        )
        assert loaded.index.transformed.text == engine.index.transformed.text
        assert loaded.index.tau_min == engine.index.tau_min

    def test_approximate_round_trip(self, tmp_path, general_string):
        engine = build_index(general_string, tau_min=0.1, epsilon=0.05)
        loaded = load_index(engine.save(tmp_path / "approx"))
        _assert_same_answers(engine, loaded, ["QP", "PP", "P"], [0.1, 0.3])
        assert loaded.index.link_count == engine.index.link_count
        assert loaded.index.epsilon == engine.index.epsilon
        # Verified (exact) answers survive too.
        assert loaded.index.query("QP", 0.4, verify=True) == engine.index.query(
            "QP", 0.4, verify=True
        )

    def test_listing_round_trip(self, tmp_path):
        collection = UncertainStringCollection(
            [
                UncertainString(
                    [
                        {"A": 0.4, "B": 0.3, "F": 0.3},
                        {"B": 0.3, "L": 0.3, "F": 0.3, "J": 0.1},
                        {"F": 0.5, "J": 0.5},
                    ],
                    name="d1",
                ),
                UncertainString(
                    [
                        {"A": 0.6, "C": 0.4},
                        {"B": 0.5, "F": 0.3, "J": 0.2},
                        {"B": 0.4, "C": 0.3, "E": 0.2, "F": 0.1},
                    ],
                    name="d2",
                ),
            ]
        )
        engine = build_index(collection, tau_min=0.05, metric="or")
        loaded = load_index(engine.save(tmp_path / "listing"))
        _assert_same_answers(engine, loaded, ["BF", "A", "F"], [0.05, 0.1, 0.5])
        assert loaded.index.metric == "or"
        assert loaded.index.collection.name_of(1) == "d2"

    def test_correlated_general_round_trip(self, tmp_path):
        string = UncertainString(
            [{"e": 0.6, "f": 0.4}, {"a": 1.0}, {"z": 0.5, "x": 0.5}],
            correlations=CorrelationModel(
                [CorrelationRule(2, "z", 0, "e", 0.3, 0.7)]
            ),
        )
        engine = build_index(string, tau_min=0.1)
        loaded = load_index(engine.save(tmp_path / "correlated"))
        assert bool(loaded.index.string.correlations)
        _assert_same_answers(engine, loaded, ["az", "eaz", "faz"], [0.1, 0.2])

    def test_loaded_plan_mentions_archive(self, tmp_path, general_string):
        engine = build_index(general_string, tau_min=0.1)
        loaded = load_index(engine.save(tmp_path / "plan-check"))
        assert "plan-check.npz" in loaded.plan.reason
        assert loaded.plan.kind == "general"


class TestSpecialStringRestore:
    """A special archive restores its string from the manifest's text and
    probability list, with the same checks a freshly built string passes."""

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("correlated", [False, True])
    @pytest.mark.parametrize("compact", [False, True])
    def test_save_load_save_writes_identical_bytes(
        self, tmp_path, mmap, correlated, compact
    ):
        string = make_random_special_string(300, seed=5, alphabet="ACGT")
        options = {}
        if correlated:
            options["correlations"] = CorrelationModel(
                [CorrelationRule(10, string.text[10], 12, string.text[12], 0.9, 0.2)]
            )
        engine = build_index(string, **options)
        first = engine.save(tmp_path / "first", compact=compact)
        loaded = load_index(first, mmap=mmap)
        restored = loaded.index.string
        assert restored.text == string.text
        assert restored.probabilities.tobytes() == string.probabilities.tobytes()
        # The plan's reason notes the archive a loaded engine came from, so
        # the second save writes the first engine's plan.
        second = save_index_payload(
            loaded.index, engine.plan, tmp_path / "second", compact=compact
        )
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("value", [1.5, 0.0])
    def test_restore_rejects_an_invalid_probability(self, tmp_path, mmap, value):
        path = build_index(make_random_special_string(40, seed=3)).save(
            tmp_path / "tampered"
        )
        manifest = read_manifest(path)
        manifest["payload"]["meta"]["string"]["probabilities"][17] = value
        rezip_archive(path, manifest=manifest)
        with pytest.raises(ValidationError, match="position 17"):
            load_index(path, mmap=mmap)


class TestBenchmarkWorkloadRoundTrip:
    """Acceptance: saved-then-loaded index is byte-identical on the synthetic
    benchmark workload."""

    def test_substring_workload_round_trip(self, tmp_path):
        workloads.clear_caches()
        work = workloads.substring_workload(
            300, 0.3, tau_min=0.1, query_lengths=(4, 8), patterns_per_length=3
        )
        path = work.engine.save(tmp_path / "bench-substring")
        loaded = load_index(path)
        for pattern in work.patterns:
            for tau in (0.1, 0.2, 0.5):
                before = work.engine.query(pattern, tau=tau)
                after = loaded.query(pattern, tau=tau)
                assert before == after  # positions AND probabilities bit-equal
        workloads.clear_caches()

    def test_listing_workload_round_trip(self, tmp_path):
        workloads.clear_caches()
        work = workloads.listing_workload(
            300, 0.3, tau_min=0.1, query_lengths=(3, 5), patterns_per_length=2
        )
        path = work.engine.save(tmp_path / "bench-listing")
        loaded = load_index(path)
        for pattern in work.patterns:
            for tau in (0.1, 0.3):
                assert work.engine.query(pattern, tau=tau) == loaded.query(
                    pattern, tau=tau
                )
        workloads.clear_caches()


def _random_input_for(kind: str, rng: random.Random):
    """A random input suitable for building an index of ``kind``."""
    if kind == "special":
        return make_random_special_string(rng.randint(10, 40), seed=rng.randint(0, 9999))
    if kind == "listing":
        return UncertainStringCollection(
            [
                make_random_uncertain_string(
                    rng.randint(5, 15), 0.3, seed=rng.randint(0, 9999)
                )
                for _ in range(rng.randint(2, 6))
            ]
        )
    return make_random_uncertain_string(
        rng.randint(10, 40), 0.3, seed=rng.randint(0, 9999)
    )


def _random_probe(engine, rng: random.Random):
    """Random (pattern, tau, k) probes answered by both engine copies."""
    if engine.is_listing:
        backbone = engine.index.collection[0].most_likely_string()
    elif hasattr(engine.index, "string"):
        string = engine.index.string
        backbone = (
            string.text if hasattr(string, "text") else string.most_likely_string()
        )
    else:
        backbone = "AB"
    length = rng.randint(1, min(4, len(backbone)))
    start = rng.randint(0, len(backbone) - length)
    pattern = backbone[start : start + length]
    tau = max(engine.tau_min, round(rng.uniform(0.1, 0.9), 3)) or 0.1
    return pattern, tau, rng.randint(1, 5)


class TestFuzzRoundTrip:
    """Randomized build → save → load_index → identical answers.

    Parameterized over all four index kinds, eager and memory-mapped
    loads, *and* the sharded manifest: arrays round-trip bit-exactly, so a
    loaded engine's answers must equal the original's, match for match.
    """

    @pytest.mark.parametrize("kind", ["special", "general", "approximate", "listing"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_engine_fuzz_round_trip(self, tmp_path, kind, seed, mmap):
        rng = random.Random(seed * 1000 + hash(kind) % 1000)
        data = _random_input_for(kind, rng)
        kwargs = {"kind": kind}
        if kind in ("general", "approximate", "listing"):
            kwargs["tau_min"] = 0.1
        if kind == "approximate":
            kwargs["epsilon"] = 0.05
        engine = build_index(data, **kwargs)
        assert engine.kind == kind
        loaded = load_index(engine.save(tmp_path / f"fuzz-{kind}-{seed}"), mmap=mmap)
        assert loaded.kind == kind
        for _ in range(10):
            pattern, tau, k = _random_probe(engine, rng)
            assert engine.query(pattern, tau=tau) == loaded.query(pattern, tau=tau)
            assert engine.top_k(pattern, k, tau=tau) == loaded.top_k(
                pattern, k, tau=tau
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shards", [2, 5])
    def test_sharded_string_fuzz_round_trip(self, tmp_path, seed, shards):
        rng = random.Random(seed)
        string = make_random_uncertain_string(rng.randint(25, 60), 0.3, seed=seed)
        engine = build_sharded_index(
            string, shards=shards, tau_min=0.1, max_pattern_len=5
        )
        path = engine.save(tmp_path / f"fuzz-sharded-{seed}-{shards}")
        assert is_sharded_archive(path)
        loaded = load_index(path)
        assert isinstance(loaded, ShardedEngine)
        assert loaded.spec == engine.spec
        assert loaded.kind == engine.kind
        backbone = string.most_likely_string()
        for _ in range(10):
            length = rng.randint(1, 5)
            start = rng.randint(0, len(backbone) - length)
            pattern = backbone[start : start + length]
            tau = round(rng.uniform(0.1, 0.9), 3)
            assert engine.query(pattern, tau=tau) == loaded.query(pattern, tau=tau)
            assert engine.top_k(pattern, 3, tau=tau) == loaded.top_k(
                pattern, 3, tau=tau
            )
        engine.close()
        loaded.close()

    @pytest.mark.parametrize("seed", [4, 5])
    def test_sharded_collection_fuzz_round_trip(self, tmp_path, seed):
        rng = random.Random(seed)
        collection = UncertainStringCollection(
            [
                make_random_uncertain_string(rng.randint(5, 12), 0.4, seed=seed + i)
                for i in range(rng.randint(4, 9))
            ]
        )
        engine = build_sharded_index(collection, shards=3, tau_min=0.05)
        loaded = load_index(engine.save(tmp_path / f"fuzz-sharded-coll-{seed}"))
        for pattern in ("A", "B", "AB", "CA"):
            for tau in (0.05, 0.2, 0.5):
                assert engine.query(pattern, tau=tau) == loaded.query(
                    pattern, tau=tau
                )
        engine.close()
        loaded.close()


class TestShardedArchiveResult:
    """load_sharded_payload returns a named result."""

    def test_named_fields(self, tmp_path):
        from repro.api import ShardedArchive, load_sharded_payload

        engine = build_sharded_index("BANANA" * 5, shards=2, max_pattern_len=4)
        path = engine.save(tmp_path / "named")
        engine.close()
        archive = load_sharded_payload(path)
        assert isinstance(archive, ShardedArchive)
        assert len(archive.payloads) == 2
        assert archive.spec == engine.spec
        assert archive.plan.kind == "special"
        assert [p.name for p in archive.shard_paths] == [
            "shard-0000.npz",
            "shard-0001.npz",
        ]
        assert all(p.suffix == ".npz" for p in archive.shard_paths)


class TestShardedManifest:
    def test_manifest_contents(self, tmp_path):
        engine = build_sharded_index("BANANA" * 5, shards=2, max_pattern_len=4)
        path = engine.save(tmp_path / "sharded-manifest")
        manifest = read_sharded_manifest(path)
        assert manifest["format"] == "repro-sharded-index"
        assert manifest["version"] == 1
        assert manifest["archive_version"] == FORMAT_VERSION
        assert manifest["kind"] == "special"
        assert manifest["spec"]["shard_count"] == 2
        assert manifest["spec"]["overlap"] == 3
        assert len(manifest["shards"]) == 2
        # Each shard archive is an ordinary, individually loadable archive.
        for name in manifest["shards"]:
            assert read_manifest(path / name)["version"] == FORMAT_VERSION
            for mmap in (False, True):
                shard_engine = load_index(path / name, mmap=mmap)
                assert shard_engine.kind == "special"
        loaded = load_index(path, mmap=True)
        assert loaded.query("ANAN", tau=0.5) == engine.query("ANAN", tau=0.5)
        loaded.close()
        engine.close()

    def test_resave_with_fewer_shards_removes_stale_archives(self, tmp_path):
        target = tmp_path / "resave"
        wide = build_sharded_index("BANANA" * 6, shards=5, max_pattern_len=4)
        wide.save(target)
        wide.close()
        narrow = build_sharded_index("BANANA" * 6, shards=2, max_pattern_len=4)
        narrow.save(target)
        narrow.close()
        assert sorted(p.name for p in target.glob("shard-*.npz")) == [
            "shard-0000.npz",
            "shard-0001.npz",
        ]
        assert load_index(target).shard_count == 2

    def test_save_to_npz_path_rejected(self, tmp_path):
        engine = build_sharded_index("BANANA" * 5, shards=2, max_pattern_len=4)
        with pytest.raises(ValidationError):
            engine.save(tmp_path / "wrong.npz")
        engine.close()

    def test_not_a_sharded_archive(self, tmp_path):
        assert not is_sharded_archive(tmp_path / "missing")
        (tmp_path / "plain-dir").mkdir()
        assert not is_sharded_archive(tmp_path / "plain-dir")
        with pytest.raises(ValidationError):
            read_sharded_manifest(tmp_path / "plain-dir")

    def test_foreign_manifest_rejected(self, tmp_path):
        target = tmp_path / "foreign"
        target.mkdir()
        (target / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValidationError):
            read_sharded_manifest(target)

    def test_newer_sharded_version_rejected(self, tmp_path):
        engine = build_sharded_index("BANANA" * 5, shards=2, max_pattern_len=4)
        path = engine.save(tmp_path / "future-sharded")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] += 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            load_index(path)
        engine.close()

    @pytest.mark.parametrize("mmap", [False, True])
    def test_retired_shard_archive_rejected(self, tmp_path, mmap):
        # One shard archive left over in a retired format fails the whole
        # ensemble's load, naming that shard.
        engine = build_sharded_index("BANANA" * 5, shards=2, max_pattern_len=4)
        path = engine.save(tmp_path / "retired-shard")
        engine.close()
        shard = path / read_sharded_manifest(path)["shards"][1]
        manifest = read_manifest(shard)
        manifest["version"] = 2
        rezip_archive(shard, manifest=manifest)
        with pytest.raises(
            ValidationError, match=r"shard-0001\.npz uses retired archive format version 2"
        ):
            load_index(path, mmap=mmap)

    def test_loaded_plan_mentions_directory(self, tmp_path):
        engine = build_sharded_index("BANANA" * 5, shards=2, max_pattern_len=4)
        loaded = load_index(engine.save(tmp_path / "sharded-plan"))
        assert "sharded-plan/" in loaded.plan.reason
        engine.close()
        loaded.close()

    def test_saving_twice_writes_the_same_bytes(self, tmp_path):
        engine = build_sharded_index("BANANA" * 5, shards=2, max_pattern_len=4)
        first = engine.save(tmp_path / "first")
        second = engine.save(tmp_path / "second")
        engine.close()
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        for name in read_sharded_manifest(first)["shards"]:
            with zipfile.ZipFile(first / name) as archive:
                stamps = {info.date_time for info in archive.infolist()}
            assert stamps == {(1980, 1, 1, 0, 0, 0)}, name

    def test_plan_record_matches_a_single_archive(self, tmp_path):
        # Both manifests write the plan through one helper, so the
        # ensemble's record reads like any single archive's.
        engine = build_sharded_index(
            "BANANA" * 5, shards=2, max_pattern_len=4, kind="special"
        )
        path = engine.save(tmp_path / "sharded-plan-record")
        single = save_index_payload(
            engine.shards[0].index, engine.plan, tmp_path / "single-plan-record"
        )
        engine.close()
        record = read_sharded_manifest(path)["plan"]
        assert record == read_manifest(single)["plan"]
        assert record["kind"] == "special"
        assert set(record) == {"kind", "tau_min", "reason", "profile"}


class TestManifest:
    def test_read_manifest_contents(self, tmp_path, general_string):
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / "manifest-check")
        manifest = read_manifest(path)
        assert manifest["format"] == FORMAT_NAME
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["kind"] == "general"
        assert manifest["plan"]["tau_min"] == pytest.approx(0.1)

    def test_npz_suffix_appended(self, tmp_path, general_string):
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / "no-suffix")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_not_an_archive_raises(self, tmp_path):
        path = tmp_path / "garbage.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ValidationError):
            read_manifest(path)

    def test_newer_version_raises(self, tmp_path, general_string):
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / "future")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = json.loads(bytes(arrays["__manifest__"].tolist()).decode("utf-8"))
        manifest["version"] = FORMAT_VERSION + 1
        arrays["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValidationError):
            load_index_payload(path)

    def test_unsupported_index_type_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            save_index_payload(object(), None, tmp_path / "nope")

    def test_raw_payload_round_trip_without_plan(self, tmp_path):
        from repro.core.special_index import SpecialUncertainStringIndex

        string = SpecialUncertainString([("a", 0.9), ("b", 0.8), ("a", 0.7)])
        index = SpecialUncertainStringIndex(string)
        path = save_index_payload(index, None, tmp_path / "raw")
        loaded, plan = load_index_payload(path)
        assert loaded.query("ab", 0.5) == index.query("ab", 0.5)
        assert plan.kind == "special"


class TestFormatVersions:
    """Format 3, the payload schema as an uncompressed zip, is the only
    archive format; retired, newer and malformed archives fail loudly."""

    @pytest.mark.parametrize("n", [500, 1000])
    def test_archive_is_a_fraction_of_the_in_ram_index(self, tmp_path, low_cut_offs, n):
        # Special index with sparse RMQs on its shallow levels (the low
        # cut-offs make their suffix ranges outgrow the scans): in RAM every
        # RMQ holds its O(n log n)-word table, the archive only the
        # O(n / log n) block positions, so the archive is a small fraction
        # of nbytes().
        rng = np.random.default_rng(1234 + n)
        characters = rng.choice(list("ACGT"), size=n)
        probabilities = rng.uniform(0.5, 1.0, size=n).round(6)
        string = SpecialUncertainString(
            [(c, float(p)) for c, p in zip(characters, probabilities)]
        )
        engine = build_index(string, kind="special", rmq_implementation="sparse")
        assert len(engine.index._short_rmq) >= 1
        path = engine.save(tmp_path / f"size-{n}")
        assert path.stat().st_size <= 0.6 * engine.nbytes()
        with zipfile.ZipFile(path) as archive:
            members = {name.rsplit("/", 1)[-1] for name in archive.namelist()}
        assert "block_positions.npy" in members
        assert not members & {"table.npy", "summary_table.npy"}

    def test_mmap_load_returns_memory_mapped_arrays(
        self, tmp_path, low_cut_offs, general_string
    ):
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / "mapped")
        loaded = load_index(path, mmap=True)
        # A plain ndarray view whose base is the map: zero-copy, and the
        # kernels index it without np.memmap's subclass hooks.
        prefix = loaded.index._prefix
        assert type(prefix) is np.ndarray
        assert isinstance(prefix.base, np.memmap)
        assert not prefix.flags.writeable
        # SuffixArray casts through ascontiguousarray, which keeps the view.
        suffix_array = loaded.index._suffix_array.array
        assert isinstance(suffix_array.base, np.memmap)
        # Every level of this small text is scanned, so none restored an RMQ.
        assert loaded.index._short_rmq == {}
        assert "mmap" in loaded.plan.reason
        # Under the low cut-offs the special index's level 1 keeps an RMQ.
        # It was restored from its space-efficient payload: the stored block
        # positions stay memory-mapped (only the small summary table is
        # rebuilt on the heap).
        special = build_index(make_random_special_string(200, seed=11))
        loaded = load_index(special.save(tmp_path / "mapped-special"), mmap=True)
        assert sorted(loaded.index._short_rmq) == sorted(special.index._short_rmq)
        rmq = loaded.index._short_rmq[1]
        positions = rmq._block_positions
        assert type(positions) is np.ndarray
        assert isinstance(positions.base, np.memmap)
        assert isinstance(loaded.index._prefix.base, np.memmap)
        assert "mmap" in loaded.plan.reason

    def test_mmap_on_compressed_archive_degrades_gracefully(
        self, tmp_path, general_string
    ):
        # Archives are written stored; one re-zipped with deflate by
        # another tool still loads, its members read eagerly.
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / "compressed")
        rezip_archive(path, compression=zipfile.ZIP_DEFLATED)
        with zipfile.ZipFile(path) as archive:
            assert all(
                info.compress_type == zipfile.ZIP_DEFLATED for info in archive.infolist()
            )
        for mmap in (False, True):
            loaded = load_index(path, mmap=mmap)
            prefix = loaded.index._prefix
            assert not isinstance(prefix, np.memmap)
            assert not isinstance(prefix.base, np.memmap)
            for tau in (0.1, 0.3):
                assert loaded.query("QP", tau=tau) == engine.query("QP", tau=tau)

    @pytest.mark.parametrize("kind", ["special", "general", "approximate", "listing"])
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_resave_of_a_loaded_index_is_member_identical(
        self, tmp_path, kind, compact, mmap
    ):
        # Restored CompactRMQ structures (the special index's default
        # sparse RMQ) write back the payload they were restored from, and
        # narrowed arrays are written back as loaded, so a load → save
        # cycle changes no archive byte.
        rng = random.Random(7)
        kwargs = {"kind": kind}
        if kind in ("general", "approximate", "listing"):
            kwargs["tau_min"] = 0.1
        if kind == "approximate":
            kwargs["epsilon"] = 0.05
        engine = build_index(_random_input_for(kind, rng), **kwargs)
        original = engine.save(tmp_path / "original", compact=compact)
        loaded = load_index(original, mmap=mmap)
        resaved = loaded.save(tmp_path / "resaved", compact=compact)
        with zipfile.ZipFile(original) as first, zipfile.ZipFile(resaved) as second:
            assert first.namelist() == second.namelist()
            # A fixed stamp, not the wall clock: saving twice writes the same bytes.
            for info in first.infolist() + second.infolist():
                assert info.date_time == (1980, 1, 1, 0, 0, 0), info.filename
                assert info.compress_type == zipfile.ZIP_STORED
                assert info.external_attr == 0o600 << 16
            for name in first.namelist():
                if name != "__manifest__.npy":  # the plan reason notes its source
                    assert first.read(name) == second.read(name), name

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_retired_versions_rejected(self, tmp_path, general_string, version, mmap):
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / f"retired-v{version}")
        manifest = read_manifest(path)
        manifest["version"] = version
        rezip_archive(path, manifest=manifest)
        with pytest.raises(ValidationError, match=f"retired archive format version {version}"):
            load_index(path, mmap=mmap)
        with pytest.raises(ValidationError, match=f"version {version}"):
            read_manifest(path)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_missing_rmq_child_rejected(
        self, tmp_path, general_string, mmap, monkeypatch
    ):
        # Cut-offs this low make the shallow levels of even this tiny text
        # need an RMQ, so every rmq_ child is one the loader requires.
        monkeypatch.setattr("repro.core.base.SCAN_WIDTH", 4)
        monkeypatch.setattr("repro.core.base.TOP_K_SCAN_WIDTH", 2)
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / "no-rmq")
        manifest = read_manifest(path)
        children = manifest["payload"]["children"]
        victim = next(name for name in children if name.startswith("rmq_"))
        del children[victim]
        rezip_archive(path, manifest=manifest)
        with pytest.raises(ValidationError, match=victim):
            load_index(path, mmap=mmap)

    @pytest.mark.parametrize(
        "case", ["garbage", "bare-npy", "list-manifest", "string-version"]
    )
    @pytest.mark.parametrize("mmap", [False, True])
    def test_malformed_archives_raise_validation_error(self, tmp_path, case, mmap):
        engine = build_index(make_random_special_string(30, seed=7))
        path = write_malformed_archives(tmp_path, engine)[case]
        with pytest.raises(ValidationError):
            load_index(path, mmap=mmap)
        with pytest.raises(ValidationError):
            load_index_payload(path, mmap=mmap)
        with pytest.raises(ValidationError):
            read_manifest(path)


class TestArchivesWithRetiredProfileKeys:
    """Archives written while plans recorded build-time sizes still load.

    Their plan profiles carry keys no plan holds any more
    (``raw_estimated_bytes``, ``observed_bytes``, ``estimated_bytes``),
    their index meta may name a ``long_pattern_mode``, and their members
    carry the wall-clock time of the save; the reader reads none of them.
    """

    RETIRED = {"raw_estimated_bytes": 4_096, "observed_bytes": 8_192}

    def _age(self, path):
        manifest = read_manifest(path)
        manifest["plan"]["profile"].update(self.RETIRED)
        rezip_archive(path, manifest=manifest)  # writestr stamps the wall clock
        with zipfile.ZipFile(path) as archive:
            assert all(info.date_time[0] > 1980 for info in archive.infolist())

    @pytest.mark.parametrize("mmap", [False, True])
    def test_single_archive_loads(self, tmp_path, general_string, mmap):
        engine = build_index(general_string, tau_min=0.1)
        path = engine.save(tmp_path / "aged")
        self._age(path)
        loaded = load_index(path, mmap=mmap)
        assert loaded.kind == "general"
        assert loaded.plan.profile["observed_bytes"] == 8_192
        _assert_same_answers(engine, loaded, ["Q", "QP", "PP", "SP", "F"], [0.1, 0.3, 0.6])

    @pytest.mark.parametrize("mmap", [False, True])
    def test_sharded_archive_loads(self, tmp_path, mmap):
        string = make_random_uncertain_string(50, 0.3, seed=3)
        engine = build_sharded_index(string, shards=3, tau_min=0.1, max_pattern_len=5)
        path = engine.save(tmp_path / "aged-sharded")
        manifest = read_sharded_manifest(path)
        manifest["plan"]["profile"].update(self.RETIRED)
        (path / "manifest.json").write_text(json.dumps(manifest))
        for name in manifest["shards"]:
            self._age(path / name)
        loaded = load_index(path, mmap=mmap)
        assert loaded.spec == engine.spec
        assert loaded.plan.profile["raw_estimated_bytes"] == 4_096
        backbone = string.most_likely_string()
        patterns = {backbone[start : start + 3] for start in range(0, 45, 4)}
        _assert_same_answers(engine, loaded, sorted(patterns), [0.1, 0.4])
        engine.close()
        loaded.close()

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("mode", ["block", "error"])
    @pytest.mark.parametrize("kind", ["special", "general"])
    def test_long_pattern_mode_is_ignored(self, tmp_path, kind, mode, mmap):
        # Index meta used to name what a long pattern without a blocking
        # structure did: "block" and "error" raised, "fallback" scanned.
        # Special plans also recorded an ``estimated_bytes``.  The reader
        # reads neither, and every such long pattern scans its range.
        if kind == "special":
            engine = build_index(make_random_special_string(64, seed=11))
            text = engine.index.string.text
        else:
            string = make_random_uncertain_string(40, 0.0, seed=80)
            engine = build_index(string, tau_min=0.1, kind="general")
            text = string.most_likely_string()
        path = engine.save(tmp_path / f"{kind}-{mode}")
        manifest = read_manifest(path)
        manifest["payload"]["meta"]["long_pattern_mode"] = mode
        if kind == "special":
            manifest["plan"]["profile"]["estimated_bytes"] = 31_719_432
        rezip_archive(path, manifest=manifest)
        loaded = load_index(path, mmap=mmap)
        pattern = text[:12]
        assert len(pattern) > loaded.index.max_short_length
        assert not loaded.index.block_lengths
        answer = loaded.query(pattern, tau=0.1 if kind == "general" else 1e-9)
        assert 0 in [occurrence.position for occurrence in answer]
        _assert_same_answers(engine, loaded, [pattern, text[5:15]], [0.1, 0.5])


class TestChecksumVerification:
    """Per-array crc32 records: corrupt archive members fail loudly.

    The corruption helper rewrites the zip with one data byte flipped in
    the largest payload member — ``writestr`` recomputes the zip-level
    CRC, so the archive stays structurally valid and only the manifest
    checksums can catch the damage (exactly the bit-rot scenario).
    """

    def _corrupt_largest_member(self, path):
        import zipfile

        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
            data = {name: archive.read(name) for name in names}
        victim = max(
            (name for name in names if name.endswith(".npy") and "__" not in name),
            key=lambda name: len(data[name]),
        )
        raw = bytearray(data[victim])
        raw[-1] ^= 0xFF  # flip a trailing data byte; npy headers sit up front
        data[victim] = bytes(raw)
        with zipfile.ZipFile(path, "w") as archive:
            for name in names:
                archive.writestr(name, data[name])
        return victim[: -len(".npy")]

    def test_eager_load_detects_corruption(self, tmp_path):
        import re

        engine = build_index(make_random_special_string(50, seed=3))
        path = engine.save(tmp_path / "damaged")
        load_index(path)  # pristine archive loads fine
        victim = self._corrupt_largest_member(path)
        with pytest.raises(ValidationError, match="checksum"):
            load_index(path)
        # The error names the corrupt member.
        with pytest.raises(ValidationError, match=re.escape(victim)):
            load_index_payload(path)
        # verify=False is the escape hatch: the damaged bytes load as-is.
        load_index_payload(path, verify=False)

    def test_mmap_skips_verification_unless_forced(self, tmp_path):
        engine = build_index(make_random_special_string(50, seed=4))
        path = engine.save(tmp_path / "damaged-mmap")
        self._corrupt_largest_member(path)
        # Default mmap load stays zero-copy: checksumming would fault in
        # every page, so corruption goes undetected here by design.
        load_index_payload(path, mmap=True)
        with pytest.raises(ValidationError, match="checksum"):
            load_index_payload(path, mmap=True, verify=True)
