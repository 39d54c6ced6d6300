"""The IndexPayload currency: structure, fuzz round-trips, RMQ equivalence.

The payload layer is the single definition of "what an index is made of";
these tests pin the two properties everything downstream relies on:

* **payload → index → payload is exact** — re-deriving the payload from a
  restored index reproduces the same schema, meta and stored arrays;
* **answers are byte-identical** — an index rebuilt with ``from_payload``
  (including its space-efficient RMQ restore forms) answers every probe
  exactly like the in-memory original.
"""

import random

import numpy as np
import pytest

from repro.api import build_index, index_from_payload, index_to_payload, load_index
from repro.datasets.synthetic import generate_uncertain_string
from repro.exceptions import ValidationError
from repro.payload import (
    COMPACT_META_KEY,
    IndexPayload,
    PAYLOAD_VERSION,
    array_checksum,
    verify_manifest_checksums,
)
from repro.strings import UncertainStringCollection
from repro.suffix.rmq import (
    BlockRMQ,
    CompactRMQ,
    SparseTableRMQ,
    rmq_from_payload,
    rmq_to_payload,
)
from tests.conftest import make_random_special_string, make_random_uncertain_string


class TestIndexPayloadStructure:
    def test_nbytes_counts_stored_derived_and_children(self):
        child = IndexPayload("rmq/sparse", arrays={"a": np.zeros(4)})
        payload = IndexPayload(
            "index/simple",
            arrays={"x": np.zeros(2)},
            derived={"y": np.zeros(3)},
            children={"c": child},
        )
        assert payload.nbytes() == (2 + 3 + 4) * 8
        assert payload.stored_nbytes() == (2 + 4) * 8

    def test_space_report_collapses_indexed_families(self):
        payload = IndexPayload(
            "index/special",
            arrays={
                "short_values_1": np.zeros(2),
                "short_values_2": np.zeros(2),
                "prefix": np.zeros(1),
            },
            children={"rmq_short_1": IndexPayload("rmq/sparse", arrays={"b": np.zeros(1)})},
        )
        report = payload.space_report()
        assert report["short_values"] == 32
        assert report["rmq_short"] == 8
        assert report["prefix"] == 8
        assert report["total"] == sum(
            v for k, v in report.items() if k not in ("total", "total_wide")
        )
        assert report["total_wide"] == report["total"]

    def test_flatten_and_manifest_round_trip(self):
        child = IndexPayload("transformed", meta={"text": "ab"}, arrays={"p": np.arange(3)})
        payload = IndexPayload(
            "index/general",
            meta={"tau_min": 0.1},
            arrays={"suffix_array": np.arange(5)},
            children={"transformed": child},
        )
        flat = payload.flatten()
        assert set(flat) == {"suffix_array", "transformed/p"}
        rebuilt = IndexPayload.from_manifest(payload.manifest(), flat)
        assert rebuilt.schema == payload.schema
        assert rebuilt.meta == payload.meta
        assert (rebuilt.arrays["suffix_array"] == payload.arrays["suffix_array"]).all()
        assert (rebuilt.children["transformed"].arrays["p"] == child.arrays["p"]).all()

    def test_missing_archive_array_fails_loudly(self):
        payload = IndexPayload("index/simple", arrays={"x": np.zeros(1)})
        with pytest.raises(ValidationError):
            IndexPayload.from_manifest(payload.manifest(), {})

    def test_validate_rejects_bad_names_and_meta(self):
        with pytest.raises(ValidationError):
            IndexPayload("s", arrays={"a/b": np.zeros(1)}).validate()
        with pytest.raises(ValidationError):
            IndexPayload("s", meta={"x": object()}).validate()
        with pytest.raises(ValidationError):
            IndexPayload("s", arrays={"a": np.zeros(1)}, derived={"a": np.zeros(1)}).validate()
        with pytest.raises(ValidationError):
            IndexPayload("").validate()

    def test_version_travels_through_manifest(self):
        payload = IndexPayload("s")
        assert payload.version == PAYLOAD_VERSION
        assert payload.manifest()["version"] == PAYLOAD_VERSION


class TestCompactPayload:
    def _payload(self):
        return IndexPayload(
            "index/simple",
            arrays={
                "positions": np.arange(300, dtype=np.int64),
                "links": np.array([-1, 0, 200], dtype=np.int64),
                "flags": np.array([True, False, True, True, False]),
                "probabilities": np.linspace(0.0, 1.0, 7),
            },
            derived={"table": np.zeros(64)},
            children={"rmq": IndexPayload("rmq/sparse", arrays={"b": np.arange(9)})},
        )

    def test_narrowing_packing_and_expand(self):
        payload = self._payload()
        compacted = payload.compact().validate()
        assert compacted.arrays["positions"].dtype == np.uint16
        assert compacted.arrays["links"].dtype == np.int16  # -1 sentinel: signed
        assert compacted.arrays["flags"].dtype == np.uint8  # packbits
        assert compacted.arrays["probabilities"].dtype == np.float64  # untouched
        assert not compacted.derived  # dropped; from_payload rebuilds smaller
        assert compacted.children["rmq"].arrays["b"].dtype == np.uint8
        record = compacted.meta[COMPACT_META_KEY]
        assert record["positions"] == {"kind": "narrowed", "logical": "int64"}
        assert record["flags"] == {"kind": "packed_bool", "length": 5}
        assert "probabilities" not in record
        expanded = compacted.expand()
        # The one expansion boundary restores bools; integers stay narrow.
        assert expanded.arrays["flags"].dtype == np.bool_
        assert (expanded.arrays["flags"] == payload.arrays["flags"]).all()
        assert expanded.arrays["positions"].dtype == np.uint16
        assert (expanded.arrays["positions"] == payload.arrays["positions"]).all()
        assert "flags" not in expanded.meta[COMPACT_META_KEY]

    def test_compact_is_idempotent_and_expand_is_identity_when_unpacked(self):
        payload = IndexPayload("index/simple", arrays={"x": np.arange(40)})
        assert payload.expand() is payload  # nothing packed anywhere
        once = payload.compact()
        twice = once.compact()
        assert twice.meta == once.meta
        for name in once.arrays:
            assert twice.arrays[name].dtype == once.arrays[name].dtype
            assert (twice.arrays[name] == once.arrays[name]).all()

    def test_wide_accounting_remembers_logical_dtypes(self):
        payload = self._payload()
        compacted = payload.compact()
        # Stored arrays count at their logical dtypes; the dropped derived
        # table is gone from both sides of the ledger.
        assert compacted.wide_nbytes() == payload.stored_nbytes()
        assert compacted.nbytes() < compacted.wide_nbytes()
        report = compacted.space_report()
        assert report["total_wide"] == compacted.wide_nbytes()
        assert report["total"] == compacted.nbytes()
        # A never-compacted payload reports both totals equal.
        wide_report = IndexPayload("s", arrays={"x": np.arange(8)}).space_report()
        assert wide_report["total_wide"] == wide_report["total"]

    def test_compact_engine_reports_its_wide_total(self, tmp_path):
        # A compact restore rebuilds its meta from its own fields; the
        # dtype record it was restored with must survive, or total_wide
        # reads the narrow total.  No level of this input keeps an RMQ, so
        # no derived table differs between the wide and compact builds.
        string = generate_uncertain_string(400, theta=0.3, seed=1)
        wide = build_index(string, tau_min=0.1).space_report()
        assert wide["total_wide"] == wide["total"]
        engine = build_index(string, tau_min=0.1, compact=True)
        compact = engine.space_report()
        assert compact["total_wide"] == wide["total"]
        assert compact["total"] < wide["total"]
        # The record travels with the payload: an archive of the compact
        # engine, wide or compact, reports the same pair, eager and mmap.
        for save_compact in (False, True):
            path = engine.save(tmp_path / f"compact-{save_compact}", compact=save_compact)
            for mmap in (False, True):
                loaded = load_index(path, mmap=mmap).space_report()
                assert loaded["total_wide"] == wide["total"], (save_compact, mmap)
                assert loaded["total"] == compact["total"], (save_compact, mmap)

    def test_checksums_recorded_and_verified(self):
        assert array_checksum(np.empty(0)) == 0
        payload = self._payload()
        manifest, flat = payload.manifest(), payload.flatten()
        assert manifest["checksums"]["positions"] == array_checksum(
            payload.arrays["positions"]
        )
        verify_manifest_checksums(manifest, flat)  # pristine: no raise
        corrupt = dict(flat)
        damaged = corrupt["rmq/b"].copy()
        damaged[0] += 1
        corrupt["rmq/b"] = damaged
        with pytest.raises(ValidationError, match="rmq/b"):
            verify_manifest_checksums(manifest, corrupt)
        # Pre-checksum manifests (and missing arrays) verify trivially.
        legacy = {key: value for key, value in manifest.items() if key != "checksums"}
        legacy["children"] = {}
        verify_manifest_checksums(legacy, corrupt)


@pytest.fixture(params=["sparse", "block"])
def rmq_flavour(request):
    return request.param


class TestRMQPayloadRoundTrip:
    """Both RMQ implementations: payload → structure → payload exact,
    answers identical to the original (incl. tie-breaks)."""

    def _random_values(self, rng, n):
        # Heavy ties plus -inf entries: the regime where tie-breaks matter.
        return rng.choice([0.2, 0.5, 0.5, 0.9, -np.inf], size=n)

    @pytest.mark.parametrize("mode", ["max", "min"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_is_exact_and_equivalent(self, rmq_flavour, mode, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(1, 120))
            values = self._random_values(rng, n)
            original = (
                SparseTableRMQ(values, mode=mode)
                if rmq_flavour == "sparse"
                else BlockRMQ(values, mode=mode)
            )
            payload = rmq_to_payload(original).validate()
            # Space efficiency: the stored payload is block positions only.
            assert set(payload.arrays) == {"block_positions"}
            restored = rmq_from_payload(values, payload)
            if rmq_flavour == "sparse":
                assert isinstance(restored, CompactRMQ)
            else:
                assert isinstance(restored, BlockRMQ)
            # payload → structure → payload is exact.
            payload_again = rmq_to_payload(restored)
            assert payload_again.schema == payload.schema
            assert payload_again.meta == payload.meta
            assert (
                payload_again.arrays["block_positions"]
                == payload.arrays["block_positions"]
            ).all()
            # Answers byte-identical, scalar and batch.
            lefts = rng.integers(0, n, size=40)
            rights = np.array([int(rng.integers(l, n)) for l in lefts])
            assert (
                original.query_batch(lefts, rights)
                == restored.query_batch(lefts, rights)
            ).all()
            for left, right in zip(lefts[:8], rights[:8]):
                assert original.query(int(left), int(right)) == restored.query(
                    int(left), int(right)
                )

    def test_sparse_payload_is_smaller_than_table(self):
        values = np.random.default_rng(7).random(4096)
        rmq = SparseTableRMQ(values)
        payload = rmq.to_payload()
        assert payload.stored_nbytes() * 10 < rmq._table.nbytes
        # Memory accounting still sees the real footprint.
        assert payload.nbytes() >= rmq._table.nbytes

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValidationError):
            rmq_from_payload(np.zeros(3), IndexPayload("rmq/quantum"))

    def test_block_positions_of_the_wrong_shape_rejected(self, rmq_flavour):
        values = np.random.default_rng(3).random(40)
        original = (
            SparseTableRMQ(values) if rmq_flavour == "sparse" else BlockRMQ(values)
        )
        payload = rmq_to_payload(original)
        payload.arrays["block_positions"] = payload.arrays["block_positions"][:-1]
        with pytest.raises(ValidationError, match="block positions have shape"):
            rmq_from_payload(values, payload)


def _build_engine(kind, rng):
    if kind in ("special", "simple"):
        data = make_random_special_string(rng.randint(15, 40), seed=rng.randint(0, 9999))
    elif kind == "listing":
        data = UncertainStringCollection(
            [
                make_random_uncertain_string(
                    rng.randint(5, 14), 0.3, seed=rng.randint(0, 9999)
                )
                for _ in range(rng.randint(2, 5))
            ]
        )
    else:
        data = make_random_uncertain_string(
            rng.randint(12, 36), 0.3, seed=rng.randint(0, 9999)
        )
    kwargs = {"kind": kind}
    if kind in ("general", "approximate", "listing"):
        kwargs["tau_min"] = 0.1
    if kind == "approximate":
        kwargs["epsilon"] = 0.05
    if kind in ("special", "general", "listing") and rng.random() < 0.5:
        kwargs["rmq_implementation"] = rng.choice(["sparse", "block"])
    return build_index(data, **kwargs)


def _probe(engine, rng):
    if engine.is_listing:
        backbone = engine.index.collection[0].most_likely_string()
    else:
        string = engine.index.string
        backbone = string.text if hasattr(string, "text") else string.most_likely_string()
    length = rng.randint(1, min(4, len(backbone)))
    start = rng.randint(0, len(backbone) - length)
    tau = max(engine.tau_min, round(rng.uniform(0.1, 0.9), 3)) or 0.1
    return backbone[start : start + length], tau, rng.randint(1, 5)


class TestIndexPayloadFuzzRoundTrip:
    """All five kinds: payload → index → payload exact, answers identical."""

    @pytest.mark.parametrize(
        "kind", ["special", "simple", "general", "approximate", "listing"]
    )
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_kind_round_trip(self, kind, seed):
        rng = random.Random(seed * 31 + hash(kind) % 101)
        engine = _build_engine(kind, rng)
        payload = index_to_payload(engine.index)
        assert payload.schema == f"index/{kind}"
        restored = index_from_payload(payload)
        assert type(restored) is type(engine.index)

        # payload → index → payload is exact: same schema tree, same meta,
        # same stored arrays (bit for bit).
        payload_again = index_to_payload(restored)
        assert payload_again.manifest() == payload.manifest()
        flat, flat_again = payload.flatten(), payload_again.flatten()
        assert set(flat) == set(flat_again)
        for key in flat:
            assert flat[key].dtype == flat_again[key].dtype, key
            assert np.array_equal(flat[key], flat_again[key]), key

        # Answers byte-identical to the in-memory original.
        for _ in range(12):
            pattern, tau, k = _probe(engine, rng)
            assert engine.index.query(pattern, tau) == restored.query(pattern, tau)
            assert engine.index.top_k(pattern, k, tau=tau) == restored.top_k(
                pattern, k, tau=tau
            )

    @pytest.mark.parametrize("kind", ["special", "general", "listing"])
    def test_space_accounting_derives_from_payload(self, kind):
        rng = random.Random(5)
        engine = _build_engine(kind, rng)
        payload = index_to_payload(engine.index)
        assert engine.index.nbytes() == payload.nbytes()
        report = engine.index.space_report()
        assert report == payload.space_report()
        assert report["total"] == sum(
            v for key, v in report.items() if key not in ("total", "total_wide")
        )

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValidationError):
            index_from_payload(IndexPayload("rmq/sparse"))
        with pytest.raises(ValidationError):
            index_from_payload(IndexPayload("index/unheard-of"))


class TestCompactEquivalenceFuzz:
    """All five kinds: the dtype-minimized restore answers byte-identically.

    The compact payload narrows integer dtypes and drops derived tables;
    the restored index must return *exactly* the wide index's matches —
    positions and float64 probabilities bit for bit — because narrowing
    only touches integer carriers, never the log-space probability sums.
    """

    @pytest.mark.parametrize(
        "kind", ["special", "simple", "general", "approximate", "listing"]
    )
    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_compact_answers_byte_identical(self, kind, seed):
        rng = random.Random(seed * 37 + hash(kind) % 113)
        engine = _build_engine(kind, rng)
        payload = index_to_payload(engine.index)
        compacted = payload.compact()
        # Narrowing actually bites: the stored bytes shrink on every kind
        # (int64 positions/ranks fit in uint8/16 at these input sizes).
        assert compacted.stored_nbytes() < payload.stored_nbytes(), kind
        assert compacted.wide_nbytes() == payload.stored_nbytes()
        restored = index_from_payload(compacted)
        assert type(restored) is type(engine.index)
        for _ in range(12):
            pattern, tau, k = _probe(engine, rng)
            assert engine.index.query(pattern, tau) == restored.query(pattern, tau), (
                kind,
                pattern,
                tau,
            )
            assert engine.index.top_k(pattern, k, tau=tau) == restored.top_k(
                pattern, k, tau=tau
            ), (kind, pattern, k)

    @pytest.mark.parametrize("kind", ["special", "general"])
    def test_build_index_compact_flag(self, kind):
        data = (
            make_random_special_string(60, seed=7)
            if kind == "special"
            else make_random_uncertain_string(40, 0.3, seed=7)
        )
        kwargs = {"kind": kind, "tau_min": 0.1} if kind == "general" else {"kind": kind}
        wide = build_index(data, **kwargs)
        compact = build_index(data, compact=True, **kwargs)
        assert compact.index.nbytes() < wide.index.nbytes()
        rng = random.Random(78)
        for _ in range(8):
            pattern, tau, _ = _probe(wide, rng)
            assert wide.index.query(pattern, tau) == compact.index.query(pattern, tau)
