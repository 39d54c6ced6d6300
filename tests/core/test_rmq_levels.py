"""Which per-length levels carry an RMQ: ``rmq_depth`` and what depends on it.

The listing index keeps a level's value array always, the special and
general indexes compute it at query time; all three build a level's
range-maximum structure (and the special and general indexes store that
level's values) only when some suffix range of the level can be wider
than the kernels' scan cut-offs.  A correlated special string stores
every level.  The tests here pin:

* the rule itself on synthetic ``lcp`` arrays around ``TOP_K_SCAN_WIDTH``;
* with the cut-offs patched low, indexes whose shallow levels keep an RMQ
  (and run the frontier on it) while the deep ones do not, answering like
  the oracle and byte-identically to an all-scan build;
* a correlated special index keeping every level, its ``top_k`` equal to
  a scan of every window corrected rank by rank;
* a special index's computed levels answering with the bits of stored
  ones, built, eager and mmap, wide and compact;
* listing and special archives written with an RMQ child for every level
  (the earlier layout) loading eager and mmap with identical answers, and general
  archives of that layout (every level's values stored, no
  ``duplicate_depths``) failing loudly;
* an archive missing the child of a level that needs one failing loudly.
"""

import dataclasses
import random

import numpy as np
import pytest

import repro.core.base as base
from repro.api.persistence import (
    index_from_payload,
    index_to_payload,
    load_index_payload,
    read_manifest,
    save_index_payload,
)
from repro.core.base import (
    OCCURRENCE,
    SCAN_WIDTH,
    TOP_K_SCAN_WIDTH,
    MatchArrays,
    exp_values,
    rmq_depth,
)
from repro.core.baseline import BruteForceOracle
from repro.core.cumulative import (
    correlation_adjusted_window_log_probability,
    prefix_length_log_probabilities,
)
from repro.core.factors import DEFAULT_SEPARATOR
from repro.core.general_index import GeneralUncertainStringIndex
from repro.core.listing import UncertainStringListingIndex
from repro.core.special_index import SpecialUncertainStringIndex
from repro.exceptions import ValidationError
from repro.strings import (
    CorrelationModel,
    CorrelationRule,
    SpecialUncertainString,
    UncertainStringCollection,
)
from repro.suffix.lcp import lcp_from_ranks
from repro.suffix.pattern_search import suffix_range
from repro.suffix.rmq import BlockRMQ, CompactRMQ, SparseTableRMQ, make_rmq, rmq_to_payload
from repro.suffix.suffix_array import prefix_doubling
from tests.conftest import (
    make_random_special_string,
    make_random_uncertain_string,
    rezip_archive,
)

TAUS = (0.1, 0.25, 0.5)


def lcp_with_partition(width, *, total, start=5, depth=4):
    """An ``lcp`` whose widest depth-1..``depth`` partition has ``width`` ranks."""
    lcp = np.zeros(total, dtype=np.int64)
    lcp[start + 1 : start + width] = depth
    return lcp


def widest_by_bincount(lcp, length):
    # Rank r opens a new depth-``length`` partition where lcp[r] < length.
    opens = (lcp < length).astype(np.int64)
    opens[0] = 0
    return int(np.bincount(np.cumsum(opens)).max())


class TestRmqDepth:
    @pytest.mark.parametrize(
        "width, expected",
        [(TOP_K_SCAN_WIDTH - 1, 0), (TOP_K_SCAN_WIDTH, 0), (TOP_K_SCAN_WIDTH + 1, 3)],
    )
    def test_rule_at_the_top_k_cut_off(self, width, expected):
        lcp = lcp_with_partition(width, total=2 * TOP_K_SCAN_WIDTH + 10)
        assert widest_by_bincount(lcp, 1) == width
        assert rmq_depth(lcp, 3) == expected

    def test_partition_at_either_end_counts(self):
        width = TOP_K_SCAN_WIDTH + 1
        total = 2 * TOP_K_SCAN_WIDTH + 10
        head = lcp_with_partition(width, total=total, start=0)
        tail = lcp_with_partition(width, total=total, start=total - width)
        assert widest_by_bincount(tail, 1) == width
        assert rmq_depth(head, 2) == rmq_depth(tail, 2) == 2

    def test_stops_at_the_first_narrow_level(self):
        # One depth-2 run wider than the cut-off, split at depth 3 into
        # halves no wider than it: levels 1 and 2 need an RMQ, 3 and 4 not.
        width = 2 * TOP_K_SCAN_WIDTH
        lcp = lcp_with_partition(width, total=3 * TOP_K_SCAN_WIDTH, depth=5)
        lcp[5 + TOP_K_SCAN_WIDTH] = 2
        assert widest_by_bincount(lcp, 2) == width
        assert widest_by_bincount(lcp, 3) == TOP_K_SCAN_WIDTH
        assert rmq_depth(lcp, 4) == 2

    def test_narrow_text_needs_none(self):
        assert rmq_depth(np.full(TOP_K_SCAN_WIDTH, 9, dtype=np.int64), 9) == 0

    def test_narrow_dtypes_as_compact_payloads_restore_them(self):
        lcp = lcp_with_partition(TOP_K_SCAN_WIDTH + 1, total=2 * TOP_K_SCAN_WIDTH + 10)
        for dtype in (np.uint8, np.uint16, np.uint32):
            assert rmq_depth(lcp.astype(dtype), 3) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_partition_widths_on_random_lcp(self, monkeypatch, seed):
        monkeypatch.setattr(base, "TOP_K_SCAN_WIDTH", 6)
        rng = np.random.default_rng(seed)
        lcp = rng.integers(0, 6, size=200)
        lcp[0] = 0
        expected = 0
        while expected < 8 and widest_by_bincount(lcp, expected + 1) > 6:
            expected += 1
        assert rmq_depth(lcp, 8) == expected


@pytest.fixture
def probe_counter(monkeypatch):
    """Count every ``query_batch`` call on the three RMQ classes."""
    calls = {"count": 0}
    for cls in (SparseTableRMQ, BlockRMQ, CompactRMQ):
        original = cls.query_batch

        def counting(self, lefts, rights, _original=original):
            calls["count"] += 1
            return _original(self, lefts, rights)

        monkeypatch.setattr(cls, "query_batch", counting)
    return calls


def general_string():
    return make_random_uncertain_string(40, 0.3, seed=5)


def listing_collection():
    return UncertainStringCollection(
        [make_random_uncertain_string(10, 0.4, seed=100 + i) for i in range(8)]
    )


def patterns_by_length(text, lengths, per_length=4, seed=0):
    """Patterns that occur in the transformed ``text``, ``per_length`` each."""
    rng = random.Random(seed)
    found = {}
    for length in lengths:
        candidates = sorted(
            {
                text[start : start + length]
                for start in range(len(text) - length + 1)
                if DEFAULT_SEPARATOR not in text[start : start + length]
            }
        )
        found[length] = rng.sample(candidates, min(per_length, len(candidates)))
    return found


def same_bits(first, second):
    return (
        first.kind == second.kind
        and first.ids.tobytes() == second.ids.tobytes()
        and first.values.tobytes() == second.values.tobytes()
    )


def special_string():
    return make_random_special_string(300, 5, alphabet="ACGT")


def build(kind, **options):
    if kind == "special":
        return SpecialUncertainStringIndex(special_string(), **options)
    if kind == "general":
        return GeneralUncertainStringIndex(general_string(), 0.1, **options)
    return UncertainStringListingIndex(listing_collection(), 0.1, **options)


def level_rmqs(index):
    return index._short_rmq if hasattr(index, "_short_rmq") else index._relevance_rmq


def lcp_of(index):
    """The index's ``lcp``; the special index stores none, so rebuild it."""
    if hasattr(index, "_lcp"):
        return index._lcp
    return lcp_from_ranks(prefix_doubling(index.string.text)[1], index._suffix_array.array)


def text_of(index):
    """The text the index's suffix array is over."""
    if isinstance(index, SpecialUncertainStringIndex):
        return index.string.text
    return index.transformed.text


class TestShallowLevelsKeepAnRmq:
    @pytest.mark.parametrize("kind", ["special", "general", "listing"])
    @pytest.mark.parametrize("implementation", ["block", "sparse"])
    def test_levels_answer_like_the_oracle(
        self, low_cut_offs, probe_counter, kind, implementation
    ):
        index = build(kind, rmq_implementation=implementation)
        depth = rmq_depth(lcp_of(index), index.max_short_length)
        assert 1 <= depth < index.max_short_length
        assert sorted(level_rmqs(index)) == list(range(1, depth + 1))
        if kind != "listing":
            assert sorted(index._short_values) == list(range(1, depth + 1))

        patterns = patterns_by_length(
            text_of(index), range(1, index.max_short_length + 1)
        )
        # The same input at the real cut-offs: no RMQ, every range scanned.
        with pytest.MonkeyPatch.context() as real:
            real.setattr(base, "SCAN_WIDTH", SCAN_WIDTH)
            real.setattr(base, "TOP_K_SCAN_WIDTH", TOP_K_SCAN_WIDTH)
            scanned = build(kind, rmq_implementation=implementation)
            assert level_rmqs(scanned) == {}
            scans = {
                (pattern, tau): (scanned.query(pattern, tau), scanned.top_k(pattern, 3, tau=tau))
                for group in patterns.values()
                for pattern in group
                for tau in TAUS
            }

        if kind == "special":
            oracle = BruteForceOracle(string=index.string.to_uncertain_string())
            expected = oracle.substring_occurrences
        elif kind == "general":
            oracle = BruteForceOracle(string=index.string)
            expected = oracle.substring_occurrences
        else:
            oracle = BruteForceOracle(collection=index.collection)

            def expected(pattern, tau):
                return oracle.listing_matches(pattern, tau, metric=index.metric)

        probes = {"shallow": 0, "deep": 0}
        for length, group in patterns.items():
            for pattern in group:
                before = probe_counter["count"]
                for tau in TAUS:
                    scanned_query, scanned_top = scans[pattern, tau]
                    got = index.query(pattern, tau)
                    assert same_bits(got, scanned_query)
                    truth = [dataclasses.astuple(match) for match in expected(pattern, tau)]
                    assert got.ids.tolist() == [match_id for match_id, _ in truth]
                    assert got.values.tolist() == pytest.approx(
                        [value for _, value in truth]
                    )
                    top = index.top_k(pattern, 3, tau=tau)
                    assert same_bits(top, scanned_top)
                    ranked = sorted(value for _, value in truth)[::-1][:3]
                    assert top.values.tolist() == pytest.approx(ranked)
                probes["shallow" if length <= depth else "deep"] += (
                    probe_counter["count"] - before
                )
        # The frontier really ran on the levels that kept an RMQ; the
        # others never reached it (they have none to reach).
        assert probes["shallow"] > 0
        assert probes["deep"] == 0


def with_every_level_rmq(payload, values_prefix, child_prefix, implementation):
    """``payload`` as written when every level carried an RMQ child."""
    for name, values in payload.arrays.items():
        if name.startswith(values_prefix):
            level = name[len(values_prefix) :]
            payload.children.setdefault(
                f"{child_prefix}{level}",
                rmq_to_payload(make_rmq(values, implementation=implementation)),
            )
    return payload


LAYOUT = {
    "special": ("short_values_", "rmq_short_"),
    "general": ("short_values_", "rmq_short_"),
    "listing": ("relevance_", "rmq_relevance_"),
}


def old_general_layout(index, implementation):
    """``index``'s payload as written when every level stored its values and an RMQ."""
    payload = index_to_payload(index)
    del payload.arrays["duplicate_depths"]
    for length in range(1, index.max_short_length + 1):
        payload.arrays[f"short_values_{length}"] = index._deduplicated_values(length)
    payload.meta["short_lengths"] = list(range(1, index.max_short_length + 1))
    return with_every_level_rmq(payload, *LAYOUT["general"], implementation)


def old_special_layout(index, implementation):
    """``index``'s payload as written when every level stored ``C_L`` and an RMQ."""
    payload = index_to_payload(index)
    for length in range(1, index.max_short_length + 1):
        payload.arrays[f"short_values_{length}"] = prefix_length_log_probabilities(
            index._prefix, index._suffix_array.array, length
        )
    payload.meta["short_lengths"] = list(range(1, index.max_short_length + 1))
    return with_every_level_rmq(payload, *LAYOUT["special"], implementation)


class TestArchivesWithAnRmqOnEveryLevel:
    @pytest.mark.parametrize("implementation", ["block", "sparse"])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_old_general_layout_raises(
        self, tmp_path, monkeypatch, low_cut_offs, implementation, mmap
    ):
        index = build("general", rmq_implementation=implementation)
        assert 1 <= len(index._short_rmq) < index.max_short_length
        payload = old_general_layout(index, implementation)
        assert sum(name.startswith("rmq_") for name in payload.children) == (
            index.max_short_length
        )
        monkeypatch.setattr(index, "to_payload", lambda: payload)
        path = save_index_payload(index, None, tmp_path / "general-every-level")
        with pytest.raises(ValidationError, match="duplicate_depths"):
            load_index_payload(path, mmap=mmap)

    @pytest.mark.parametrize("kind", ["listing"])
    @pytest.mark.parametrize("implementation", ["block", "sparse"])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_surplus_children_load_and_answer_identically(
        self, tmp_path, monkeypatch, low_cut_offs, kind, implementation, mmap
    ):
        index = build(kind, rmq_implementation=implementation)
        needed = sorted(level_rmqs(index))
        assert 1 <= len(needed) < index.max_short_length
        payload = with_every_level_rmq(
            index_to_payload(index), *LAYOUT[kind], implementation
        )
        assert sum(name.startswith("rmq_") for name in payload.children) == (
            index.max_short_length
        )
        monkeypatch.setattr(index, "to_payload", lambda: payload)
        path = save_index_payload(index, None, tmp_path / f"{kind}-every-level")
        loaded, _ = load_index_payload(path, mmap=mmap)
        # The needed children are restored, the surplus ones stay unread.
        assert sorted(level_rmqs(loaded)) == needed
        patterns = patterns_by_length(index.transformed.text, (1, 2, 3, 6))
        for group in patterns.values():
            for pattern in group:
                for tau in TAUS:
                    assert same_bits(loaded.query(pattern, tau), index.query(pattern, tau))
                    assert same_bits(
                        loaded.top_k(pattern, 4, tau=tau), index.top_k(pattern, 4, tau=tau)
                    )


    @pytest.mark.parametrize("implementation", ["block", "sparse"])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_old_special_layout_loads_and_answers_identically(
        self, tmp_path, monkeypatch, low_cut_offs, implementation, mmap
    ):
        index = build("special", rmq_implementation=implementation)
        assert 1 <= len(index._short_rmq) < index.max_short_length
        payload = old_special_layout(index, implementation)
        monkeypatch.setattr(index, "to_payload", lambda: payload)
        path = save_index_payload(index, None, tmp_path / "special-every-level")
        loaded, _ = load_index_payload(path, mmap=mmap)
        # The archive lists every level, so every level is read, not computed.
        every_level = list(range(1, index.max_short_length + 1))
        assert sorted(loaded._short_values) == sorted(loaded._short_rmq) == every_level
        patterns = patterns_by_length(text_of(index), (1, 2, 3, 6, 12))
        for group in patterns.values():
            for pattern in group:
                for tau in TAUS:
                    assert same_bits(loaded.query(pattern, tau), index.query(pattern, tau))
                    assert same_bits(
                        loaded.top_k(pattern, 4, tau=tau), index.top_k(pattern, 4, tau=tau)
                    )


def correlated_special_string(n=240, seed=8):
    """A random special string over ABC with correlation rules, and the model."""
    rng = random.Random(seed)
    base = make_random_special_string(n, seed, alphabet="ABC")
    pairs = [(entry.character, entry.probability) for entry in base]
    rules = []
    for position in sorted(rng.sample(range(n), n // 6)):
        offset = rng.choice([1, 2, 3, 5])
        partner = position + offset if position + offset < n else position - offset
        present, absent = rng.uniform(0.2, 1.0), rng.uniform(0.05, 1.0)
        pairs[position] = (pairs[position][0], present)
        partner_character = pairs[partner][0] if rng.random() < 0.7 else "Z"
        rules.append(
            CorrelationRule(
                position, pairs[position][0], partner, partner_character, present, absent
            )
        )
    return SpecialUncertainString(pairs), CorrelationModel(rules)


def scanned_top_k(index, pattern, k, tau):
    """``top_k`` by correcting every window of the range rank by rank."""
    string = index.string
    sp, ep = suffix_range(string.text, index._suffix_array.array, pattern)
    positions = index._suffix_array.array[sp : ep + 1].astype(np.int64)
    values = np.array(
        [
            correlation_adjusted_window_log_probability(
                index._prefix,
                position,
                len(pattern),
                index._correlations,
                string.text,
                string.probabilities,
            )
            for position in positions.tolist()
        ]
    )
    keep = values > np.log(1e-9 if tau is None else tau) - 1e-12
    return MatchArrays(OCCURRENCE, positions[keep], exp_values(values[keep])).top(k)


class TestCorrelatedSpecialLevels:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("implementation", ["block", "sparse"])
    def test_every_level_stored_and_top_k_equals_the_scan(self, seed, implementation):
        string, model = correlated_special_string(seed=8 + seed)
        index = SpecialUncertainStringIndex(
            string, correlations=model, rmq_implementation=implementation
        )
        # Algorithm 1's correction is not a prefix sum: every level stays.
        every_level = list(range(1, index.max_short_length + 1))
        assert rmq_depth(lcp_of(index), index.max_short_length) == 0
        assert sorted(index._short_values) == sorted(index._short_rmq) == every_level
        patterns = patterns_by_length(string.text, every_level, per_length=3, seed=seed)
        for group in patterns.values():
            for pattern in group:
                for k in (1, 3, 10, 50):
                    for tau in (None, 0.05, 0.3):
                        assert same_bits(
                            index.top_k(pattern, k, tau=tau),
                            scanned_top_k(index, pattern, k, tau),
                        ), (pattern, k, tau)


class TestComputedLevelsReadLikeStoredOnes:
    """A computed ``C_L`` answers with the bits of a stored one, in every layout.

    The reference is the same index restored from a payload that stores
    every level with its RMQ (the layout before levels were computed); the
    index under test stores none.  A correlated string stores every level
    either way, and its loads must answer like its build.
    """

    @pytest.mark.parametrize(
        "options",
        [{}, {"long_lengths": [10, 14]}, {"rmq_implementation": "block"}],
        ids=["default", "long_lengths", "block"],
    )
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("load", ["built", "eager", "mmap"])
    def test_answers_equal_every_level_stored(self, tmp_path, options, compact, load):
        implementation = options.get("rmq_implementation", "sparse")
        plain = SpecialUncertainStringIndex(
            make_random_special_string(400, 17, alphabet="ACGT"), **options
        )
        assert plain._short_values == {} and plain._short_rmq == {}
        string, model = correlated_special_string(seed=21)
        correlated = SpecialUncertainStringIndex(string, correlations=model, **options)
        references = [
            index_from_payload(old_special_layout(plain, implementation)),
            correlated,
        ]
        for number, (index, reference) in enumerate(zip((plain, correlated), references)):
            if load == "built":
                payload = index_to_payload(index)
                got = index_from_payload(payload.compact()) if compact else index
            else:
                path = save_index_payload(
                    index, None, tmp_path / f"special-{number}", compact=compact
                )
                got, _ = load_index_payload(path, mmap=load == "mmap")
            assert sorted(got._short_values) == sorted(index._short_values)
            text = index.string.text
            for length in (1, 2, 3, 5, 9, 10, 14):
                for start in (0, 37, 211):
                    pattern = text[start : start + length]
                    for tau in (0.02, 0.2, 0.6):
                        assert same_bits(
                            got.query(pattern, tau), reference.query(pattern, tau)
                        ), (number, pattern, tau)
                    for k in (1, 5, 40):
                        for tau in (None, 0.1):
                            assert same_bits(
                                got.top_k(pattern, k, tau=tau),
                                reference.top_k(pattern, k, tau=tau),
                            ), (number, pattern, k, tau)


class TestMissingNeededChild:
    @pytest.mark.parametrize("kind", ["special", "general", "listing"])
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_raises_validation_error(self, tmp_path, low_cut_offs, kind, compact, mmap):
        index = build(kind)
        depth = len(level_rmqs(index))
        assert depth >= 1
        path = save_index_payload(index, None, tmp_path / kind, compact=compact)
        victim = f"{LAYOUT[kind][1]}{depth}"
        manifest = read_manifest(path)
        del manifest["payload"]["children"][victim]
        rezip_archive(path, manifest=manifest)
        with pytest.raises(ValidationError, match=victim):
            load_index_payload(path, mmap=mmap)

    @pytest.mark.parametrize("kind", ["general", "listing"])
    def test_children_only_for_levels_that_need_one(self, low_cut_offs, kind):
        index = build(kind)
        depth = rmq_depth(index._lcp, index.max_short_length)
        prefix = LAYOUT[kind][1]
        children = index_to_payload(index).children
        assert sorted(name for name in children if name.startswith("rmq_")) == sorted(
            f"{prefix}{level}" for level in range(1, depth + 1)
        )
