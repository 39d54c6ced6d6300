"""Planner routing: every input shape selects the expected index class."""

import pytest

from repro.api import build_index, build_sharded_index, plan_index, read_manifest
from repro.core.approximate import ApproximateSubstringIndex
from repro.core.general_index import GeneralUncertainStringIndex
from repro.core.listing import UncertainStringListingIndex
from repro.core.simple_index import SimpleSpecialIndex
from repro.core.special_index import SpecialUncertainStringIndex
from repro.exceptions import ValidationError
from repro.strings import (
    CorrelationModel,
    CorrelationRule,
    SpecialUncertainString,
    UncertainString,
    UncertainStringCollection,
)
from tests.conftest import make_random_special_string, make_random_uncertain_string


@pytest.fixture
def general_string():
    return UncertainString(
        [
            {"Q": 0.7, "S": 0.3},
            {"Q": 0.3, "P": 0.7},
            {"P": 1.0},
            {"A": 0.4, "F": 0.3, "P": 0.2, "Q": 0.1},
        ]
    )


@pytest.fixture
def special_string():
    return SpecialUncertainString(
        [("b", 0.4), ("a", 0.7), ("n", 0.5), ("a", 0.8), ("n", 0.9), ("a", 0.6)]
    )


@pytest.fixture
def collection():
    return UncertainStringCollection(
        [
            UncertainString([{"A": 0.6, "B": 0.4}, {"C": 1.0}]),
            UncertainString([{"A": 1.0}, {"B": 0.5, "C": 0.5}]),
        ]
    )


class TestAutoRouting:
    def test_plain_string_routes_to_special(self):
        plan = plan_index("banana")
        assert plan.kind == "special"
        assert plan.index_class is SpecialUncertainStringIndex

    def test_special_string_routes_to_special(self, special_string):
        plan = plan_index(special_string)
        assert plan.kind == "special"
        assert plan.tau_min == 0.0

    def test_single_character_uncertain_string_routes_to_special(self):
        string = UncertainString([{"a": 1.0}, {"b": 1.0}, {"a": 1.0}])
        assert plan_index(string).kind == "special"

    def test_general_string_routes_to_general(self, general_string):
        plan = plan_index(general_string, tau_min=0.1)
        assert plan.kind == "general"
        assert plan.index_class is GeneralUncertainStringIndex
        assert plan.tau_min == pytest.approx(0.1)

    def test_collection_routes_to_listing(self, collection):
        plan = plan_index(collection, tau_min=0.1)
        assert plan.kind == "listing"
        assert plan.index_class is UncertainStringListingIndex

    def test_sequence_of_documents_routes_to_listing(self, general_string):
        assert plan_index([general_string, general_string]).kind == "listing"

    def test_sequence_of_plain_strings_routes_to_listing(self):
        assert plan_index(["banana", "ananas"]).kind == "listing"

    def test_epsilon_routes_to_approximate(self, general_string):
        plan = plan_index(general_string, tau_min=0.1, epsilon=0.05)
        assert plan.kind == "approximate"
        assert plan.index_class is ApproximateSubstringIndex
        assert plan.options["epsilon"] == pytest.approx(0.05)

    def test_correlated_single_character_string_stays_general(self):
        string = UncertainString(
            [{"a": 1.0}, {"b": 1.0}, {"z": 1.0}],
            correlations=CorrelationModel(
                [CorrelationRule(2, "z", 0, "a", 0.3, 0.4)]
            ),
        )
        assert plan_index(string, tau_min=0.1).kind == "general"

    def test_default_tau_min_applied(self, general_string):
        assert plan_index(general_string).tau_min == pytest.approx(0.1)

    def test_profile_and_reason_populated(self, general_string):
        plan = plan_index(general_string, tau_min=0.1)
        assert plan.reason
        assert plan.profile["shape"] == "general"
        assert plan.profile["length"] == 4
        assert plan.profile["alphabet_size"] == 5


class TestOverridesAndErrors:
    def test_explicit_kind_general_on_special_input(self, special_string):
        plan = plan_index(special_string, tau_min=0.1, kind="general")
        assert plan.kind == "general"

    def test_explicit_kind_simple(self, special_string):
        assert plan_index(special_string, kind="simple").kind == "simple"

    def test_special_kind_on_general_input_raises(self, general_string):
        with pytest.raises(ValidationError):
            plan_index(general_string, kind="special")

    def test_listing_kind_on_string_raises(self, general_string):
        with pytest.raises(ValidationError):
            plan_index(general_string, kind="listing")

    def test_non_listing_kind_on_collection_raises(self, collection):
        with pytest.raises(ValidationError):
            plan_index(collection, kind="general")

    def test_unknown_kind_raises(self, general_string):
        with pytest.raises(ValidationError):
            plan_index(general_string, kind="wavelet-tree")

    def test_empty_inputs_raise(self):
        with pytest.raises(ValidationError):
            plan_index("")
        with pytest.raises(ValidationError):
            plan_index([])
        with pytest.raises(ValidationError):
            plan_index(42)


class TestBuildIndex:
    @pytest.mark.parametrize(
        "maker, kwargs, expected",
        [
            (lambda f: "banana", {}, SpecialUncertainStringIndex),
            (lambda f: f["special"], {}, SpecialUncertainStringIndex),
            (lambda f: f["general"], {"tau_min": 0.1}, GeneralUncertainStringIndex),
            (
                lambda f: f["general"],
                {"tau_min": 0.1, "epsilon": 0.05},
                ApproximateSubstringIndex,
            ),
            (lambda f: f["collection"], {"tau_min": 0.1}, UncertainStringListingIndex),
            (lambda f: "banana", {"kind": "simple"}, SimpleSpecialIndex),
        ],
    )
    def test_builds_expected_class(
        self, general_string, special_string, collection, maker, kwargs, expected
    ):
        fixtures = {
            "general": general_string,
            "special": special_string,
            "collection": collection,
        }
        engine = build_index(maker(fixtures), **kwargs)
        assert isinstance(engine.index, expected)

    def test_general_engine_answers_match_direct_index(self, general_string):
        engine = build_index(general_string, tau_min=0.1)
        direct = GeneralUncertainStringIndex(general_string, tau_min=0.1)
        for pattern in ("QP", "PP", "P", "ZZ"):
            assert engine.query(pattern, tau=0.2) == direct.query(pattern, 0.2)

    def test_kind_override_on_plain_string(self):
        engine = build_index("banana", kind="general", tau_min=0.5)
        assert isinstance(engine.index, GeneralUncertainStringIndex)
        assert [occ.position for occ in engine.query("ana", tau=0.9)] == [1, 3]


class TestHistoryIndependence:
    """Plans and archives depend only on the input and the arguments."""

    def test_earlier_builds_change_no_plan_and_no_archive(
        self, tmp_path, general_string, collection
    ):
        long_special = make_random_special_string(16_384, seed=5)

        def plan_and_save(tag):
            plan = plan_index(long_special)
            paths = [
                build_index(general_string, tau_min=0.1).save(tmp_path / f"general-{tag}"),
                build_index(collection, tau_min=0.1).save(tmp_path / f"listing-{tag}"),
            ]
            return plan, paths

        first_plan, first_paths = plan_and_save("first")
        general = make_random_uncertain_string(60, 0.3, seed=9)
        build_index(make_random_special_string(4_096, seed=6))
        build_index(make_random_special_string(300, seed=7), kind="simple")
        build_index(general, tau_min=0.1)
        build_index(general, tau_min=0.1, epsilon=0.05)
        build_index([general, make_random_uncertain_string(40, 0.3, seed=10)], tau_min=0.1)
        second_plan, second_paths = plan_and_save("second")

        assert first_plan.kind == "special"
        assert second_plan == first_plan
        for first, second in zip(first_paths, second_paths):
            assert read_manifest(first) == read_manifest(second)
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_describe_ignores_earlier_builds(self, general_string, collection, sharded):
        long_special = make_random_special_string(16_384, seed=5)

        def describe(source, **kwargs):
            if not sharded:
                return build_index(source, **kwargs).describe()
            engine = build_sharded_index(source, shards=2, **kwargs)
            try:
                return engine.describe()
            finally:
                engine.close()

        def describe_all():
            return [
                describe(long_special),
                describe(general_string, tau_min=0.1),
                describe(collection, tau_min=0.1),
            ]

        first = describe_all()
        build_index(make_random_special_string(4_096, seed=6))
        build_index(make_random_uncertain_string(60, 0.3, seed=9), tau_min=0.1)
        second = describe_all()
        assert [info["kind"] for info in first] == ["special", "general", "listing"]
        assert second == first
