"""Tests for repro.strings.special (special uncertain strings)."""

import math

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.strings import SpecialPosition, SpecialUncertainString


class TestSpecialPosition:
    def test_valid_pair(self):
        position = SpecialPosition("a", 0.5)
        assert position.character == "a"
        assert position.probability == 0.5

    def test_zero_probability_rejected(self):
        with pytest.raises(ValidationError):
            SpecialPosition("a", 0.0)

    def test_multicharacter_rejected(self):
        with pytest.raises(ValidationError):
            SpecialPosition("ab", 0.5)


class TestConstruction:
    def test_figure5_text(self, figure5_special_string):
        assert figure5_special_string.text == "banana"
        assert len(figure5_special_string) == 6
        assert figure5_special_string.length == 6

    def test_from_characters_and_probabilities(self):
        x = SpecialUncertainString.from_characters_and_probabilities("ab", [0.5, 1.0])
        assert x.text == "ab"
        assert x[1].probability == 1.0

    def test_from_characters_length_mismatch(self):
        with pytest.raises(ValidationError):
            SpecialUncertainString.from_characters_and_probabilities("ab", [0.5])

    def test_from_deterministic(self):
        x = SpecialUncertainString.from_deterministic("xyz")
        assert x.text == "xyz"
        assert all(position.probability == 1.0 for position in x)

    def test_from_deterministic_empty_raises(self):
        with pytest.raises(ValidationError):
            SpecialUncertainString.from_deterministic("")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SpecialUncertainString([])

    def test_equality(self, figure5_special_string):
        clone = SpecialUncertainString(list(figure5_special_string))
        assert clone == figure5_special_string
        assert figure5_special_string != SpecialUncertainString.from_deterministic("banana")

    def test_probabilities_are_read_only(self, figure5_special_string):
        with pytest.raises(ValueError):
            figure5_special_string.probabilities[0] = 0.9


#: Per-position inputs :class:`SpecialPosition` rejects, by reason; each
#: case puts the bad position after a valid one.
INVALID_POSITIONS = {
    "two characters": ("ab", 0.5),
    "empty character": ("", 0.5),
    "int character": (1, 0.5),
    "None character": (None, 0.5),
    "string probability": ("a", "x"),
    "None probability": ("a", None),
    "object probability": ("a", object()),
    "list probability": ("a", [0.5]),
    "complex probability": ("a", 0.5 + 0j),
    "nan": ("a", math.nan),
    "inf": ("a", math.inf),
    "-inf": ("a", -math.inf),
    "above one": ("a", 1.5),
    "just above one": ("a", math.nextafter(1.0, 2.0)),
    "negative": ("a", -0.25),
    "zero": ("a", 0.0),
    "negative zero": ("a", -0.0),
    "int zero": ("a", 0),
    "numpy zero": ("a", np.float64(0.0)),
    "numpy nan": ("a", np.float32("nan")),
}


class TestValidationParity:
    """Both constructors reject exactly what the per-position checks reject."""

    @pytest.mark.parametrize("case", sorted(INVALID_POSITIONS))
    def test_invalid_position_rejected_by_both_constructors(self, case):
        character, probability = INVALID_POSITIONS[case]
        with pytest.raises(ValidationError):
            SpecialPosition(character, probability)
        with pytest.raises(ValidationError):
            SpecialUncertainString([("c", 0.5), (character, probability)])
        with pytest.raises(ValidationError):
            SpecialUncertainString.from_characters_and_probabilities(
                ["c", character], [0.5, probability]
            )

    @pytest.mark.parametrize("pairs", [[], None])
    def test_empty_rejected_by_both_constructors(self, pairs):
        with pytest.raises(ValidationError):
            SpecialUncertainString(pairs)
        with pytest.raises(ValidationError):
            SpecialUncertainString.from_characters_and_probabilities("", [])
        with pytest.raises(ValidationError):
            SpecialUncertainString.from_characters_and_probabilities("", np.array([]))

    @pytest.mark.parametrize(
        "characters, probabilities",
        [("ab", [0.5]), ("a", [0.5, 0.5]), ("ab", np.array([0.5, 0.5, 0.5]))],
    )
    def test_length_mismatch_rejected(self, characters, probabilities):
        with pytest.raises(ValidationError, match="one probability per character"):
            SpecialUncertainString.from_characters_and_probabilities(
                characters, probabilities
            )

    def test_nested_probability_array_rejected(self):
        with pytest.raises(ValidationError):
            SpecialUncertainString.from_characters_and_probabilities(
                "ab", np.full((2, 1), 0.5)
            )

    def test_valid_values_keep_the_bits_of_float(self):
        values = [
            0.1,
            np.float32(0.3),
            np.float64(0.7),
            1,
            np.int64(1),
            True,
            0.1 + 0.2,
            5e-324,
            math.nextafter(1.0, 0.0),
            1.0,
        ]
        text = "abcdefghij"
        expected = np.array([float(value) for value in values], dtype=np.float64)
        built = [
            SpecialUncertainString(list(zip(text, values))),
            SpecialUncertainString([SpecialPosition(c, v) for c, v in zip(text, values)]),
            SpecialUncertainString.from_characters_and_probabilities(text, values),
            SpecialUncertainString.from_characters_and_probabilities(list(text), iter(values)),
        ]
        for string in built:
            assert string.text == text
            assert string.probabilities.dtype == np.float64
            assert string.probabilities.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_numpy_arrays_keep_the_bits_of_float(self, dtype):
        array = np.array([0.3, 0.55, 1.0], dtype=np.float64)
        if dtype is np.int64:
            array = np.ones(3, dtype=np.int64)
        array = array.astype(dtype)
        string = SpecialUncertainString.from_characters_and_probabilities("xyz", array)
        expected = np.array([float(value) for value in array], dtype=np.float64)
        assert string.probabilities.tobytes() == expected.tobytes()

    def test_caller_array_is_copied(self):
        array = np.array([0.5, 0.25])
        string = SpecialUncertainString.from_characters_and_probabilities("ab", array)
        array[0] = 0.75
        assert string.probabilities.tolist() == [0.5, 0.25]


class TestPositionsOnDemand:
    def test_iteration_and_indexing_agree(self, figure5_special_string):
        expected = [
            SpecialPosition(c, p)
            for c, p in zip("banana", [0.4, 0.7, 0.5, 0.8, 0.9, 0.6])
        ]
        assert list(figure5_special_string) == expected
        assert [figure5_special_string[i] for i in range(6)] == expected
        assert figure5_special_string[-1] == expected[-1]
        assert type(figure5_special_string[0].probability) is float
        with pytest.raises(IndexError):
            figure5_special_string[6]

    def test_slice_is_independent_of_its_source(self, figure5_special_string):
        part = figure5_special_string.slice(1, 4)
        assert part.text == "ana"
        assert part.probabilities.tolist() == [0.7, 0.5, 0.8]
        assert not np.shares_memory(part.probabilities, figure5_special_string.probabilities)
        with pytest.raises(ValueError):
            part.probabilities[0] = 0.9


class TestProbabilities:
    def test_window_probability_matches_figure5(self, figure5_special_string):
        # C array of Figure 5: prefix products 0.4, 0.28, 0.14, 0.112, ...
        assert figure5_special_string.window_probability(0, 1) == pytest.approx(0.4)
        assert figure5_special_string.window_probability(0, 2) == pytest.approx(0.28)
        assert figure5_special_string.window_probability(0, 3) == pytest.approx(0.14)

    def test_occurrence_probability_requires_character_match(self, figure5_special_string):
        assert figure5_special_string.occurrence_probability("ana", 1) == pytest.approx(
            0.7 * 0.5 * 0.8
        )
        assert figure5_special_string.occurrence_probability("ban", 1) == 0.0

    def test_occurrence_probability_out_of_range(self, figure5_special_string):
        assert figure5_special_string.occurrence_probability("ana", 5) == 0.0
        assert figure5_special_string.occurrence_probability("a", -1) == 0.0

    def test_matching_positions_reproduces_figure5_query(self, figure5_special_string):
        # Figure 5: query ("ana", 0.3) reports only position 4 (1-based), i.e. 3.
        assert figure5_special_string.matching_positions("ana", 0.3) == [3]
        assert figure5_special_string.matching_positions("ana", 0.2) == [1, 3]

    def test_window_probability_invalid_inputs(self, figure5_special_string):
        assert figure5_special_string.window_probability(-1, 2) == 0.0
        assert figure5_special_string.window_probability(0, 0) == 0.0
        assert figure5_special_string.window_probability(4, 10) == 0.0


class TestConversion:
    def test_to_uncertain_string_preserves_probabilities(self, figure5_special_string):
        lifted = figure5_special_string.to_uncertain_string()
        assert len(lifted) == len(figure5_special_string)
        assert lifted.occurrence_probability("ana", 3) == pytest.approx(
            figure5_special_string.occurrence_probability("ana", 3)
        )

    def test_to_uncertain_string_certain_positions_stay_certain(self):
        x = SpecialUncertainString([("a", 1.0), ("b", 0.5)])
        lifted = x.to_uncertain_string()
        assert lifted[0].is_certain
        assert not lifted[1].is_certain
