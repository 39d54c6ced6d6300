"""Tests for repro.core.factors (maximal factors and the Lemma 2 transformation)."""

import io
import zipfile

import numpy as np
import pytest

from repro.api import build_index, load_index, read_manifest
from repro.core.factors import (
    DEFAULT_SEPARATOR,
    MaximalFactor,
    TransformedString,
    enumerate_maximal_factors,
    transform_collection,
    transform_uncertain_string,
)
from repro.exceptions import ConstructionError, ValidationError
from repro.payload import array_checksum
from repro.strings import UncertainString
from tests.conftest import rezip_archive


class TestMaximalFactorDataclass:
    def test_probability_is_product(self):
        factor = MaximalFactor(0, "ab", (0.5, 0.4))
        assert factor.probability == pytest.approx(0.2)
        assert factor.length == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            MaximalFactor(0, "ab", (0.5,))

    def test_empty_factor_rejected(self):
        with pytest.raises(ValidationError):
            MaximalFactor(0, "", ())


class TestEnumerateMaximalFactors:
    def test_paper_figure3_maximal_factors_at_position_4(self, figure3_string):
        # Paper Section 5.1: the maximal factors of S at location 5 (1-based)
        # w.r.t. 0.15 are QPA, QPF, TPA, TPF.
        factors = enumerate_maximal_factors(figure3_string, 0.15, start=4)
        strings = sorted(factor.characters for factor in factors)
        assert strings == ["QPA", "QPF", "TPA", "TPF"]
        for factor in factors:
            assert factor.start == 4
            assert factor.probability >= 0.15

    def test_every_factor_is_maximal(self, figure3_string):
        tau_min = 0.15
        for factor in enumerate_maximal_factors(figure3_string, tau_min):
            end = factor.start + factor.length
            if end >= len(figure3_string):
                continue
            # No character at the next position can extend the factor while
            # keeping the probability >= tau_min.
            for character, probability in figure3_string[end]:
                assert factor.probability * probability < tau_min + 1e-12

    def test_factor_probabilities_match_string(self, figure3_string):
        for factor in enumerate_maximal_factors(figure3_string, 0.2):
            assert factor.probability == pytest.approx(
                figure3_string.occurrence_probability(factor.characters, factor.start),
                rel=1e-9,
            )

    def test_deterministic_string_has_single_factor_per_position(self):
        string = UncertainString.from_deterministic("abcd")
        factors = enumerate_maximal_factors(string, 0.5)
        assert len(factors) == 4
        assert [factor.characters for factor in factors] == ["abcd", "bcd", "cd", "d"]

    def test_start_argument(self, figure1_string):
        factors = enumerate_maximal_factors(figure1_string, 0.1, start=2)
        assert all(factor.start == 2 for factor in factors)

    def test_invalid_start_rejected(self, figure1_string):
        with pytest.raises(ValidationError):
            enumerate_maximal_factors(figure1_string, 0.1, start=9)

    def test_invalid_max_factor_length_rejected(self, figure1_string):
        with pytest.raises(ValidationError):
            enumerate_maximal_factors(figure1_string, 0.1, max_factor_length=0)

    def test_max_factor_length_caps_length(self, figure1_string):
        factors = enumerate_maximal_factors(figure1_string, 0.01, max_factor_length=2)
        assert factors
        assert all(factor.length <= 2 for factor in factors)

    def test_higher_threshold_gives_fewer_or_shorter_factors(self, figure1_string):
        low = enumerate_maximal_factors(figure1_string, 0.05)
        high = enumerate_maximal_factors(figure1_string, 0.5)
        assert sum(f.length for f in high) <= sum(f.length for f in low)

    def test_document_identifier_recorded(self, figure1_string):
        factors = enumerate_maximal_factors(figure1_string, 0.1, document=7)
        assert all(factor.document == 7 for factor in factors)

    def test_conservation_property(self, random_uncertain_string):
        # Every substring with probability >= tau_min starting at i is a
        # prefix of some maximal factor starting at i (Lemma 2).
        string = random_uncertain_string(25, 0.5, 11)
        tau_min = 0.1
        factors_by_start = {}
        for factor in enumerate_maximal_factors(string, tau_min):
            factors_by_start.setdefault(factor.start, []).append(factor.characters)
        backbone = string.most_likely_string()
        for start in range(len(string)):
            for length in range(1, min(6, len(string) - start) + 1):
                pattern = backbone[start : start + length]
                if string.occurrence_probability(pattern, start) >= tau_min:
                    assert any(
                        candidate.startswith(pattern)
                        for candidate in factors_by_start.get(start, [])
                    ), (pattern, start)


class TestTransformedString:
    def test_transformation_layout(self, figure10_string):
        transformed = transform_uncertain_string(figure10_string, 0.1)
        # Text is factors separated (and terminated) by the separator.
        assert transformed.text.endswith(transformed.separator)
        assert transformed.factor_count == len(transformed.factors)
        assert transformed.length == len(transformed.text)
        assert transformed.source_length == 4
        assert transformed.document_count == 1
        assert transformed.expansion_ratio == pytest.approx(
            transformed.length / 4
        )

    def test_positions_alignment(self, figure10_string):
        transformed = transform_uncertain_string(figure10_string, 0.1)
        for index, character in enumerate(transformed.text):
            if character == transformed.separator:
                assert transformed.positions[index] == -1
                assert transformed.probabilities[index] == 1.0
            else:
                original = int(transformed.positions[index])
                assert 0 <= original < 4
                # The character at this transformed position is one of the
                # probable characters at the original position.
                assert character in figure10_string[original].characters
                assert transformed.probabilities[index] == pytest.approx(
                    figure10_string[original].probability(character)
                )

    def test_window_probabilities_match_original(self, figure3_string):
        transformed = transform_uncertain_string(figure3_string, 0.15)
        probabilities = transformed.probabilities
        # Pick a factor and check an inner window equals the original
        # occurrence probability.
        factor = transformed.factors[0]
        offset = transformed.text.index(factor.characters)
        window = factor.characters[:2]
        value = float(np.prod(probabilities[offset : offset + 2]))
        assert value == pytest.approx(
            figure3_string.occurrence_probability(window, factor.start)
        )

    def test_conservation_of_probable_substrings(self, random_uncertain_string):
        string = random_uncertain_string(20, 0.4, 3)
        tau_min = 0.1
        transformed = transform_uncertain_string(string, tau_min)
        backbone = string.most_likely_string()
        for start in range(len(string)):
            for length in (1, 2, 3, 4):
                if start + length > len(string):
                    continue
                pattern = backbone[start : start + length]
                if string.occurrence_probability(pattern, start) >= tau_min:
                    assert pattern in transformed.text

    def test_empty_text_rejected(self):
        # A transformation holds at least one factor and its separator.
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValidationError):
            TransformedString(
                "", np.zeros(0), empty, empty, tau_min=0.1, source_length=1
            )

    def test_transformation_fails_when_every_character_below_threshold(self):
        string = UncertainString.from_table([{"a": 0.5, "b": 0.5}])
        with pytest.raises(ConstructionError):
            transform_uncertain_string(string, 0.9)

    def test_separator_collision_rejected(self, figure10_string):
        with pytest.raises(ConstructionError):
            transform_uncertain_string(figure10_string, 0.1, separator="P")

    def test_invalid_separator_rejected(self, figure10_string):
        with pytest.raises(ValidationError):
            transform_uncertain_string(figure10_string, 0.1, separator="##")

    def test_nbytes_positive(self, figure10_string):
        assert transform_uncertain_string(figure10_string, 0.1).nbytes() > 0


class TestTransformCollection:
    def test_documents_recorded(self, figure2_collection):
        transformed = transform_collection(figure2_collection, 0.05)
        assert transformed.document_count == 3
        assert transformed.source_length == figure2_collection.total_positions
        documents_seen = set(int(d) for d in transformed.documents if d >= 0)
        assert documents_seen == {0, 1, 2}

    def test_positions_are_document_offsets(self, figure2_collection):
        transformed = transform_collection(figure2_collection, 0.05)
        for index, character in enumerate(transformed.text):
            document = int(transformed.documents[index])
            position = int(transformed.positions[index])
            if document < 0:
                continue
            assert 0 <= position < len(figure2_collection[document])
            assert character in figure2_collection[document][position].characters


def rewrite_transformed(path, edit):
    """Rewrite an archive's ``transformed`` child through ``edit(text, arrays)``.

    Checksums are recomputed, so only the restore's own layout check can
    reject what ``edit`` returns.
    """
    manifest = read_manifest(path)
    child = manifest["payload"]["children"]["transformed"]
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    arrays = {
        name: np.lib.format.read_array(io.BytesIO(members[f"transformed/{name}.npy"]))
        for name in child["arrays"]
    }
    child["meta"]["text"], arrays = edit(child["meta"]["text"], arrays)
    for name, array in arrays.items():
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, array)
        members[f"transformed/{name}.npy"] = buffer.getvalue()
        child["checksums"][name] = array_checksum(array)
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return rezip_archive(path, manifest=manifest)


def _shorter_positions(text, arrays):
    arrays["positions"] = arrays["positions"][:-1]
    return text, arrays


def _separator_position(text, arrays):
    arrays["positions"][text.index(DEFAULT_SEPARATOR)] = 0
    return text, arrays


def _gapped_positions(text, arrays):
    arrays["positions"][1] += 1
    return text, arrays


def _empty_factor(text, arrays):
    # A second separator straight after the first one.
    at = text.index(DEFAULT_SEPARATOR) + 1
    inserted = {"probabilities": 1.0, "positions": -1, "documents": -1}
    arrays = {name: np.insert(array, at, inserted[name]) for name, array in arrays.items()}
    return text[:at] + DEFAULT_SEPARATOR + text[at:], arrays


def _unterminated_text(text, arrays):
    return text[:-1], {name: array[:-1] for name, array in arrays.items()}


class TestArrayOnlyRestore:
    """A malformed ``transformed`` child raises ValidationError, eager and mmap."""

    @pytest.fixture(scope="class")
    def engines(self):
        string = UncertainString.from_table(
            [{"a": 0.6, "b": 0.4}, {"a": 1.0}, {"b": 0.7, "c": 0.3}, {"a": 0.5, "c": 0.5}] * 6
        )
        return {
            "general": build_index(string, tau_min=0.1),
            "approximate": build_index(string, tau_min=0.1, epsilon=0.05),
            "listing": build_index([string, string], tau_min=0.1),
        }

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("kind", ["general", "approximate", "listing"])
    def test_round_trip_keeps_the_stored_arrays(self, engines, kind, compact, tmp_path):
        engine = engines[kind]
        path = engine.save(tmp_path / "index", compact=compact)
        for mmap in (False, True):
            restored = load_index(path, mmap=mmap).index.transformed
            original = engine.index.transformed
            assert restored.text == original.text
            assert restored.factors == original.factors
            for name in ("probabilities", "positions", "documents"):
                stored = getattr(restored, name)
                assert (stored == getattr(original, name)).all()
                if compact and name != "probabilities":
                    assert stored.dtype.itemsize < 8

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_shorter_positions, "as long as the text"),
            (_separator_position, "disagree with the separators"),
            (_gapped_positions, "disagree with the separators"),
            (_empty_factor, "empty factor"),
            (_unterminated_text, "ending in the separator"),
        ],
    )
    @pytest.mark.parametrize("kind", ["general", "approximate", "listing"])
    def test_malformed_child_rejected(self, engines, kind, edit, message, mmap, tmp_path):
        path = rewrite_transformed(engines[kind].save(tmp_path / "index"), edit)
        with pytest.raises(ValidationError, match=message):
            load_index(path, mmap=mmap)

    def test_factors_are_the_runs_between_separators(self, engines):
        transformed = engines["listing"].index.transformed
        factors = transformed.factors
        assert len(factors) == transformed.factor_count
        assert DEFAULT_SEPARATOR.join(f.characters for f in factors) + DEFAULT_SEPARATOR == (
            transformed.text
        )
        assert {factor.document for factor in factors} == {0, 1}
        flat = [p for factor in factors for p in factor.probabilities]
        inside = transformed.positions >= 0
        assert flat == transformed.probabilities[inside].tolist()
        assert [factor.start for factor in factors] == [
            int(transformed.positions[first])
            for first in np.flatnonzero(np.diff(inside.astype(np.int8), prepend=0) == 1)
        ]
