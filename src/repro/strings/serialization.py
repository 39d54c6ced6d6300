"""JSON-safe manifests for the string types (payload / archive metadata).

The index payloads carry their input string (or collection) inside the
payload ``meta`` so a restored index can re-verify correlated candidates
and expose the original input.  These helpers convert the string types to
and from plain JSON-serializable dictionaries; floats round-trip exactly
(JSON preserves the shortest repr, which Python parses back bit-equal).
A special string is its text plus its probability list: the restore
converts the list to one float64 array and validates it in one pass,
building no per-position object.

Moved here from :mod:`repro.api.persistence` so the :mod:`repro.core`
``to_payload`` / ``from_payload`` implementations — which live *below* the
api layer — can use them without an import cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .collection import UncertainStringCollection
from .correlation import CorrelationModel, CorrelationRule
from .special import SpecialUncertainString
from .uncertain import UncertainString


def correlation_rules_to_manifest(model: CorrelationModel) -> List[Dict[str, Any]]:
    """Serialize a correlation model to a list of JSON-safe rule dicts."""
    return [
        {
            "position": rule.position,
            "character": rule.character,
            "partner_position": rule.partner_position,
            "partner_character": rule.partner_character,
            "probability_if_present": rule.probability_if_present,
            "probability_if_absent": rule.probability_if_absent,
        }
        for rule in model
    ]


def correlation_rules_from_manifest(entries: List[Dict[str, Any]]) -> CorrelationModel:
    """Inverse of :func:`correlation_rules_to_manifest`."""
    return CorrelationModel(CorrelationRule(**entry) for entry in entries)


def uncertain_string_to_manifest(string: UncertainString) -> Dict[str, Any]:
    """Serialize an :class:`UncertainString` (distributions + correlations)."""
    return {
        "type": "uncertain",
        "name": string.name,
        "positions": string.to_table(),
        "correlations": correlation_rules_to_manifest(string.correlations),
    }


def uncertain_string_from_manifest(entry: Dict[str, Any]) -> UncertainString:
    """Inverse of :func:`uncertain_string_to_manifest`."""
    string = UncertainString.from_table(entry["positions"], name=entry.get("name"))
    rules = entry.get("correlations") or []
    if not rules:
        return string
    return UncertainString(
        list(string),
        correlations=correlation_rules_from_manifest(rules),
        name=entry.get("name"),
    )


def special_string_to_manifest(string: SpecialUncertainString) -> Dict[str, Any]:
    """Serialize a :class:`SpecialUncertainString` (text + probabilities)."""
    return {
        "type": "special",
        "name": string.name,
        "text": string.text,
        "probabilities": string.probabilities.tolist(),
    }


def special_string_from_manifest(entry: Dict[str, Any]) -> SpecialUncertainString:
    """Inverse of :func:`special_string_to_manifest`."""
    return SpecialUncertainString.from_characters_and_probabilities(
        entry["text"], entry["probabilities"], name=entry.get("name")
    )


def collection_to_manifest(collection: UncertainStringCollection) -> Dict[str, Any]:
    """Serialize an :class:`UncertainStringCollection` document by document."""
    return {
        "type": "collection",
        "names": [collection.name_of(i) for i in range(len(collection))],
        "documents": [uncertain_string_to_manifest(document) for document in collection],
    }


def collection_from_manifest(entry: Dict[str, Any]) -> UncertainStringCollection:
    """Inverse of :func:`collection_to_manifest`."""
    documents = [uncertain_string_from_manifest(d) for d in entry["documents"]]
    return UncertainStringCollection(documents, names=entry.get("names"))
