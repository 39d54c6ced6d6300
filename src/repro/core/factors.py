"""Maximal factors and the general → special string transformation (Section 5.1).

A *maximal factor* of an uncertain string ``S`` at location ``i`` with
respect to a threshold ``τ_min`` is a deterministic string of maximal length
that, aligned at ``i``, has probability of occurrence at least ``τ_min``
(Definition 2).  Concatenating all maximal factors (with separators) yields a
special uncertain string ``X`` with the *substring conservation property*
(Lemma 2): every substring of ``S`` with occurrence probability ≥ τ_min at
some position appears in ``X`` aligned to a known original position.

The transformation below follows that construction directly:

* factors are enumerated per start position by a depth-first search over
  character choices, pruned as soon as the running probability drops below
  ``τ_min`` — the number of strings explored is exactly the number of valid
  (≥ τ_min) strings, the quantity the paper bounds by ``O((1/τ_min)² · n)``;
* the search appends each factor to flat buffers (its characters, its
  start, its probabilities), and the concatenation's arrays come from them
  in a few vectorized steps: a ``Pos`` array mapping every transformed
  position back to its original position (and a ``Doc`` array for
  collections), which the indexes use both to report original positions and
  to eliminate duplicates;
* :class:`TransformedString` holds only the text and those arrays, as built
  or as stored in a payload; :attr:`TransformedString.factors` re-derives
  :class:`MaximalFactor` records from them on demand.

Correlated strings: factor probabilities are computed from the per-position
marginals; for characters governed by a correlation rule the *optimistic*
probability ``max(pr+, pr-)`` is used so that pruning never discards a
factor that could reach ``τ_min`` under some correlation outcome.  Indexes
built over correlated strings re-verify candidate occurrences against the
original string, so this never produces wrong answers (see
``GeneralUncertainStringIndex``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_threshold
from ..exceptions import ConstructionError, ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.collection import UncertainStringCollection
from ..strings.uncertain import UncertainString
from ..suffix.pattern_search import suffix_range

#: Payload schema of a serialized :class:`TransformedString`.
TRANSFORMED_SCHEMA = "transformed"

#: Separator placed between concatenated factors.  ``\x01`` sorts below all
#: printable characters and may not occur in any indexed alphabet.
DEFAULT_SEPARATOR = "\x01"


@dataclass(frozen=True)
class MaximalFactor:
    """One maximal factor of an uncertain string.

    Attributes
    ----------
    start:
        Original starting position of the factor inside its document.
    characters:
        The factor's deterministic character string.
    probabilities:
        Per-character probabilities used when the factor was generated
        (aligned with ``characters``).
    document:
        Document identifier (0 for single-string transformations).
    """

    start: int
    characters: str
    probabilities: Tuple[float, ...]
    document: int = 0

    def __post_init__(self) -> None:
        if len(self.characters) != len(self.probabilities):
            raise ValidationError(
                "factor characters and probabilities must have equal length"
            )
        if not self.characters:
            raise ValidationError("a maximal factor cannot be empty")

    @property
    def length(self) -> int:
        """Number of characters in the factor."""
        return len(self.characters)

    @property
    def probability(self) -> float:
        """Probability of occurrence of the whole factor at its start position."""
        product = 1.0
        for value in self.probabilities:
            product *= value
        return product


def _optimistic_probability(string: UncertainString, position: int, character: str) -> float:
    """Probability used for factor enumeration (upper bound under correlation)."""
    base = string[position].probability(character)
    rule = string.correlations.rule_for(position, character)
    if rule is None:
        return base
    return max(rule.probability_if_present, rule.probability_if_absent)


def _collect_factors(
    string: UncertainString,
    tau_min: float,
    origins: Iterable[int],
    max_factor_length: Optional[int],
    characters: List[str],
    probabilities: List[float],
    starts: List[int],
) -> None:
    """Append the maximal factors starting at ``origins`` to flat buffers.

    Each factor adds its character string to ``characters``, its start to
    ``starts`` and its per-character probabilities to the one flat
    ``probabilities`` list, in start order and DFS order within a start.
    """
    log_threshold = math.log(tau_min) - 1e-12
    n = len(string)
    # A factor never outgrows the string, so "unbounded" is a cap of n.
    cap = n if max_factor_length is None else max_factor_length
    # Precompute the per-position character choices (optimistic probability
    # and its log) once: the DFS below revisits positions many times, and the
    # correlation lookup plus math.log per visit dominated construction.
    choices: List[List[Tuple[str, float, float]]] = []
    certain: List[Optional[Tuple[str, float]]] = []
    for position in range(n):
        entries = []
        for character, _base_probability in string[position]:
            effective = _optimistic_probability(string, position, character)
            if effective <= 0.0:
                continue
            entries.append((character, effective, math.log(effective)))
        choices.append(entries)
        # A run of certain characters (a single choice of probability 1)
        # never branches and never prunes: the DFS would walk it one node
        # per position, so such runs are bulk-extended instead.
        if len(entries) == 1 and entries[0][1] == 1.0:
            certain.append((entries[0][0], entries[0][1]))
        else:
            certain.append(None)

    for origin in origins:
        # Iterative DFS over character choices; a path is emitted as a factor
        # exactly when it cannot be extended while staying above tau_min.
        # The current path lives in shared buffers indexed by depth —
        # truncated on backtrack — instead of being copied into fresh tuples
        # at every node (which cost O(length²) per factor).
        path_characters: List[str] = []
        path_probabilities: List[float] = []
        # Stack frames: (next position, depth after placing char, running log
        # probability, char, prob); the root frame places no character.
        stack: List[Tuple[int, int, float, Optional[str], float]] = [
            (origin, 0, 0.0, None, 0.0)
        ]
        while stack:
            position, depth, log_probability, character, probability = stack.pop()
            if character is not None:
                del path_characters[depth - 1 :]
                del path_probabilities[depth - 1 :]
                path_characters.append(character)
                path_probabilities.append(probability)
            # Bulk-extend across the run of certain characters: probability-1
            # choices leave the running probability untouched, so the whole
            # run extends unconditionally in one step.
            while position < n and depth < cap and certain[position] is not None:
                run_character, run_probability = certain[position]  # type: ignore[misc]
                path_characters.append(run_character)
                path_probabilities.append(run_probability)
                position += 1
                depth += 1
            extended = False
            if position < n and depth < cap:
                for entry_character, effective, log_effective in choices[position]:
                    candidate = log_probability + log_effective
                    if candidate >= log_threshold:
                        stack.append(
                            (position + 1, depth + 1, candidate, entry_character, effective)
                        )
                        extended = True
            if not extended and depth:
                characters.append("".join(path_characters))
                probabilities.extend(path_probabilities)
                starts.append(origin)


def _check_max_factor_length(max_factor_length: Optional[int]) -> None:
    if max_factor_length is not None and max_factor_length <= 0:
        raise ValidationError(
            f"max_factor_length must be positive, got {max_factor_length}"
        )


def enumerate_maximal_factors(
    string: UncertainString,
    tau_min: float,
    *,
    start: Optional[int] = None,
    max_factor_length: Optional[int] = None,
    document: int = 0,
) -> List[MaximalFactor]:
    """Enumerate the maximal factors of ``string`` w.r.t. ``tau_min``.

    Parameters
    ----------
    string:
        The general uncertain string.
    tau_min:
        Construction-time probability threshold (must be in ``(0, 1]``).
    start:
        When given, only factors starting at this position are produced;
        otherwise every start position is processed.
    max_factor_length:
        Optional hard cap on factor length.  Factors are still emitted when
        the cap cuts them short, so the conservation property holds for
        patterns up to the cap.  ``None`` (default) means unbounded.
    document:
        Document identifier recorded on every produced factor.

    Returns
    -------
    list of MaximalFactor
        Factors ordered by start position (and DFS order within a position).
    """
    threshold = check_threshold(tau_min)
    _check_max_factor_length(max_factor_length)
    origins: Iterable[int]
    if start is None:
        origins = range(len(string))
    else:
        if start < 0 or start >= len(string):
            raise ValidationError(
                f"start position {start} outside string of length {len(string)}"
            )
        origins = (start,)
    characters: List[str] = []
    probabilities: List[float] = []
    starts: List[int] = []
    _collect_factors(
        string, threshold, origins, max_factor_length, characters, probabilities, starts
    )
    return _factor_records(starts, characters, probabilities, [document] * len(starts))


def _factor_records(
    starts: Sequence[int],
    characters: Sequence[str],
    probabilities: Sequence[float],
    documents: Sequence[int],
) -> List[MaximalFactor]:
    """One :class:`MaximalFactor` per factor of the flat buffers."""
    factors: List[MaximalFactor] = []
    offset = 0
    for start, factor_characters, document in zip(starts, characters, documents):
        end = offset + len(factor_characters)
        factors.append(
            MaximalFactor(start, factor_characters, tuple(probabilities[offset:end]), document)
        )
        offset = end
    return factors


class TransformedString:
    """Result of the general → special uncertain string transformation.

    The transformed text is the concatenation of all maximal factors, each
    followed by a separator character.  Parallel arrays map every transformed
    position back to its original position and document.  The arrays are
    the whole state: the factors are the runs between separators, derived
    on demand by :attr:`factors`.

    The constructor checks that the arrays describe such a layout and
    raises :class:`~repro.exceptions.ValidationError` otherwise: every
    array as long as the text, the text ending in the separator, no empty
    factor, ``-1`` in ``positions`` and ``documents`` exactly at the
    separators, and within a factor one document and consecutive positions.
    Integer arrays are kept at the dtype they arrive in (a compacted
    payload restores narrow ones).

    Attributes
    ----------
    text:
        The deterministic character string ``t`` the indexes are built over.
    probabilities:
        Per-position probabilities (separators carry probability 1).
    positions:
        ``Pos`` array: original position of each transformed position
        (``-1`` for separators).
    documents:
        Document identifier of each transformed position (``-1`` for
        separators).
    """

    def __init__(
        self,
        text: str,
        probabilities: np.ndarray,
        positions: np.ndarray,
        documents: np.ndarray,
        *,
        tau_min: float,
        source_length: int,
        document_count: int = 1,
        separator: str = DEFAULT_SEPARATOR,
    ):
        if not isinstance(separator, str) or len(separator) != 1:
            raise ValidationError(f"separator must be a single character, got {separator!r}")
        if not isinstance(text, str) or not text.endswith(separator):
            raise ValidationError(
                "a transformed text must be a non-empty str ending in the separator"
            )
        self._tau_min = check_threshold(tau_min)
        self._separator = separator
        self._source_length = source_length
        self._document_count = document_count
        self.text = text
        self.probabilities = probabilities
        self.positions = positions
        self.documents = documents
        self._factor_count = self._check_layout()

    def _check_layout(self) -> int:
        """Validate the arrays against the text; return the factor count."""
        n = len(self.text)
        for name, array, kinds in (
            ("probabilities", self.probabilities, "f"),
            ("positions", self.positions, "i"),
            ("documents", self.documents, "i"),
        ):
            if array.ndim != 1 or len(array) != n or array.dtype.kind not in kinds:
                raise ValidationError(
                    f"transformed {name} must be a 1-D {'float' if kinds == 'f' else 'signed integer'} "
                    f"array as long as the text ({n}), got {array.dtype} of shape {array.shape}"
                )
        codes = np.frombuffer(self.text.encode("utf-32-le"), dtype=np.uint32)
        separators = codes == ord(self._separator)
        if separators[0] or (separators[1:] & separators[:-1]).any():
            raise ValidationError("the transformed text holds an empty factor")
        positions = self.positions.astype(np.int64, copy=False)
        documents = self.documents.astype(np.int64, copy=False)
        inside = ~separators
        # Two neighbours inside one factor: same document, next position.
        continued = inside[1:] & inside[:-1]
        if (
            (positions[separators] != -1).any()
            or (documents[separators] != -1).any()
            or (positions[inside] < 0).any()
            or (documents[inside] < 0).any()
            or (positions[1:][continued] != positions[:-1][continued] + 1).any()
            or (documents[1:][continued] != documents[:-1][continued]).any()
        ):
            raise ValidationError(
                "transformed positions/documents disagree with the separators: each "
                "factor needs one document and consecutive positions, each separator -1"
            )
        return int(separators.sum())

    # -- metadata -----------------------------------------------------------------
    @property
    def tau_min(self) -> float:
        """Threshold the transformation was performed for."""
        return self._tau_min

    @property
    def separator(self) -> str:
        """Separator character between factors."""
        return self._separator

    @property
    def factors(self) -> Tuple[MaximalFactor, ...]:
        """The factors in concatenation order (derived from the arrays)."""
        inside = self.positions >= 0
        firsts = np.flatnonzero(inside & np.concatenate([[True], ~inside[:-1]]))
        return tuple(
            _factor_records(
                self.positions[firsts].tolist(),
                self.text.split(self._separator)[:-1],
                self.probabilities[inside].tolist(),
                self.documents[firsts].tolist(),
            )
        )

    @property
    def factor_count(self) -> int:
        """Number of factors."""
        return self._factor_count

    @property
    def source_length(self) -> int:
        """Total number of positions of the original string / collection."""
        return self._source_length

    @property
    def document_count(self) -> int:
        """Number of documents represented in the transformation."""
        return self._document_count

    @property
    def length(self) -> int:
        """Length ``N`` of the transformed text (the paper's ``O((1/τ)² n)``)."""
        return len(self.text)

    @property
    def expansion_ratio(self) -> float:
        """``N / n``: how much larger the transformed text is than the input."""
        return len(self.text) / self._source_length

    def __len__(self) -> int:
        return len(self.text)

    def suffix_range(
        self, suffix_array: np.ndarray, pattern: str
    ) -> Optional[Tuple[int, int]]:
        """The suffix range of ``pattern`` in the text, ``None`` when it has none.

        A pattern holding the separator has none: a match would span two
        factors, which is no occurrence in the source.
        """
        if self._separator in pattern:
            return None
        return suffix_range(self.text, suffix_array, pattern)

    def nbytes(self) -> int:
        """Approximate memory footprint of the numpy payload in bytes."""
        return int(
            self.probabilities.nbytes + self.positions.nbytes + self.documents.nbytes
        )

    # -- payload currency ---------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The :class:`~repro.payload.IndexPayload` describing this transformation."""
        return IndexPayload(
            schema=TRANSFORMED_SCHEMA,
            meta={
                "text": self.text,
                "tau_min": self._tau_min,
                "separator": self._separator,
                "source_length": self._source_length,
                "document_count": self._document_count,
            },
            arrays={
                "probabilities": self.probabilities,
                "positions": self.positions,
                "documents": self.documents,
            },
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "TransformedString":
        """Restore the transformation from its stored text and arrays.

        The arrays are kept as stored (no copy, no re-parse); the
        constructor's layout check rejects a malformed payload with
        :class:`~repro.exceptions.ValidationError`.
        """
        expect_schema(payload, TRANSFORMED_SCHEMA)
        meta = payload.meta
        return cls(
            meta["text"],
            payload.arrays["probabilities"],
            payload.arrays["positions"],
            payload.arrays["documents"],
            tau_min=meta["tau_min"],
            source_length=meta["source_length"],
            document_count=meta["document_count"],
            separator=meta["separator"],
        )


def _transform(
    sources: Sequence[UncertainString],
    tau_min: float,
    *,
    max_factor_length: Optional[int],
    separator: str,
    source_length: int,
) -> TransformedString:
    """Concatenate the maximal factors of every source (document ``i`` = ``sources[i]``)."""
    threshold = check_threshold(tau_min)
    _check_max_factor_length(max_factor_length)
    if not isinstance(separator, str) or len(separator) != 1:
        raise ValidationError(f"separator must be a single character, got {separator!r}")
    characters: List[str] = []
    probabilities: List[float] = []
    starts: List[int] = []
    factor_counts: List[int] = []
    for source in sources:
        before = len(starts)
        _collect_factors(
            source,
            threshold,
            range(len(source)),
            max_factor_length,
            characters,
            probabilities,
            starts,
        )
        factor_counts.append(len(starts) - before)
    if not starts:
        raise ConstructionError(
            "the transformation produced no factors; every position of the "
            "input has all its character probabilities below tau_min"
        )
    text = separator.join(characters) + separator
    if text.count(separator) != len(characters):
        raise ConstructionError(
            f"a factor contains the separator character {separator!r}; "
            "choose a different separator"
        )
    # Factor f spans [ends[f] - spans[f], ends[f] - 1) and its separator
    # sits at ends[f] - 1.
    spans = np.fromiter(map(len, characters), dtype=np.int64, count=len(characters)) + 1
    ends = np.cumsum(spans)
    total = int(ends[-1])
    separators = ends - 1
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - spans, spans)
    positions = np.repeat(np.asarray(starts, dtype=np.int64), spans) + offsets
    positions[separators] = -1
    documents = np.repeat(
        np.repeat(np.arange(len(sources), dtype=np.int64), factor_counts), spans
    )
    documents[separators] = -1
    values = np.ones(total, dtype=np.float64)
    values[positions >= 0] = probabilities
    return TransformedString(
        text,
        values,
        positions,
        documents,
        tau_min=threshold,
        source_length=source_length,
        document_count=len(sources),
        separator=separator,
    )


def transform_uncertain_string(
    string: UncertainString,
    tau_min: float,
    *,
    max_factor_length: Optional[int] = None,
    separator: str = DEFAULT_SEPARATOR,
) -> TransformedString:
    """Transform a general uncertain string into a :class:`TransformedString`.

    This is the Lemma 2 construction: the result's text contains every
    substring of ``string`` whose occurrence probability is at least
    ``tau_min``, aligned through the ``Pos`` array.
    """
    return _transform(
        [string],
        tau_min,
        max_factor_length=max_factor_length,
        separator=separator,
        source_length=len(string),
    )


def transform_collection(
    collection: UncertainStringCollection,
    tau_min: float,
    *,
    max_factor_length: Optional[int] = None,
    separator: str = DEFAULT_SEPARATOR,
) -> TransformedString:
    """Transform every document of a collection into one concatenated text.

    Factor ``Pos`` values are offsets *within their own document*; the
    ``Doc`` array carries the document identifier, mirroring the generalized
    suffix tree construction of Section 6.
    """
    return _transform(
        list(collection),
        tau_min,
        max_factor_length=max_factor_length,
        separator=separator,
        source_length=collection.total_positions,
    )
