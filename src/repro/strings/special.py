"""Special uncertain strings (paper Section 4, Definition 1).

A *special* uncertain string has exactly one probable character per position,
each with a non-zero probability of occurrence.  It is the form produced by
the maximal-factor transformation of Section 5.1 and the form the efficient
RMQ-based index of Section 4.2 is built over.

As in Definition 1, a :class:`SpecialUncertainString` is the deterministic
text ``t`` plus one float64 probability per position: both constructors
validate the probabilities in one array pass, and :class:`SpecialPosition`
records are built only when a caller iterates or indexes the string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_nonempty_pattern, check_probability, check_threshold
from ..exceptions import ValidationError
from .uncertain import UncertainString


@dataclass(frozen=True)
class SpecialPosition:
    """One ``(character, probability)`` pair of a special uncertain string."""

    character: str
    probability: float

    def __post_init__(self) -> None:
        if not isinstance(self.character, str) or len(self.character) != 1:
            raise ValidationError(
                f"special position character must be a single character, got {self.character!r}"
            )
        probability = check_probability(self.probability, name="probability")
        if probability <= 0.0:
            raise ValidationError(
                "special uncertain string probabilities must be strictly positive"
            )
        object.__setattr__(self, "probability", probability)


def _checked_text_and_probabilities(
    characters: Sequence[str], probabilities: Any
) -> Tuple[str, np.ndarray]:
    """The text and float64 probabilities of a special uncertain string.

    Rejects what :class:`SpecialPosition` rejects position by position —
    a character that is not a one-character ``str``, a probability that is
    not a number, not finite, outside ``[0, 1]`` or zero — plus an empty
    input and a length mismatch, with one array conversion and one
    vectorized range check.  Each probability becomes ``float(value)``.
    """
    if len(characters) == 0:
        raise ValidationError("a special uncertain string needs at least one position")
    if not isinstance(characters, str):
        for character in characters:
            if not isinstance(character, str) or len(character) != 1:
                raise ValidationError(
                    "special position character must be a single character, "
                    f"got {character!r}"
                )
        characters = "".join(characters)
    try:
        array = np.array(probabilities, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ValidationError(f"probabilities must be numbers: {error}") from error
    if array.shape != (len(characters),):
        raise ValidationError(
            f"need one probability per character: {len(characters)} characters, "
            f"probabilities of shape {array.shape}"
        )
    # NaN fails both comparisons.
    outside = np.flatnonzero(~((array > 0.0) & (array <= 1.0)))
    if outside.size:
        position = int(outside[0])
        check_probability(probabilities[position], name=f"probability at position {position}")
        raise ValidationError(
            "special uncertain string probabilities must be strictly positive "
            f"(position {position})"
        )
    return characters, array


class SpecialUncertainString:
    """An uncertain string with a single probable character per position.

    Parameters
    ----------
    pairs:
        Sequence of ``(character, probability)`` pairs or
        :class:`SpecialPosition` instances.
    name:
        Optional identifier.

    Examples
    --------
    The banana example of Figure 5:

    >>> x = SpecialUncertainString([
    ...     ("b", 0.4), ("a", 0.7), ("n", 0.5), ("a", 0.8), ("n", 0.9), ("a", 0.6),
    ... ])
    >>> x.text
    'banana'
    >>> round(x.occurrence_probability("ana", 3), 3)
    0.432
    """

    def __init__(
        self,
        pairs: Sequence[Union[SpecialPosition, Tuple[str, float]]],
        *,
        name: Optional[str] = None,
    ):
        characters: List[str] = []
        probabilities: List[Any] = []
        for pair in () if pairs is None else pairs:
            if isinstance(pair, SpecialPosition):
                pair = (pair.character, pair.probability)
            character, probability = pair
            characters.append(character)
            probabilities.append(probability)
        self._text, self._probabilities = _checked_text_and_probabilities(
            characters, probabilities
        )
        self.name = name

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_characters_and_probabilities(
        cls,
        characters: str,
        probabilities: Iterable[float],
        *,
        name: Optional[str] = None,
    ) -> "SpecialUncertainString":
        """Build from a character string plus a parallel probability sequence.

        Validates exactly what the pair constructor does, without building
        a :class:`SpecialPosition` per position.
        """
        if not isinstance(probabilities, np.ndarray):
            probabilities = list(probabilities)
        string = cls.__new__(cls)
        string._text, string._probabilities = _checked_text_and_probabilities(
            characters, probabilities
        )
        string.name = name
        return string

    @classmethod
    def from_deterministic(cls, text: str, *, name: Optional[str] = None) -> "SpecialUncertainString":
        """Build a special uncertain string where every character is certain."""
        return cls.from_characters_and_probabilities(text, np.ones(len(text)), name=name)

    # -- container protocol -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._text)

    def __iter__(self) -> Iterator[SpecialPosition]:
        return map(SpecialPosition, self._text, self._probabilities.tolist())

    def __getitem__(self, index: int) -> SpecialPosition:
        return SpecialPosition(self._text[index], float(self._probabilities[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpecialUncertainString):
            return NotImplemented
        return self._text == other._text and np.allclose(
            self._probabilities, other._probabilities
        )

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"SpecialUncertainString(length={len(self)}{label})"

    # -- basic properties --------------------------------------------------------
    @property
    def text(self) -> str:
        """The underlying deterministic character string ``t``."""
        return self._text

    @property
    def probabilities(self) -> np.ndarray:
        """Per-position probabilities as a read-only numpy array."""
        view = self._probabilities.view()
        view.flags.writeable = False
        return view

    @property
    def length(self) -> int:
        """Number of positions."""
        return len(self._text)

    # -- probability computation ---------------------------------------------------
    def log_probabilities(self) -> np.ndarray:
        """Natural log of the per-position probabilities."""
        return np.log(self._probabilities)

    def occurrence_probability(self, pattern: str, position: int) -> float:
        """Probability that ``pattern`` occurs at ``position``.

        The characters must match exactly (this is a special string, each
        position has a single character) and the probability is the product
        of the per-position probabilities (Section 3.2).
        """
        check_nonempty_pattern(pattern)
        if position < 0 or position + len(pattern) > len(self._text):
            return 0.0
        if self._text[position : position + len(pattern)] != pattern:
            return 0.0
        return float(np.prod(self._probabilities[position : position + len(pattern)]))

    def window_probability(self, position: int, length: int) -> float:
        """Probability of the length-``length`` window starting at ``position``."""
        if position < 0 or length <= 0 or position + length > len(self._text):
            return 0.0
        return float(np.prod(self._probabilities[position : position + length]))

    def matching_positions(self, pattern: str, tau: float) -> List[int]:
        """Brute-force scan for occurrences with probability > ``tau``."""
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau)
        results = []
        for position in range(len(self._text) - len(pattern) + 1):
            if self._text[position : position + len(pattern)] != pattern:
                continue
            if self.occurrence_probability(pattern, position) > threshold:
                results.append(position)
        return results

    # -- slicing --------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "SpecialUncertainString":
        """Return the special uncertain substring covering positions ``[start, stop)``.

        Positions are independent, so the slice answers any query over its
        window exactly as the full string does — the property chunked
        sharding relies on (mirrors :meth:`UncertainString.slice`).
        """
        if start < 0 or stop > len(self._text) or start >= stop:
            raise ValidationError(
                f"invalid slice [{start}, {stop}) for string of length {len(self._text)}"
            )
        return self.from_characters_and_probabilities(
            self._text[start:stop], self._probabilities[start:stop], name=self.name
        )

    # -- conversions ----------------------------------------------------------------
    def to_uncertain_string(self) -> UncertainString:
        """Lift to a general :class:`UncertainString`.

        Positions with probability < 1 receive a synthetic complement
        character ``"\\x00"`` absorbing the leftover mass so that the result
        is a valid distribution; the complement never matches any query
        pattern drawn from a real alphabet.
        """
        rows = []
        for character, probability in zip(self._text, self._probabilities.tolist()):
            if math.isclose(probability, 1.0, abs_tol=1e-12):
                rows.append({character: 1.0})
            else:
                rows.append({character: probability, "\x00": 1.0 - probability})
        return UncertainString.from_table(rows, name=self.name)
