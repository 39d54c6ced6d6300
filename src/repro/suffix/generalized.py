"""Generalized suffix structures over document collections.

For the string-listing problem the paper concatenates all documents with a
separator symbol and builds one suffix tree over the concatenation
(Section 3.4, "generalized suffix tree").  :class:`ConcatenatedDocuments`
performs the concatenation and keeps the position -> (document, offset)
mapping; :class:`GeneralizedSuffixStructure` adds the suffix array / suffix
tree over it.

These classes operate on *deterministic* texts.  The uncertain-string
listing index (:mod:`repro.core.listing`) performs its own concatenation at
the maximal-factor level but reuses the same document-mapping conventions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError
from .lcp import lcp_from_ranks
from .suffix_array import SuffixArray, prefix_doubling
from .suffix_tree import SuffixTree

#: Default separator inserted between documents.  It must not occur inside
#: any document; ``\x01`` keeps it out of every printable alphabet while
#: still sorting below ordinary characters.
DEFAULT_SEPARATOR = "\x01"


class ConcatenatedDocuments:
    """Concatenation of deterministic documents with a separator.

    Parameters
    ----------
    documents:
        The deterministic texts to concatenate, in document-id order.
    separator:
        Single character placed between (and after) documents.

    Examples
    --------
    >>> concatenated = ConcatenatedDocuments(["abc", "de"])
    >>> concatenated.text
    'abc\\x01de\\x01'
    >>> concatenated.document_of(4)
    1
    >>> concatenated.offset_of(4)
    0
    """

    def __init__(self, documents: Sequence[str], *, separator: str = DEFAULT_SEPARATOR):
        if not documents:
            raise ValidationError("need at least one document to concatenate")
        if not isinstance(separator, str) or len(separator) != 1:
            raise ValidationError(f"separator must be a single character, got {separator!r}")
        for identifier, document in enumerate(documents):
            if not document:
                raise ValidationError(f"document {identifier} is empty")
            if separator in document:
                raise ValidationError(
                    f"document {identifier} contains the separator character {separator!r}"
                )
        self._documents = tuple(documents)
        self._separator = separator

        pieces: List[str] = []
        starts: List[int] = []
        cursor = 0
        for document in documents:
            starts.append(cursor)
            pieces.append(document)
            pieces.append(separator)
            cursor += len(document) + 1
        self._text = "".join(pieces)
        self._starts = np.asarray(starts, dtype=np.int64)
        self._ends = self._starts + np.asarray([len(d) for d in documents], dtype=np.int64)

    # -- accessors -------------------------------------------------------------------
    @property
    def text(self) -> str:
        """The concatenated text (each document followed by the separator)."""
        return self._text

    @property
    def separator(self) -> str:
        """The separator character."""
        return self._separator

    @property
    def documents(self) -> Tuple[str, ...]:
        """The original documents."""
        return self._documents

    @property
    def document_count(self) -> int:
        """Number of documents."""
        return len(self._documents)

    @property
    def document_starts(self) -> np.ndarray:
        """Start offset of each document in the concatenated text."""
        view = self._starts.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._text)

    # -- position mapping ----------------------------------------------------------------
    def document_of(self, position: int) -> int:
        """Document id owning the concatenated-text ``position``.

        Separator positions belong to the document they terminate.
        """
        if position < 0 or position >= len(self._text):
            raise ValidationError(
                f"position {position} outside concatenated text of length {len(self._text)}"
            )
        return int(np.searchsorted(self._starts, position, side="right") - 1)

    def offset_of(self, position: int) -> int:
        """Offset of ``position`` inside its owning document."""
        document = self.document_of(position)
        return position - int(self._starts[document])

    def is_separator(self, position: int) -> bool:
        """True when ``position`` holds a separator character."""
        return self._text[position] == self._separator

    def document_array(self) -> np.ndarray:
        """Vector mapping every concatenated-text position to its document id."""
        return np.searchsorted(self._starts, np.arange(len(self._text)), side="right") - 1


class GeneralizedSuffixStructure:
    """Suffix array + suffix tree over a :class:`ConcatenatedDocuments`.

    Convenience bundle used in tests and in the deterministic listing
    baseline; the probabilistic listing index builds its own structures over
    the transformed (maximal-factor) text.
    """

    def __init__(self, documents: Sequence[str], *, separator: str = DEFAULT_SEPARATOR):
        self._concatenation = ConcatenatedDocuments(documents, separator=separator)
        text = self._concatenation.text
        suffix_array, ranks = prefix_doubling(text)
        self._suffix_array = SuffixArray(text, array=suffix_array)
        self._lcp = lcp_from_ranks(ranks, suffix_array)
        self._tree: Optional[SuffixTree] = None

    @property
    def concatenation(self) -> ConcatenatedDocuments:
        """The underlying concatenation."""
        return self._concatenation

    @property
    def suffix_array(self) -> SuffixArray:
        """Suffix array over the concatenated text."""
        return self._suffix_array

    @property
    def lcp(self) -> np.ndarray:
        """LCP array over the concatenated text."""
        return self._lcp

    @property
    def tree(self) -> SuffixTree:
        """Suffix tree (built lazily on first access)."""
        if self._tree is None:
            self._tree = SuffixTree(self._suffix_array, lcp=self._lcp)
        return self._tree

    def documents_containing(self, pattern: str) -> List[int]:
        """Document ids containing at least one deterministic occurrence of ``pattern``."""
        interval = self.tree.pattern_range(pattern)
        if interval is None:
            return []
        sp, ep = interval
        positions = self._suffix_array.array[sp : ep + 1]
        documents = {
            self._concatenation.document_of(int(position)) for position in positions
        }
        # Occurrences that straddle the separator are not real occurrences of
        # the pattern inside a document; filter them out.
        valid = []
        for document in sorted(documents):
            text = self._concatenation.documents[document]
            if pattern in text:
                valid.append(document)
        return valid
