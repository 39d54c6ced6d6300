"""Suffix array construction (deterministic-string indexing substrate).

The paper's indexes are all layered on top of a suffix array / suffix tree of
the deterministic text obtained from the (transformed) uncertain string.
This module builds it by prefix doubling, vectorized with numpy:
:func:`prefix_doubling` returns the suffix array together with the rank
array of every doubling round, from which
:func:`repro.suffix.lcp.common_prefix_lengths` reads the longest common
prefix of any two suffixes (the LCP array is the adjacent pairs).  It also
provides the inverse (rank) array and convenience accessors.

The implementation works directly on Python strings; internally characters
are mapped to their Unicode code points, so arbitrary sentinel characters
(``$``, ``\\x00`` ...) are supported as long as they are single characters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError


def prefix_doubling(text: str) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The suffix array of ``text`` and the rank array of every doubling round.

    Round ``k`` ranks every position ``i`` by ``text[i : i + 2**k]``, a tail
    cut short by the end of the text ranking below its extensions; equal
    ranks mean equal substrings.  Each round after the first sorts one
    combined key, ``rank[i] * (n + 1) + rank[i + 2**(k-1)] + 1`` (0 past the
    end), with one plain ``argsort``: the new ranks depend only on which
    keys are equal, and the rounds stop at the first one where every rank
    is distinct, whose order is therefore the suffix array whatever the
    sort's stability.  That takes ``⌈log2 n⌉`` rounds at most
    (``"A" * 65536``: 17 rank arrays), ``O(n log n)`` work each.

    Returns
    -------
    tuple
        The suffix array (``int64``) and the rank arrays of rounds
        ``0, 1, ...`` (``int32``, each one entry longer than the text: the
        trailing ``-1`` stands for the empty suffix, so
        :func:`~repro.suffix.lcp.common_prefix_lengths` can compare past
        the end without a bounds check).
    """
    if not isinstance(text, str):
        raise ValidationError(f"text must be a str, got {type(text).__name__}")
    n = len(text)
    if n == 0:
        raise ValidationError("cannot build a suffix array over an empty text")
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    alphabet, inverse = np.unique(codes, return_inverse=True)
    rank = np.empty(n + 1, dtype=np.int32)
    rank[:n] = inverse
    rank[n] = -1
    ranks = [rank]
    distinct = len(alphabet)
    order = np.argsort(rank[:n], kind="stable") if distinct == n else None
    width = 1
    while distinct < n:
        key = rank[:n].astype(np.int64)
        key *= n + 1
        key[: n - width] += rank[width:n]
        key[: n - width] += 1
        order = np.argsort(key)
        sorted_key = key[order]
        boundaries = np.empty(n, dtype=np.int32)
        boundaries[0] = 0
        np.cumsum(sorted_key[1:] != sorted_key[:-1], dtype=np.int32, out=boundaries[1:])
        rank = np.empty(n + 1, dtype=np.int32)
        rank[order] = boundaries
        rank[n] = -1
        ranks.append(rank)
        distinct = int(boundaries[-1]) + 1
        width *= 2
    return order.astype(np.int64), ranks


def build_suffix_array(text: str) -> np.ndarray:
    """Return the suffix array of ``text``.

    The suffix array ``A`` lists the starting positions of the suffixes of
    ``text`` in lexicographic order: ``text[A[0]:] < text[A[1]:] < ...``.

    Parameters
    ----------
    text:
        Non-empty string to index.

    Returns
    -------
    numpy.ndarray
        Array of ``int64`` suffix start positions, length ``len(text)``.

    Examples
    --------
    >>> build_suffix_array("banana").tolist()
    [5, 3, 1, 0, 4, 2]
    """
    return prefix_doubling(text)[0]


def inverse_suffix_array(suffix_array: np.ndarray) -> np.ndarray:
    """Return the inverse permutation (``rank``) of a suffix array.

    ``rank[i]`` is the lexicographic rank of the suffix starting at ``i``.

    Integer dtypes pass through: a dtype-minimized (compacted) suffix
    array yields an equally narrow rank array — ranks and positions span
    the same ``[0, n)`` value range.
    """
    suffix_array = np.asarray(suffix_array)
    if suffix_array.dtype.kind not in ("i", "u"):
        suffix_array = np.asarray(suffix_array, dtype=np.int64)
    rank = np.empty_like(suffix_array)
    rank[suffix_array] = np.arange(len(suffix_array), dtype=np.int64)
    return rank


def naive_suffix_array(text: str) -> List[int]:
    """Quadratic reference construction used by the test suite."""
    if not text:
        raise ValidationError("cannot build a suffix array over an empty text")
    return sorted(range(len(text)), key=lambda i: text[i:])


class SuffixArray:
    """A suffix array bundled with its text and inverse array.

    Parameters
    ----------
    text:
        The text to index.
    array:
        Optional pre-computed suffix array (used when loading from disk or
        testing); validated for length only.

    Examples
    --------
    >>> sa = SuffixArray("banana")
    >>> sa.array.tolist()
    [5, 3, 1, 0, 4, 2]
    >>> sa.suffix(1)
    'anana'
    """

    def __init__(self, text: str, *, array: Optional[Sequence[int]] = None):
        if not text:
            raise ValidationError("cannot build a suffix array over an empty text")
        self._text = text
        if array is None:
            self._array = build_suffix_array(text)
        else:
            # Any integer dtype is kept as-is, zero-copy: compacted
            # payloads restore uint8/16/32 suffix arrays, and the query
            # paths widen lazily at the few arithmetic sites that need
            # int64.  Non-integer inputs (lists, floats) still cast once.
            candidate = np.asarray(array)
            if candidate.dtype.kind not in ("i", "u"):
                candidate = np.ascontiguousarray(candidate, dtype=np.int64)
            if len(candidate) != len(text):
                raise ValidationError(
                    f"suffix array length {len(candidate)} does not match text length {len(text)}"
                )
            self._array = candidate
        self._rank: Optional[np.ndarray] = None

    # -- accessors ----------------------------------------------------------------
    @property
    def text(self) -> str:
        """The indexed text."""
        return self._text

    @property
    def array(self) -> np.ndarray:
        """The suffix array ``A`` (lexicographic rank -> text position)."""
        return self._array

    @property
    def rank(self) -> np.ndarray:
        """The inverse array (text position -> lexicographic rank).

        Built on first read and cached: no index query reads it, so a
        build or a restore does not pay for it.
        """
        if self._rank is None:
            self._rank = inverse_suffix_array(self._array)
        return self._rank

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, lexicographic_rank: int) -> int:
        return int(self._array[lexicographic_rank])

    def suffix(self, lexicographic_rank: int) -> str:
        """Return the suffix with the given lexicographic rank."""
        return self._text[int(self._array[lexicographic_rank]) :]

    def nbytes(self) -> int:
        """Approximate memory footprint of the numpy payload in bytes."""
        rank = 0 if self._rank is None else self._rank.nbytes
        return int(self._array.nbytes + rank)
