"""Suffix-range lookup for deterministic patterns.

Given a suffix array of a text ``t`` and a pattern ``p``, the *suffix range*
``[sp, ep]`` is the maximal interval of lexicographic ranks whose suffixes
have ``p`` as a prefix (paper Section 3.4).  The paper obtains it through the
suffix tree in ``O(m)``; this module provides the equivalent binary-search
lookup over the suffix array in ``O(m log n)``, which is what every index
uses.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._validation import check_nonempty_pattern
from ..exceptions import ValidationError


def _as_index_array(suffix_array: np.ndarray) -> np.ndarray:
    """Pass prebuilt integer suffix arrays through without re-casting.

    Every index caches its suffix array as a contiguous integer numpy
    array at construction (see :class:`~repro.suffix.suffix_array.SuffixArray`)
    — int64 when built, possibly uint8/16/32 when restored from a
    dtype-minimized payload — so the common case is a no-op kind check
    instead of a per-query copy; lists and float inputs still convert.
    The binary searches below only ever read single elements through
    ``int(...)``, which is dtype-agnostic.
    """
    if isinstance(suffix_array, np.ndarray) and suffix_array.dtype.kind in ("i", "u"):
        return suffix_array
    return np.asarray(suffix_array, dtype=np.int64)


def suffix_range(text: str, suffix_array: np.ndarray, pattern: str) -> Optional[Tuple[int, int]]:
    """Return the inclusive suffix range of ``pattern`` or ``None`` if absent.

    Parameters
    ----------
    text:
        The indexed text.
    suffix_array:
        Suffix array of ``text``.
    pattern:
        Non-empty deterministic pattern.

    Returns
    -------
    tuple of (int, int) or None
        Inclusive interval ``(sp, ep)`` of lexicographic ranks, or ``None``
        when ``pattern`` does not occur in ``text``.

    Examples
    --------
    >>> from repro.suffix.suffix_array import build_suffix_array
    >>> text = "banana"
    >>> suffix_range(text, build_suffix_array(text), "ana")
    (1, 2)
    >>> suffix_range(text, build_suffix_array(text), "x") is None
    True
    """
    check_nonempty_pattern(pattern)
    if not text:
        raise ValidationError("cannot search in an empty text")
    suffix_array = _as_index_array(suffix_array)
    n = len(suffix_array)
    m = len(pattern)

    # Lower bound: first suffix >= pattern.
    low, high = 0, n
    while low < high:
        middle = (low + high) // 2
        start = int(suffix_array[middle])
        if text[start : start + m] < pattern:
            low = middle + 1
        else:
            high = middle
    start_rank = low

    # Upper bound: first suffix whose length-m prefix is > pattern.
    low, high = start_rank, n
    while low < high:
        middle = (low + high) // 2
        start = int(suffix_array[middle])
        if text[start : start + m] <= pattern:
            low = middle + 1
        else:
            high = middle
    end_rank = low - 1

    if start_rank > end_rank:
        return None
    first = int(suffix_array[start_rank])
    if text[first : first + m] != pattern:
        return None
    return start_rank, end_rank
