"""Longest-common-prefix (LCP) lengths from the prefix-doubling ranks.

The LCP array is the bridge between the suffix array and the suffix tree:
``lcp[i]`` is the length of the longest common prefix of the suffixes with
lexicographic ranks ``i-1`` and ``i`` (``lcp[0] = 0`` by convention).  The
compact suffix tree in :mod:`repro.suffix.suffix_tree` is built from the
suffix array plus this array.

Every length comes from :func:`common_prefix_lengths`, which answers the
LCP of any batch of suffix pairs by binary lifting over the rank arrays
that :func:`~repro.suffix.suffix_array.prefix_doubling` leaves behind, in
``O(log n)`` vectorized steps per batch.  The LCP array is the batch of
adjacent pairs; the general and listing indexes also ask it for
non-adjacent pairs (each rank against the previous rank of the same
original position).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..exceptions import ValidationError
from .suffix_array import SuffixArray, prefix_doubling


def common_prefix_lengths(
    ranks: Sequence[np.ndarray], left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """LCP of the suffixes starting at ``left[i]`` and ``right[i]``, for every ``i``.

    ``ranks`` are the doubling rounds of
    :func:`~repro.suffix.suffix_array.prefix_doubling`.  Two distinct
    suffixes agree on at most ``2**K - 1`` characters when round ``K`` is
    the first with all ranks distinct, so the length is built from the
    highest power of two down: wherever the round-``k`` ranks of the two
    current offsets are equal, the next ``2**k`` characters match and both
    offsets move past them.  ``left[i] != right[i]`` is required (a suffix
    against itself would read as ``2**K - 1``).

    Returns an ``int64`` array of ``len(left)`` lengths.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    matched = np.zeros(len(left), dtype=np.int64)
    for power in range(len(ranks) - 2, -1, -1):
        rank = ranks[power]
        equal = rank[left + matched] == rank[right + matched]
        matched[equal] += 1 << power
    return matched


def lcp_from_ranks(ranks: Sequence[np.ndarray], suffix_array: np.ndarray) -> np.ndarray:
    """The LCP array of ``suffix_array``: the common prefixes of adjacent ranks."""
    suffix_array = np.asarray(suffix_array, dtype=np.int64)
    lcp = np.zeros(len(suffix_array), dtype=np.int64)
    lcp[1:] = common_prefix_lengths(ranks, suffix_array[:-1], suffix_array[1:])
    return lcp


def build_lcp_array(text: str, suffix_array: np.ndarray) -> np.ndarray:
    """Return the LCP array of ``text`` given its suffix array.

    Runs :func:`~repro.suffix.suffix_array.prefix_doubling` for the rank
    arrays; callers that build the suffix array themselves keep its ranks
    and call :func:`lcp_from_ranks` instead.

    Parameters
    ----------
    text:
        The indexed text.
    suffix_array:
        Its suffix array.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``len(text)`` with ``lcp[0] == 0``.

    Examples
    --------
    >>> from repro.suffix.suffix_array import build_suffix_array
    >>> text = "banana"
    >>> build_lcp_array(text, build_suffix_array(text)).tolist()
    [0, 1, 3, 0, 0, 2]
    """
    n = len(text)
    if n == 0:
        raise ValidationError("cannot build an LCP array over an empty text")
    if len(suffix_array) != n:
        raise ValidationError(
            f"suffix array length {len(suffix_array)} does not match text length {n}"
        )
    return lcp_from_ranks(prefix_doubling(text)[1], suffix_array)


def naive_lcp_array(text: str, suffix_array: List[int]) -> List[int]:
    """Quadratic reference LCP construction used by the test suite."""
    lcp = [0] * len(suffix_array)
    for index in range(1, len(suffix_array)):
        a = text[suffix_array[index - 1] :]
        b = text[suffix_array[index] :]
        matched = 0
        while matched < min(len(a), len(b)) and a[matched] == b[matched]:
            matched += 1
        lcp[index] = matched
    return lcp


class LCPArray:
    """LCP array bundled with the suffix array it was derived from."""

    def __init__(self, suffix_array: SuffixArray):
        self._suffix_array = suffix_array
        self._lcp = build_lcp_array(suffix_array.text, suffix_array.array)

    @property
    def values(self) -> np.ndarray:
        """The raw LCP values."""
        return self._lcp

    @property
    def suffix_array(self) -> SuffixArray:
        """The suffix array this LCP array belongs to."""
        return self._suffix_array

    def __len__(self) -> int:
        return len(self._lcp)

    def __getitem__(self, index: int) -> int:
        return int(self._lcp[index])

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        return int(self._lcp.nbytes)
