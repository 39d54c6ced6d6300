"""Cumulative probability arrays (the paper's ``C`` and ``C_i`` arrays).

Section 4.2 defines

* ``C[j]``      — the successive multiplicative probability of the first
  ``j`` characters of the deterministic text ``t``, and
* ``C_i[j]``    — the probability of the length-``i`` prefix of the ``j``-th
  lexicographically smallest suffix, i.e. ``C[A[j]+i-1] / C[A[j]-1]``.

Working with raw products underflows IEEE doubles for long windows, so this
module stores **natural-log** probabilities throughout: ``C`` becomes a
prefix-sum array of log probabilities and the ratio becomes a difference.
Every index converts back to plain probabilities at its public boundary.

The correlation adjustment of Algorithm 1 (dividing out ``pr+`` and
multiplying the corrected probability back in) is implemented by
:func:`apply_correlation_adjustment`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .._validation import log_probability
from ..exceptions import ValidationError
from ..strings.correlation import CorrelationModel

#: Value used for "no valid window" entries (window runs past the end of the
#: text or was removed by duplicate elimination).
NEGATIVE_INFINITY = float("-inf")


def cumulative_log_probabilities(probabilities: Sequence[float]) -> np.ndarray:
    """Prefix sums of log probabilities (the log-space ``C`` array).

    Returns an array ``C`` of length ``n + 1`` with ``C[0] = 0`` and
    ``C[j] = sum(log p_1 .. log p_j)``, so the log probability of the window
    ``[i, i+k)`` is ``C[i+k] - C[i]``.

    Zero probabilities map to ``-inf``; any window containing one then has
    log probability ``-inf`` as expected.
    """
    array = np.asarray(probabilities, dtype=np.float64)
    if array.ndim != 1:
        raise ValidationError(
            f"probabilities must be one-dimensional, got shape {array.shape}"
        )
    if len(array) == 0:
        raise ValidationError("cannot build cumulative probabilities over an empty array")
    if np.any(array < 0.0) or np.any(array > 1.0 + 1e-12):
        raise ValidationError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        logs = np.log(array)
    prefix = np.empty(len(array) + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(logs, out=prefix[1:])
    return prefix


def window_log_probability(prefix: np.ndarray, position: int, length: int) -> float:
    """Log probability of the length-``length`` window starting at ``position``."""
    if position < 0 or length <= 0 or position + length > len(prefix) - 1:
        return NEGATIVE_INFINITY
    return float(prefix[position + length] - prefix[position])


def prefix_length_log_probabilities(
    prefix: np.ndarray,
    suffix_array: np.ndarray,
    length: int,
) -> np.ndarray:
    """The log-space ``C_length`` array over lexicographic ranks.

    Entry ``j`` holds the log probability of the length-``length`` prefix of
    the suffix with lexicographic rank ``j``; suffixes shorter than
    ``length`` get ``-inf``.

    Parameters
    ----------
    prefix:
        Output of :func:`cumulative_log_probabilities` (length ``n + 1``).
    suffix_array:
        Suffix array of the text the probabilities belong to.
    length:
        Window length ``i``.
    """
    if length <= 0:
        raise ValidationError(f"window length must be positive, got {length}")
    suffix_array = np.asarray(suffix_array, dtype=np.int64)
    text_length = len(prefix) - 1
    ends = suffix_array + length
    values = np.full(len(suffix_array), NEGATIVE_INFINITY, dtype=np.float64)
    in_range = ends <= text_length
    values[in_range] = prefix[ends[in_range]] - prefix[suffix_array[in_range]]
    return values


def apply_correlation_adjustment(
    values: np.ndarray,
    suffix_array: np.ndarray,
    length: int,
    correlations: Optional[CorrelationModel],
    text: str,
    base_probabilities: np.ndarray,
) -> np.ndarray:
    """Adjust a ``C_i`` array for correlated characters (Algorithm 1).

    The special uncertain string stores, for a correlated character, its
    ``pr+`` probability (probability when the partner character is present).
    For every window that contains a correlated position, the stored value
    must be replaced by

    * ``pr+`` / ``pr-`` depending on the partner character when the partner
      position falls **inside** the window (paper Case 1), or
    * the mixture ``pr(partner)·pr+ + (1-pr(partner))·pr-`` when the partner
      position falls **outside** the window (paper Case 2).

    Because the text of a special uncertain string fixes the character at
    every position, "partner present" simply means the text spells the
    partner character at the partner position.

    Parameters
    ----------
    values:
        The log-space ``C_length`` array (modified copy is returned).
    suffix_array:
        Suffix array of the text.
    length:
        Window length ``i`` the array was computed for.
    correlations:
        The correlation model (may be ``None``/empty → values returned as-is).
    text:
        Deterministic text of the special uncertain string.
    base_probabilities:
        Per-position probabilities stored in the string (``pr+`` for
        correlated characters).
    """
    if not correlations:
        return values
    adjusted = values.copy()
    suffix_array = np.asarray(suffix_array, dtype=np.int64)
    rank_of = np.empty(len(suffix_array), dtype=np.int64)
    rank_of[suffix_array] = np.arange(len(suffix_array))
    text_length = len(text)

    for rule in correlations:
        position = rule.position
        if position >= text_length or text[position] != rule.character:
            # The rule talks about a character the text does not even spell
            # at that position; it can never influence a window value.
            continue
        stored = float(base_probabilities[position])
        stored_log = log_probability(stored)
        # Pre-compute the two possible corrected probabilities.
        partner_matches_text = (
            rule.partner_position < text_length
            and text[rule.partner_position] == rule.partner_character
        )
        inside_probability = rule.conditional_probability(partner_matches_text)
        partner_marginal = (
            float(base_probabilities[rule.partner_position]) if partner_matches_text else 0.0
        )
        outside_probability = rule.mixture_probability(partner_marginal)

        # Windows of length `length` containing `position` start in
        # [position - length + 1, position].
        first_start = max(0, position - length + 1)
        for start in range(first_start, position + 1):
            if start + length > text_length:
                continue
            rank = int(rank_of[start])
            if not np.isfinite(adjusted[rank]):
                continue
            window_end = start + length - 1
            partner_inside = start <= rule.partner_position <= window_end
            corrected = inside_probability if partner_inside else outside_probability
            corrected_log = log_probability(corrected)
            adjusted[rank] = adjusted[rank] - stored_log + corrected_log
    return adjusted


def correlation_adjusted_window_log_probability(
    prefix: np.ndarray,
    position: int,
    length: int,
    correlations: Optional[CorrelationModel],
    text: str,
    base_probabilities: np.ndarray,
) -> float:
    """Log probability of one window with correlation rules applied.

    Scalar counterpart of :func:`apply_correlation_adjustment`, used by the
    special index's long-pattern scans.
    """
    value = window_log_probability(prefix, position, length)
    if not correlations or not math.isfinite(value):
        return value
    window_end = position + length - 1
    for rule in correlations.rules_in_window(position, window_end):
        if rule.position >= len(text) or text[rule.position] != rule.character:
            continue
        stored_log = log_probability(float(base_probabilities[rule.position]))
        partner_matches_text = (
            rule.partner_position < len(text)
            and text[rule.partner_position] == rule.partner_character
        )
        if position <= rule.partner_position <= window_end:
            corrected = rule.conditional_probability(partner_matches_text)
        else:
            marginal = (
                float(base_probabilities[rule.partner_position])
                if partner_matches_text
                else 0.0
            )
            corrected = rule.mixture_probability(marginal)
        value = value - stored_log + log_probability(corrected)
    return value
