"""Synthetic protein-like sequences (stand-in for the paper's real dataset).

The paper's experiments use "a concatenated protein sequence of mouse and
human (alphabet size 22), broken arbitrarily into shorter strings"
(Section 8.1).  That corpus is not redistributable, so this module generates
deterministic sequences with the same statistical fingerprints that matter
to a suffix-array index:

* the 22-symbol amino-acid alphabet (20 standard residues + B/Z),
* realistic residue frequencies (Swiss-Prot background distribution), and
* local repetitiveness, injected by occasionally replaying a recent motif —
  real protein corpora contain many repeated domains, which is what makes
  suffix ranges non-trivial.

Those three are all the indexes see of a corpus: query cost follows the
suffix-range widths and the probabilities in them, not the biology, so a
sequence that matches them preserves the evaluation's behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ValidationError
from ..strings.alphabet import PROTEIN_SYMBOLS

#: Approximate Swiss-Prot amino-acid background frequencies, extended with
#: small masses for the ambiguity codes B and Z so all 22 symbols occur.
PROTEIN_FREQUENCIES = {
    "A": 0.0825, "C": 0.0137, "D": 0.0545, "E": 0.0675, "F": 0.0386,
    "G": 0.0707, "H": 0.0227, "I": 0.0596, "K": 0.0584, "L": 0.0966,
    "M": 0.0242, "N": 0.0406, "P": 0.0470, "Q": 0.0393, "R": 0.0553,
    "S": 0.0656, "T": 0.0534, "V": 0.0687, "W": 0.0108, "Y": 0.0292,
    "B": 0.0006, "Z": 0.0005,
}


def protein_frequency_vector(symbols: Sequence[str] = PROTEIN_SYMBOLS) -> np.ndarray:
    """Normalized residue-frequency vector aligned with ``symbols``."""
    weights = np.array([PROTEIN_FREQUENCIES.get(symbol, 0.001) for symbol in symbols])
    return weights / weights.sum()


def generate_protein_sequence(
    length: int,
    *,
    seed: Optional[int] = None,
    repeat_probability: float = 0.08,
    repeat_length_range: tuple = (6, 20),
    symbols: Sequence[str] = PROTEIN_SYMBOLS,
) -> str:
    """Generate one protein-like deterministic sequence.

    Parameters
    ----------
    length:
        Number of residues to generate.
    seed:
        Seed for the underlying numpy generator (``None`` for entropy).
    repeat_probability:
        Per-step probability of replaying a recently generated motif,
        giving the sequence protein-like repetitiveness.
    repeat_length_range:
        Inclusive ``(low, high)`` bounds of replayed motif lengths.
    symbols:
        Alphabet to draw residues from.

    Examples
    --------
    >>> sequence = generate_protein_sequence(50, seed=7)
    >>> len(sequence)
    50
    >>> set(sequence) <= set(PROTEIN_SYMBOLS)
    True
    """
    if length <= 0:
        raise ValidationError(f"sequence length must be positive, got {length}")
    rng = np.random.default_rng(seed)
    frequencies = protein_frequency_vector(symbols)
    symbol_array = np.asarray(list(symbols))
    low, high = repeat_length_range
    if low <= 0 or high < low:
        raise ValidationError(
            f"repeat_length_range must be a positive increasing pair, got {repeat_length_range}"
        )

    pieces: List[str] = []
    produced = 0
    while produced < length:
        if produced > high and rng.random() < repeat_probability:
            # Replay a motif from the recent past (protein domain repetition).
            motif_length = int(rng.integers(low, high + 1))
            start = int(rng.integers(0, produced - motif_length + 1))
            existing = "".join(pieces)
            motif = existing[start : start + motif_length]
            pieces.append(motif)
            produced += len(motif)
        else:
            burst = int(min(length - produced, rng.integers(20, 80)))
            draw = rng.choice(symbol_array, size=burst, p=frequencies)
            pieces.append("".join(draw))
            produced += burst
    return "".join(pieces)[:length]


def split_into_fragments(
    sequence: str,
    *,
    mean_length: float = 32.5,
    std_length: float = 5.0,
    min_length: int = 20,
    max_length: int = 45,
    seed: Optional[int] = None,
) -> List[str]:
    """Break a sequence into fragments with ~N(mean, std) lengths in [min, max].

    Mirrors the paper's dataset preparation: "we break it arbitrarily into
    shorter strings [whose] length distributions follow approximately a
    normal distribution in the range of [20, 45]".
    """
    if not sequence:
        raise ValidationError("cannot split an empty sequence")
    if min_length <= 0 or max_length < min_length:
        raise ValidationError(
            f"invalid fragment bounds [{min_length}, {max_length}]"
        )
    rng = np.random.default_rng(seed)
    fragments: List[str] = []
    cursor = 0
    while cursor < len(sequence):
        target = int(round(rng.normal(mean_length, std_length)))
        target = max(min_length, min(max_length, target))
        fragment = sequence[cursor : cursor + target]
        if len(fragment) < min_length and fragments:
            # Attach a too-short tail to the previous fragment instead of
            # emitting a fragment below the minimum length.
            fragments[-1] += fragment
        else:
            fragments.append(fragment)
        cursor += target
    return fragments
