"""Index auto-selection for the :mod:`repro.api` façade.

The paper defines four index variants plus baselines; which one fits depends
on the *shape* of the input, not on anything a caller should have to know
about the theory.  :func:`plan_index` inspects the input — special
vs. general uncertain string, single string vs. collection, alphabet size,
length — and produces an :class:`IndexPlan` naming the :mod:`repro.core`
class to build, the constructor options and a human-readable reason for
the choice.  Explicit ``kind=...`` overrides are always honoured.

Selection rules (``kind="auto"``)
---------------------------------
1. A collection (``UncertainStringCollection`` or a sequence of strings /
   uncertain strings) becomes an :class:`UncertainStringListingIndex` —
   listing is the only query the paper defines over collections.
2. A special uncertain string — ``SpecialUncertainString``, a plain ``str``
   (certain characters) or an ``UncertainString`` with a single probable
   character per position — becomes a :class:`SpecialUncertainStringIndex`.
   It is also Section 4.1's simple scanning index: unless some suffix
   range can outgrow the kernels' scans, it stores only the suffix array
   and the prefix sums.
3. A general uncertain string becomes a
   :class:`GeneralUncertainStringIndex`, or the
   :class:`ApproximateSubstringIndex` when ``epsilon`` is passed.  The
   approximate index trades exactness (additive error ε) for O(m + occ)
   queries at every pattern length.

A plan depends only on the input and the arguments: the planner keeps no
state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from .._validation import check_threshold
from ..core.approximate import ApproximateSubstringIndex
from ..core.general_index import GeneralUncertainStringIndex
from ..core.listing import UncertainStringListingIndex
from ..core.special_index import SpecialUncertainStringIndex
from ..exceptions import ValidationError
from ..strings.collection import UncertainStringCollection
from ..strings.special import SpecialUncertainString
from ..strings.uncertain import UncertainString

#: Construction threshold used when the caller does not provide one for an
#: index kind that requires it (general / approximate / listing).  Matches
#: the τ_min the paper's evaluation uses throughout.
DEFAULT_TAU_MIN = 0.1

#: Longest pattern a chunk-sharded engine supports by default.  Chunks
#: overlap by ``max_pattern_len - 1`` positions so that every window of up
#: to ``max_pattern_len`` characters lies wholly inside the chunk that owns
#: its starting position; longer patterns could straddle a boundary and are
#: rejected at query time.
DEFAULT_MAX_PATTERN_LEN = 64

#: Index kinds the planner knows, mapped to the class it will build.
INDEX_CLASSES: Dict[str, type] = {
    "special": SpecialUncertainStringIndex,
    "general": GeneralUncertainStringIndex,
    "approximate": ApproximateSubstringIndex,
    "listing": UncertainStringListingIndex,
}

IndexInput = Union[
    str,
    UncertainString,
    SpecialUncertainString,
    UncertainStringCollection,
    Sequence[Union[str, UncertainString]],
]


@dataclass(frozen=True)
class IndexPlan:
    """The planner's decision: which index to build and how.

    Attributes
    ----------
    kind:
        One of ``"special"``, ``"general"``, ``"approximate"``,
        ``"listing"``.
    tau_min:
        Construction threshold the index will be built with (``0.0`` for
        the special-string index, which supports any positive threshold).
    reason:
        Human-readable explanation of the choice (surfaced by
        ``Engine.describe()`` and useful in logs).
    options:
        Extra constructor keyword arguments.
    profile:
        Facts about the input the decision was based on (length, alphabet
        size, uncertain fraction, document count).
    prepared_input:
        The exact object the index constructor should receive (e.g. the
        special-string view the planner already derived), so building the
        plan does not repeat the planner's input scan.  ``None`` on plans
        that were not produced by :func:`plan_index` for this input
        (e.g. plans restored from an archive).
    """

    kind: str
    tau_min: float
    reason: str
    options: Dict[str, Any] = field(default_factory=dict)
    profile: Dict[str, Any] = field(default_factory=dict)
    prepared_input: Any = field(default=None, repr=False, compare=False)

    @property
    def index_class(self) -> Type:
        """The :mod:`repro.core` class this plan builds."""
        return INDEX_CLASSES[self.kind]


def normalize_input(
    data: IndexInput,
) -> Union[UncertainString, SpecialUncertainString, UncertainStringCollection]:
    """Coerce the accepted input shapes into the three canonical types.

    * ``str`` → a certain :class:`SpecialUncertainString`;
    * a sequence of strings / uncertain strings → an
      :class:`UncertainStringCollection`;
    * the canonical types pass through unchanged.
    """
    if isinstance(data, (UncertainString, SpecialUncertainString, UncertainStringCollection)):
        return data
    if isinstance(data, str):
        if not data:
            raise ValidationError("cannot index an empty string")
        return SpecialUncertainString.from_deterministic(data)
    if isinstance(data, Sequence):
        documents: List[UncertainString] = []
        for entry in data:
            if isinstance(entry, UncertainString):
                documents.append(entry)
            elif isinstance(entry, SpecialUncertainString):
                documents.append(entry.to_uncertain_string())
            elif isinstance(entry, str):
                documents.append(UncertainString.from_deterministic(entry))
            else:
                raise ValidationError(
                    "collection entries must be strings or uncertain strings, "
                    f"got {type(entry).__name__}"
                )
        if not documents:
            raise ValidationError("cannot index an empty collection")
        return UncertainStringCollection(documents)
    raise ValidationError(
        f"cannot index a {type(data).__name__}; expected a string, an "
        "UncertainString, a SpecialUncertainString, an "
        "UncertainStringCollection or a sequence of documents"
    )


def _special_view(string: UncertainString) -> Optional[SpecialUncertainString]:
    """A special-string view of ``string`` when every position is single-character."""
    if string.correlations:
        return None
    pairs: List[Tuple[str, float]] = []
    for distribution in string:
        if len(distribution) != 1:
            return None
        pairs.append(distribution.most_likely())
    return SpecialUncertainString(pairs, name=string.name)


def _profile(
    data: Union[UncertainString, SpecialUncertainString, UncertainStringCollection],
) -> Dict[str, Any]:
    """Facts about the input the planner bases its decision on."""
    if isinstance(data, UncertainStringCollection):
        lengths = [len(document) for document in data]
        alphabet: set = set()
        uncertain = 0
        total = 0
        for document in data:
            for distribution in document:
                alphabet.update(distribution.characters)
                total += 1
                if len(distribution) > 1:
                    uncertain += 1
        return {
            "shape": "collection",
            "document_count": len(data),
            "length": sum(lengths),
            "max_document_length": max(lengths),
            "alphabet_size": len(alphabet),
            "uncertain_fraction": uncertain / max(1, total),
        }
    if isinstance(data, SpecialUncertainString):
        return {
            "shape": "special",
            "length": len(data),
            "alphabet_size": len(set(data.text)),
            "uncertain_fraction": np.count_nonzero(data.probabilities < 1.0) / len(data),
        }
    alphabet = set()
    uncertain = 0
    for distribution in data:
        alphabet.update(distribution.characters)
        if len(distribution) > 1:
            uncertain += 1
    return {
        "shape": "general",
        "length": len(data),
        "alphabet_size": len(alphabet),
        "uncertain_fraction": uncertain / len(data),
        "correlated": bool(data.correlations),
    }


def plan_index(
    data: IndexInput,
    *,
    tau_min: Optional[float] = None,
    kind: str = "auto",
    epsilon: Optional[float] = None,
    metric: str = "max",
    **options: Any,
) -> IndexPlan:
    """Decide which index to build for ``data`` (see module docstring).

    Parameters
    ----------
    data:
        Anything :func:`normalize_input` accepts.
    tau_min:
        Construction threshold.  Required semantics differ by kind: the
        general / approximate / listing indexes need one (defaulting to
        :data:`DEFAULT_TAU_MIN`); the special-string index supports any
        positive query threshold and ignores it.
    kind:
        ``"auto"`` (default) or an explicit override naming any key of
        :data:`INDEX_CLASSES`.
    epsilon:
        Additive error bound; passing it explicitly selects the
        approximate index for general inputs under ``kind="auto"``.
    metric:
        Relevance metric for listing indexes.
    options:
        Extra constructor keyword arguments forwarded verbatim.
    """
    normalized = normalize_input(data)
    profile = _profile(normalized)
    if tau_min is not None:
        check_threshold(tau_min)
    if kind != "auto" and kind not in INDEX_CLASSES:
        raise ValidationError(
            f"unknown index kind {kind!r}; expected 'auto' or one of "
            f"{sorted(INDEX_CLASSES)}"
        )

    effective_tau_min = DEFAULT_TAU_MIN if tau_min is None else float(tau_min)
    n = int(profile["length"])

    # 1. Collections always answer the listing problem.
    if profile["shape"] == "collection":
        if kind not in ("auto", "listing"):
            raise ValidationError(
                f"a collection can only back a listing index, not {kind!r}"
            )
        plan_options = dict(options)
        plan_options["metric"] = metric
        return IndexPlan(
            kind="listing",
            tau_min=effective_tau_min,
            reason=(
                f"collection of {profile['document_count']} documents "
                f"({n} total positions) → document-listing index "
                f"(metric={metric!r}, tau_min={effective_tau_min})"
            ),
            options=plan_options,
            profile=profile,
            prepared_input=normalized,
        )

    special = (
        normalized
        if isinstance(normalized, SpecialUncertainString)
        else _special_view(normalized)
    )

    # 2. Explicit override.
    if kind != "auto":
        return _plan_for_kind(
            kind, normalized, special, effective_tau_min, epsilon,
            profile, options, reason=f"explicit kind={kind!r} override",
        )

    # 3. Special-string inputs.
    if special is not None:
        return IndexPlan(
            kind="special",
            tau_min=0.0,
            reason=(
                f"special uncertain string of length {n} "
                f"(alphabet {profile['alphabet_size']}) → suffix-array special index, "
                f"O(m + occ) short-pattern queries at any threshold"
            ),
            options=dict(options),
            profile=profile,
            prepared_input=special,
        )

    # 4. General uncertain strings.
    if epsilon is not None:
        return IndexPlan(
            kind="approximate",
            tau_min=effective_tau_min,
            reason=(
                f"general uncertain string of length {n}; epsilon={epsilon} "
                f"requested → link-based approximate index (additive error)"
            ),
            options=dict(options, epsilon=epsilon),
            profile=profile,
            prepared_input=normalized,
        )
    return IndexPlan(
        kind="general",
        tau_min=effective_tau_min,
        reason=(
            f"general uncertain string of length {n} (alphabet "
            f"{profile['alphabet_size']}, uncertain fraction "
            f"{profile['uncertain_fraction']:.2f}) → maximal-factor transform + "
            f"RMQ index at tau_min={effective_tau_min}"
        ),
        options=dict(options),
        profile=profile,
        prepared_input=normalized,
    )


def _plan_for_kind(
    kind: str,
    normalized: Union[UncertainString, SpecialUncertainString],
    special: Optional[SpecialUncertainString],
    effective_tau_min: float,
    epsilon: Optional[float],
    profile: Dict[str, Any],
    options: Dict[str, Any],
    *,
    reason: str,
) -> IndexPlan:
    """Honour an explicit ``kind=...`` override on a single-string input."""
    if kind == "listing":
        raise ValidationError(
            "a listing index needs a collection; wrap the string in an "
            "UncertainStringCollection or pass a sequence of documents"
        )
    if kind == "special":
        if special is None:
            raise ValidationError(
                f"kind={kind!r} requires a special uncertain string (one "
                "probable character per position); this input is general — "
                "use kind='general' or let the planner transform it"
            )
        # The special-string index supports any positive query threshold;
        # a caller-provided tau_min has no effect on it.
        return IndexPlan(
            kind=kind,
            tau_min=0.0,
            reason=reason,
            options=dict(options),
            profile=profile,
            prepared_input=special,
        )
    plan_options = dict(options)
    if kind == "approximate" and epsilon is not None:
        plan_options["epsilon"] = epsilon
    # General / approximate indexes take a general uncertain string; convert
    # a special input once, here, so construction does not repeat it.
    prepared = (
        normalized.to_uncertain_string()
        if isinstance(normalized, SpecialUncertainString)
        else normalized
    )
    return IndexPlan(
        kind=kind,
        tau_min=effective_tau_min,
        reason=reason,
        options=plan_options,
        profile=profile,
        prepared_input=prepared,
    )


# -- sharding: input partitioning ---------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """How an input was partitioned into shards (the sharding "plan").

    Attributes
    ----------
    mode:
        ``"documents"`` — a collection split into contiguous document
        ranges; ``"chunks"`` — a single string split into overlapping
        chunks.
    shard_count:
        Number of shards actually produced (requests for more shards than
        documents / positions are clamped).
    offsets:
        Global coordinate of each shard's first owned unit: the first
        document identifier (documents mode) or the chunk's starting
        position (chunks mode).
    owned_ends:
        End (exclusive) of each shard's *owned* range in global
        coordinates.  In chunks mode a chunk extends ``overlap`` positions
        past its owned end; matches starting in that overlap are owned by
        (and reported from) the next shard, which is how the merge dedupes.
    overlap:
        Number of positions adjacent chunks share (``max_pattern_len - 1``;
        ``0`` in documents mode).
    max_pattern_len:
        Longest query pattern a chunk-sharded engine can answer
        (``None`` in documents mode — document sharding has no limit).
    """

    mode: str
    shard_count: int
    offsets: Tuple[int, ...]
    owned_ends: Tuple[int, ...]
    overlap: int
    max_pattern_len: Optional[int]

    def owner_of(self, position: int) -> int:
        """Index of the shard owning global ``position`` (or document id)."""
        for shard, end in enumerate(self.owned_ends):
            if position < end:
                return shard
        raise ValidationError(
            f"position {position} is outside the sharded input "
            f"(total {self.owned_ends[-1] if self.owned_ends else 0})"
        )


def shard_input(
    data: IndexInput,
    shards: int,
    *,
    max_pattern_len: int = DEFAULT_MAX_PATTERN_LEN,
) -> Tuple[ShardSpec, List[Any]]:
    """Partition an index input into per-shard inputs plus the spec.

    Collections split by document into contiguous near-equal ranges
    (document identifiers in query answers stay globally correct after the
    merge re-bases them).  Single strings — general or special — split into
    chunks of near-equal owned length, each extended by an overlap of
    ``max_pattern_len - 1`` positions so any pattern of up to
    ``max_pattern_len`` characters starting inside a chunk's owned range is
    fully contained in that chunk.

    Correlated general strings are rejected in chunks mode: a correlation
    rule whose endpoints land in different chunks cannot be evaluated by
    either shard, so the chunked answers would silently diverge from the
    unsharded ones.  Collections may be correlated freely (rules never
    cross documents).
    """
    if shards < 1:
        raise ValidationError(f"shard count must be >= 1, got {shards}")
    normalized = normalize_input(data)

    if isinstance(normalized, UncertainStringCollection):
        count = min(shards, len(normalized))
        base, extra = divmod(len(normalized), count)
        offsets: List[int] = []
        owned_ends: List[int] = []
        parts: List[Any] = []
        start = 0
        for shard in range(count):
            size = base + (1 if shard < extra else 0)
            stop = start + size
            offsets.append(start)
            owned_ends.append(stop)
            parts.append(
                UncertainStringCollection(
                    normalized.documents[start:stop],
                    names=normalized.names[start:stop],
                )
            )
            start = stop
        spec = ShardSpec(
            mode="documents",
            shard_count=count,
            offsets=tuple(offsets),
            owned_ends=tuple(owned_ends),
            overlap=0,
            max_pattern_len=None,
        )
        return spec, parts

    if max_pattern_len < 1:
        raise ValidationError(
            f"max_pattern_len must be >= 1, got {max_pattern_len}"
        )
    if isinstance(normalized, UncertainString) and normalized.correlations:
        raise ValidationError(
            "cannot chunk-shard a correlated uncertain string: correlation "
            "rules crossing a chunk boundary would be dropped and change "
            "query answers; shard by document instead, or index unsharded"
        )
    n = len(normalized)
    count = min(shards, n)
    overlap = max_pattern_len - 1
    step = math.ceil(n / count)
    starts = list(range(0, n, step))
    offsets: List[int] = []
    owned_ends: List[int] = []
    parts: List[Any] = []
    for shard, start in enumerate(starts):
        owned_end = min(start + step, n)
        chunk_end = min(owned_end + overlap, n)
        offsets.append(start)
        owned_ends.append(owned_end)
        parts.append(normalized.slice(start, chunk_end))
    spec = ShardSpec(
        mode="chunks",
        shard_count=len(starts),
        offsets=tuple(offsets),
        owned_ends=tuple(owned_ends),
        overlap=overlap,
        max_pattern_len=max_pattern_len,
    )
    return spec, parts
