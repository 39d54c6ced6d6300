"""Uncertain string listing from a collection (paper Section 6).

Given a collection ``D = {d_1, ..., d_D}`` and a query ``(p, τ)``, report
every document that contains ``p`` with relevance above ``τ``.  The index
follows the paper's construction:

* all documents are transformed (maximal factors w.r.t. ``τ_min``) and
  concatenated into one text, with ``Pos``/``Doc`` arrays mapping transformed
  positions back to (document, offset);
* for every prefix length ``i ≤ ⌈log2 N⌉`` the per-rank relevance array
  ``R_i`` keeps, inside every depth-``i`` locus partition, a single entry per
  document holding the document's relevance for that partition's string —
  every other copy is masked so the recursive range-maximum reporting never
  emits a document twice;
* a query scans ``R_i`` over the pattern's suffix range, or, where the
  range is wider than the scan cut-off, runs the same recursive
  range-maximum reporting as substring search, yielding ``O(m + ndoc)``
  for short patterns.  A level carries a range-maximum structure only
  where its widest depth-``i`` partition, the widest range any length-``i``
  pattern can have, is wider than
  :data:`~repro.core.base.TOP_K_SCAN_WIDTH`
  (:func:`~repro.core.base.rmq_depth`): only the shallowest levels, whose
  partitions are few and wide, and none on small collections.

Relevance metrics (Section 6):

``"max"``
    maximum probability of occurrence of the pattern in the document;
``"or"``
    the paper's OR value ``Σ p_j − Π p_j`` over the pattern's occurrences;
``"noisy_or"``
    ``1 − Π (1 − p_j)``, the standard noisy-OR combination.

For the ``or``/``noisy_or`` metrics the combination ranges over occurrences
with probability ≥ ``τ_min`` (only those are guaranteed to be present in the
transformed text — the same restriction the paper's structure has).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_nonempty_pattern, check_threshold
from ..exceptions import ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.collection import UncertainStringCollection
from ..strings.serialization import (
    collection_from_manifest,
    collection_to_manifest,
)
from ..suffix.lcp import common_prefix_lengths, lcp_from_ranks
from ..suffix.rmq import make_rmq, rmq_to_payload
from ..suffix.suffix_array import SuffixArray, prefix_doubling
from .base import (
    LISTING,
    MatchArrays,
    PayloadSerializable,
    report_above_threshold,
    resolve_tau,
    restore_child_rmq,
    rmq_depth,
    top_values_above_threshold,
)
from .cumulative import NEGATIVE_INFINITY, cumulative_log_probabilities
from .factors import DEFAULT_SEPARATOR, TransformedString, transform_collection
from .general_index import duplicate_depths

RelevanceMetric = Literal["max", "or", "noisy_or"]

_METRICS: Tuple[str, ...] = ("max", "or", "noisy_or")

#: Payload schema of this index kind (see :mod:`repro.payload`).
LISTING_INDEX_SCHEMA = "index/listing"


def combine_relevance(probabilities: Iterable[float], metric: RelevanceMetric) -> float:
    """Combine the occurrence probabilities of one document into a relevance value.

    For a single occurrence every metric degenerates to that occurrence's
    probability (the paper's ``Σ p − Π p`` formula is only meaningful for two
    or more occurrences).
    """
    if metric not in _METRICS:
        raise ValidationError(
            f"unknown relevance metric {metric!r}; expected one of {_METRICS}"
        )
    values = [float(p) for p in probabilities if p > 0.0]
    if not values:
        return 0.0
    if metric == "max":
        return max(values)
    if len(values) == 1:
        return values[0]
    product = 1.0
    for value in values:
        product *= value
    if metric == "or":
        return sum(values) - product
    if metric == "noisy_or":
        complement = 1.0
        for value in values:
            complement *= 1.0 - value
        return 1.0 - complement
    raise ValidationError(f"unknown relevance metric {metric!r}; expected one of {_METRICS}")


class _Occurrences:
    """The non-separator ranks in (document, rank) order, linked for every level.

    ``continues[j]`` is the LCP of occurrence ``j`` with the previous one
    when both lie in the same document (0 otherwise): at level ``L`` the
    occurrence continues its predecessor's (partition, document) group iff
    ``continues[j] >= L``.  ``duplicates[j]`` is
    :func:`~repro.core.general_index.duplicate_depths` keyed by (document,
    position): level ``L`` drops the occurrence iff ``duplicates[j] >= L``.
    Both are clipped to the deepest level, in one byte per occurrence for
    ``⌈log2 N⌉`` levels.  A window's log probability is
    ``end_prefix[start + L] - start_prefix``, ``-inf`` (probability 0)
    where it runs past the text.
    """

    def __init__(
        self,
        ranks: Sequence[np.ndarray],
        suffix_array: np.ndarray,
        rank_documents: np.ndarray,
        rank_positions: np.ndarray,
        prefix: np.ndarray,
        levels: int,
    ):
        order = np.argsort(rank_documents, kind="stable")
        self.ranks = order[rank_documents[order] >= 0]
        self.starts = suffix_array[self.ranks]
        self.start_prefix = prefix[self.starts]
        self.end_prefix = np.concatenate([prefix, np.full(levels, NEGATIVE_INFINITY)])
        documents = rank_documents[self.ranks]
        same = np.flatnonzero(documents[1:] == documents[:-1]) + 1
        self.continues = np.zeros(len(self.ranks), dtype=np.min_scalar_type(levels))
        self.continues[same] = np.minimum(
            common_prefix_lengths(ranks, self.starts[same - 1], self.starts[same]), levels
        )
        keys = np.where(
            rank_documents >= 0,
            rank_documents * (int(rank_positions.max()) + 1) + rank_positions,
            -1,
        )
        self.duplicates = duplicate_depths(ranks, suffix_array, keys, levels)[self.ranks]


class UncertainStringListingIndex(PayloadSerializable):
    """Document-listing index over a collection of uncertain strings.

    Parameters
    ----------
    collection:
        The uncertain string collection to index.
    tau_min:
        Construction-time probability threshold; queries must use
        ``tau >= tau_min``.
    metric:
        Relevance metric used both at construction and at query time.
    max_short_length:
        Largest pattern length served by the per-length relevance arrays
        (default ``⌈log2 N⌉``).
    max_factor_length:
        Optional cap on maximal-factor length.
    rmq_implementation:
        ``"block"`` (default) or ``"sparse"``, for the levels that carry an
        RMQ.
    separator:
        Separator character between concatenated factors.

    Examples
    --------
    The Figure 2 example — only ``d_1`` contains ``"BF"`` above 0.1:

    >>> from repro.strings import UncertainString, UncertainStringCollection
    >>> d1 = UncertainString([
    ...     {"A": 0.4, "B": 0.3, "F": 0.3},
    ...     {"B": 0.3, "L": 0.3, "F": 0.3, "J": 0.1},
    ...     {"F": 0.5, "J": 0.5},
    ... ])
    >>> d2 = UncertainString([
    ...     {"A": 0.6, "C": 0.4},
    ...     {"B": 0.5, "F": 0.3, "J": 0.2},
    ...     {"B": 0.4, "C": 0.3, "E": 0.2, "F": 0.1},
    ... ])
    >>> d3 = UncertainString([
    ...     {"A": 0.4, "F": 0.4, "P": 0.2},
    ...     {"I": 0.3, "L": 0.3, "P": 0.3, "T": 0.1},
    ...     {"A": 1.0},
    ... ])
    >>> index = UncertainStringListingIndex(
    ...     UncertainStringCollection([d1, d2, d3]), tau_min=0.05)
    >>> [match.document for match in index.query("BF", 0.1)]
    [0]
    """

    def __init__(
        self,
        collection: UncertainStringCollection,
        tau_min: float,
        *,
        metric: RelevanceMetric = "max",
        max_short_length: Optional[int] = None,
        max_factor_length: Optional[int] = None,
        rmq_implementation: Literal["sparse", "block"] = "block",
        separator: str = DEFAULT_SEPARATOR,
    ):
        if metric not in _METRICS:
            raise ValidationError(
                f"unknown relevance metric {metric!r}; expected one of {_METRICS}"
            )
        self._collection = collection
        self._tau_min = check_threshold(tau_min)
        self._metric: RelevanceMetric = metric
        self._rmq_implementation = rmq_implementation
        self._needs_verification = any(bool(doc.correlations) for doc in collection)

        self._transformed = transform_collection(
            collection,
            self._tau_min,
            max_factor_length=max_factor_length,
            separator=separator,
        )
        transformed = self._transformed
        suffix_array, ranks = prefix_doubling(transformed.text)
        self._suffix_array = SuffixArray(transformed.text, array=suffix_array)
        self._lcp = lcp_from_ranks(ranks, suffix_array)
        self._prefix = cumulative_log_probabilities(transformed.probabilities)
        self._rank_positions = transformed.positions[suffix_array]
        self._rank_documents = transformed.documents[suffix_array]

        N = len(transformed.text)
        if max_short_length is None:
            max_short_length = max(1, math.ceil(math.log2(N + 1)))
        self._max_short_length = max(1, min(max_short_length, N))
        occurrences = _Occurrences(
            ranks,
            suffix_array,
            self._rank_documents,
            self._rank_positions,
            self._prefix,
            self._max_short_length,
        )
        # The rank arrays are the largest temporaries; the levels need
        # only the occurrence links.
        del ranks

        # Every level keeps its relevance array; only the levels whose
        # suffix ranges can outgrow the kernels' scans (rmq_depth) also get
        # an RMQ.
        depth = rmq_depth(self._lcp, self._max_short_length)
        self._relevance: Dict[int, np.ndarray] = {}
        self._relevance_rmq: Dict[int, object] = {}
        for length in range(1, self._max_short_length + 1):
            relevance = self._relevance_values(length, occurrences)
            self._relevance[length] = relevance
            if length <= depth:
                self._relevance_rmq[length] = make_rmq(
                    relevance, mode="max", implementation=self._rmq_implementation
                )

    # -- construction ----------------------------------------------------------------------
    def _relevance_values(self, length: int, occurrences: "_Occurrences") -> np.ndarray:
        """``R_length``: each (partition, document) group's relevance on its first rank.

        Inside a depth-``length`` partition a document's group is a run of
        :class:`_Occurrences` (document-then-rank order), so groups are
        found by a cumulative sum and combined with ``reduceat`` (``max``)
        or a rank-ordered ``np.add.at``, whose float sums match the
        per-occurrence order exactly.
        """
        # Allocated first, below this level's temporaries: freed, they stay
        # one contiguous block that the next level's array and temporaries
        # reuse (temporaries freed under a live array are smaller than the
        # next one and would pile up as holes).
        relevance = np.zeros(len(self._rank_documents), dtype=np.float64)
        probabilities = np.exp(
            occurrences.end_prefix[occurrences.starts + length] - occurrences.start_prefix
        )
        # One entry per (partition, document, original position) — factor
        # copies of one occurrence carry identical probabilities — and only
        # occurrences the window reaches.
        kept = np.flatnonzero((occurrences.duplicates < length) & (probabilities > 0.0))
        groups = np.cumsum(occurrences.continues < length)[kept]
        firsts = np.flatnonzero(np.diff(groups, prepend=-1))
        values = probabilities[kept]
        if self._metric == "max":
            combined = np.maximum.reduceat(values, firsts)
        else:
            counts = np.diff(firsts, append=len(kept))
            inverse = np.repeat(np.arange(len(firsts)), counts)
            sums = np.zeros(len(firsts), dtype=np.float64)
            np.add.at(sums, inverse, values)
            log_products = np.zeros(len(firsts), dtype=np.float64)
            if self._metric == "or":
                np.add.at(log_products, inverse, np.log(values))
                combined = sums - np.exp(log_products)
            else:  # noisy_or
                np.add.at(log_products, inverse, np.log1p(-np.clip(values, 0.0, 1.0 - 1e-15)))
                combined = 1.0 - np.exp(log_products)
            # A single occurrence degenerates to its own probability (the
            # Σp − Πp formula would cancel to zero for one term).
            combined = np.where(counts == 1, sums, combined)
        relevance[occurrences.ranks[kept[firsts]]] = combined
        return relevance

    # -- metadata --------------------------------------------------------------------------
    @property
    def tau_min(self) -> float:
        """Construction-time probability threshold."""
        return self._tau_min

    @property
    def metric(self) -> RelevanceMetric:
        """Relevance metric configured for this index."""
        return self._metric

    @property
    def needs_verification(self) -> bool:
        """Whether candidates are re-verified against the original documents.

        True for correlated collections; the per-length relevance arrays
        then hold optimistic pre-verification values, so reported relevance
        comes from re-computation (relevant to batch-refinement soundness).
        """
        return self._needs_verification

    @property
    def collection(self) -> UncertainStringCollection:
        """The indexed collection."""
        return self._collection

    @property
    def transformed(self) -> TransformedString:
        """The concatenated maximal-factor transformation."""
        return self._transformed

    @property
    def max_short_length(self) -> int:
        """Largest pattern length served by the per-length relevance arrays."""
        return self._max_short_length

    @property
    def stats(self) -> Dict[str, float]:
        """Construction statistics."""
        return {
            "documents": len(self._collection),
            "source_length": self._transformed.source_length,
            "transformed_length": self._transformed.length,
            "factor_count": self._transformed.factor_count,
            "expansion_ratio": self._transformed.expansion_ratio,
            "max_short_length": self._max_short_length,
        }

    # -- payload currency -----------------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The complete array-schema description of this index."""
        arrays = {
            "suffix_array": self._suffix_array.array,
            "lcp": self._lcp,
            "prefix": self._prefix,
            "rank_positions": self._rank_positions,
            "rank_documents": self._rank_documents,
        }
        children = {"transformed": self._transformed.to_payload()}
        for length, values in self._relevance.items():
            arrays[f"relevance_{length}"] = values
        for length, rmq in self._relevance_rmq.items():
            children[f"rmq_relevance_{length}"] = rmq_to_payload(rmq)
        return IndexPayload(
            schema=LISTING_INDEX_SCHEMA,
            meta={
                "collection": collection_to_manifest(self._collection),
                "tau_min": self._tau_min,
                "metric": self._metric,
                "max_short_length": self._max_short_length,
                "relevance_lengths": sorted(self._relevance),
                "rmq_implementation": self._rmq_implementation,
            },
            arrays=arrays,
            children=children,
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "UncertainStringListingIndex":
        """Restore an index from :meth:`to_payload` output (no construction)."""
        expect_schema(payload, LISTING_INDEX_SCHEMA)
        meta = payload.meta
        index = cls.__new__(cls)
        index._collection = collection_from_manifest(meta["collection"])
        index._tau_min = float(meta["tau_min"])
        index._metric = meta["metric"]
        index._rmq_implementation = meta["rmq_implementation"]
        index._needs_verification = any(
            bool(document.correlations) for document in index._collection
        )
        index._transformed = TransformedString.from_payload(
            payload.children["transformed"]
        )
        index._suffix_array = SuffixArray(
            index._transformed.text, array=payload.arrays["suffix_array"]
        )
        index._lcp = payload.arrays["lcp"]
        index._prefix = payload.arrays["prefix"]
        index._rank_positions = payload.arrays["rank_positions"]
        index._rank_documents = payload.arrays["rank_documents"]
        index._max_short_length = int(meta["max_short_length"])
        index._relevance = {
            int(length): payload.arrays[f"relevance_{length}"]
            for length in meta["relevance_lengths"]
        }
        # As in the general index: the stored lcp decides which levels
        # carry an RMQ; surplus children are ignored, missing ones raise.
        depth = rmq_depth(index._lcp, index._max_short_length)
        index._relevance_rmq = {
            length: restore_child_rmq(payload, f"rmq_relevance_{length}", values)
            for length, values in index._relevance.items()
            if length <= depth
        }
        return index

    # -- queries -----------------------------------------------------------------------------
    def query(self, pattern: str, tau: float) -> MatchArrays:
        """Documents containing ``pattern`` with relevance above ``tau``.

        Returns a :class:`~repro.core.base.MatchArrays` of kind
        ``"listing"`` (document identifiers and relevances) in document
        order.
        """
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau, tau_min=self._tau_min)
        length = len(pattern)
        interval = self._transformed.suffix_range(self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(LISTING)
        sp, ep = interval

        documents, relevances = self._candidates(sp, ep, length, threshold)
        return self._materialize(pattern, documents, relevances, threshold).by_id()

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> MatchArrays:
        """The ``k`` most relevant documents containing ``pattern``.

        Returns a :class:`~repro.core.base.MatchArrays` of kind
        ``"listing"`` ordered by decreasing relevance (ties broken by
        document identifier).  ``tau`` optionally floors the relevance considered;
        ``None`` resolves through :func:`repro.core.base.resolve_tau` to
        ``tau_min`` (the index cannot see occurrences below its construction
        threshold).  For short patterns on uncorrelated collections the
        answer is extracted from the per-length relevance array (one scan,
        or ``O(k)`` heap-driven range-maximum probes on a range wider than
        the scan); other cases fall back to materializing the candidate
        documents and sorting.
        """
        check_nonempty_pattern(pattern)
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        threshold = check_threshold(resolve_tau(tau, self._tau_min), tau_min=self._tau_min)
        # Include documents sitting exactly on the threshold, mirroring the
        # substring indexes' top_k semantics.
        adjusted = threshold - 1e-12
        length = len(pattern)
        interval = self._transformed.suffix_range(self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(LISTING)
        sp, ep = interval

        if length <= self._max_short_length and not self._needs_verification:
            values = self._relevance[length]
            rmq = self._relevance_rmq.get(length)
            ranks = top_values_above_threshold(
                rmq, values, sp, ep, k, adjusted, include_ties=True
            )
            answer = MatchArrays(LISTING, self._rank_documents[ranks], values[ranks])
        else:
            documents, relevances = self._candidates(sp, ep, length, adjusted)
            answer = self._materialize(pattern, documents, relevances, adjusted)
        return answer.top(k)

    def documents(self, pattern: str, tau: float) -> List[int]:
        """Convenience wrapper returning only the matching document identifiers."""
        return self.query(pattern, tau).ids.tolist()

    def _materialize(
        self, pattern: str, documents: np.ndarray, relevances: np.ndarray, threshold: float
    ) -> MatchArrays:
        """Turn candidate arrays into an answer, re-verifying correlated collections."""
        if self._needs_verification:
            relevances = np.array(
                [self._exact_relevance(pattern, document) for document in documents.tolist()],
                dtype=np.float64,
            )
            keep = relevances > threshold
            documents, relevances = documents[keep], relevances[keep]
        return MatchArrays(LISTING, documents, relevances)

    def _exact_relevance(self, pattern: str, document: int) -> float:
        """``document``'s relevance for ``pattern``, from the original collection."""
        if self._metric != "noisy_or":
            return self._collection.document_relevance(
                pattern, document, "max" if self._metric == "max" else "or"
            )
        return combine_relevance(
            [
                self._collection[document].occurrence_probability(pattern, position)
                for position in range(len(self._collection[document]) - len(pattern) + 1)
            ],
            "noisy_or",
        )

    # -- candidate generation -----------------------------------------------------------------
    # Every strategy returns two parallel arrays — document identifiers and
    # relevance values, each document exactly once — and candidates only
    # become an answer at the _materialize boundary.
    def _candidates(
        self, sp: int, ep: int, length: int, threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dispatch to the RMQ or scanning strategy by pattern length."""
        if length <= self._max_short_length:
            return self._candidates_short(sp, ep, length, threshold)
        return self._candidates_scan(sp, ep, length, threshold)

    def _candidates_short(
        self, sp: int, ep: int, length: int, threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = self._relevance[length]
        rmq = self._relevance_rmq.get(length)
        ranks = report_above_threshold(rmq, values, sp, ep, threshold)
        return self._rank_documents[ranks], values[ranks]

    def _candidates_scan(
        self, sp: int, ep: int, length: int, threshold: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Widen before the arithmetic below: compacted payloads restore
        # narrow dtypes, and both ``order + length`` and the pair-key
        # ``positions + 1`` can exceed a minimized dtype's range.
        order = self._suffix_array.array[sp : ep + 1].astype(np.int64, copy=False)
        documents = self._rank_documents[sp : ep + 1]
        positions = self._rank_positions[sp : ep + 1].astype(np.int64, copy=False)
        ends = order + length
        valid = (
            (ends <= len(self._transformed.text)) & (documents >= 0) & (positions >= 0)
        )
        order = order[valid]
        documents = documents[valid]
        positions = positions[valid]
        probabilities = np.exp(self._prefix[order + length] - self._prefix[order])
        positive = probabilities > 0.0
        documents = documents[positive]
        positions = positions[positive]
        probabilities = probabilities[positive]
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if documents.size == 0:
            return empty

        # One entry per (document, original position): factor copies of the
        # same occurrence carry identical probabilities, and np.sort keeps
        # the surviving copies in rank order so the sequential ufunc.at
        # accumulation below adds/multiplies in exactly the order the scalar
        # per-document loop did (bit-identical floats).
        max_position = int(positions.max()) + 2
        pair_keys = (documents.astype(np.int64) + 1) * max_position + (positions + 1)
        _, first_copy = np.unique(pair_keys, return_index=True)
        first_copy = np.sort(first_copy)
        documents = documents[first_copy]
        probabilities = probabilities[first_copy]

        doc_ids, inverse = np.unique(documents, return_inverse=True)
        counts = np.bincount(inverse)
        if self._metric == "max":
            combined = np.zeros(len(doc_ids), dtype=np.float64)
            np.maximum.at(combined, inverse, probabilities)
        else:
            sums = np.zeros(len(doc_ids), dtype=np.float64)
            np.add.at(sums, inverse, probabilities)
            if self._metric == "or":
                products = np.ones(len(doc_ids), dtype=np.float64)
                np.multiply.at(products, inverse, probabilities)
                combined = sums - products
            else:  # noisy_or
                complements = np.ones(len(doc_ids), dtype=np.float64)
                np.multiply.at(complements, inverse, 1.0 - probabilities)
                combined = 1.0 - complements
            # A single occurrence degenerates to its own probability.
            combined = np.where(counts == 1, sums, combined)
        keep = combined > threshold
        return doc_ids[keep], combined[keep]
