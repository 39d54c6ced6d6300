"""Approximate substring searching with additive error (paper Section 7).

The exact indexes answer long patterns in ``O(m · occ)``; to get optimal
``O(m + occ)`` for *every* pattern length the paper trades exactness for an
additive error ``ε`` on the probability threshold, using the marked-node /
link framework of Hon, Shah and Vitter:

1. the uncertain string is transformed (maximal factors w.r.t. ``τ_min``)
   and a suffix tree is built over the transformed text;
2. every leaf is marked with the *original* position its suffix maps to;
   every internal node that is the LCA of two leaves with the same mark is
   marked with it too (the root is implicitly marked with every position);
3. for every node ``u`` marked with position ``d`` a link
   ``(origin=u, target=lowest marked proper ancestor, d, prob)`` is created,
   where ``prob`` is the probability of ``path(u)`` occurring at ``d``;
4. each link is split into a chain of sub-links so that the probabilities of
   consecutive sub-links differ by at most ``ε``.

A query ``(p, τ)`` reports the positions of the links *stabbed* by the
pattern's locus (origin at or below the locus, target strictly above it)
whose probability is at least ``τ − ε``.  Every reported position has true
occurrence probability ≥ ``τ − ε`` and every position with true probability
≥ ``τ`` is reported.

Setting ``verify=True`` on the query re-checks candidates against the
original string, turning the structure into an exact index at the cost of
``O(m)`` extra work per candidate.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .._validation import check_nonempty_pattern, check_probability, check_threshold
from ..exceptions import ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.serialization import (
    uncertain_string_from_manifest,
    uncertain_string_to_manifest,
)
from ..strings.uncertain import UncertainString
from ..suffix.rmq import make_rmq, rmq_to_payload
from ..suffix.suffix_array import SuffixArray
from ..suffix.suffix_tree import SuffixTree
from .base import (
    OCCURRENCE,
    MatchArrays,
    UncertainSubstringIndex,
    report_above_threshold,
    restore_child_rmq,
)

from .cumulative import cumulative_log_probabilities
from .factors import DEFAULT_SEPARATOR, TransformedString, transform_uncertain_string

#: Payload schema of this index kind (see :mod:`repro.payload`).
APPROXIMATE_INDEX_SCHEMA = "index/approximate"


@dataclass(frozen=True)
class Link:
    """One (possibly split) link of the marked-node framework.

    Attributes
    ----------
    origin_left, origin_right:
        Leaf-rank range of the real suffix-tree node at (or below) the
        link's origin; used for the "origin inside the locus subtree" test.
    origin_depth:
        String depth of the origin (may be a dummy point on an edge).
    target_depth:
        String depth of the target (the next link of the chain, or the
        lowest marked proper ancestor).
    position:
        Original-string position ``d`` the link reports.
    probability:
        Probability of the origin's prefix occurring at ``d``.
    """

    origin_left: int
    origin_right: int
    origin_depth: int
    target_depth: int
    position: int
    probability: float


class ApproximateSubstringIndex(UncertainSubstringIndex):
    """Link-based approximate substring-search index (Section 7).

    Parameters
    ----------
    string:
        The uncertain string to index.
    tau_min:
        Construction-time probability threshold; queries must use
        ``tau >= tau_min``.
    epsilon:
        Additive error bound on reported probabilities (``0 < ε < 1``).
    max_factor_length:
        Optional cap on maximal-factor length (passed to the transformation).
    separator:
        Separator character between concatenated factors.

    Examples
    --------
    >>> from repro.strings import UncertainString
    >>> s = UncertainString([
    ...     {"Q": 0.7, "S": 0.3},
    ...     {"Q": 0.3, "P": 0.7},
    ...     {"P": 1.0},
    ...     {"A": 0.4, "F": 0.3, "P": 0.2, "Q": 0.1},
    ... ])
    >>> index = ApproximateSubstringIndex(s, tau_min=0.1, epsilon=0.05)
    >>> sorted(occ.position for occ in index.query("QP", 0.4))
    [0]
    """

    def __init__(
        self,
        string: UncertainString,
        tau_min: float,
        *,
        epsilon: float = 0.05,
        max_factor_length: Optional[int] = None,
        separator: str = DEFAULT_SEPARATOR,
    ):
        self._string = string
        self._tau_min = check_threshold(tau_min)
        epsilon = check_probability(epsilon, name="epsilon")
        if epsilon <= 0.0 or epsilon >= 1.0:
            raise ValidationError(f"epsilon must lie strictly between 0 and 1, got {epsilon}")
        self._epsilon = epsilon

        self._transformed = transform_uncertain_string(
            string,
            self._tau_min,
            max_factor_length=max_factor_length,
            separator=separator,
        )
        transformed = self._transformed
        self._suffix_array = SuffixArray(transformed.text)
        self._tree = SuffixTree(self._suffix_array)
        self._prefix = cumulative_log_probabilities(transformed.probabilities)
        self._rank_positions = transformed.positions[self._suffix_array.array]

        self._links = self._build_links()
        # Links sorted by origin_left so a locus range maps to a contiguous
        # slice; an RMQ over probability drives output-sensitive reporting.
        self._link_origin_left = np.asarray(
            [link.origin_left for link in self._links], dtype=np.int64
        )
        self._link_probabilities = np.asarray(
            [link.probability for link in self._links], dtype=np.float64
        )
        if len(self._links) > 0:
            self._link_rmq = make_rmq(self._link_probabilities, mode="max")
        else:
            self._link_rmq = None

    # -- construction ---------------------------------------------------------------------
    def _leaf_window_probability(self, leaf_rank: int, depth: int) -> float:
        start = int(self._suffix_array.array[leaf_rank])
        if depth <= 0 or start + depth > len(self._transformed.text):
            return 0.0
        return float(np.exp(self._prefix[start + depth] - self._prefix[start]))

    def _build_links(self) -> List[Link]:
        tree = self._tree
        root = tree.root

        # Leaves marked with each original position, in rank order.
        leaves_by_position: Dict[int, List[int]] = {}
        for rank, position in enumerate(self._rank_positions):
            position = int(position)
            if position < 0:
                continue
            # Skip suffixes that start on a separator (their first character
            # can never match a query pattern) — their position is -1 already,
            # so nothing to do; suffixes that merely *cross* a separator are
            # fine because the locus of a real pattern never descends there.
            leaves_by_position.setdefault(position, []).append(rank)

        links: List[Link] = []
        for position, leaf_ranks in leaves_by_position.items():
            marked = set(leaf_ranks)
            for previous, current in zip(leaf_ranks, leaf_ranks[1:]):
                marked.add(tree.lowest_common_ancestor(previous, current))
            marked_with_root = set(marked)
            marked_with_root.add(root)

            for node in marked:
                if node == root:
                    continue
                target = self._lowest_marked_proper_ancestor(node, marked_with_root)
                representative_leaf = self._representative_leaf(node, position, leaf_ranks)
                links.extend(
                    self._split_link(node, target, position, representative_leaf)
                )
        links.sort(key=lambda link: (link.origin_left, link.origin_right, link.origin_depth))
        return links

    def _lowest_marked_proper_ancestor(self, node: int, marked: set) -> int:
        current = self._tree.node_parent(node)
        while current != -1:
            if current in marked:
                return current
            current = self._tree.node_parent(current)
        return self._tree.root

    def _representative_leaf(
        self, node: int, position: int, leaf_ranks: List[int]
    ) -> int:
        node_left, node_right = self._tree.node_range(node)
        index = bisect.bisect_left(leaf_ranks, node_left)
        if index < len(leaf_ranks) and leaf_ranks[index] <= node_right:
            return leaf_ranks[index]
        raise ValidationError(
            f"internal error: no leaf with position {position} under node {node}"
        )  # pragma: no cover - construction invariant

    def _useful_depth_cap(self, leaf_rank: int, origin_depth: int) -> int:
        """Deepest prefix depth whose probability is still at least ``tau_min``.

        Links deeper than this can never satisfy a query (every query uses
        ``tau >= tau_min`` and probabilities only shrink with depth), so the
        chain is split starting from this depth instead of the full suffix
        depth — without this cap, link construction is quadratic in the
        transformed text length.
        """
        start = int(self._suffix_array.array[leaf_rank])
        limit = min(origin_depth, len(self._transformed.text) - start)
        if limit <= 0:
            return 0
        # prefix[start+1 .. start+limit] - prefix[start] is non-increasing.
        window = self._prefix[start + 1 : start + limit + 1] - self._prefix[start]
        threshold = np.log(self._tau_min) - 1e-12
        return int(np.searchsorted(-window, -threshold, side="right"))

    def _split_link(
        self, origin: int, target: int, position: int, representative_leaf: int
    ) -> List[Link]:
        tree = self._tree
        origin_left, origin_right = tree.node_range(origin)
        origin_depth = tree.node_depth(origin)
        target_depth = tree.node_depth(target)
        if target_depth >= origin_depth:
            # Degenerate (can only happen for a leaf equal to its marked
            # ancestor); no link needed.
            return []
        # Cap the chain at the deepest depth that any query could still
        # accept; deeper prefixes have probability < tau_min.
        origin_depth = min(
            origin_depth, self._useful_depth_cap(representative_leaf, origin_depth)
        )
        if origin_depth <= target_depth:
            return []

        sublinks: List[Link] = []
        current_depth = origin_depth
        current_probability = self._leaf_window_probability(representative_leaf, origin_depth)
        while current_depth > target_depth:
            cut_depth = target_depth
            # Walk upwards while the probability increase stays within epsilon.
            for depth in range(current_depth - 1, target_depth - 1, -1):
                probability = self._leaf_window_probability(representative_leaf, depth) if depth > 0 else 1.0
                if probability - current_probability > self._epsilon:
                    cut_depth = depth + 1
                    break
            if cut_depth >= current_depth:
                # Even a single character step exceeds epsilon: cut right above.
                cut_depth = current_depth - 1
            sublinks.append(
                Link(
                    origin_left=origin_left,
                    origin_right=origin_right,
                    origin_depth=current_depth,
                    target_depth=cut_depth,
                    position=position,
                    probability=current_probability,
                )
            )
            current_depth = cut_depth
            current_probability = (
                self._leaf_window_probability(representative_leaf, cut_depth)
                if cut_depth > 0
                else 1.0
            )
        return sublinks

    # -- metadata -------------------------------------------------------------------------
    @property
    def tau_min(self) -> float:
        """Construction-time probability threshold."""
        return self._tau_min

    @property
    def epsilon(self) -> float:
        """Additive error bound on reported probabilities."""
        return self._epsilon

    @property
    def string(self) -> UncertainString:
        """The indexed uncertain string."""
        return self._string

    @property
    def transformed(self) -> TransformedString:
        """The maximal-factor transformation the index is built over."""
        return self._transformed

    @property
    def link_count(self) -> int:
        """Total number of (split) links stored by the index."""
        return len(self._links)

    # -- payload currency -----------------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The complete array-schema description of this index.

        The link chain is decomposed into six parallel flat arrays (the
        :class:`Link` dataclasses are rebuilt on restore); the link RMQ is
        a child payload, present only when the index holds links.
        """
        links = self._links
        arrays = {
            "suffix_array": self._suffix_array.array,
            "lcp": self._tree.lcp,
            "prefix": self._prefix,
            "rank_positions": self._rank_positions,
            "link_origin_left": self._link_origin_left,
            "link_origin_right": np.asarray(
                [link.origin_right for link in links], dtype=np.int64
            ),
            "link_origin_depth": np.asarray(
                [link.origin_depth for link in links], dtype=np.int64
            ),
            "link_target_depth": np.asarray(
                [link.target_depth for link in links], dtype=np.int64
            ),
            "link_position": np.asarray(
                [link.position for link in links], dtype=np.int64
            ),
            "link_probability": self._link_probabilities,
        }
        children = {"transformed": self._transformed.to_payload()}
        if self._link_rmq is not None:
            children["rmq_links"] = rmq_to_payload(self._link_rmq)
        return IndexPayload(
            schema=APPROXIMATE_INDEX_SCHEMA,
            meta={
                "string": uncertain_string_to_manifest(self._string),
                "tau_min": self._tau_min,
                "epsilon": self._epsilon,
                "link_count": len(links),
            },
            arrays=arrays,
            derived={"suffix_rank": self._suffix_array.rank},
            children=children,
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "ApproximateSubstringIndex":
        """Restore an index from :meth:`to_payload` output (no construction)."""
        expect_schema(payload, APPROXIMATE_INDEX_SCHEMA)
        meta = payload.meta
        index = cls.__new__(cls)
        index._string = uncertain_string_from_manifest(meta["string"])
        index._tau_min = float(meta["tau_min"])
        index._epsilon = float(meta["epsilon"])
        index._transformed = TransformedString.from_payload(
            payload.children["transformed"]
        )
        index._suffix_array = SuffixArray(
            index._transformed.text, array=payload.arrays["suffix_array"]
        )
        index._tree = SuffixTree(index._suffix_array, lcp=payload.arrays["lcp"])
        index._prefix = payload.arrays["prefix"]
        index._rank_positions = payload.arrays["rank_positions"]
        arrays = payload.arrays
        index._links = [
            Link(
                origin_left=int(arrays["link_origin_left"][i]),
                origin_right=int(arrays["link_origin_right"][i]),
                origin_depth=int(arrays["link_origin_depth"][i]),
                target_depth=int(arrays["link_target_depth"][i]),
                position=int(arrays["link_position"][i]),
                probability=float(arrays["link_probability"][i]),
            )
            for i in range(int(meta["link_count"]))
        ]
        # Widen once at restore: the query path binary-searches this array
        # against suffix ranks that can exceed a compacted dtype's range, and
        # ``searchsorted`` would otherwise re-promote the haystack per query.
        index._link_origin_left = arrays["link_origin_left"].astype(np.int64, copy=False)
        index._link_probabilities = arrays["link_probability"]
        if len(index._links) > 0:
            index._link_rmq = restore_child_rmq(
                payload, "rmq_links", index._link_probabilities
            )
        else:
            index._link_rmq = None
        return index

    # -- queries --------------------------------------------------------------------------------
    def query(self, pattern: str, tau: float, *, verify: bool = False) -> MatchArrays:
        """Positions where ``pattern`` occurs with probability ≥ ``tau − ε``.

        Guarantees (Section 7): every position with true probability ≥ ``tau``
        is reported; every reported position has true probability at least
        ``tau − ε``.  With ``verify=True`` candidates are re-checked against
        the original string and the answer becomes exact (probability
        strictly above ``tau``).  Returns a
        :class:`~repro.core.base.MatchArrays` in position order; ``top_k``
        is the base class's, which ranks this answer's arrays.
        """
        check_nonempty_pattern(pattern)
        threshold = check_threshold(tau, tau_min=self._tau_min)
        if self._link_rmq is None:
            return MatchArrays(OCCURRENCE)
        interval = self._tree.pattern_range(pattern)
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval
        length = len(pattern)
        relaxed_threshold = threshold - self._epsilon

        # Links whose origin range starts inside [sp, ep] form a contiguous
        # slice of the origin-sorted link array.
        first = int(np.searchsorted(self._link_origin_left, sp, side="left"))
        last = int(np.searchsorted(self._link_origin_left, ep, side="right")) - 1
        if first > last:
            return MatchArrays(OCCURRENCE)

        reported: Dict[int, float] = {}
        for index in report_above_threshold(
            self._link_rmq, self._link_probabilities, first, last, relaxed_threshold
        ):
            link = self._links[index]
            if link.origin_right > ep:
                continue
            if link.origin_depth < length or link.target_depth >= length:
                continue
            previous = reported.get(link.position)
            if previous is None or link.probability > previous:
                reported[link.position] = link.probability

        positions = np.fromiter(reported, dtype=np.int64, count=len(reported))
        if verify:
            values = np.array(
                [
                    self._string.occurrence_probability(pattern, position)
                    for position in positions.tolist()
                ],
                dtype=np.float64,
            )
            keep = values > threshold
            positions, values = positions[keep], values[keep]
        else:
            values = np.fromiter(reported.values(), dtype=np.float64, count=len(reported))
        return MatchArrays(OCCURRENCE, positions, values).by_id()
