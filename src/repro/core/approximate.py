"""Approximate substring searching with additive error (paper Section 7).

The exact indexes answer long patterns in ``O(m · occ)``; to get optimal
``O(m + occ)`` for *every* pattern length the paper trades exactness for an
additive error ``ε`` on the probability threshold, using the marked-node /
link framework of Hon, Shah and Vitter:

1. the uncertain string is transformed (maximal factors w.r.t. ``τ_min``)
   and the suffix array and LCP array of the transformed text are built
   (one :func:`~repro.suffix.suffix_array.prefix_doubling`).  A node of the
   suffix tree is a rank range plus a string depth, read off the LCP array,
   so the tree itself is never built;
2. every leaf is marked with the *original* position its suffix maps to;
   every node that is the LCA of two rank-adjacent leaves with the same mark
   is marked with it too (the root is implicitly marked with every position);
3. for every node ``u`` marked with position ``d`` a link
   ``(origin=u, target=lowest marked proper ancestor, d, prob)`` is created,
   where ``prob`` is the probability of ``path(u)`` occurring at ``d``;
4. each link is split into a chain of sub-links so that the probabilities of
   consecutive sub-links differ by at most ``ε``.

:func:`build_links` does steps 2-4 in numpy and returns the links as six
parallel arrays, sorted by origin.  A query ``(p, τ)`` reports the
positions of the links *stabbed* by the pattern's locus (origin at or below
the locus, target strictly above it) whose probability is at least
``τ − ε``: one masked pass over the links whose origin starts inside the
pattern's suffix range.  Every reported position has true occurrence
probability ≥ ``τ − ε`` and every position with true probability ≥ ``τ`` is
reported.

Setting ``verify=True`` on the query re-checks candidates against the
original string, turning the structure into an exact index at the cost of
``O(m)`` extra work per candidate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_nonempty_pattern, check_probability, check_threshold
from ..exceptions import ValidationError
from ..payload import IndexPayload, expect_schema
from ..strings.serialization import (
    uncertain_string_from_manifest,
    uncertain_string_to_manifest,
)
from ..strings.uncertain import UncertainString
from ..suffix.lcp import common_prefix_lengths, lcp_from_ranks
from ..suffix.rmq import make_rmq, rmq_to_payload
from ..suffix.suffix_array import SuffixArray, prefix_doubling
from . import base
from .base import (
    OCCURRENCE,
    MatchArrays,
    UncertainSubstringIndex,
    report_above_threshold,
    restore_child_rmq,
    stored_array,
)

from .cumulative import cumulative_log_probabilities
from .factors import DEFAULT_SEPARATOR, TransformedString, transform_uncertain_string

#: Payload schema of this index kind (see :mod:`repro.payload`).
APPROXIMATE_INDEX_SCHEMA = "index/approximate"

#: The link arrays, as :func:`build_links` returns them and the payload
#: stores them: the origin node's rank range and string depth, the target's
#: string depth, the reported original position and the link probability.
LINK_ARRAYS = (
    "link_origin_left",
    "link_origin_right",
    "link_origin_depth",
    "link_target_depth",
    "link_position",
    "link_probability",
)


def _minimum_levels(lcp: np.ndarray) -> List[np.ndarray]:
    """Sparse table of ``lcp``: ``levels[k][i] = min(lcp[i : i + 2**k])``.

    Held as int32, like the doubling ranks: every entry is below the text
    length.
    """
    levels = [lcp.astype(np.int32)]
    while 1 << len(levels) <= len(lcp):
        width = 1 << (len(levels) - 1)
        previous = levels[-1]
        levels.append(np.minimum(previous[:-width], previous[width:]))
    return levels


def _node_ranges(
    levels: List[np.ndarray], first: np.ndarray, last: np.ndarray, depths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Rank range of the depth-``depths[i]`` node holding ranks ``first[i]..last[i]``.

    The range runs from the nearest rank at or before ``first`` whose
    ``lcp`` is below the depth to the rank before the nearest such rank
    after ``last`` (or to the last rank): both runs of ``lcp >= depth`` are
    found by binary lifting over the sparse table, one level per step.
    ``lcp[0] = 0`` stops every left run.
    """
    count = len(levels[0])
    start = first + 1
    end = last + 1
    for k in range(len(levels) - 1, -1, -1):
        level, width = levels[k], 1 << k
        before = start - width
        grow = (before >= 0) & (level[np.maximum(before, 0)] >= depths)
        start = np.where(grow, before, start)
        grow = (end + width <= count) & (level[np.minimum(end, len(level) - 1)] >= depths)
        end = np.where(grow, end + width, end)
    return start - 1, end - 1


def _capped_depths(
    prefix: np.ndarray, starts: np.ndarray, depths: np.ndarray, threshold: float
) -> np.ndarray:
    """How many of the depths ``1..depths[i]`` keep ``prefix[s+D] − prefix[s] ≥ threshold``.

    The prefix sums never increase, so those depths are ``1..cap`` and a
    bisection finds ``cap``.  No query accepts a deeper link: its
    probability is below ``τ_min``.
    """
    low = np.zeros_like(depths)
    high = depths.copy()
    while True:
        open_ = low < high
        if not open_.any():
            return low
        middle = (low + high + 1) // 2
        keeps = prefix[starts + middle] - prefix[starts] >= threshold
        low = np.where(open_ & keeps, middle, low)
        high = np.where(open_ & ~keeps, middle - 1, high)


def _split_chains(
    prefix: np.ndarray,
    starts: np.ndarray,
    targets: np.ndarray,
    origins: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut every chain into sub-links whose probabilities differ by at most ``epsilon``.

    Chain ``i`` runs from depth ``origins[i]`` up to ``targets[i]``, and its
    depth ``D`` has probability ``P(D) = exp(prefix[s+D] − prefix[s])``
    with ``s = starts[i]`` (``P(0) = 1``).  From the current depth, a round
    cuts below the deepest shallower depth whose probability exceeds the
    current one by more than ``epsilon`` (one step up when that is the next
    depth; at the target when there is none) and emits the sub-link above.
    The search reads windows of depths going up from the current one, each
    twice as wide as the last, so a round reads at most about twice the
    depths a one-by-one scan reads, and all chains move at once.

    Returns the chain, origin depth, target depth and probability of every
    sub-link.
    """

    def probability(chains: np.ndarray, depths: np.ndarray) -> np.ndarray:
        start = starts[chains]
        values = np.exp(prefix[start + depths] - prefix[start])
        values[depths == 0] = 1.0
        return values

    emitted: List[Tuple[np.ndarray, ...]] = []
    current = origins.copy()
    value = probability(np.arange(len(origins)), current)
    # The next window of chain i ends at depth high[i] and is width[i] wide.
    high = current - 1
    width = np.ones_like(current)
    active = np.arange(len(origins))
    while active.size:
        top = high[active]
        low = np.maximum(targets[active], top - width[active] + 1)
        spans = top - low + 1
        offsets = np.cumsum(spans) - spans
        depths = np.arange(int(spans.sum())) + np.repeat(low - offsets, spans)
        rises = (
            probability(np.repeat(active, spans), depths) - np.repeat(value[active], spans)
            > epsilon
        )
        deepest = np.maximum.reduceat(np.where(rises, depths, -1), offsets)
        found = deepest >= 0
        settled = found | (low == targets[active])
        waiting = active[~settled]
        high[waiting] = low[~settled] - 1
        width[waiting] *= 2

        chains = active[settled]
        depth = np.where(found[settled], deepest[settled] + 1, targets[chains])
        depth = np.minimum(depth, current[chains] - 1)
        emitted.append((chains, current[chains], depth, value[chains]))
        current[chains] = depth
        value[chains] = probability(chains, depth)
        high[chains] = depth - 1
        width[chains] = 1
        active = np.concatenate([waiting, chains[depth > targets[chains]]])
    if not emitted:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.empty(0, dtype=np.float64)
    chains, tops, cuts, values = (np.concatenate(parts) for parts in zip(*emitted))
    return chains, tops, cuts, values


def build_links(
    suffix_array: np.ndarray,
    ranks: Sequence[np.ndarray],
    rank_positions: np.ndarray,
    prefix: np.ndarray,
    tau_min: float,
    epsilon: float,
) -> Dict[str, np.ndarray]:
    """The links of every marked node, as the :data:`LINK_ARRAYS`, sorted by origin.

    ``ranks`` are the doubling rounds of
    :func:`~repro.suffix.suffix_array.prefix_doubling` that produced
    ``suffix_array``; ``rank_positions`` maps each rank to its original
    position (``-1`` on a separator) and ``prefix`` holds the log prefix
    sums of the transformed text.  With ``a_1 < … < a_k`` the leaves of
    position ``d`` and ``h_i`` the LCP of ``a_i`` and ``a_(i+1)``
    (``h_0 = h_k = 0``, the root):

    * the marked nodes of ``d`` are its leaves (depth ``N − sa[r]``) and the
      LCAs of its rank-adjacent leaves (depth ``h_i``); a node's range ends
      at the nearest ``lcp`` below its depth on each side.  A suffix that is
      a prefix of the suffixes ranked after it is their node, so its range
      runs past its own rank;
    * a node holding the leaves ``a_p..a_q`` has as lowest marked proper
      ancestor the deeper of ``LCA(a_(p−1), a_p)`` and ``LCA(a_q,
      a_(q+1))``, at depth ``max(h_(p−1), h_q)``;
    * its probabilities are read from its smallest-rank leaf ``a_p``:
      ``P(D) = exp(prefix[s+D] − prefix[s])`` with ``s = sa[a_p]`` and
      ``P(0) = 1``.  Other leaves give the same value in exact arithmetic,
      not the same bits.

    Links with equal origins are ordered by their position's smallest rank.
    """
    count = len(suffix_array)
    suffix_array = np.asarray(suffix_array, dtype=np.int64)
    lcp = lcp_from_ranks(ranks, suffix_array)

    # Leaves grouped by position, in rank order within a position.
    leaves = np.flatnonzero(rank_positions >= 0)
    leaves = leaves[np.argsort(rank_positions[leaves], kind="stable")]
    positions = rank_positions[leaves].astype(np.int64)
    paired = np.flatnonzero(positions[1:] == positions[:-1])
    pair_depths = common_prefix_lengths(
        ranks, suffix_array[leaves[paired]], suffix_array[leaves[paired + 1]]
    )
    # h_i after / before every leaf; 0 (the root) at a position's ends.
    after = np.zeros(len(leaves), dtype=np.int64)
    after[paired] = pair_depths
    before = np.zeros(len(leaves), dtype=np.int64)
    before[paired + 1] = pair_depths

    # Marked nodes: every leaf, and every non-root LCA of an adjacent pair.
    inner = pair_depths > 0
    node_position = np.concatenate([positions, positions[paired[inner]]])
    node_depth = np.concatenate([count - suffix_array[leaves], pair_depths[inner]])
    left, right = _node_ranges(
        _minimum_levels(lcp),
        np.concatenate([leaves, leaves[paired[inner]]]),
        np.concatenate([leaves, leaves[paired[inner] + 1]]),
        node_depth,
    )
    # An LCA can be a leaf (a prefix of the next suffixes) or another LCA.
    # Ranks and depths are below ``count``, so (position, rank) pairs and
    # the sort keys below fit one int64 each.
    node_key = node_position * count + left
    order = np.lexsort((node_depth, node_key))
    unique = np.ones(len(order), dtype=bool)
    unique[1:] = (np.diff(node_key[order]) != 0) | (np.diff(node_depth[order]) != 0)
    order = order[unique]
    node_position, node_key = node_position[order], node_key[order]
    node_depth, left, right = node_depth[order], left[order], right[order]

    # Leaves a_p..a_q of the position inside each node.
    keys = positions * count + leaves
    first = np.searchsorted(keys, node_key, side="left")
    last = np.searchsorted(keys, node_position * count + right, side="right") - 1
    target = np.maximum(before[first], after[last])
    start = suffix_array[leaves[first]]
    origin = _capped_depths(prefix, start, node_depth, np.log(tau_min) - 1e-12)
    chained = np.flatnonzero(origin > target)
    start, origin, target = start[chained], origin[chained], target[chained]

    chain, origin_depth, target_depth, probability = _split_chains(
        prefix, start, target, origin, epsilon
    )

    node = chained[chain]
    first_rank = leaves[np.searchsorted(keys, node_position[node] * count)]
    order = np.lexsort(
        (origin_depth * count + first_rank, left[node] * count + right[node])
    )
    node = node[order]
    return {
        "link_origin_left": left[node],
        "link_origin_right": right[node],
        "link_origin_depth": origin_depth[order],
        "link_target_depth": target_depth[order],
        "link_position": node_position[node],
        "link_probability": probability[order],
    }


def widest_first_character_slice(
    text: str, suffix_array: np.ndarray, origin_left: np.ndarray
) -> int:
    """Most links whose origins start with one character.

    A query stabs the links whose origin starts inside the pattern's suffix
    range, which lies inside its first character's range, so no query's
    slice is wider.  A function of the stored arrays alone: a restore
    derives whether the build kept the link RMQ.  No links give 0.
    """
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    # Non-decreasing: ranks sort by first character.
    first = codes[suffix_array[origin_left]]
    edges = np.flatnonzero(first[1:] != first[:-1]) + 1
    return int(np.diff(edges, prepend=0, append=len(first)).max())


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
        suffix_array, ranks = prefix_doubling(transformed.text)
        self._suffix_array = SuffixArray(transformed.text, array=suffix_array)
        self._links = build_links(
            suffix_array,
            ranks,
            transformed.positions[suffix_array],
            cumulative_log_probabilities(transformed.probabilities),
            self._tau_min,
            epsilon,
        )
        del ranks
        probabilities = self._links["link_probability"]
        self._link_rmq = (
            make_rmq(probabilities, mode="max") if self._needs_link_rmq() else None
        )

    def _needs_link_rmq(self) -> bool:
        """Whether a stabbed slice can be wider than the kernel's scan."""
        widest = widest_first_character_slice(
            self._transformed.text,
            self._suffix_array.array,
            self._links["link_origin_left"],
        )
        return widest > base.SCAN_WIDTH

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
        return len(self._links["link_probability"])

    # -- payload currency -----------------------------------------------------------------
    def to_payload(self) -> IndexPayload:
        """The complete array-schema description of this index.

        The links are the six :data:`LINK_ARRAYS`; the link RMQ is a child
        payload, present only where a stabbed slice can be wider than
        :data:`~repro.core.base.SCAN_WIDTH`.
        """
        arrays = {"suffix_array": self._suffix_array.array, **self._links}
        children = {"transformed": self._transformed.to_payload()}
        if self._link_rmq is not None:
            children["rmq_links"] = rmq_to_payload(self._link_rmq)
        return IndexPayload(
            schema=APPROXIMATE_INDEX_SCHEMA,
            meta={
                "string": uncertain_string_to_manifest(self._string),
                "tau_min": self._tau_min,
                "epsilon": self._epsilon,
                "link_count": self.link_count,
            },
            arrays=arrays,
            children=children,
        )

    @classmethod
    def from_payload(cls, payload: IndexPayload) -> "ApproximateSubstringIndex":
        """Restore an index from :meth:`to_payload` output (no construction).

        Arrays and an ``rmq_links`` child the index does not need (earlier
        archives also stored ``lcp``, ``prefix``, ``rank_positions`` and
        the link RMQ) are not read; a missing link array, or a missing
        needed RMQ child, raises :class:`~repro.exceptions.ValidationError`.
        """
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
        index._links = {name: stored_array(payload, name) for name in LINK_ARRAYS}
        # Widen and align once at restore: the query path binary-searches
        # this array, and ``searchsorted`` copies the whole haystack on every
        # call when it is narrower than int64 (a compact archive) or
        # unaligned (an mmap'd archive member).
        index._links["link_origin_left"] = np.require(
            index._links["link_origin_left"], dtype=np.int64, requirements="A"
        )
        index._link_rmq = (
            restore_child_rmq(payload, "rmq_links", index._links["link_probability"])
            if index._needs_link_rmq()
            else None
        )
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
        interval = self._transformed.suffix_range(self._suffix_array.array, pattern)
        if interval is None:
            return MatchArrays(OCCURRENCE)
        sp, ep = interval
        length = len(pattern)
        links = self._links

        # Links whose origin range starts inside [sp, ep] form a contiguous
        # slice of the origin-sorted link arrays; the stabbed ones among
        # them have their origin inside the locus and their target above it.
        origin_left = links["link_origin_left"]
        first = int(np.searchsorted(origin_left, sp, side="left"))
        last = int(np.searchsorted(origin_left, ep, side="right")) - 1
        hits = report_above_threshold(
            self._link_rmq,
            links["link_probability"],
            first,
            last,
            threshold - self._epsilon,
        )
        hits = hits[
            (links["link_origin_right"][hits] <= ep)
            & (links["link_origin_depth"][hits] >= length)
            & (links["link_target_depth"][hits] < length)
        ]
        if hits.size == 0:
            return MatchArrays(OCCURRENCE)
        positions = links["link_position"][hits].astype(np.int64)
        values = links["link_probability"][hits]
        # The largest probability per position: the last of each run.
        order = np.lexsort((values, positions))
        positions, values = positions[order], values[order]
        best = np.append(positions[1:] != positions[:-1], True)
        positions, values = positions[best], values[best]
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
        return MatchArrays(OCCURRENCE, positions, values)
