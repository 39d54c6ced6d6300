"""Deterministic string-indexing substrate (suffix arrays, trees, RMQ)."""

from .lcp import (
    LCPArray,
    build_lcp_array,
    common_prefix_lengths,
    lcp_from_ranks,
    naive_lcp_array,
)
from .pattern_search import count_occurrences, occurrence_positions, suffix_range
from .rmq import (
    BlockRMQ,
    CompactRMQ,
    SparseTableRMQ,
    make_rmq,
    rmq_from_payload,
    rmq_to_payload,
)
from .suffix_array import (
    SuffixArray,
    build_suffix_array,
    inverse_suffix_array,
    naive_suffix_array,
    prefix_doubling,
)
from .suffix_tree import SuffixTree

__all__ = [
    "BlockRMQ",
    "CompactRMQ",
    "LCPArray",
    "SparseTableRMQ",
    "SuffixArray",
    "SuffixTree",
    "build_lcp_array",
    "build_suffix_array",
    "common_prefix_lengths",
    "count_occurrences",
    "inverse_suffix_array",
    "lcp_from_ranks",
    "make_rmq",
    "rmq_from_payload",
    "rmq_to_payload",
    "naive_lcp_array",
    "naive_suffix_array",
    "occurrence_positions",
    "prefix_doubling",
    "suffix_range",
]
