"""Deterministic string-indexing substrate (suffix arrays, LCP arrays, RMQ)."""

from .lcp import common_prefix_lengths, lcp_from_ranks, naive_lcp_array
from .pattern_search import suffix_range
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

__all__ = [
    "BlockRMQ",
    "CompactRMQ",
    "SparseTableRMQ",
    "SuffixArray",
    "build_suffix_array",
    "common_prefix_lengths",
    "inverse_suffix_array",
    "lcp_from_ranks",
    "make_rmq",
    "rmq_from_payload",
    "rmq_to_payload",
    "naive_lcp_array",
    "naive_suffix_array",
    "prefix_doubling",
    "suffix_range",
]
