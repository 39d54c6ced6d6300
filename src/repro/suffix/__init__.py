"""Deterministic string-indexing substrate (suffix arrays, trees, RMQ)."""

from .generalized import (
    DEFAULT_SEPARATOR,
    ConcatenatedDocuments,
    GeneralizedSuffixStructure,
)
from .lcp import LCPArray, build_lcp_array, naive_lcp_array
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
)
from .suffix_tree import SuffixTree

__all__ = [
    "BlockRMQ",
    "CompactRMQ",
    "ConcatenatedDocuments",
    "DEFAULT_SEPARATOR",
    "GeneralizedSuffixStructure",
    "LCPArray",
    "SparseTableRMQ",
    "SuffixArray",
    "SuffixTree",
    "build_lcp_array",
    "build_suffix_array",
    "count_occurrences",
    "inverse_suffix_array",
    "make_rmq",
    "rmq_from_payload",
    "rmq_to_payload",
    "naive_lcp_array",
    "naive_suffix_array",
    "occurrence_positions",
    "suffix_range",
]
