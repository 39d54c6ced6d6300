"""The paper's indexes: substring search, string listing, approximate search."""

from .approximate import ApproximateSubstringIndex, Link
from .base import (
    DEFAULT_TAU_FLOOR,
    LISTING,
    OCCURRENCE,
    ListingMatch,
    MatchArrays,
    Occurrence,
    UncertainSubstringIndex,
    blocked_candidate_ranks,
    evaluate_request,
    exp_values,
    expand_ranges,
    report_above_threshold,
    report_above_threshold_scalar,
    resolve_tau,
    top_values_above_threshold,
    top_values_above_threshold_scalar,
)
from .baseline import BruteForceOracle, OnlineDynamicProgrammingMatcher
from .cumulative import (
    cumulative_log_probabilities,
    prefix_length_log_probabilities,
    window_log_probability,
)
from .factors import (
    MaximalFactor,
    TransformedString,
    enumerate_maximal_factors,
    transform_collection,
    transform_uncertain_string,
)
from .general_index import GeneralUncertainStringIndex
from .listing import UncertainStringListingIndex, combine_relevance
from .special_index import SpecialUncertainStringIndex

__all__ = [
    "ApproximateSubstringIndex",
    "DEFAULT_TAU_FLOOR",
    "BruteForceOracle",
    "GeneralUncertainStringIndex",
    "Link",
    "LISTING",
    "ListingMatch",
    "MatchArrays",
    "MaximalFactor",
    "OCCURRENCE",
    "Occurrence",
    "OnlineDynamicProgrammingMatcher",
    "SpecialUncertainStringIndex",
    "TransformedString",
    "UncertainStringListingIndex",
    "UncertainSubstringIndex",
    "blocked_candidate_ranks",
    "combine_relevance",
    "cumulative_log_probabilities",
    "enumerate_maximal_factors",
    "evaluate_request",
    "exp_values",
    "expand_ranges",
    "prefix_length_log_probabilities",
    "report_above_threshold",
    "report_above_threshold_scalar",
    "resolve_tau",
    "top_values_above_threshold",
    "top_values_above_threshold_scalar",
    "transform_collection",
    "transform_uncertain_string",
    "window_log_probability",
]
