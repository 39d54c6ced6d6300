"""repro — Probabilistic threshold indexing for uncertain strings.

A Python reproduction of *"Probabilistic Threshold Indexing for Uncertain
Strings"* (Thankachan, Patil, Shah, Biswas — EDBT 2016): indexes for
searching deterministic patterns inside character-level uncertain strings
with a probability threshold, plus the supporting substrate (suffix arrays,
suffix trees, range maximum queries), dataset generators and a benchmark
harness reproducing the paper's experimental figures.

Quick start
-----------
:func:`build_index` is the front door: hand it whatever you have (a plain
string, an :class:`UncertainString`, a :class:`SpecialUncertainString`, a
collection or a sequence of documents) and it selects, builds and wraps the
right index variant behind one query vocabulary:

>>> from repro import SearchRequest, UncertainString, build_index, load_index
>>> s = UncertainString([
...     {"A": 0.6, "C": 0.4},
...     {"T": 1.0},
...     {"A": 0.5, "G": 0.5},
... ])
>>> engine = build_index(s, tau_min=0.1)
>>> engine.kind
'general'
>>> [(occ.position, round(occ.probability, 2)) for occ in engine.search("AT", tau=0.3)]
[(0, 0.6)]

Results are lazy and pageable, batches amortize repeated work, and engines
persist to versioned ``.npz`` archives:

>>> high, low = engine.search_many([
...     SearchRequest("AT", tau=0.5), SearchRequest("AT", tau=0.1)])
>>> high.count, low.count
(1, 1)
>>> path = engine.save("/tmp/demo-index")        # doctest: +SKIP
>>> hot = load_index(path)                       # doctest: +SKIP

The underlying index classes (:class:`GeneralUncertainStringIndex` and
friends) stay public for variant-specific control; ``engine.index`` exposes
the wrapped instance.
"""

from .api import (
    Engine,
    IndexPlan,
    ResultCache,
    SearchRequest,
    SearchResult,
    ShardSpec,
    ShardedEngine,
    build_index,
    build_sharded_index,
    load_index,
    plan_index,
    shard_input,
)
from .core import (
    ApproximateSubstringIndex,
    BruteForceOracle,
    GeneralUncertainStringIndex,
    ListingMatch,
    MatchArrays,
    MaximalFactor,
    Occurrence,
    OnlineDynamicProgrammingMatcher,
    SpecialUncertainStringIndex,
    TransformedString,
    UncertainStringListingIndex,
    enumerate_maximal_factors,
    transform_collection,
    transform_uncertain_string,
)
from .exceptions import (
    AlphabetError,
    ConstructionError,
    CorrelationError,
    DeadlineExceededError,
    DrainTimeoutError,
    InjectedFaultError,
    PatternTooLongError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ThresholdError,
    ValidationError,
    WorkerError,
)
from .payload import IndexPayload
from .serving import AsyncSearchService
from .strings import (
    Alphabet,
    CorrelationModel,
    CorrelationRule,
    PositionDistribution,
    SpecialUncertainString,
    UncertainString,
    UncertainStringCollection,
)

__version__ = "1.7.0"

__all__ = [
    "Alphabet",
    "AlphabetError",
    "ApproximateSubstringIndex",
    "AsyncSearchService",
    "BruteForceOracle",
    "ConstructionError",
    "CorrelationError",
    "CorrelationModel",
    "CorrelationRule",
    "DeadlineExceededError",
    "DrainTimeoutError",
    "Engine",
    "GeneralUncertainStringIndex",
    "IndexPayload",
    "IndexPlan",
    "InjectedFaultError",
    "ListingMatch",
    "MatchArrays",
    "MaximalFactor",
    "Occurrence",
    "OnlineDynamicProgrammingMatcher",
    "PatternTooLongError",
    "PositionDistribution",
    "QueryError",
    "ReproError",
    "ResultCache",
    "SearchRequest",
    "SearchResult",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "ShardSpec",
    "ShardedEngine",
    "SpecialUncertainStringIndex",
    "ThresholdError",
    "TransformedString",
    "UncertainString",
    "UncertainStringCollection",
    "UncertainStringListingIndex",
    "ValidationError",
    "WorkerError",
    "build_index",
    "build_sharded_index",
    "enumerate_maximal_factors",
    "load_index",
    "plan_index",
    "shard_input",
    "transform_collection",
    "transform_uncertain_string",
    "__version__",
]
