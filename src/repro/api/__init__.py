"""The unified front door to the package (engine, planner, persistence).

Most callers need exactly three names:

* :func:`build_index` — hand it whatever you have (a plain string, an
  :class:`~repro.strings.UncertainString`, a
  :class:`~repro.strings.SpecialUncertainString`, an
  :class:`~repro.strings.UncertainStringCollection` or a sequence of
  documents) and get back an :class:`Engine` wrapping the index variant
  the planner selected for that input shape;
* :meth:`Engine.search` / :meth:`Engine.search_many` — the unified
  :class:`SearchRequest` → :class:`SearchResult` query vocabulary with
  consistent ``tau`` semantics, lazy pageable results, batch
  amortization and an LRU result cache on the hot path;
* :meth:`Engine.save` / :func:`load_index` — versioned ``.npz``
  persistence so indexes are built offline and served hot.

Scale-out callers add :func:`build_sharded_index` — the same vocabulary
over a :class:`ShardedEngine` that partitions the input (documents, or
overlapping string chunks), fans queries out across per-shard engines on a
thread pool, and merges globally correct answers.  ``load_index`` restores
both engine shapes.

The :mod:`repro.core` classes stay public for callers that need
variant-specific control; ``Engine.index`` exposes the wrapped instance.
"""

from .batch import execute_batch
from .cache import DEFAULT_CACHE_SIZE, ResultCache
from .engine import Engine, build_index, load_index
from .persistence import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ShardedArchive,
    index_from_payload,
    index_to_payload,
    is_sharded_archive,
    load_index_payload,
    load_sharded_payload,
    read_manifest,
    read_sharded_manifest,
    save_index_payload,
    save_sharded_payload,
    SHARDED_FORMAT_NAME,
    SHARDED_FORMAT_VERSION,
)
from .planner import (
    DEFAULT_MAX_PATTERN_LEN,
    DEFAULT_TAU_MIN,
    INDEX_CLASSES,
    IndexPlan,
    ShardSpec,
    normalize_input,
    plan_index,
    shard_input,
)
from .requests import SearchRequest, SearchResult
from .sharding import ShardedEngine, build_sharded_index

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_MAX_PATTERN_LEN",
    "DEFAULT_TAU_MIN",
    "Engine",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "INDEX_CLASSES",
    "IndexPlan",
    "ResultCache",
    "SHARDED_FORMAT_NAME",
    "SHARDED_FORMAT_VERSION",
    "SearchRequest",
    "SearchResult",
    "ShardSpec",
    "ShardedArchive",
    "ShardedEngine",
    "build_index",
    "build_sharded_index",
    "execute_batch",
    "index_from_payload",
    "index_to_payload",
    "is_sharded_archive",
    "load_index",
    "load_index_payload",
    "load_sharded_payload",
    "normalize_input",
    "plan_index",
    "read_manifest",
    "read_sharded_manifest",
    "save_index_payload",
    "save_sharded_payload",
    "shard_input",
]
