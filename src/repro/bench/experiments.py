"""Per-figure experiment generators (paper Section 8).

Every panel of Figures 7, 8 and 9 has a generator here that produces a
:class:`~repro.bench.harness.FigureTable` with one series per uncertainty
fraction θ, matching the paper's plots:

========  =====================================================================
fig7a–d   substring-search query time vs n, τ, τ_min and pattern length m
fig8a–d   string-listing query time vs the same four parameters
fig9a–c   index construction time vs n and τ_min, and index space vs n
========  =====================================================================

Additional ablation experiments (not figures in the paper but motivated by
its discussion) compare the index against the index-free online matcher,
the two RMQ implementations, and the exact vs approximate index.  The
scan against the RMQ frontier (Section 4.1 against 4.2) is the
``query-kernel`` width sweep.

Sizes are configurable through :class:`ExperimentScale`.  The paper runs up
to n = 300K positions on a C++ implementation; the default scale here tops
out at tens of thousands of positions so a pure-Python run finishes in
minutes — the *shape* of every curve (what grows, what stays flat, who wins)
is preserved and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from ..core.approximate import ApproximateSubstringIndex
from ..core.base import SCAN_WIDTH, TOP_K_SCAN_WIDTH
from ..core.baseline import OnlineDynamicProgrammingMatcher
from ..core.factors import transform_uncertain_string
from ..core.general_index import GeneralUncertainStringIndex
from ..suffix.rmq import BlockRMQ, SparseTableRMQ
from .harness import FigureTable, Series, time_callable, time_query_batch
from .workloads import (
    cached_uncertain_string,
    listing_workload,
    substring_workload,
)

if TYPE_CHECKING:
    from ..api.engine import Engine
    from ..strings.special import SpecialUncertainString


@dataclass(frozen=True)
class ExperimentScale:
    """Parameter grids for one benchmark run.

    The ``small`` scale is what the test-suite and CI exercise; ``default``
    reproduces every figure at laptop-friendly sizes; ``large`` pushes the
    string sizes up for closer comparison with the paper's axes.
    """

    name: str
    string_sizes: Tuple[int, ...]
    collection_sizes: Tuple[int, ...]
    thetas: Tuple[float, ...]
    tau_min: float
    tau: float
    tau_grid: Tuple[float, ...]
    tau_min_grid: Tuple[float, ...]
    pattern_lengths: Tuple[int, ...]
    mixed_query_lengths: Tuple[int, ...]
    listing_query_lengths: Tuple[int, ...]
    patterns_per_length: int
    fixed_string_size: int
    fixed_collection_size: int
    tau_min_panel_size: int
    query_repeats: int
    #: Reported-occurrence counts exercised by the ``query-kernel``
    #: experiment (scalar vs vectorized reporting throughput).
    kernel_occ_targets: Tuple[int, ...] = (100, 10_000)
    #: Range widths of the ``query-kernel`` scan-vs-frontier sweep, the
    #: measurement that fixes :data:`~repro.core.base.SCAN_WIDTH` and
    #: :data:`~repro.core.base.TOP_K_SCAN_WIDTH`.
    kernel_scan_widths: Tuple[int, ...] = (1 << 10, TOP_K_SCAN_WIDTH, SCAN_WIDTH)
    #: Replica counts exercised by the ``network-serving`` experiment.
    serving_replica_counts: Tuple[int, ...] = (1, 2, 4)


SMALL_SCALE = ExperimentScale(
    name="small",
    string_sizes=(500, 1000),
    collection_sizes=(500, 1000),
    thetas=(0.1, 0.3),
    tau_min=0.1,
    tau=0.2,
    tau_grid=(0.10, 0.12, 0.15),
    tau_min_grid=(0.10, 0.20),
    pattern_lengths=(4, 8, 12),
    mixed_query_lengths=(5, 10, 20),
    listing_query_lengths=(4, 8),
    patterns_per_length=3,
    fixed_string_size=1000,
    fixed_collection_size=1000,
    tau_min_panel_size=500,
    query_repeats=1,
    kernel_occ_targets=(100, 1000),
    serving_replica_counts=(1, 2),
)

DEFAULT_SCALE = ExperimentScale(
    name="default",
    string_sizes=(2000, 4000, 8000, 16000),
    collection_sizes=(2000, 4000, 8000, 16000),
    thetas=(0.1, 0.2, 0.3, 0.4),
    tau_min=0.1,
    tau=0.2,
    tau_grid=(0.10, 0.11, 0.12, 0.13, 0.14, 0.15),
    tau_min_grid=(0.05, 0.10, 0.15, 0.20),
    pattern_lengths=(5, 10, 15, 20, 25),
    mixed_query_lengths=(10, 100, 500, 1000),
    listing_query_lengths=(5, 10, 15),
    patterns_per_length=5,
    fixed_string_size=8000,
    fixed_collection_size=8000,
    tau_min_panel_size=4000,
    query_repeats=3,
    kernel_occ_targets=(100, 10_000, 1_000_000),
    kernel_scan_widths=tuple(1 << e for e in (6, 8, 10, 12, 14, 15, 16, 17, 18)),
)

LARGE_SCALE = ExperimentScale(
    name="large",
    string_sizes=(4000, 8000, 16000, 32000, 64000),
    collection_sizes=(4000, 8000, 16000, 32000, 64000),
    thetas=(0.1, 0.2, 0.3, 0.4),
    tau_min=0.1,
    tau=0.2,
    tau_grid=(0.10, 0.11, 0.12, 0.13, 0.14, 0.15),
    tau_min_grid=(0.04, 0.08, 0.12, 0.16, 0.20),
    pattern_lengths=(5, 10, 15, 20, 25),
    mixed_query_lengths=(10, 100, 500, 1000),
    listing_query_lengths=(5, 10, 15),
    patterns_per_length=5,
    fixed_string_size=16000,
    fixed_collection_size=16000,
    tau_min_panel_size=8000,
    query_repeats=3,
    kernel_occ_targets=(100, 10_000, 1_000_000),
)

SCALES: Dict[str, ExperimentScale] = {
    "small": SMALL_SCALE,
    "default": DEFAULT_SCALE,
    "large": LARGE_SCALE,
}


def _theta_label(theta: float) -> str:
    return f"theta={theta:g}"


# ---------------------------------------------------------------------------
# Figure 7 — substring-search query time
# ---------------------------------------------------------------------------
def figure_7a(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 7(a): substring-search query time vs string size n."""
    table = FigureTable(
        figure_id="fig7a",
        title="Substring searching: query time vs string size",
        x_label="n (positions)",
        y_label="avg query time (ms)",
        notes=f"tau_min={scale.tau_min}, tau={scale.tau}, "
        f"query lengths {scale.mixed_query_lengths}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        for n in scale.string_sizes:
            work = substring_workload(
                n,
                theta,
                tau_min=scale.tau_min,
                query_lengths=scale.mixed_query_lengths,
                patterns_per_length=scale.patterns_per_length,
            )
            series.add(
                n,
                time_query_batch(
                    work.index.query, work.patterns, scale.tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


def figure_7b(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 7(b): substring-search query time vs query threshold τ."""
    table = FigureTable(
        figure_id="fig7b",
        title="Substring searching: query time vs query threshold",
        x_label="tau",
        y_label="avg query time (ms)",
        notes=f"n={scale.fixed_string_size}, tau_min={scale.tau_min}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        work = substring_workload(
            scale.fixed_string_size,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.mixed_query_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        for tau in scale.tau_grid:
            series.add(
                tau,
                time_query_batch(
                    work.index.query, work.patterns, tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


def figure_7c(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 7(c): substring-search query time vs construction threshold τ_min."""
    table = FigureTable(
        figure_id="fig7c",
        title="Substring searching: query time vs construction threshold",
        x_label="tau_min",
        y_label="avg query time (ms)",
        notes=f"n={scale.tau_min_panel_size}, tau=max(tau, tau_min)",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        for tau_min in scale.tau_min_grid:
            work = substring_workload(
                scale.tau_min_panel_size,
                theta,
                tau_min=tau_min,
                query_lengths=scale.mixed_query_lengths,
                patterns_per_length=scale.patterns_per_length,
            )
            tau = max(scale.tau, tau_min)
            series.add(
                tau_min,
                time_query_batch(
                    work.index.query, work.patterns, tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


def figure_7d(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 7(d): substring-search query time vs pattern length m."""
    table = FigureTable(
        figure_id="fig7d",
        title="Substring searching: query time vs pattern length",
        x_label="m (pattern length)",
        y_label="avg query time (ms)",
        notes=f"n={scale.fixed_string_size}, tau_min={scale.tau_min}, tau={scale.tau}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        work = substring_workload(
            scale.fixed_string_size,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.pattern_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        by_length: Dict[int, List[str]] = {}
        for pattern in work.patterns:
            by_length.setdefault(len(pattern), []).append(pattern)
        for length in scale.pattern_lengths:
            patterns = by_length.get(length)
            if not patterns:
                continue
            series.add(
                length,
                time_query_batch(
                    work.index.query, patterns, scale.tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


# ---------------------------------------------------------------------------
# Figure 8 — string-listing query time
# ---------------------------------------------------------------------------
def figure_8a(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 8(a): string-listing query time vs collection size n."""
    table = FigureTable(
        figure_id="fig8a",
        title="String listing: query time vs collection size",
        x_label="n (total positions)",
        y_label="avg query time (ms)",
        notes=f"tau_min={scale.tau_min}, tau={scale.tau}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        for n in scale.collection_sizes:
            work = listing_workload(
                n,
                theta,
                tau_min=scale.tau_min,
                query_lengths=scale.listing_query_lengths,
                patterns_per_length=scale.patterns_per_length,
            )
            series.add(
                n,
                time_query_batch(
                    work.index.query, work.patterns, scale.tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


def figure_8b(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 8(b): string-listing query time vs query threshold τ."""
    table = FigureTable(
        figure_id="fig8b",
        title="String listing: query time vs query threshold",
        x_label="tau",
        y_label="avg query time (ms)",
        notes=f"n={scale.fixed_collection_size}, tau_min={scale.tau_min}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        work = listing_workload(
            scale.fixed_collection_size,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.listing_query_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        for tau in scale.tau_grid:
            series.add(
                tau,
                time_query_batch(
                    work.index.query, work.patterns, tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


def figure_8c(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 8(c): string-listing query time vs construction threshold τ_min."""
    table = FigureTable(
        figure_id="fig8c",
        title="String listing: query time vs construction threshold",
        x_label="tau_min",
        y_label="avg query time (ms)",
        notes=f"n={scale.tau_min_panel_size}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        for tau_min in scale.tau_min_grid:
            work = listing_workload(
                scale.tau_min_panel_size,
                theta,
                tau_min=tau_min,
                query_lengths=scale.listing_query_lengths,
                patterns_per_length=scale.patterns_per_length,
            )
            tau = max(scale.tau, tau_min)
            series.add(
                tau_min,
                time_query_batch(
                    work.index.query, work.patterns, tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


def figure_8d(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 8(d): string-listing query time vs pattern length m."""
    table = FigureTable(
        figure_id="fig8d",
        title="String listing: query time vs pattern length",
        x_label="m (pattern length)",
        y_label="avg query time (ms)",
        notes=f"n={scale.fixed_collection_size}, tau_min={scale.tau_min}, tau={scale.tau}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        work = listing_workload(
            scale.fixed_collection_size,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.listing_query_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        by_length: Dict[int, List[str]] = {}
        for pattern in work.patterns:
            by_length.setdefault(len(pattern), []).append(pattern)
        for length in scale.listing_query_lengths:
            patterns = by_length.get(length)
            if not patterns:
                continue
            series.add(
                length,
                time_query_batch(
                    work.index.query, patterns, scale.tau, repeats=scale.query_repeats
                ),
            )
        table.series.append(series)
    return table


# ---------------------------------------------------------------------------
# Figure 9 — construction time and index space
# ---------------------------------------------------------------------------
def figure_9a(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 9(a): index construction time vs string size n."""
    table = FigureTable(
        figure_id="fig9a",
        title="Construction time vs string size",
        x_label="n (positions)",
        y_label="construction time (s)",
        notes=f"tau_min={scale.tau_min}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        for n in scale.string_sizes:
            string = cached_uncertain_string(n, theta)
            elapsed = time_callable(
                lambda: GeneralUncertainStringIndex(string, tau_min=scale.tau_min)
            )
            series.add(n, elapsed)
        table.series.append(series)
    return table


def figure_9b(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 9(b): index construction time vs construction threshold τ_min."""
    table = FigureTable(
        figure_id="fig9b",
        title="Construction time vs construction threshold",
        x_label="tau_min",
        y_label="construction time (s)",
        notes=f"n={scale.tau_min_panel_size}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        string = cached_uncertain_string(scale.tau_min_panel_size, theta)
        for tau_min in scale.tau_min_grid:
            elapsed = time_callable(
                lambda: GeneralUncertainStringIndex(string, tau_min=tau_min)
            )
            series.add(tau_min, elapsed)
        table.series.append(series)
    return table


def figure_9c(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Fig. 9(c): index space vs string size n."""
    table = FigureTable(
        figure_id="fig9c",
        title="Index space vs string size",
        x_label="n (positions)",
        y_label="index space (MB)",
        notes=f"tau_min={scale.tau_min}; measured bytes of every index component",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        for n in scale.string_sizes:
            work = substring_workload(
                n,
                theta,
                tau_min=scale.tau_min,
                query_lengths=scale.mixed_query_lengths,
                patterns_per_length=scale.patterns_per_length,
            )
            series.add(n, work.index.nbytes() / (1024.0 * 1024.0))
        table.series.append(series)
    return table


# ---------------------------------------------------------------------------
# Ablations (motivated by Sections 4.1/4.2, 8.7 and 7)
# ---------------------------------------------------------------------------
def ablation_index_variants(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """The general index vs the index-free online matcher."""
    table = FigureTable(
        figure_id="ablation-variants",
        title="Query time: index vs online matcher",
        x_label="n (positions)",
        y_label="avg query time (ms)",
        notes=f"theta={scale.thetas[-1]}, tau_min={scale.tau_min}, tau={scale.tau}",
    )
    theta = scale.thetas[-1]
    efficient = Series("efficient (RMQ)")
    online = Series("online DP (no index)")
    for n in scale.string_sizes:
        work = substring_workload(
            n,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.mixed_query_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        matcher = OnlineDynamicProgrammingMatcher(work.string)
        efficient.add(
            n,
            time_query_batch(
                work.index.query, work.patterns, scale.tau, repeats=scale.query_repeats
            ),
        )
        online.add(n, time_query_batch(matcher.query, work.patterns, scale.tau))
    table.series.extend([efficient, online])
    return table


def ablation_rmq(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Sparse-table RMQ vs block RMQ: query time and space."""
    import numpy as np

    table = FigureTable(
        figure_id="ablation-rmq",
        title="RMQ implementations: query time (ms per 1000 queries) and space (MB)",
        x_label="array size",
        y_label="see series label",
        notes="values drawn uniformly at random",
    )
    rng = np.random.default_rng(7)
    sparse_time = Series("sparse: time")
    block_time = Series("block: time")
    sparse_space = Series("sparse: space MB")
    block_space = Series("block: space MB")
    for size in scale.string_sizes:
        values = rng.random(size)
        sparse = SparseTableRMQ(values)
        block = BlockRMQ(values)
        queries = [
            (int(left), int(right))
            for left, right in zip(
                rng.integers(0, size, 1000), rng.integers(0, size, 1000)
            )
        ]
        queries = [(min(a, b), max(a, b)) for a, b in queries]

        def run(structure):
            def inner():
                for left, right in queries:
                    structure.query(left, right)

            return inner

        sparse_time.add(size, time_callable(run(sparse)) * 1000.0)
        block_time.add(size, time_callable(run(block)) * 1000.0)
        sparse_space.add(size, sparse.nbytes() / (1024.0 * 1024.0))
        block_space.add(size, block.nbytes() / (1024.0 * 1024.0))
    table.series.extend([sparse_time, block_time, sparse_space, block_space])
    return table


def ablation_approximate(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Exact general index vs approximate link index (query time)."""
    table = FigureTable(
        figure_id="ablation-approx",
        title="Exact vs approximate index: query time",
        x_label="n (positions)",
        y_label="avg query time (ms)",
        notes=f"theta={scale.thetas[0]}, tau_min={scale.tau_min}, tau={scale.tau}, epsilon=0.05",
    )
    theta = scale.thetas[0]
    exact = Series("exact (general index)")
    approximate = Series("approximate (links)")
    for n in scale.string_sizes:
        work = substring_workload(
            n,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.mixed_query_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        approx_index = ApproximateSubstringIndex(
            work.string, tau_min=scale.tau_min, epsilon=0.05
        )
        exact.add(
            n,
            time_query_batch(
                work.index.query, work.patterns, scale.tau, repeats=scale.query_repeats
            ),
        )
        approximate.add(
            n, time_query_batch(approx_index.query, work.patterns, scale.tau)
        )
    table.series.extend([exact, approximate])
    return table


def ablation_transformation(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Transformed text size (the (1/τ_min)² · n bound) vs τ_min."""
    table = FigureTable(
        figure_id="ablation-transformation",
        title="Maximal-factor transformation size vs construction threshold",
        x_label="tau_min",
        y_label="expansion ratio N/n",
        notes=f"n={scale.tau_min_panel_size}",
    )
    for theta in scale.thetas:
        series = Series(_theta_label(theta))
        string = cached_uncertain_string(scale.tau_min_panel_size, theta)
        for tau_min in scale.tau_min_grid:
            transformed = transform_uncertain_string(string, tau_min)
            series.add(tau_min, transformed.expansion_ratio)
        table.series.append(series)
    return table


def ablation_batch_engine(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Engine batch path vs one-by-one queries (repro.api façade).

    Serving-shaped workload over the listing engine: each pattern is asked
    at every threshold of the scale's τ grid — ``search_many`` traverses
    the suffix range once per pattern at the lowest threshold and derives
    the tighter answers by filtering (refinement is exact on the listing
    index; see :mod:`repro.api.batch`).
    """
    from ..api.requests import SearchRequest

    table = FigureTable(
        figure_id="ablation-batch",
        title="Query time: engine.search_many vs one-by-one engine.search",
        x_label="collection positions",
        y_label="avg time per request (ms)",
        notes=(
            f"listing engine, theta={scale.thetas[-1]}, tau_min={scale.tau_min}, "
            f"each pattern queried at taus {scale.tau_grid}"
        ),
    )
    theta = scale.thetas[-1]
    one_by_one = Series("one-by-one")
    batched = Series("batched (search_many)")
    for n in scale.collection_sizes:
        work = listing_workload(
            n,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.listing_query_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        engine = work.engine
        requests = [
            SearchRequest(pattern, tau=tau)
            for pattern in work.patterns
            for tau in scale.tau_grid
        ]

        def run_one_by_one() -> None:
            for request in requests:
                engine.search(request).count

        def run_batched() -> None:
            for result in engine.search_many(requests):
                result.count

        one_by_one.add(
            n,
            time_callable(run_one_by_one, repeats=scale.query_repeats)
            * 1000.0
            / len(requests),
        )
        batched.add(
            n,
            time_callable(run_batched, repeats=scale.query_repeats)
            * 1000.0
            / len(requests),
        )
    table.series.extend([one_by_one, batched])
    return table


def sharding_scaling(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Sharded fan-out + result cache on a repeated serving workload.

    Serving-shaped measurement over the general substring engine: the same
    batch of ``(pattern, tau)`` requests is replayed ``rounds`` times
    against a :class:`~repro.api.sharding.ShardedEngine` at increasing
    shard counts.  Three series per shard count:

    * cold ``search_many`` throughput — first round, every request a cache
      miss, per-shard evaluation fanned out on the thread pool;
    * warm throughput — the remaining rounds, answered from the LRU
      result cache without touching any shard;
    * the cache hit rate after all rounds (with ``rounds`` replays of the
      same workload the expected rate is ``(rounds - 1) / rounds``).
    """
    from ..api.requests import SearchRequest
    from ..api.sharding import build_sharded_index

    rounds = 10
    table = FigureTable(
        figure_id="sharding-scaling",
        title="ShardedEngine: search_many throughput and cache hit rate vs shards",
        x_label="shards",
        y_label="see series label",
        notes=(
            f"general engine, n={scale.fixed_string_size}, "
            f"theta={scale.thetas[-1]}, tau_min={scale.tau_min}, "
            f"workload replayed {rounds}x"
        ),
    )
    theta = scale.thetas[-1]
    work = substring_workload(
        scale.fixed_string_size,
        theta,
        tau_min=scale.tau_min,
        query_lengths=scale.pattern_lengths,
        patterns_per_length=scale.patterns_per_length,
    )
    requests = [
        SearchRequest(pattern, tau=tau)
        for pattern in work.patterns
        for tau in scale.tau_grid
    ]
    max_pattern_len = max(len(pattern) for pattern in work.patterns)

    cold = Series("cold search_many (req/s)")
    warm = Series("warm search_many (req/s)")
    hit_rate = Series("cache hit rate (%)")
    for shards in (1, 2, 4):
        engine = build_sharded_index(
            work.string,
            shards=shards,
            tau_min=scale.tau_min,
            kind="general",
            max_pattern_len=max_pattern_len,
        )

        def run_batch() -> None:
            for result in engine.search_many(requests):
                result.count

        cold.add(shards, len(requests) / max(time_callable(run_batch), 1e-9))
        warm_elapsed = time_callable(run_batch, repeats=rounds - 1)
        warm.add(shards, len(requests) / max(warm_elapsed, 1e-9))
        hit_rate.add(shards, 100.0 * engine.cache.stats()["hit_rate"])
        engine.close()
    table.series.extend([cold, warm, hit_rate])
    return table


def query_kernel(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Threshold reporting kernels: throughput and the scan/frontier crossover.

    Two measurements share the table:

    * **Throughput** (x = occ): the public
      :func:`~repro.core.base.report_above_threshold` against
      :func:`~repro.core.base.report_above_threshold_scalar` (one
      Python-level RMQ probe per reported occurrence), on a random value
      array with the threshold chosen so that exactly ``occ`` entries are
      reported.
    * **Width sweep** (x = range width): the two private paths behind each
      public kernel — one vectorized scan of the range, and the RMQ
      frontier on :class:`~repro.suffix.rmq.SparseTableRMQ` and on
      :class:`~repro.suffix.rmq.CompactRMQ` — at zero output (one
      frontier round) and at full output (every entry above the
      threshold), for reporting and for top-k at ``k`` 10 and 50 with
      ``include_ties``.  The zero-output reporting ratio fixes
      :data:`~repro.core.base.SCAN_WIDTH`; the full-output top-k ratio at
      ``k = 10`` fixes :data:`~repro.core.base.TOP_K_SCAN_WIDTH`.  Each
      cell is the best of five batch means.
    """
    import numpy as np

    from ..core.base import (
        _report_frontier,
        _report_scan,
        _top_values_frontier,
        _top_values_scan,
        report_above_threshold,
        report_above_threshold_scalar,
    )
    from ..suffix.rmq import SparseTableRMQ, rmq_from_payload

    table = FigureTable(
        figure_id="query-kernel",
        title="Threshold reporting kernel: scalar vs vectorized throughput",
        x_label="occ (reported occurrences); range width for the sweep series",
        y_label="see series label",
        notes=(
            "SparseTableRMQ over uniform random values, full-range query, "
            "threshold set for exactly occ reported entries; sweep series: "
            "one range of the given width over uniform random values, "
            "threshold above every value (zero output) or below (full "
            "output), reporting and top-k (include_ties) kernels, "
            f"SCAN_WIDTH={SCAN_WIDTH}, TOP_K_SCAN_WIDTH={TOP_K_SCAN_WIDTH}"
        ),
    )
    rng = np.random.default_rng(17)
    scalar_series = Series("scalar (occ/s)")
    vectorized_series = Series("vectorized (occ/s)")
    speedup_series = Series("speedup (x)")
    for occ in scale.kernel_occ_targets:
        n = max(occ + occ // 4, 64)
        values = rng.random(n)
        # Exactly `occ` entries sit strictly above the (occ+1)-th largest.
        threshold = float(np.partition(values, n - occ - 1)[n - occ - 1])
        rmq = SparseTableRMQ(values)
        # Sub-millisecond cells are noisy: warm up once (numpy dispatch,
        # allocator) and take several repeats below 100k occurrences.
        repeats = max(scale.query_repeats, 3) if occ < 100_000 else 1

        def run_scalar() -> None:
            for _ in report_above_threshold_scalar(rmq, values, 0, n - 1, threshold):
                pass

        def run_vectorized() -> None:
            report_above_threshold(rmq, values, 0, n - 1, threshold)

        reported = report_above_threshold(rmq, values, 0, n - 1, threshold)
        assert len(reported) == occ, (len(reported), occ)
        scalar_elapsed = time_callable(run_scalar, repeats=repeats, warmup=1)
        vectorized_elapsed = time_callable(run_vectorized, repeats=repeats, warmup=1)
        scalar_series.add(occ, occ / max(scalar_elapsed, 1e-12))
        vectorized_series.add(occ, occ / max(vectorized_elapsed, 1e-12))
        speedup_series.add(occ, scalar_elapsed / max(vectorized_elapsed, 1e-12))
    table.series.extend([scalar_series, vectorized_series, speedup_series])

    def best_us(run: Callable[[], object], batch: int) -> float:
        """Best of five batch means, in microseconds per call."""
        return 1e6 * min(
            time_callable(run, repeats=batch, warmup=1) for _ in range(5)
        )

    values = rng.random(max(scale.kernel_scan_widths) + 1)
    sparse = SparseTableRMQ(values)
    compact = rmq_from_payload(values, sparse.to_payload())
    # Label prefix -> (scan, frontier), each answering (left, right, threshold).
    kernels = {
        "": (
            lambda left, right, threshold: _report_scan(values, left, right, threshold),
            lambda rmq, left, right, threshold: _report_frontier(
                rmq, values, left, right, threshold
            ),
        )
    }
    for k in (10, 50):
        kernels[f"top-k k={k}, "] = (
            lambda left, right, threshold, k=k: _top_values_scan(
                values, left, right, k, threshold, True
            ),
            lambda rmq, left, right, threshold, k=k: _top_values_frontier(
                rmq, values, left, right, k, threshold, True
            ),
        )
    ratios = {
        ("", "zero"): Series("zero-output scan / sparse frontier round (x)"),
        ("top-k k=10, ", "full"): Series(
            "top-k k=10, full-output scan / sparse frontier (x)"
        ),
    }
    for prefix, (scan, frontier) in kernels.items():
        for output, threshold, batch in (("zero", 2.0, 20), ("full", -1.0, 3)):
            timings = {
                "scan": Series(f"{prefix}scan, {output} output (us)"),
                "sparse": Series(f"{prefix}sparse frontier, {output} output (us)"),
                "compact": Series(f"{prefix}compact frontier, {output} output (us)"),
            }
            for width in scale.kernel_scan_widths:
                # Start off index 0, as a suffix range usually does.
                left, right = 1, width
                runs = {
                    "scan": lambda: scan(left, right, threshold),
                    "sparse": lambda: frontier(sparse, left, right, threshold),
                    "compact": lambda: frontier(compact, left, right, threshold),
                }
                cells = {name: best_us(run, batch) for name, run in runs.items()}
                for name, cell in cells.items():
                    timings[name].add(width, cell)
                if (prefix, output) in ratios:
                    ratios[prefix, output].add(width, cells["scan"] / cells["sparse"])
            table.series.extend(timings.values())
    table.series.extend(ratios.values())
    return table


def serving_throughput(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """Coalesced async serving vs naive sequential QPS.

    The same repeated-pattern request stream (every pattern asked at every
    threshold of the τ grid, replayed by 8 simulated users) is answered
    (a) naively, one blocking ``engine.search`` per request, and (b)
    through :class:`~repro.serving.AsyncSearchService`, which coalesces
    the concurrent submissions into micro-batched ``search_many`` calls —
    deduplication and same-pattern threshold refinement amortize across
    the simulated users.  Result caching is disabled on both sides, so the
    gap measures *coalescing*, not cache hits.

    Like a long-lived server, one service per size is started outside the
    timed region.  Each round then answers the stream once naively and
    once through the service, alternating which side goes first; after
    one discarded warm-up round, each side's QPS pools its rounds (total
    requests over total elapsed time).  The service's start and stop cost
    stays visible as its own series, which times ``asyncio.run`` of a
    fresh service answering one storm.
    """
    import asyncio
    import time as time_module

    from ..api.engine import Engine
    from ..api.requests import SearchRequest
    from ..serving import AsyncSearchService

    users = 8
    rounds = 30
    table = FigureTable(
        figure_id="serving-throughput",
        title="AsyncSearchService: coalesced vs naive QPS",
        x_label="collection positions",
        y_label="see series label",
        notes=(
            f"listing engine, theta={scale.thetas[-1]}, tau_min={scale.tau_min}, "
            f"each pattern at taus {scale.tau_grid}, {users} simulated users, "
            f"caches disabled; one warm service per size, {rounds} rounds of "
            "naive then coalesced or the reverse, after a discarded warm-up "
            "round, QPS pooled over the rounds; cold start = a fresh service "
            "started, answering one storm and stopped"
        ),
    )
    theta = scale.thetas[-1]
    naive_series = Series("naive sequential (req/s)")
    coalesced_series = Series("coalesced service (req/s)")
    cold_series = Series("coalesced, cold service start+stop (req/s)")
    for n in scale.collection_sizes:
        work = listing_workload(
            n,
            theta,
            tau_min=scale.tau_min,
            query_lengths=scale.listing_query_lengths,
            patterns_per_length=scale.patterns_per_length,
        )
        engine = Engine(work.engine.index, work.engine.plan, cache_size=0)
        patterns = work.patterns[: min(4, len(work.patterns))]
        requests = [
            SearchRequest(pattern, tau=tau)
            for _ in range(users)
            for pattern in patterns
            for tau in scale.tau_grid
        ]

        def new_service() -> AsyncSearchService:
            return AsyncSearchService(
                engine,
                max_wait_ms=2.0,
                max_batch=len(requests),
                max_pending=len(requests),
            )

        async def storm(service: AsyncSearchService) -> None:
            await asyncio.gather(*(service.submit(r) for r in requests))

        async def cold_storm() -> None:
            async with new_service() as service:
                await storm(service)

        async def warm_rounds() -> Tuple[float, float]:
            elapsed = {"naive": 0.0, "coalesced": 0.0}
            async with new_service() as service:
                for round_index in range(rounds + 1):
                    # Alternate which side goes first, so a drift in host
                    # speed within a round charges both sides alike.
                    sides = ("naive", "coalesced")
                    for side in sides if round_index % 2 else sides[::-1]:
                        started = time_module.perf_counter()
                        if side == "naive":
                            for request in requests:
                                engine.search(request).count
                        else:
                            await storm(service)
                        if round_index:  # round 0 warms threads, allocator, numpy
                            elapsed[side] += time_module.perf_counter() - started
            return elapsed["naive"], elapsed["coalesced"]

        naive_elapsed, coalesced_elapsed = asyncio.run(warm_rounds())
        cold_elapsed = time_callable(
            lambda: asyncio.run(cold_storm()), repeats=scale.query_repeats
        )
        timed_requests = rounds * len(requests)
        naive_series.add(n, timed_requests / max(naive_elapsed, 1e-9))
        coalesced_series.add(n, timed_requests / max(coalesced_elapsed, 1e-9))
        cold_series.add(n, len(requests) / max(cold_elapsed, 1e-9))
    table.series.extend([naive_series, coalesced_series, cold_series])
    return table


def _http_tier_engine(scale: ExperimentScale) -> Tuple["Engine", Tuple[str, ...]]:
    """The uncached listing engine and patterns the HTTP-tier experiments drive."""
    from ..api.engine import Engine

    work = listing_workload(
        scale.fixed_collection_size,
        scale.thetas[-1],
        tau_min=scale.tau_min,
        query_lengths=scale.listing_query_lengths,
        patterns_per_length=scale.patterns_per_length,
    )
    engine = Engine(work.engine.index, work.engine.plan, cache_size=0)
    return engine, tuple(work.patterns[:4])


def _pooled_qps(runs: List[dict]) -> float:
    """Load-generator runs' total requests over their total elapsed time."""
    elapsed = sum(run["elapsed_s"] for run in runs)
    return sum(run["requests"] for run in runs) / elapsed if elapsed > 0 else 0.0


def _median_latency(runs: List[dict], percentile: str) -> float:
    """The median run's ``percentile`` (``"p50"``, ...) latency in ms."""
    return statistics.median(run["latency_ms"][percentile] for run in runs)


def network_serving(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """The full network tier end to end: QPS and latency vs replica count.

    One engine is built, saved, and reopened once per N in
    ``scale.serving_replica_counts`` as a :class:`~repro.serving.ReplicaSet`
    of N mmap-sharing copies; each set serves its own
    :class:`~repro.serving.AsyncSearchService` behind a
    :class:`~repro.serving.SearchHttpApp`, driven by the seeded load
    generator over the **in-process transport** (the same closed-loop
    profile every time, so replica counts compare like for like and no
    socket noise enters the measurement).  Four series over replica count:
    QPS plus the p50/p95/p99 request latency.

    Every set and its service start once, and the counts run interleaved
    round by round (alternating which goes first) after one discarded
    warm-up round; each count's QPS pools its rounds (total requests over
    total elapsed time) and its latencies are the median round's.  A
    single short run on a freshly loaded set measures where the OS placed
    that set's executor threads as much as routing (one run per count put
    the 2-/1-replica QPS ratio anywhere in 0.37-2.2).

    Honest single-core caveat: replica parallelism needs spare cores.  On
    a single-core runner the replicas share one CPU and whole-batch
    least-loaded dispatch does the same total work at every count, so the
    curves stay flat — the experiment then demonstrates that routing
    overhead is negligible, not that replicas speed anything up.  Result
    caches are disabled so QPS measures dispatch plus evaluation, not
    cache hits.
    """
    import asyncio
    import tempfile
    from contextlib import AsyncExitStack
    from pathlib import Path

    from ..serving import AsyncSearchService, LoadProfile, ReplicaSet, SearchHttpApp
    from ..serving.loadgen import run_load

    concurrency = 8
    requests = 100 * scale.query_repeats
    rounds = 9
    table = FigureTable(
        figure_id="network-serving",
        title="HTTP serving tier: QPS and latency percentiles vs replica count",
        x_label="replicas",
        y_label="see series label",
        notes=(
            f"listing engine, theta={scale.thetas[-1]}, tau_min={scale.tau_min}, "
            f"n={scale.fixed_collection_size}; closed-loop load generator, "
            f"{requests} requests per run, concurrency {concurrency}, taus "
            f"{scale.tau_grid}, in-process HTTP transport, caches disabled; "
            "replicas mmap one archive; one warm service per replica count, "
            f"the counts interleaved over {rounds} rounds after one discarded "
            "warm-up round; QPS pools each count's rounds, latencies are the "
            "median round's (flat curves on single-core runners: the copies "
            "share the CPU)"
        ),
    )
    engine, patterns = _http_tier_engine(scale)
    profile = LoadProfile(
        patterns=patterns,
        taus=tuple(scale.tau_grid),
        requests=requests,
        concurrency=concurrency,
        seed=20160315,
    )
    counts = tuple(scale.serving_replica_counts)

    async def measure(sets: Dict[int, ReplicaSet]) -> Dict[int, List[dict]]:
        async with AsyncExitStack() as stack:
            apps = {}
            for count in counts:
                service = await stack.enter_async_context(
                    AsyncSearchService(
                        sets[count],
                        max_wait_ms=1.0,
                        max_batch=concurrency,
                        max_pending=4 * concurrency,
                    )
                )
                apps[count] = SearchHttpApp(service)
            reports: Dict[int, List[dict]] = {count: [] for count in counts}
            for round_index in range(rounds + 1):
                # Alternate which count goes first, so a drift in host
                # speed within a round charges every count alike.
                for count in counts if round_index % 2 else counts[::-1]:
                    report = await run_load(apps[count].dispatch, profile)
                    if round_index:  # round 0 warms threads, allocator, numpy
                        reports[count].append(report.to_dict())
            return reports

    with tempfile.TemporaryDirectory() as scratch:
        archive = engine.save(Path(scratch) / "index")
        sets = {
            count: ReplicaSet.load(archive, replicas=count, mmap=True, cache_size=0)
            for count in counts
        }
        try:
            reports = asyncio.run(measure(sets))
        finally:
            for replica_set in sets.values():
                replica_set.close()

    qps_series = Series("QPS (req/s)")
    percentiles = {name: Series(f"{name} latency (ms)") for name in ("p50", "p95", "p99")}
    for count in counts:
        qps_series.add(count, _pooled_qps(reports[count]))
        for name, series in percentiles.items():
            series.add(count, _median_latency(reports[count], name))
    table.series.extend([qps_series, *percentiles.values()])
    return table


def observability_overhead(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """What the observability layer costs: QPS/latency per telemetry mode.

    The same engine, profile, and in-process HTTP transport as
    ``network-serving`` (single replica), in three modes:

    * **mode 0 — tracing off**: the always-on metrics registry only (every
      counter in the serving stack goes through ``repro.obs``); no trace
      objects exist, so every hook site takes its ``is None`` fast path;
    * **mode 1 — metrics only**: same, plus a concurrent ``/metrics``
      scraper hammering the Prometheus exposition while the load runs
      (the cost of *reading* the registry under load);
    * **mode 2 — full tracing**: every request traced (``debug=trace``
      rides each body, a slow-query log is attached), so span records are
      appended at each stage and trees are assembled and echoed per
      response.

    One service serves all three modes, interleaved round by round, and
    each mode's QPS pools its rounds (total requests over total elapsed
    time).  A single short run's QPS swings by ±25% with where the OS
    schedules a fresh service's executor thread, so one service per mode
    measured thread placement as much as telemetry cost.

    Six series over the mode index: QPS and p50/p99 latency (the median
    round's), plus QPS and p99 expressed as a ratio to mode 0 — the
    regression record for "the observability layer is (near) free until
    you turn it on".
    """
    import asyncio

    from ..obs import SlowQueryLog
    from ..serving import AsyncSearchService, LoadProfile, SearchHttpApp
    from ..serving.loadgen import run_load

    concurrency = 8
    requests = 100 * scale.query_repeats
    rounds = 9
    table = FigureTable(
        figure_id="obs-overhead",
        title="Observability overhead: QPS and latency per telemetry mode",
        x_label="mode (0=tracing off, 1=metrics scraped, 2=full tracing)",
        y_label="see series label",
        notes=(
            f"listing engine, theta={scale.thetas[-1]}, tau_min={scale.tau_min}, "
            f"n={scale.fixed_collection_size}; closed-loop load generator, "
            f"{requests} requests per run, concurrency {concurrency}, taus "
            f"{scale.tau_grid}, in-process HTTP transport, caches disabled; one "
            f"service runs the modes interleaved over {rounds} rounds after one "
            "discarded warm-up round; QPS pools each mode's rounds, latencies "
            "are the median round's"
        ),
    )
    engine, patterns = _http_tier_engine(scale)

    def make_profile(debug_trace: bool) -> LoadProfile:
        return LoadProfile(
            patterns=patterns,
            taus=tuple(scale.tau_grid),
            requests=requests,
            concurrency=concurrency,
            seed=20160315,
            debug_trace=debug_trace,
        )

    async def run_mode(app: SearchHttpApp, debug_trace: bool, scrape: bool) -> "dict":
        stop = asyncio.Event()

        async def scraper() -> None:
            # 100 scrapes/s — already orders of magnitude denser than a
            # real Prometheus interval, without turning the experiment
            # into a benchmark of the scraper itself.
            while not stop.is_set():
                await app.dispatch("GET", "/metrics")
                await asyncio.sleep(0.01)

        task = asyncio.ensure_future(scraper()) if scrape else None
        try:
            report = await run_load(app.dispatch, make_profile(debug_trace))
        finally:
            stop.set()
            if task is not None:
                await task
        return report.to_dict()

    # (mode, debug_trace, scrape, slow-log capacity)
    modes = ((0, False, False, 0), (1, False, True, 0), (2, True, True, 8))

    async def measure() -> "Dict[int, List[dict]]":
        async with AsyncSearchService(
            engine, max_wait_ms=1.0, max_batch=concurrency,
            max_pending=4 * concurrency,
        ) as service:
            apps = {
                mode: SearchHttpApp(
                    service, slow_log=SlowQueryLog(capacity) if capacity else None
                )
                for mode, _, _, capacity in modes
            }
            reports: Dict[int, List[dict]] = {mode: [] for mode, *_ in modes}
            for round_index in range(rounds + 1):
                for mode, debug_trace, scrape, _ in modes:
                    report = await run_mode(apps[mode], debug_trace, scrape)
                    if round_index:  # round 0 warms caches, threads, allocator
                        reports[mode].append(report)
            return reports

    reports = asyncio.run(measure())
    qps_series = Series("QPS (req/s)")
    p50_series = Series("p50 latency (ms)")
    p99_series = Series("p99 latency (ms)")
    qps_ratio = Series("QPS vs tracing-off (ratio)")
    p99_ratio = Series("p99 vs tracing-off (ratio)")
    baseline: Dict[str, float] = {}
    for mode, *_ in modes:
        runs = reports[mode]
        qps = _pooled_qps(runs)
        p99 = _median_latency(runs, "p99")
        if mode == 0:
            baseline["qps"] = qps
            baseline["p99"] = p99
        qps_series.add(mode, qps)
        p50_series.add(mode, _median_latency(runs, "p50"))
        p99_series.add(mode, p99)
        qps_ratio.add(mode, qps / baseline["qps"] if baseline["qps"] else 0.0)
        p99_ratio.add(mode, p99 / baseline["p99"] if baseline["p99"] else 0.0)
    table.series.extend(
        [qps_series, p50_series, p99_series, qps_ratio, p99_ratio]
    )
    return table


def frontier_string(n: int) -> "SpecialUncertainString":
    """:func:`memory_frontier`'s reference input of ``n`` positions.

    A synthetic special uncertain string: alphabet ACGT, probabilities
    ~U[0.5, 1) rounded to 6 digits, seeded by ``n``.
    """
    import numpy as np

    from ..strings.special import SpecialUncertainString

    rng = np.random.default_rng(1234 + n)
    characters = rng.choice(list("ACGT"), size=n)
    probabilities = rng.uniform(0.5, 1.0, size=n).round(6)
    return SpecialUncertainString(
        [(c, float(p)) for c, p in zip(characters, probabilities)]
    )


def memory_frontier(scale: ExperimentScale = DEFAULT_SCALE) -> FigureTable:
    """The in-RAM half of the space frontier: compact payloads + shm workers.

    Reference workload: :func:`frontier_string`.  Three questions, one
    series each:

    * **In-RAM footprint** — ``build_index(...)`` vs
      ``build_index(..., compact=True)``: dtype-minimized stored arrays
      plus the compact RMQ summaries rebuilt from them.  Below ~2^17
      positions the index stores only the suffix array and the prefix
      sums, so compact / wide is 0.625 (a uint16 suffix array beside
      float64 sums); where a level keeps its RMQ (2^17 positions) it is
      about 0.15.  The CI perf smoke guards both; answers are
      byte-identical.
    * **Worker boundary** — pickled bytes of the shared-memory worker
      spec (block name + array layout; see :mod:`repro.api.shm`) vs the
      legacy pickled-payload spec: O(array count) vs O(index bytes).
    * **Serving cost** — process-pool cold spawn (pool creation + shm
      attach + first query) and warm in-process query throughput for the
      wide and compact builds (narrowing must not slow the kernels).
    """
    import pickle
    import time as time_module

    import numpy as np

    from ..api.engine import build_index
    from ..api.persistence import index_to_payload
    from ..api.sharding import build_sharded_index
    from ..api.shm import export_for_index

    table = FigureTable(
        figure_id="memory-frontier",
        title="In-RAM bytes, worker-spec bytes and serving cost: wide vs compact",
        x_label="string positions",
        y_label="see series label",
        notes=(
            "special index over a synthetic special uncertain string "
            "(alphabet ACGT, probabilities ~U[0.5, 1), seed 1234+n); "
            "warm QPS = uncached index.query over text substrings; cold "
            "spawn = 2-shard process pool creation + first query"
        ),
    )
    wide_ram = Series("in-RAM wide (bytes)")
    compact_ram = Series("in-RAM compact (bytes)")
    ratio = Series("compact / wide (x)")
    spec_pickled = Series("shm worker spec pickled (bytes)")
    payload_pickled = Series("legacy payload spec pickled (bytes)")
    cold_spawn = Series("process-pool cold spawn (ms)")
    qps_wide = Series("warm QPS wide (q/s)")
    qps_compact = Series("warm QPS compact (q/s)")

    def throughput(index: object, patterns: List[str], tau: float) -> float:
        repeats = max(2, scale.query_repeats)
        for pattern in patterns:  # warmup pass
            index.query(pattern, tau)
        started = time_module.perf_counter()
        for _ in range(repeats):
            for pattern in patterns:
                index.query(pattern, tau)
        elapsed = time_module.perf_counter() - started
        return (repeats * len(patterns)) / elapsed if elapsed > 0 else 0.0

    for n in scale.string_sizes:
        string = frontier_string(n)
        wide_engine = build_index(string)
        compact_engine = build_index(string, compact=True)
        wide_total = wide_engine.nbytes()
        compact_total = compact_engine.nbytes()
        wide_ram.add(n, float(wide_total))
        compact_ram.add(n, float(compact_total))
        ratio.add(n, compact_total / wide_total)

        export = export_for_index(compact_engine.index)
        try:
            spec_pickled.add(n, float(len(pickle.dumps(export.spec()))))
        finally:
            export.release()
        payload_pickled.add(
            n,
            float(
                len(pickle.dumps(("payload", index_to_payload(compact_engine.index))))
            ),
        )

        offsets = np.random.default_rng(n).integers(0, n - 6, size=8)
        patterns = [string.text[int(o) : int(o) + 5] for o in offsets]
        sharded = build_sharded_index(
            string, shards=2, max_pattern_len=16, query_executor="process"
        )
        try:
            started = time_module.perf_counter()
            sharded.count(patterns[0], tau=scale.tau)
            cold_spawn.add(n, (time_module.perf_counter() - started) * 1000.0)
        finally:
            sharded.close()

        qps_wide.add(n, throughput(wide_engine.index, patterns, scale.tau))
        qps_compact.add(n, throughput(compact_engine.index, patterns, scale.tau))
    table.series.extend(
        [
            wide_ram,
            compact_ram,
            ratio,
            spec_pickled,
            payload_pickled,
            cold_spawn,
            qps_wide,
            qps_compact,
        ]
    )
    return table


#: Registry used by the CLI and the tests.
EXPERIMENTS: Dict[str, Callable[[ExperimentScale], FigureTable]] = {
    "fig7a": figure_7a,
    "fig7b": figure_7b,
    "fig7c": figure_7c,
    "fig7d": figure_7d,
    "fig8a": figure_8a,
    "fig8b": figure_8b,
    "fig8c": figure_8c,
    "fig8d": figure_8d,
    "fig9a": figure_9a,
    "fig9b": figure_9b,
    "fig9c": figure_9c,
    "ablation-variants": ablation_index_variants,
    "ablation-rmq": ablation_rmq,
    "ablation-batch": ablation_batch_engine,
    "sharding-scaling": sharding_scaling,
    "ablation-approx": ablation_approximate,
    "ablation-transformation": ablation_transformation,
    "query-kernel": query_kernel,
    "serving-throughput": serving_throughput,
    "network-serving": network_serving,
    "observability-overhead": observability_overhead,
    "memory-frontier": memory_frontier,
}


def run_experiments(
    names: Sequence[str],
    scale: ExperimentScale = DEFAULT_SCALE,
) -> List[FigureTable]:
    """Run the named experiments and return their tables in order."""
    return [table for table, _ in run_experiments_timed(names, scale)]


def run_experiments_timed(
    names: Sequence[str],
    scale: ExperimentScale = DEFAULT_SCALE,
) -> List[Tuple[FigureTable, float]]:
    """Run the named experiments, returning each table with its wall-clock seconds.

    The per-experiment timing feeds the machine-readable ``--json`` output
    of the CLI (``BENCH_<experiment>.json``).
    """
    import time

    results: List[Tuple[FigureTable, float]] = []
    for name in names:
        if name not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
            )
        started = time.perf_counter()
        table = EXPERIMENTS[name](scale)
        results.append((table, time.perf_counter() - started))
    return results
