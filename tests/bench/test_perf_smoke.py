"""Fast perf smoke: the hot-path optimizations must not regress.

The guards, all at the small scale so the step stays fast:

* the vectorized reporting kernel is at worst 1.5x slower than the scalar
  baseline on the largest small-grid workload (a generous margin — on real
  workloads it is several times *faster*; the margin only guards against a
  vectorization regression without flaking on noisy CI runners);
* the range scans have not become slower at the widths where the
  kernels still use them: at ``SCAN_WIDTH`` a zero-output reporting scan
  costs at most 1.5x one zero-output sparse-table frontier round
  (measured ~0.6-0.8x), and at ``TOP_K_SCAN_WIDTH`` a full-output top-k
  scan at k=10 costs at most 1.5x the sparse-table frontier (measured
  ~0.4-0.65x).  The guards are one-sided: a scan that became relatively
  *cheaper*, which would move a crossover up, does not fail them;
* the coalescing ``AsyncSearchService`` beats naive sequential serving on
  a repeated-pattern workload (the dedupe + refinement amortization is a
  work reduction, not a timing race, so the margin can be strict);
* the HTTP serving tier driven in-process (no sockets) sustains load at
  every replica count, and adding a replica never *costs* throughput
  beyond a noise margin — replica routing must be overhead-free even
  where single-core CI cannot show a parallel speedup — and scraping the
  metrics registry stays cheap;
* the compacted in-RAM special index is the wide one's arrays at their
  narrowest dtypes at every small size, and at most 0.6x the wide bytes
  on an input whose level 1 keeps its RMQ; the shared-memory worker spec
  stays O(array count) — spawning a process pool must never pickle
  per-worker index bytes;
* no special, general or listing index at the small scale, wide or
  compact, holds a per-level RMQ: none of their levels has a suffix range
  wider than ``TOP_K_SCAN_WIDTH``, so such an RMQ could never be probed;
* an mmap load of a 2^16-position special archive constructs no
  ``SpecialPosition`` (a count, not a timing): the string is restored as
  its text plus one float64 array, and answers as the built engine does.

The archive's size margin is a deterministic test in
``tests/api/test_persistence.py``.  The full sweeps stay in the
default-scale benchmark runs (``python -m repro.bench --figure
query-kernel --figure serving-throughput --json``).
"""

import numpy as np
import pytest

from repro.bench.experiments import (
    SMALL_SCALE,
    query_kernel,
    serving_throughput,
)
from repro.core.base import SCAN_WIDTH, TOP_K_SCAN_WIDTH


class TestQueryKernelSmoke:
    @pytest.fixture(scope="class")
    def table(self):
        return query_kernel(SMALL_SCALE)

    def test_vectorized_not_slower_than_margin(self, table):
        scalar = table.series_by_label("scalar (occ/s)")
        vectorized = table.series_by_label("vectorized (occ/s)")
        assert scalar.xs == vectorized.xs == list(SMALL_SCALE.kernel_occ_targets)
        # Assert on the largest workload of the small grid, the regime
        # where reporting throughput matters.
        assert vectorized.values[-1] >= scalar.values[-1] / 1.5, (
            f"vectorized kernel {vectorized.values[-1]:.0f} occ/s is more than "
            f"1.5x slower than scalar {scalar.values[-1]:.0f} occ/s"
        )

    # Each sweep cell is the best of five batch means, so the scan guards
    # hold on a noisy runner; 1.5x leaves room above the measured ratios.

    def test_scan_width_crossover_holds(self, table):
        ratio = table.series_by_label("zero-output scan / sparse frontier round (x)")
        at_scan_width = dict(zip(ratio.xs, ratio.values))[SCAN_WIDTH]
        assert at_scan_width <= 1.5, (
            f"a zero-output scan at SCAN_WIDTH={SCAN_WIDTH} costs "
            f"{at_scan_width:.2f}x one sparse frontier round: the scan got "
            "slower, re-run the query-kernel sweep"
        )

    def test_top_k_scan_width_crossover_holds(self, table):
        ratio = table.series_by_label(
            "top-k k=10, full-output scan / sparse frontier (x)"
        )
        at_scan_width = dict(zip(ratio.xs, ratio.values))[TOP_K_SCAN_WIDTH]
        assert at_scan_width <= 1.5, (
            f"a full-output top-k scan at TOP_K_SCAN_WIDTH={TOP_K_SCAN_WIDTH} "
            f"costs {at_scan_width:.2f}x the sparse frontier: the scan got "
            "slower, re-run the query-kernel sweep"
        )

    def test_speedup_series_is_consistent(self, table):
        scalar = table.series_by_label("scalar (occ/s)")
        vectorized = table.series_by_label("vectorized (occ/s)")
        speedup = table.series_by_label("speedup (x)")
        for fast, slow, ratio in zip(
            vectorized.values, scalar.values, speedup.values
        ):
            assert ratio > 0.0
            assert abs(ratio - fast / slow) / ratio < 1e-6


class TestServingSmoke:
    """The serving-throughput acceptance margins, at smoke scale."""

    def test_coalescing_beats_naive(self):
        table = serving_throughput(SMALL_SCALE)
        naive = table.series_by_label("naive sequential (req/s)")
        coalesced = table.series_by_label("coalesced service (req/s)")
        assert naive.xs == coalesced.xs == list(SMALL_SCALE.collection_sizes)
        # Assert on the largest cell: the workload repeats each distinct
        # request 8x, so the coalesced side evaluates 1/8th of the queries
        # — a work reduction asyncio overhead cannot eat on any runner.
        assert coalesced.values[-1] > naive.values[-1], (
            f"coalesced {coalesced.values[-1]:.0f} req/s did not beat "
            f"naive {naive.values[-1]:.0f} req/s"
        )


class TestNetworkServingSmoke:
    """The network-serving tier, driven in-process — no sockets in CI.

    The experiment routes the load generator through
    ``SearchHttpApp.dispatch`` over mmap-loaded replica sets, so the whole
    HTTP → service → replica-routing → engine path is exercised without
    binding a port.  On a single-core runner replica parallelism cannot
    show a speedup, so the guard is the other direction: a second replica
    must not *cost* throughput beyond a generous noise margin (the
    least-loaded routing is a dictionary pick under one lock).
    """

    def test_replica_routing_is_overhead_free(self):
        from repro.bench.experiments import network_serving

        table = network_serving(SMALL_SCALE)
        qps = table.series_by_label("QPS (req/s)")
        assert qps.xs == list(SMALL_SCALE.serving_replica_counts)
        assert all(value > 0.0 for value in qps.values)
        one_replica, two_replicas = qps.values[0], qps.values[1]
        assert two_replicas >= one_replica / 1.5, (
            f"2-replica QPS {two_replicas:.0f} fell more than 1.5x below "
            f"1-replica QPS {one_replica:.0f}: replica routing overhead"
        )
        # Latency percentiles exist for every replica count and are
        # ordered p50 <= p95 <= p99 within each.
        p50 = table.series_by_label("p50 latency (ms)")
        p95 = table.series_by_label("p95 latency (ms)")
        p99 = table.series_by_label("p99 latency (ms)")
        for low, mid, high in zip(p50.values, p95.values, p99.values):
            assert 0.0 < low <= mid <= high

    def test_observability_layer_stays_cheap(self):
        """Scraping the always-on metrics registry costs ≤ 10% QPS.

        Mode 0 of ``observability-overhead`` is today's serving stack with
        tracing off — every counter already routed through ``repro.obs``;
        mode 1 adds a ``/metrics`` scraper under load; mode 2 traces every
        request.  The budget is 10% for exposition; at smoke scale a
        single load run is noise-dominated (±15% run-to-run on shared
        runners), so the experiment pools nine rounds of the three modes
        interleaved on one service, and the guard takes the best of two
        experiments and allows 5 extra points of noise on top of the
        budget.  The committed
        default-scale BENCH_obs_overhead.json records the real deltas.
        Full tracing is opt-in per request, so its guard is only that the
        traced path stays within 2.5x — a hang/regression tripwire, not a
        performance promise.
        """
        from repro.bench.experiments import observability_overhead

        best_metrics_ratio = 0.0
        best_tracing_ratio = 0.0
        for _ in range(2):
            table = observability_overhead(SMALL_SCALE)
            ratios = table.series_by_label("QPS vs tracing-off (ratio)").values
            assert ratios[0] == 1.0  # mode 0 is its own baseline
            best_metrics_ratio = max(best_metrics_ratio, ratios[1])
            best_tracing_ratio = max(best_tracing_ratio, ratios[2])
            if best_metrics_ratio >= 1 / 1.10 and best_tracing_ratio >= 1 / 2.5:
                break
        assert best_metrics_ratio >= 1 / 1.15, (
            f"metrics exposition cost {(1 - best_metrics_ratio) * 100:.1f}% QPS, "
            "over the 10% budget (plus noise allowance)"
        )
        assert best_tracing_ratio >= 1 / 2.5, (
            f"full tracing cost {(1 - best_tracing_ratio) * 100:.1f}% QPS — "
            "far beyond span-recording overhead; something is blocking"
        )


class TestMemoryFrontierSmoke:
    """The succinct-payload acceptance margins, at smoke scale.

    One :func:`memory_frontier` run feeds every assertion (the experiment
    builds a wide and a compact engine per size and spawns one process
    pool, so re-running it per assertion would triple the step's cost).
    No warm-QPS gate: the compact representation trades the O(1) sparse
    RMQ table for an O(log n) summary, so its query throughput is
    legitimately lower on large inputs — the committed default-scale
    BENCH_memory_frontier.json records both series; the guards here are
    the space and boundary contracts only.
    """

    def test_compact_ratio_and_worker_spec_margins(self):
        from repro.bench.experiments import memory_frontier

        table = memory_frontier(SMALL_SCALE)
        wide = table.series_by_label("in-RAM wide (bytes)")
        compact = table.series_by_label("in-RAM compact (bytes)")
        assert wide.xs == compact.xs == list(SMALL_SCALE.string_sizes)
        # No level of these inputs stores C_L or an RMQ, so the index is
        # the suffix array beside the float64 prefix sums, and compacting
        # narrows the suffix array to the smallest dtype holding n - 1
        # (5,008 vs 8,008 B at n = 500).
        for n, wide_bytes, compact_bytes in zip(wide.xs, wide.values, compact.values):
            narrow = np.dtype(np.min_scalar_type(n - 1)).itemsize
            assert wide_bytes == 8 * n + 8 * (n + 1), n
            assert compact_bytes == narrow * n + 8 * (n + 1), (
                f"compact in-RAM ({compact_bytes:.0f} B) is not the wide arrays "
                f"at their narrowest dtypes at n={n}"
            )
        # The worker-boundary contract: the shared-memory spec pickles a
        # block name plus an array layout — O(array count), never O(n).
        # The absolute cap is generous (the measured specs are ~1.3 KB);
        # the relative cap pins the spec far below the legacy pickled
        # payload it replaced, so a regression back to shipping array
        # bytes trips both.
        spec = table.series_by_label("shm worker spec pickled (bytes)")
        payload = table.series_by_label("legacy payload spec pickled (bytes)")
        for n, spec_bytes, payload_bytes in zip(spec.xs, spec.values, payload.values):
            assert spec_bytes <= 32768, (
                f"shm worker spec pickles {spec_bytes:.0f} B at n={n} — "
                "O(index) bytes are crossing the process boundary again"
            )
            assert spec_bytes * 20 <= payload_bytes, (
                f"shm worker spec ({spec_bytes:.0f} B) is not well below the "
                f"legacy pickled payload ({payload_bytes:.0f} B) at n={n}"
            )
        # Cold spawn completed and was timed (the experiment routes a real
        # count() through the freshly spawned process pool).
        cold = table.series_by_label("process-pool cold spawn (ms)")
        assert all(value > 0.0 for value in cold.values)

    def test_compact_ratio_where_a_level_keeps_its_rmq(self):
        # The acceptance margin: narrowing dtypes and dropping derived
        # sparse tables reach at most 0.6x the wide in-RAM bytes (0.154 on
        # this input) on the reference workload at 2^17 positions, where
        # level 1's widest suffix range outgrows TOP_K_SCAN_WIDTH.
        from repro.api import build_index
        from repro.bench.experiments import frontier_string

        string = frontier_string(1 << 17)
        wide = build_index(string)
        assert sorted(wide.index._short_rmq) == [1], (
            "level 1 no longer keeps an RMQ, so this input no longer tests the margin"
        )
        compact = build_index(string, compact=True)
        assert compact.nbytes() <= 0.6 * wide.nbytes(), (
            f"compact in-RAM ({compact.nbytes()} B) is more than 0.6x "
            f"the wide in-RAM ({wide.nbytes()} B)"
        )


class TestNoNeverProbedRmqs:
    """The special, general and listing kinds store no level that no query reads.

    A level keeps its RMQ only where some suffix range can be wider than
    ``TOP_K_SCAN_WIDTH``, the smaller scan cut-off
    (``repro.core.base.rmq_depth``).  No small-scale input has such a
    level, so ``rmq_short`` / ``rmq_relevance`` bytes in a space report
    mean structures built and copied into shared memory for nothing.  The
    special and general indexes also compute every scanned range's
    ``C_L`` from the prefix sums, so they store a level's values only for
    that RMQ: ``short_values`` / ``block_values`` bytes on these inputs
    would be levels no query reads.
    """

    def test_small_scale_indexes_carry_no_level_rmq(self):
        from repro.api import build_index
        from repro.bench.experiments import frontier_string
        from repro.bench.workloads import listing_workload, substring_workload
        from repro.core.base import rmq_depth
        from repro.suffix.lcp import build_lcp_array

        def lcp_of(index):
            if hasattr(index, "_lcp"):
                return index._lcp
            return build_lcp_array(index.string.text, index._suffix_array.array)

        cells = [("special", n, None, frontier_string(n)) for n in SMALL_SCALE.string_sizes]
        for n in SMALL_SCALE.string_sizes:
            for theta in SMALL_SCALE.thetas:
                work = substring_workload(n, theta, tau_min=SMALL_SCALE.tau_min)
                cells.append(("general", n, theta, work.string))
        for n in SMALL_SCALE.collection_sizes:
            for theta in SMALL_SCALE.thetas:
                work = listing_workload(n, theta, tau_min=SMALL_SCALE.tau_min)
                cells.append(("listing", n, theta, work.collection))
        for kind, n, theta, source in cells:
            label = f"{kind} n={n} theta={theta}"
            for compact in (False, True):
                index = build_index(
                    source, tau_min=SMALL_SCALE.tau_min, kind=kind, compact=compact
                ).index
                assert rmq_depth(lcp_of(index), index.max_short_length) == 0, (
                    f"{label}: a level is wider than TOP_K_SCAN_WIDTH, so this "
                    "input no longer tests the guard"
                )
                report = index.space_report()
                held = {
                    name: size
                    for name, size in report.items()
                    if name in ("rmq_short", "rmq_relevance")
                }
                assert not held, (
                    f"{label} (compact={compact}) holds {held} bytes of per-level "
                    "RMQs that no query can probe"
                )
                if kind != "listing":
                    stored = {
                        name: size
                        for name, size in report.items()
                        if name in ("short_values", "block_values")
                    }
                    assert not stored, (
                        f"{label} (compact={compact}) holds {stored} bytes of stored "
                        "levels that every query computes instead"
                    )


class TestSpecialRestoreBuildsNoPositions:
    """A special archive loads without one validated object per position.

    Restoring special-bulk's 2^16 positions as ``SpecialPosition`` records
    once cost most of an mmap load; the restore now converts the
    manifest's probability list to one float64 array, so the count is 0.
    """

    def test_mmap_load_constructs_no_special_position(self, tmp_path, monkeypatch):
        from repro.api import build_index, load_index
        from repro.strings import SpecialPosition, SpecialUncertainString

        n = 1 << 16
        rng = np.random.default_rng(2016)
        text = "".join(rng.choice(list("ACGT"), size=n).tolist())
        string = SpecialUncertainString.from_characters_and_probabilities(
            text, rng.uniform(0.5, 1.0, size=n).tolist()
        )
        built = build_index(string)
        path = built.save(tmp_path / "special")

        constructed = []
        check = SpecialPosition.__post_init__

        def counting_check(position):
            constructed.append(1)
            check(position)

        monkeypatch.setattr(SpecialPosition, "__post_init__", counting_check)
        loaded = load_index(path, mmap=True)
        answers = [
            (loaded.index.query(pattern, 0.05), built.index.query(pattern, 0.05))
            for pattern in ("ACGT", "GATTA", "CC", "T")
        ] + [
            (loaded.index.top_k(pattern, 50), built.index.top_k(pattern, 50))
            for pattern in ("ACG", "TTTT")
        ]
        assert len(constructed) == 0, (
            f"an mmap load of {n} positions built {len(constructed)} SpecialPosition records"
        )
        for got, expected in answers:
            assert len(expected) > 0
            assert got.ids.tobytes() == expected.ids.tobytes()
            assert got.values.tobytes() == expected.values.tobytes()
