"""Tests for repro.bench.experiments (figure generators at the small scale)."""

import pytest

from repro.bench import workloads
from repro.bench.experiments import (
    EXPERIMENTS,
    SCALES,
    SMALL_SCALE,
    ExperimentScale,
    ablation_approximate,
    ablation_transformation,
    figure_7a,
    figure_7d,
    figure_8a,
    figure_9c,
    run_experiments,
    sharding_scaling,
)

#: An even smaller grid than SMALL_SCALE so the whole module stays fast.
TINY_SCALE = ExperimentScale(
    name="tiny",
    string_sizes=(200, 400),
    collection_sizes=(200, 400),
    thetas=(0.2,),
    tau_min=0.1,
    tau=0.2,
    tau_grid=(0.1, 0.15),
    tau_min_grid=(0.1, 0.2),
    pattern_lengths=(3, 5),
    mixed_query_lengths=(3, 6),
    listing_query_lengths=(3, 5),
    patterns_per_length=2,
    fixed_string_size=300,
    fixed_collection_size=300,
    tau_min_panel_size=200,
    query_repeats=1,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    workloads.clear_caches()
    yield
    workloads.clear_caches()


class TestRegistry:
    def test_all_paper_figures_present(self):
        for name in (
            "fig7a", "fig7b", "fig7c", "fig7d",
            "fig8a", "fig8b", "fig8c", "fig8d",
            "fig9a", "fig9b", "fig9c",
        ):
            assert name in EXPERIMENTS

    def test_scales_registered(self):
        assert set(SCALES) == {"small", "default", "large"}
        assert SCALES["small"] is SMALL_SCALE

    def test_serving_experiments_present(self):
        assert "ablation-batch" in EXPERIMENTS
        assert "sharding-scaling" in EXPERIMENTS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["fig99z"], TINY_SCALE)


class TestFigureGenerators:
    def test_fig7a_shape(self):
        table = figure_7a(TINY_SCALE)
        assert table.figure_id == "fig7a"
        assert len(table.series) == len(TINY_SCALE.thetas)
        for series in table.series:
            assert series.xs == list(TINY_SCALE.string_sizes)
            assert all(value >= 0.0 for value in series.values)

    def test_fig7d_uses_pattern_lengths(self):
        table = figure_7d(TINY_SCALE)
        for series in table.series:
            assert set(series.xs) <= set(TINY_SCALE.pattern_lengths)

    def test_fig8a_shape(self):
        table = figure_8a(TINY_SCALE)
        assert table.figure_id == "fig8a"
        for series in table.series:
            assert series.xs == list(TINY_SCALE.collection_sizes)

    def test_fig9c_reports_megabytes(self):
        table = figure_9c(TINY_SCALE)
        for series in table.series:
            # Index space grows with n.
            assert series.values == sorted(series.values)
            assert all(value > 0.0 for value in series.values)

    def test_ablation_transformation_expansion_decreases_with_tau_min(self):
        table = ablation_transformation(TINY_SCALE)
        for series in table.series:
            # Larger tau_min => shorter factors => smaller expansion.
            assert series.values[0] >= series.values[-1]

    def test_ablation_approximate_has_both_series_per_size(self):
        table = ablation_approximate(TINY_SCALE)
        assert table.figure_id == "ablation-approx"
        assert [series.label for series in table.series] == [
            "exact (general index)",
            "approximate (links)",
        ]
        for series in table.series:
            assert series.xs == list(TINY_SCALE.string_sizes)
            assert all(value > 0.0 for value in series.values)

    def test_run_experiments_returns_tables_in_order(self):
        tables = run_experiments(["fig9c", "fig7a"], TINY_SCALE)
        assert [table.figure_id for table in tables] == ["fig9c", "fig7a"]


@pytest.mark.slow
class TestShardingScaling:
    """The sharding-scaling serving experiment (slow: builds engines at
    three shard counts and replays the workload 10x each)."""

    def test_reports_throughput_and_hit_rate(self):
        table = sharding_scaling(TINY_SCALE)
        assert table.figure_id == "sharding-scaling"
        series = {entry.label: entry for entry in table.series}
        assert set(series) == {
            "cold search_many (req/s)",
            "warm search_many (req/s)",
            "cache hit rate (%)",
        }
        for entry in series.values():
            assert entry.xs == [1, 2, 4]
        # The workload is replayed 10x, so 9 of every 10 lookups hit.
        assert all(value >= 89.9 for value in series["cache hit rate (%)"].values)
        # Warm rounds are answered from the cache: strictly faster than cold.
        for cold, warm in zip(
            series["cold search_many (req/s)"].values,
            series["warm search_many (req/s)"].values,
        ):
            assert cold > 0.0
            assert warm > cold
