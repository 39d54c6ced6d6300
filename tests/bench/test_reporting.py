"""Tests for repro.bench.reporting."""

import pytest

from repro.bench.harness import FigureTable, Series, SeriesPoint
from repro.bench.reporting import (
    format_csv,
    format_markdown,
    format_table,
    render_report,
)


@pytest.fixture
def sample_table() -> FigureTable:
    table = FigureTable(
        figure_id="fig7a",
        title="Query time vs string size",
        x_label="n",
        y_label="ms",
        notes="tau=0.2",
    )
    table.series.append(
        Series("theta=0.1", [SeriesPoint(1000, 0.5), SeriesPoint(2000, 0.8)])
    )
    table.series.append(Series("theta=0.3", [SeriesPoint(1000, 0.6)]))
    return table


class TestTextTable:
    def test_contains_headers_and_values(self, sample_table):
        rendered = format_table(sample_table)
        assert "fig7a" in rendered
        assert "theta=0.1" in rendered
        assert "theta=0.3" in rendered
        assert "1,000" in rendered
        assert "0.5000" in rendered

    def test_missing_cells_rendered_as_dash(self, sample_table):
        rendered = format_table(sample_table)
        assert "-" in rendered.splitlines()[-1]


class TestMarkdown:
    def test_markdown_structure(self, sample_table):
        rendered = format_markdown(sample_table)
        assert rendered.startswith("### fig7a")
        assert "| n | theta=0.1 | theta=0.3 |" in rendered
        assert "|---|---|---|" in rendered


class TestCsv:
    def test_csv_structure(self, sample_table):
        rendered = format_csv(sample_table)
        lines = rendered.strip().splitlines()
        assert lines[0] == "n,theta=0.1,theta=0.3"
        assert lines[1].startswith("1000")
        # Missing cell is empty.
        assert lines[2].endswith(",")


class TestRenderReport:
    def test_multiple_tables(self, sample_table):
        rendered = render_report([sample_table, sample_table], fmt="text")
        assert rendered.count("fig7a") == 2

    def test_unknown_format_rejected(self, sample_table):
        with pytest.raises(ValueError):
            render_report([sample_table], fmt="latex")


class TestJsonArtifacts:
    def test_payload_structure(self, sample_table):
        from repro.bench.reporting import figure_table_to_dict

        payload = figure_table_to_dict(
            sample_table, scale="small", wall_clock_seconds=1.25
        )
        assert payload["experiment"] == "fig7a"
        assert payload["parameters"]["scale"] == "small"
        assert payload["wall_clock_seconds"] == 1.25
        labels = [series["label"] for series in payload["series"]]
        assert labels == ["theta=0.1", "theta=0.3"]
        assert payload["series"][0]["points"][0] == {"x": 1000.0, "value": 0.5}

    def test_payload_stamps_environment(self, sample_table):
        import os
        import platform

        import numpy

        from repro.bench.reporting import figure_table_to_dict

        environment = figure_table_to_dict(sample_table)["environment"]
        if hasattr(os, "sched_getaffinity"):
            assert environment["nproc"] == len(os.sched_getaffinity(0))
        else:
            assert environment["nproc"] == os.cpu_count()
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == numpy.__version__
        assert isinstance(environment["commit"], str) and environment["commit"]

    def test_nproc_follows_the_affinity_mask(self, sample_table, monkeypatch):
        import os

        from repro.bench import reporting

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert reporting.environment_stamp()["nproc"] == 1

    def test_commit_unknown_outside_a_git_checkout(self, sample_table, monkeypatch):
        import subprocess

        from repro.bench import reporting

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        payload = reporting.figure_table_to_dict(sample_table)
        assert payload["environment"]["commit"] == "unknown"

    def test_artifact_name_sanitizes_dashes(self):
        from repro.bench.reporting import json_artifact_name

        assert json_artifact_name("query-kernel") == "BENCH_query_kernel.json"
        assert json_artifact_name("fig7a") == "BENCH_fig7a.json"

    def test_write_round_trips(self, sample_table, tmp_path):
        import json

        from repro.bench.reporting import write_json_artifact

        path = write_json_artifact(
            sample_table, tmp_path, scale="small", wall_clock_seconds=0.5
        )
        assert path == tmp_path / "BENCH_fig7a.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["experiment"] == "fig7a"
        assert set(payload["environment"]) == {"nproc", "python", "numpy", "commit"}
        assert payload["series"][1]["points"] == [{"x": 1000.0, "value": 0.6}]
