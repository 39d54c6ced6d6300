"""Rendering of benchmark results as fixed-width tables, CSV and Markdown.

The paper presents its evaluation as line charts; the harness reproduces
each chart as a table whose rows are the x-axis values and whose columns are
the θ series (or index variants for the ablations).  The same tables are
embedded in EXPERIMENTS.md.
"""

from __future__ import annotations

import io
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .harness import FigureTable


def _format_number(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.4f}"


def format_table(table: FigureTable) -> str:
    """Render one :class:`FigureTable` as a fixed-width text table."""
    xs = table.x_values()
    headers = [table.x_label] + [series.label for series in table.series]
    rows: List[List[str]] = []
    for x in xs:
        row = [_format_number(x)]
        for series in table.series:
            value = next((point.value for point in series.points if point.x == x), None)
            row.append(_format_number(value))
        rows.append(row)

    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows)) if rows else len(headers[column])
        for column in range(len(headers))
    ]
    out = io.StringIO()
    out.write(f"== {table.figure_id}: {table.title} ==\n")
    if table.notes:
        out.write(f"   ({table.notes}; y = {table.y_label})\n")
    out.write(
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)) + "\n"
    )
    out.write("  ".join("-" * width for width in widths) + "\n")
    for row in rows:
        out.write("  ".join(cell.rjust(width) for cell, width in zip(row, widths)) + "\n")
    return out.getvalue()


def format_markdown(table: FigureTable) -> str:
    """Render one :class:`FigureTable` as a GitHub-flavoured Markdown table."""
    xs = table.x_values()
    headers = [table.x_label] + [series.label for series in table.series]
    out = io.StringIO()
    out.write(f"### {table.figure_id} — {table.title}\n\n")
    if table.notes:
        out.write(f"*{table.notes}; y = {table.y_label}*\n\n")
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join(["---"] * len(headers)) + "|\n")
    for x in xs:
        cells = [_format_number(x)]
        for series in table.series:
            value = next((point.value for point in series.points if point.x == x), None)
            cells.append(_format_number(value))
        out.write("| " + " | ".join(cells) + " |\n")
    out.write("\n")
    return out.getvalue()


def format_csv(table: FigureTable) -> str:
    """Render one :class:`FigureTable` as CSV (x column plus one column per series)."""
    xs = table.x_values()
    headers = [table.x_label] + [series.label for series in table.series]
    lines = [",".join(headers)]
    for x in xs:
        cells = [repr(x)]
        for series in table.series:
            value = next((point.value for point in series.points if point.x == x), None)
            cells.append("" if value is None else repr(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def environment_stamp() -> Dict[str, object]:
    """Where a bench ran: cores, Python and numpy versions, source commit.

    ``nproc`` counts the CPUs this process may run on (its affinity mask,
    as the ``nproc`` tool does), falling back to the host's count where
    the platform has no affinity call.  The commit is ``git describe
    --always --dirty`` of the checkout the package runs from — the
    ``HEAD`` hash, suffixed ``-dirty`` when the working tree has
    uncommitted changes, so a ``-dirty`` stamp names the base commit plus
    edits not yet committed (a file regenerated for a change and committed
    with it reads ``<parent>-dirty``) — and ``"unknown"`` outside a git
    checkout (an installed package).
    """
    import numpy

    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def figure_table_to_dict(
    table: FigureTable,
    *,
    scale: Optional[str] = None,
    wall_clock_seconds: Optional[float] = None,
) -> Dict[str, object]:
    """Machine-readable form of one :class:`FigureTable`.

    Carries the experiment name, its parameters (the table's labelling
    metadata), the environment it ran in (:func:`environment_stamp`), the
    wall-clock seconds of the run and every measured series — the record a
    perf-trajectory tool can diff across commits.
    """
    payload: Dict[str, object] = {
        "experiment": table.figure_id,
        "title": table.title,
        "parameters": {
            "scale": scale,
            "x_label": table.x_label,
            "y_label": table.y_label,
            "notes": table.notes,
        },
        "environment": environment_stamp(),
        "wall_clock_seconds": wall_clock_seconds,
        "series": [
            {
                "label": series.label,
                "points": [
                    {"x": point.x, "value": point.value} for point in series.points
                ],
            }
            for series in table.series
        ],
    }
    return payload


def json_artifact_name(figure_id: str) -> str:
    """File name of one experiment's JSON artifact (``BENCH_<experiment>.json``)."""
    sanitized = "".join(
        character if character.isalnum() else "_" for character in figure_id
    )
    return f"BENCH_{sanitized}.json"


def write_json_artifact(
    table: FigureTable,
    directory: Union[str, Path],
    *,
    scale: Optional[str] = None,
    wall_clock_seconds: Optional[float] = None,
) -> Path:
    """Write one experiment's ``BENCH_<experiment>.json`` and return its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / json_artifact_name(table.figure_id)
    payload = figure_table_to_dict(
        table, scale=scale, wall_clock_seconds=wall_clock_seconds
    )
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def render_report(tables: Iterable[FigureTable], *, fmt: str = "text") -> str:
    """Render several tables with the requested format (``text``/``markdown``/``csv``)."""
    renderers = {"text": format_table, "markdown": format_markdown, "csv": format_csv}
    if fmt not in renderers:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(renderers)}")
    renderer = renderers[fmt]
    return "\n".join(renderer(table) for table in tables)
