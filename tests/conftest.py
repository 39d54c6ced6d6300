"""Shared fixtures and data builders for the test suite.

Several fixtures reproduce the worked examples of the paper (Figures 1, 2, 3
and 10) so tests can assert against numbers that appear in the text; the
``random_uncertain_string`` / ``random_special_string`` factories provide
reproducible randomized inputs for oracle-comparison tests.
"""

from __future__ import annotations

import io
import json
import random
import zipfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.strings import (
    SpecialUncertainString,
    UncertainString,
    UncertainStringCollection,
)

#: Small alphabet used by the randomized tests (keeps suffix ranges busy).
TEST_ALPHABET = "ABCD"


def make_random_uncertain_string(
    length: int,
    theta: float,
    seed: int,
    *,
    alphabet: str = TEST_ALPHABET,
    max_choices: int = 3,
) -> UncertainString:
    """Build a random uncertain string with ``theta`` fraction of uncertain positions."""
    rng = random.Random(seed)
    rows: List[Dict[str, float]] = []
    for _ in range(length):
        if rng.random() < theta:
            count = rng.randint(2, min(max_choices, len(alphabet)))
            characters = rng.sample(alphabet, count)
            weights = [rng.random() + 0.05 for _ in characters]
            total = sum(weights)
            rows.append({c: w / total for c, w in zip(characters, weights)})
        else:
            rows.append({rng.choice(alphabet): 1.0})
    return UncertainString.from_table(rows)


def make_random_special_string(
    length: int,
    seed: int,
    *,
    alphabet: str = "AB",
    min_probability: float = 0.3,
) -> SpecialUncertainString:
    """Build a random special uncertain string over a small alphabet."""
    rng = random.Random(seed)
    return SpecialUncertainString(
        [
            (rng.choice(alphabet), rng.uniform(min_probability, 1.0))
            for _ in range(length)
        ]
    )


def rezip_archive(
    path: Path,
    *,
    manifest: Optional[Any] = None,
    compression: int = zipfile.ZIP_STORED,
) -> Path:
    """Rewrite an index archive member for member.

    ``manifest`` (any JSON value) replaces the ``__manifest__`` member;
    ``compression`` is the zip method every member is rewritten with.
    """
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    if manifest is not None:
        buffer = io.BytesIO()
        raw = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
        np.lib.format.write_array(buffer, raw)
        members["__manifest__.npy"] = buffer.getvalue()
    with zipfile.ZipFile(path, "w", compression=compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return path


def write_malformed_archives(directory: Path, engine: Any) -> Dict[str, Path]:
    """Files named ``*.npz`` that are not readable index archives, by case.

    ``garbage`` is not a zip; ``bare-npy`` is a lone ``.npy`` file;
    ``list-manifest`` and ``string-version`` are saved archives whose
    manifest is a JSON list, or carries the version as a string.
    """
    from repro.api import read_manifest

    garbage = directory / "garbage.npz"
    garbage.write_bytes(b"this is not a zip archive at all")
    bare = directory / "bare-npy.npz"
    with bare.open("wb") as handle:
        np.save(handle, np.arange(3))
    listed = rezip_archive(engine.save(directory / "list-manifest"), manifest=[1, 2, 3])
    stringly = engine.save(directory / "string-version")
    manifest = read_manifest(stringly)
    manifest["version"] = str(manifest["version"])
    rezip_archive(stringly, manifest=manifest)
    return {
        "garbage": garbage,
        "bare-npy": bare,
        "list-manifest": listed,
        "string-version": stringly,
    }


#: Cut-offs low enough that a few-thousand-position text has wide levels.
LOW_SCAN_WIDTH = 64
LOW_TOP_K_SCAN_WIDTH = 32


@pytest.fixture
def low_cut_offs(monkeypatch: pytest.MonkeyPatch) -> None:
    """Patch the kernels' scan cut-offs low, so shallow levels keep an RMQ."""
    import repro.core.base as base

    monkeypatch.setattr(base, "SCAN_WIDTH", LOW_SCAN_WIDTH)
    monkeypatch.setattr(base, "TOP_K_SCAN_WIDTH", LOW_TOP_K_SCAN_WIDTH)


@pytest.fixture
def random_uncertain_string() -> Callable[..., UncertainString]:
    """Factory fixture for random uncertain strings."""
    return make_random_uncertain_string


@pytest.fixture
def random_special_string() -> Callable[..., SpecialUncertainString]:
    """Factory fixture for random special uncertain strings."""
    return make_random_special_string


@pytest.fixture
def figure1_string() -> UncertainString:
    """The uncertain string of the paper's Figure 1(a)."""
    return UncertainString(
        [
            {"a": 0.3, "b": 0.4, "d": 0.3},
            {"a": 0.6, "c": 0.4},
            {"d": 1.0},
            {"a": 0.5, "c": 0.5},
            {"a": 1.0},
        ]
    )


@pytest.fixture
def figure2_collection() -> UncertainStringCollection:
    """The three-document collection of the paper's Figure 2."""
    d1 = UncertainString(
        [
            {"A": 0.4, "B": 0.3, "F": 0.3},
            {"B": 0.3, "L": 0.3, "F": 0.3, "J": 0.1},
            {"F": 0.5, "J": 0.5},
        ],
        name="d1",
    )
    d2 = UncertainString(
        [
            {"A": 0.6, "C": 0.4},
            {"B": 0.5, "F": 0.3, "J": 0.2},
            {"B": 0.4, "C": 0.3, "E": 0.2, "F": 0.1},
        ],
        name="d2",
    )
    d3 = UncertainString(
        [
            {"A": 0.4, "F": 0.4, "P": 0.2},
            {"I": 0.3, "L": 0.3, "P": 0.3, "T": 0.1},
            {"A": 1.0},
        ],
        name="d3",
    )
    return UncertainStringCollection([d1, d2, d3])


@pytest.fixture
def figure3_string() -> UncertainString:
    """The At4g15440 protein string of the paper's Figure 3."""
    return UncertainString(
        [
            {"P": 1.0},
            {"S": 0.7, "F": 0.3},
            {"F": 1.0},
            {"P": 1.0},
            {"Q": 0.5, "T": 0.5},
            {"P": 1.0},
            {"A": 0.4, "F": 0.4, "P": 0.2},
            {"I": 0.3, "L": 0.3, "T": 0.3, "P": 0.1},
            {"A": 1.0},
            {"S": 0.5, "T": 0.5},
            {"A": 1.0},
        ]
    )


@pytest.fixture
def figure5_special_string() -> SpecialUncertainString:
    """The (banana, probabilities) special string of the paper's Figure 5."""
    return SpecialUncertainString(
        [("b", 0.4), ("a", 0.7), ("n", 0.5), ("a", 0.8), ("n", 0.9), ("a", 0.6)]
    )


@pytest.fixture
def figure10_string() -> UncertainString:
    """The four-position string of the paper's Figure 10 running example."""
    return UncertainString(
        [
            {"Q": 0.7, "S": 0.3},
            {"Q": 0.3, "P": 0.7},
            {"P": 1.0},
            {"A": 0.4, "F": 0.3, "P": 0.2, "Q": 0.1},
        ]
    )
