"""Opt-in sampling timer around the vectorized kernels.

Mirrors the ``repro.faults`` installation discipline exactly: a single
module-global profiler slot plus an ``is None`` fast path at every hook
site, so a disabled profiler costs one global read and one comparison on
the kernel hot path — nothing else.

Usage::

    with profile_kernels(sample_rate=0.25) as profiler:
        run_bench()
    print(profiler.stats())   # per-stage count / mean / p95 / max (ms)

The one hook site is ``Engine._evaluate`` (stage = the engine's index
kind), so only an unsharded engine is sampled: a ``ShardedEngine``'s
thread executor calls ``evaluate_request`` on each shard index directly,
and its process executor evaluates in worker processes, so neither passes
the hook.  Bench runs use the stats to attribute an occ/s regression to
an index kind.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .metrics import Histogram, MetricsRegistry


class KernelProfiler:
    """Sampling kernel timer backed by per-stage obs histograms."""

    def __init__(self, sample_rate: float = 1.0, seed: Optional[int] = None) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.sample_rate = sample_rate
        self._random = random.Random(seed)
        self._lock = threading.RLock()
        self._registry = MetricsRegistry(lock=self._lock)
        self._histograms: Dict[str, Histogram] = {}  # guarded-by: _lock

    def should_sample(self) -> bool:
        """Decide (seeded, cheap) whether to time this kernel call."""
        if self.sample_rate >= 1.0:
            return True
        return self._random.random() < self.sample_rate

    def observe(self, stage: str, duration_ms: float) -> None:
        with self._lock:
            histogram = self._histograms.get(stage)
            if histogram is None:
                histogram = self._registry.histogram("kernel_eval_ms", stage=stage)
                self._histograms[stage] = histogram
        histogram.observe(duration_ms)

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage ``{count, mean_ms, p50_ms, p95_ms, max_ms}``."""
        with self._lock:
            stages = dict(self._histograms)
        out: Dict[str, Dict[str, Any]] = {}
        for stage, histogram in sorted(stages.items()):
            quantiles = histogram.quantiles((0.5, 0.95))
            out[stage] = {
                "count": histogram.count,
                "mean_ms": histogram.mean,
                "p50_ms": quantiles[0.5],
                "p95_ms": quantiles[0.95],
                "max_ms": histogram.max,
            }
        return out

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry


_INSTALL_LOCK = threading.Lock()
_PROFILER: Optional[KernelProfiler] = None  # guarded-by: _INSTALL_LOCK


def active_profiler() -> Optional[KernelProfiler]:
    """The installed profiler, or ``None`` — the hot-path fast check."""
    return _PROFILER


@contextmanager
def profile_kernels(
    sample_rate: float = 1.0, seed: Optional[int] = None
) -> Iterator[KernelProfiler]:
    """Install a :class:`KernelProfiler` for the duration of the block."""
    global _PROFILER
    profiler = KernelProfiler(sample_rate=sample_rate, seed=seed)
    with _INSTALL_LOCK:
        if _PROFILER is not None:
            raise ValueError("a kernel profiler is already installed")
        _PROFILER = profiler
    try:
        yield profiler
    finally:
        with _INSTALL_LOCK:
            _PROFILER = None
