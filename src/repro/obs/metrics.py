"""Lock-safe metrics registry with Prometheus text exposition.

One registry per component, one lock per registry — and the lock can be
*supplied* (``MetricsRegistry(lock=...)``), so a component that already
guards its state with an ``RLock`` hands that same lock to its registry.
Counter increments made while the component lock is held re-enter
cleanly, and a ``stats()`` snapshot taken under the component lock is
consistent across every metric in the registry (no torn reads between
``completed`` and the latency histogram's ``count``).

Every metric name must be registered in :data:`METRIC_TABLE` — the one
central table the ``metrics-discipline`` lint rule checks call sites
against — and follow the naming discipline: ``snake_case``, counters end
in ``_total``, gauges and histograms end in a unit suffix (``_ms``,
``_bytes``, ``_ratio``, ``_count``).

Histograms use fixed log-spaced latency buckets (:data:`BUCKET_BOUNDS_MS`)
for exposition and retain raw samples (bounded ring by default) for
*exact* nearest-rank quantile extraction — the same formula the load
generator has always used, now in one place repo-wide.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..exceptions import ValidationError

#: Central metric-name table: every Counter/Gauge/Histogram name created
#: through a :class:`MetricsRegistry` anywhere in the repo must appear
#: here (enforced at runtime below and statically by the
#: ``metrics-discipline`` rule in ``repro.tools.check``).
METRIC_TABLE: Dict[str, str] = {
    # repro.api.cache — ResultCache
    "cache_hits_total": "Result-cache lookups answered from a live entry.",
    "cache_misses_total": "Result-cache lookups that fell through to evaluation.",
    "cache_evictions_total": "Result-cache entries evicted by LRU capacity pressure.",
    "cache_size_count": "Entries currently held by the result cache, older generations included.",
    "cache_generation_count": "Current result-cache generation tag (bumped on index swaps).",
    # repro.api.sharding — ShardedEngine resilience
    "sharding_pool_recoveries_total": "Crashed worker pools discarded and rebuilt from retained shard specs.",
    "sharding_partial_answers_total": "Requests degraded to a PartialAnswer after retries were exhausted.",
    "sharding_dispatches_total": "Window messages sent to shard worker processes plus tasks submitted to shard threads.",
    # repro.serving.service — AsyncSearchService
    "service_submitted_total": "Requests accepted into the micro-batch queue.",
    "service_completed_total": "Requests answered successfully (including partial answers).",
    "service_failed_total": "Requests that surfaced an error to their caller.",
    "service_cancelled_total": "Requests whose caller future was cancelled mid-flight.",
    "service_rejected_total": "Requests refused by admission control (queue plus in-flight full).",
    "service_deduplicated_total": "Requests coalesced onto an identical in-window request.",
    "service_deadline_exceeded_total": "Requests that exhausted their end-to-end deadline.",
    "service_partial_answers_total": "Requests answered with a degraded PartialAnswer.",
    "service_batches_total": "Micro-batch windows dispatched to the engine.",
    "service_batched_requests_total": "Requests carried by dispatched micro-batch windows.",
    "service_in_flight_count": "Requests currently evaluating in the engine executor.",
    "service_queue_depth_count": "Requests waiting in the current batch window.",
    "service_max_batch_count": "Largest micro-batch window dispatched so far.",
    "service_max_queue_depth_count": "High-water mark of the pending queue.",
    "service_latency_ms": "End-to-end submit-to-answer latency per request.",
    # repro.serving.replicas — ReplicaSet
    "replica_hedges_total": "Hedged duplicate dispatches launched after hedge_after_ms.",
    "replica_hedge_wins_total": "Hedged dispatches that finished before the primary replica.",
    "replica_failovers_total": "Batches retried on another replica after an infrastructure fault.",
    "replica_swaps_total": "Zero-downtime engine swaps completed.",
    # repro.faults — FaultInjector (labeled per site)
    "fault_calls_total": "Traversals of a fault-injection site, labeled by site.",
    "fault_fired_total": "Faults actually fired at a site, labeled by site.",
    # repro.obs.profile — KernelProfiler; stage = an unsharded engine's index
    # kind (sharded engines never pass its hook)
    "kernel_eval_ms": "Sampled vectorized-kernel evaluation time, labeled by stage.",
    # repro.serving.loadgen
    "loadgen_latency_ms": "Load-generator observed end-to-end request latency.",
}

#: Fixed log-spaced histogram bucket upper bounds, in milliseconds:
#: 0.125 ms doubling up to ~16 s, plus the implicit +Inf bucket.
BUCKET_BOUNDS_MS: Tuple[float, ...] = tuple(0.125 * (2.0**i) for i in range(18))

#: Default per-histogram retained-sample ring size.  Quantiles are exact
#: while the observation count stays at or below this; afterwards they
#: are exact over the most recent window.  Pass ``sample_limit=None``
#: for unbounded retention (the load generator does, for exact run-wide
#: percentiles).
DEFAULT_SAMPLE_LIMIT = 4096

_SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Unit suffixes allowed on gauges and histograms; counters must end in
#: ``_total`` instead (Prometheus convention).
UNIT_SUFFIXES: Tuple[str, ...] = ("_ms", "_bytes", "_ratio", "_count")

LabelPairs = Tuple[Tuple[str, str], ...]


def check_metric_name(name: str, kind: str) -> None:
    """Validate *name* against the central table and naming discipline."""
    if name not in METRIC_TABLE:
        raise ValidationError(
            f"metric name {name!r} is not registered in repro.obs.metrics.METRIC_TABLE"
        )
    if not _SNAKE_CASE.match(name):
        raise ValidationError(f"metric name {name!r} is not snake_case")
    if kind == "counter":
        if not name.endswith("_total"):
            raise ValidationError(f"counter name {name!r} must end in '_total'")
    elif not name.endswith(UNIT_SUFFIXES):
        raise ValidationError(
            f"{kind} name {name!r} must end in a unit suffix {UNIT_SUFFIXES}"
        )


@dataclass(frozen=True)
class MetricSample:
    """One collected metric series, ready for exposition."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: LabelPairs = ()
    value: float = 0.0
    # Histogram-only fields: cumulative (le, count) pairs ending at +inf.
    buckets: Tuple[Tuple[float, int], ...] = field(default=())
    sum: float = 0.0
    count: int = 0


class Counter:
    """Monotonic counter; increments and reads are lock-protected."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelPairs, lock: ContextManager[bool]) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0  # guarded-by: _lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the counter (legacy ``reset_stats()`` views only)."""
        with self._lock:
            self._value = 0

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _sample(self, help_text: str, extra: LabelPairs) -> MetricSample:
        return MetricSample(
            name=self.name, kind="counter", help=help_text,
            labels=extra + self.labels, value=float(self._value),
        )


class Gauge:
    """Point-in-time value: settable, inc/dec-able, or callback-backed."""

    __slots__ = ("name", "labels", "_lock", "_value", "_fn")

    def __init__(
        self,
        name: str,
        labels: LabelPairs,
        lock: ContextManager[bool],
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._fn = fn
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if larger (high-water marks)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            if self._fn is not None:
                return float(self._fn())
            return self._value

    def _sample(self, help_text: str, extra: LabelPairs) -> MetricSample:
        current = float(self._fn()) if self._fn is not None else self._value
        return MetricSample(
            name=self.name, kind="gauge", help=help_text,
            labels=extra + self.labels, value=current,
        )


class Histogram:
    """Log-spaced-bucket histogram with exact nearest-rank quantiles.

    Bucket counts, sum, count, and max feed Prometheus exposition; a
    retained-sample ring (bounded by ``sample_limit``, unbounded when
    ``None``) feeds :meth:`quantile` — the repo's one quantile
    implementation, using the nearest-rank formula
    ``rank = max(0, min(n - 1, int(q * n)))`` over the sorted samples.
    """

    __slots__ = ("name", "labels", "_lock", "_bounds", "_counts", "_sum",
                 "_count", "_max", "_samples")

    def __init__(
        self,
        name: str,
        labels: LabelPairs,
        lock: ContextManager[bool],
        bounds: Tuple[float, ...] = BUCKET_BOUNDS_MS,
        sample_limit: Optional[int] = DEFAULT_SAMPLE_LIMIT,
    ) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._max = 0.0  # guarded-by: _lock
        self._samples: Deque[float] = deque(maxlen=sample_limit)  # guarded-by: _lock

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            self._counts[bisect_left(self._bounds, value)] += 1
            self._samples.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile over the retained samples."""
        with self._lock:
            values = sorted(self._samples)
        if not values:
            return 0.0
        rank = max(0, min(len(values) - 1, int(q * len(values))))
        return values[rank]

    def quantiles(self, qs: Iterable[float]) -> Dict[float, float]:
        """Several quantiles from one sort of the retained samples."""
        with self._lock:
            values = sorted(self._samples)
        out: Dict[float, float] = {}
        for q in qs:
            if not values:
                out[q] = 0.0
            else:
                out[q] = values[max(0, min(len(values) - 1, int(q * len(values))))]
        return out

    def _sample(self, help_text: str, extra: LabelPairs) -> MetricSample:
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self._bounds, self._counts):
            running += bucket_count
            cumulative.append((bound, running))
        cumulative.append((math.inf, self._count))
        return MetricSample(
            name=self.name, kind="histogram", help=help_text,
            labels=extra + self.labels,
            buckets=tuple(cumulative), sum=self._sum, count=self._count,
        )


class MetricsRegistry:
    """A named collection of metrics sharing one (re-entrant) lock.

    Components pass their own ``threading.RLock`` via ``lock=`` so that
    metric updates, legacy ``stats()`` snapshots, and :meth:`collect`
    all serialize on the same monitor; :meth:`hold` exposes that lock
    for grouped multi-metric updates.
    """

    def __init__(self, *, lock: Optional[ContextManager[bool]] = None) -> None:
        self._lock: ContextManager[bool] = threading.RLock() if lock is None else lock
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}  # guarded-by: _lock

    def hold(self) -> ContextManager[bool]:
        """The registry lock, for atomically grouped updates/snapshots."""
        return self._lock

    @staticmethod
    def _label_pairs(labels: Mapping[str, str]) -> LabelPairs:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def counter(self, name: str, **labels: str) -> Counter:
        check_metric_name(name, "counter")
        key = (name, self._label_pairs(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Counter(name, key[1], self._lock)
                self._metrics[key] = metric
            if not isinstance(metric, Counter):
                raise ValidationError(f"metric {name!r} already registered with another kind")
            return metric

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None, **labels: str
    ) -> Gauge:
        check_metric_name(name, "gauge")
        key = (name, self._label_pairs(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Gauge(name, key[1], self._lock, fn=fn)
                self._metrics[key] = metric
            if not isinstance(metric, Gauge):
                raise ValidationError(f"metric {name!r} already registered with another kind")
            return metric

    def histogram(
        self,
        name: str,
        *,
        bounds: Tuple[float, ...] = BUCKET_BOUNDS_MS,
        sample_limit: Optional[int] = DEFAULT_SAMPLE_LIMIT,
        **labels: str,
    ) -> Histogram:
        check_metric_name(name, "histogram")
        key = (name, self._label_pairs(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Histogram(name, key[1], self._lock, bounds=bounds,
                                   sample_limit=sample_limit)
                self._metrics[key] = metric
            if not isinstance(metric, Histogram):
                raise ValidationError(f"metric {name!r} already registered with another kind")
            return metric

    def collect(self, extra_labels: Optional[Mapping[str, str]] = None) -> List[MetricSample]:
        """One consistent snapshot of every metric, under one lock hold.

        ``extra_labels`` are prepended to each sample's label set — the
        hook replica sets use to tag per-replica engine registries with
        ``replica="N"`` at exposition time.
        """
        extra = self._label_pairs(extra_labels or {})
        samples: List[MetricSample] = []
        with self._lock:
            for (name, _), metric in sorted(self._metrics.items(), key=lambda kv: kv[0]):
                help_text = METRIC_TABLE[name]
                if isinstance(metric, Counter):
                    samples.append(metric._sample(help_text, extra))
                elif isinstance(metric, Gauge):
                    samples.append(metric._sample(help_text, extra))
                elif isinstance(metric, Histogram):
                    samples.append(metric._sample(help_text, extra))
        return samples


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _labels_text(labels: LabelPairs) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in labels)
    return "{" + inner + "}"


def render_prometheus(samples: Iterable[MetricSample]) -> str:
    """Render samples as Prometheus text exposition format.

    Samples from *multiple* registries are merged by metric name so each
    name gets exactly one ``# HELP`` / ``# TYPE`` block, with every
    labeled series listed beneath it — required when the same metric
    exists once per replica or per engine.
    """
    by_name: Dict[str, List[MetricSample]] = {}
    order: List[str] = []
    for sample in samples:
        if sample.name not in by_name:
            by_name[sample.name] = []
            order.append(sample.name)
        by_name[sample.name].append(sample)
    lines: List[str] = []
    for name in sorted(order):
        series = by_name[name]
        kind = series[0].kind
        lines.append(f"# HELP {name} {series[0].help}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in series:
            label_text = _labels_text(sample.labels)
            if kind == "histogram":
                for bound, cumulative in sample.buckets:
                    bucket_labels = sample.labels + (("le", _format_value(bound)),)
                    lines.append(
                        f"{name}_bucket{_labels_text(bucket_labels)} {cumulative}"
                    )
                lines.append(f"{name}_sum{label_text} {repr(float(sample.sum))}")
                lines.append(f"{name}_count{label_text} {sample.count}")
            else:
                lines.append(f"{name}{label_text} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"
