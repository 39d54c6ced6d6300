"""Benchmark-side spans around calls into each serving layer.

Nothing here reaches into the program: the spans wrap the public calls the
layers make on each other, through objects the benchmark hands over.

* ``http``   — ``SearchHttpApp.dispatch`` plus the response encoding (the
  root span, taken by the load generator in ``loop.py``).
* ``submit`` — ``submit`` on the service object given to the app.
* ``engine`` — ``search_many`` plus result materialization on the engine
  object given to the service (one span per micro-batch window).
* ``kernel`` — ``query`` / ``top_k`` on the index, through an
  ``Engine(index, plan)`` built by the benchmark.  A process-served
  sharded engine runs its kernels in worker processes, out of reach; there
  the window's requests are replayed against the in-parent shard indexes
  after the phase (:func:`replay_shards`).

Spans are tuples appended to in-memory lists (``list.append`` is atomic
under the GIL, and the engine and kernel spans come from the service's
executor thread) and written out once the run ends.  Parents and request
ids are recovered from containment: windows never overlap (the service
evaluates one window at a time), so a request's window is the last
``engine`` span that starts after its ``submit`` began and ends before it
returned.
"""

from __future__ import annotations

import bisect
import contextvars
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import Engine, ShardedEngine
from repro.core.base import resolve_tau

#: Request id of the load-generator task currently dispatching.
REQUEST_ID: "contextvars.ContextVar[int]" = contextvars.ContextVar("request_id", default=-1)

RequestKey = Tuple[str, Optional[float], Optional[int]]


class Recorder:
    """In-memory span store; the proxies record only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.submit: List[Tuple[int, float, float]] = []
        self.engine: List[Tuple[float, float, List[RequestKey]]] = []
        self.kernel: List[Tuple[float, float, int]] = []

    def service_proxy(self, service: Any) -> "ServiceSpans":
        return ServiceSpans(service, self)

    def engine_proxy(self, engine: Any) -> "EngineSpans":
        return EngineSpans(engine, self)

    def kernel_engine(self, engine: Any) -> Any:
        """An ``Engine`` over a span-taking view of ``engine``'s index.

        A sharded engine is returned as is: its kernels run in worker
        processes and are replayed instead.
        """
        if isinstance(engine, ShardedEngine):
            return engine
        return Engine(IndexSpans(engine.index, self), engine.plan)


class ServiceSpans:
    """The service as the app sees it, with a ``submit`` span per request."""

    def __init__(self, service: Any, recorder: Recorder) -> None:
        self._service = service
        self._recorder = recorder

    async def submit(self, request: Any, **options: Any) -> Any:
        if not self._recorder.enabled:
            return await self._service.submit(request, **options)
        started = time.perf_counter()
        try:
            return await self._service.submit(request, **options)
        finally:
            self._recorder.submit.append(
                (REQUEST_ID.get(), started, time.perf_counter())
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service, name)


class EngineSpans:
    """The engine as the service sees it, with one span per window."""

    def __init__(self, engine: Any, recorder: Recorder) -> None:
        self._engine = engine
        self._recorder = recorder

    def search_many(self, requests: Sequence[Any], **options: Any) -> List[Any]:
        if not self._recorder.enabled:
            return self._engine.search_many(requests, **options)
        started = time.perf_counter()
        results = self._engine.search_many(requests, **options)
        for result in results:
            try:
                result.matches
            except Exception:  # noqa: BLE001 — the service re-raises it per request
                pass
        self._recorder.engine.append(
            (
                started,
                time.perf_counter(),
                [(request.pattern, request.tau, request.top_k) for request in requests],
            )
        )
        return results

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)


class IndexSpans:
    """A core index with a ``kernel`` span around every query."""

    def __init__(self, index: Any, recorder: Recorder) -> None:
        self._index = index
        self._recorder = recorder

    def query(self, pattern: str, tau: float) -> List[Any]:
        if not self._recorder.enabled:
            return self._index.query(pattern, tau)
        started = time.perf_counter()
        matches = self._index.query(pattern, tau)
        self._recorder.kernel.append((started, time.perf_counter(), len(matches)))
        return matches

    def top_k(self, pattern: str, k: int, *, tau: Optional[float] = None) -> List[Any]:
        if not self._recorder.enabled:
            return self._index.top_k(pattern, k, tau=tau)
        started = time.perf_counter()
        matches = self._index.top_k(pattern, k, tau=tau)
        self._recorder.kernel.append((started, time.perf_counter(), len(matches)))
        return matches

    def __getattr__(self, name: str) -> Any:
        return getattr(self._index, name)


@dataclass
class Window:
    """One ``engine`` span with the kernel time attributed to it."""

    start: float
    end: float
    keys: List[RequestKey]
    kernel_s: float = 0.0


def replay_shards(engine: ShardedEngine, windows: List[Window]) -> List[Tuple[float, int]]:
    """Time each window's requests on the in-parent shard indexes.

    Worker ``w`` of the fan-out runs every shard ``s`` with
    ``s % workers == w`` in turn, and the fan-out waits for every worker.
    So a request's kernel time is its busiest worker's total, and so is a
    window's.  Returns one ``(seconds, matches)`` per replayed request:
    that time and the matches over all shards.
    """
    shards = [shard.index for shard in engine.shards]
    workers = engine.describe()["sharding"]["max_workers"]
    overlap = engine.spec.overlap if engine.spec.mode == "chunks" else 0
    calls: List[Tuple[float, int]] = []
    for window in windows:
        per_worker = [0.0] * workers
        for pattern, tau, top_k in window.keys:
            busy = [0.0] * workers
            matches = 0
            for ordinal, index in enumerate(shards):
                started = time.perf_counter()
                if top_k is not None:
                    found = index.top_k(pattern, top_k + overlap, tau=tau)
                else:
                    found = index.query(pattern, resolve_tau(tau, float(index.tau_min)))
                busy[ordinal % workers] += time.perf_counter() - started
                matches += len(found)
            calls.append((max(busy), matches))
            per_worker = [total + more for total, more in zip(per_worker, busy)]
        window.kernel_s = max(per_worker)
    return calls


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (nearest rank on the sorted sample); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class Breakdown:
    """Per-layer metrics of a traced run, and its span records."""

    metrics: Dict[str, float]
    spans: List[Dict[str, Any]]


def analyse(
    recorder: Recorder,
    outcomes: Sequence[Any],
    engine: Any,
) -> Breakdown:
    """Self time per layer, per request, from the recorded spans.

    Per request: ``http`` self is the root span minus ``submit``; the
    service's self time is ``submit`` minus its window's ``engine`` span;
    the engine's self time is that span minus the kernel time attributed
    to the window; the kernel time is the window's kernel spans (or the
    busiest worker's replay).  What lies outside the root span (the load
    generator starting a request late, and recording the answer) belongs
    to no layer.

    The breakdown is taken over the requests whose latency lies between
    the 45th and 55th percentiles: each layer's mean self time there, plus
    an explicit unattributed remainder, sums to the median latency.
    """
    windows = sorted(
        (Window(start, end, keys) for start, end, keys in recorder.engine),
        key=lambda window: window.start,
    )
    starts = [window.start for window in windows]
    sharded = isinstance(engine, ShardedEngine)
    if sharded:
        kernel_calls = replay_shards(engine, windows)
    else:
        kernel_calls = [(end - start, matches) for start, end, matches in recorder.kernel]
        for start, end, _ in recorder.kernel:
            slot = bisect.bisect_right(starts, start) - 1
            if slot >= 0 and start <= windows[slot].end:
                windows[slot].kernel_s += end - start
    # Windows never overlap, so ordered by start they are ordered by end.
    end_times = [window.end for window in windows]
    submits = {rid: (start, end) for rid, start, end in recorder.submit}

    spans: List[Dict[str, Any]] = []
    rows: List[Dict[str, float]] = []
    window_rids: Dict[int, List[int]] = {}
    window_parent: Dict[int, int] = {}
    for outcome in outcomes:
        rid = outcome.rid
        root_id = len(spans)
        spans.append(_span(root_id, "http", outcome.start, outcome.end, None, rid))
        submit = submits.get(rid)
        if submit is None:
            continue
        submit_id = len(spans)
        spans.append(_span(submit_id, "submit", submit[0], submit[1], root_id, rid))
        slot = bisect.bisect_right(end_times, submit[1]) - 1
        if slot < 0 or windows[slot].start < submit[0]:
            continue
        window = windows[slot]
        window_rids.setdefault(slot, []).append(rid)
        window_parent.setdefault(slot, submit_id)
        engine_s = window.end - window.start
        rows.append(
            {
                "latency": outcome.end - outcome.due,
                "late": outcome.start - outcome.due,
                "http": (outcome.end - outcome.start) - (submit[1] - submit[0]),
                "service": (submit[1] - submit[0]) - engine_s,
                "wait": window.start - submit[0],
                "engine": engine_s - window.kernel_s,
                "kernel": window.kernel_s,
            }
        )
    window_ids = {}
    for slot, window in enumerate(windows):
        window_ids[slot] = len(spans)
        span = _span(len(spans), "engine", window.start, window.end,
                     window_parent.get(slot), window_rids.get(slot, []))
        # The kernel time charged to the window: its kernel spans, or the
        # busiest worker's replay for a process-served engine.
        span["kernel_s"] = window.kernel_s
        spans.append(span)
    for start, end, _ in recorder.kernel:
        slot = bisect.bisect_right(starts, start) - 1
        spans.append(_span(len(spans), "kernel", start, end, window_ids.get(slot),
                           window_rids.get(slot, [])))

    ms = 1000.0
    latencies = [row["latency"] for row in rows]
    p50 = quantile(latencies, 0.5)
    low, high = quantile(latencies, 0.45), quantile(latencies, 0.55)
    band = [row for row in rows if low <= row["latency"] <= high] or rows
    layers = ("http", "service", "engine", "kernel")
    means = {layer: statistics.fmean(row[layer] for row in band) for layer in layers} if band else {
        layer: 0.0 for layer in layers
    }
    window_times = [window.end - window.start for window in windows]
    kernel_seconds = [seconds for seconds, _ in kernel_calls]
    occurrences = [matches for _, matches in kernel_calls]
    metrics = {
        "trace.latency_p50_ms": p50 * ms,
        "breakdown.http_ms": means["http"] * ms,
        "breakdown.service_ms": means["service"] * ms,
        "breakdown.engine_ms": means["engine"] * ms,
        "breakdown.kernel_ms": means["kernel"] * ms,
        "breakdown.unattributed_ms": (p50 - sum(means.values())) * ms,
        "driver.late_p99_ms": quantile([row["late"] for row in rows], 0.99) * ms,
        "http.self_ms_p50": quantile([row["http"] for row in rows], 0.5) * ms,
        "service.wait_ms_p50": quantile([row["wait"] for row in rows], 0.5) * ms,
        "service.wait_ms_p99": quantile([row["wait"] for row in rows], 0.99) * ms,
        "engine.busy_ms_p50": quantile(window_times, 0.5) * ms,
        "engine.evaluations_per_request": len(kernel_calls) / max(1, len(rows)),
        "kernel.busy_ms_p50": quantile(kernel_seconds, 0.5) * ms,
        "kernel.busy_ms_p99": quantile(kernel_seconds, 0.99) * ms,
        "kernel.occurrences_mean": statistics.fmean(occurrences) if occurrences else 0.0,
        "kernel.us_per_occurrence": sum(kernel_seconds) * 1e6 / max(1, sum(occurrences)),
    }
    # An engine that does not fan out spends no time fanning out.
    metrics["sharding.fanout_ms_p50"] = (
        quantile([w.end - w.start - w.kernel_s for w in windows], 0.5) * ms if sharded else 0.0
    )
    return Breakdown(metrics, spans)


def _span(
    span_id: int, name: str, start: float, end: float, parent: Optional[int], rid: Any
) -> Dict[str, Any]:
    return {
        "id": span_id,
        "name": name,
        "start": start,
        "end": end,
        "parent": parent,
        "request_id": rid,
    }


def write_spans(path: Path, spans: Sequence[Dict[str, Any]]) -> None:
    """One JSON object per line, in recording order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
