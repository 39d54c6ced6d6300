"""Request-scoped tracing: span records, span trees, slow-query log.

A :class:`Trace` is minted per request at the HTTP boundary (or adopted
from a caller-supplied ``X-Repro-Trace-Id`` header) and rides on
``SearchRequest.trace`` — excluded from equality/hashing so dedupe
buckets, cache keys, and batch refinement are byte-identical with
tracing on.  Every layer that touches the request appends flat,
thread-safe span *records* ``(name, duration_ms, parent, meta)``;
nothing blocks on tree structure at record time.  The tree is assembled
in :meth:`Trace.to_dict` in two passes (create nodes, then link each to
the first record named by its ``parent``), so a child recorded from an
executor thread *before* its parent's duration is known still lands in
the right place.

Span glossary (names are stable API, see README "Observability"):

``request``        root; total HTTP dispatch time
``validate``       request parsing + validation (HTTP layer)
``service``        submit-to-answer inside :class:`AsyncSearchService`
``window_wait``    enqueue to batch-window dispatch (child of service)
``evaluate``       engine evaluation of the window (child of service;
                   meta: window ordinal, bucket size, deduplication)
``plan``           pattern checks / request normalization (child of evaluate)
``cache``          result-cache consultation (child of evaluate; meta hit)
``kernel``         index evaluation proper (child of cache; meta kind)
``fan_out``        sharded fan-out of the request's window (child of
                   evaluate; the same duration on every traced request of
                   the window; meta requests = window size)
``shard``          one shard's evaluation of this request (child of
                   fan_out; meta shard, attempt, executor mode; duration
                   is the worker's eval time)
``merge``          one stable sort of the concatenated shard answer
                   arrays, by id or by (-value, id) cut to ``top_k``
                   (child of evaluate; meta matches)
``serialize``      response payload construction (HTTP layer)

Records adopted from a dedupe twin's primary carry
``dedupe_shared=True`` in their meta.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


def mint_trace_id() -> str:
    """A fresh 32-hex-character trace identifier."""
    return uuid.uuid4().hex


class Trace:
    """Thread-safe flat span-record collector for one request."""

    __slots__ = ("trace_id", "_lock", "_records")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id else mint_trace_id()
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []  # guarded-by: _lock

    def add(
        self,
        name: str,
        duration_ms: float,
        *,
        parent: Optional[str] = None,
        **meta: Any,
    ) -> None:
        """Append one finished span record (out-of-order arrival is fine)."""
        record = {"name": name, "duration_ms": float(duration_ms),
                  "parent": parent, "meta": meta}
        with self._lock:
            self._records.append(record)

    @contextmanager
    def span(
        self, name: str, *, parent: Optional[str] = None, **meta: Any
    ) -> Iterator[Dict[str, Any]]:
        """Time a block and record it; the yielded dict extends the meta."""
        extra: Dict[str, Any] = dict(meta)
        start = time.perf_counter()
        try:
            yield extra
        finally:
            self.add(name, (time.perf_counter() - start) * 1000.0,
                     parent=parent, **extra)

    def count(self, name: str) -> int:
        """How many records carry *name* (e.g. kernel runs = cache misses)."""
        with self._lock:
            return sum(1 for record in self._records if record["name"] == name)

    def size(self) -> int:
        """Total records so far (cheap change detection across a call)."""
        with self._lock:
            return len(self._records)

    def records(self) -> List[Dict[str, Any]]:
        """Copies of all records, oldest first."""
        with self._lock:
            return [dict(record, meta=dict(record["meta"])) for record in self._records]

    def extract(self, root: str) -> List[Dict[str, Any]]:
        """Copies of records whose parent chain (by name) reaches *root*.

        The *root* record itself does not need to exist yet — engine
        spans parented to ``evaluate`` are extractable before the
        service records the ``evaluate`` span.
        """
        records = self.records()
        parents = {record["name"]: record["parent"] for record in records}
        out: List[Dict[str, Any]] = []
        for record in records:
            name: Optional[str] = record["parent"]
            hops = 0
            while name is not None and hops <= len(parents):
                if name == root:
                    out.append(record)
                    break
                name = parents.get(name)
                hops += 1
        return out

    def adopt(self, records: List[Dict[str, Any]], **mark: Any) -> None:
        """Copy foreign records in (dedupe twins), tagging each with *mark*."""
        copies = [dict(record, meta={**record["meta"], **mark}) for record in records]
        with self._lock:
            self._records.extend(copies)

    def to_dict(self, total_ms: Optional[float] = None) -> Dict[str, Any]:
        """Assemble the span tree.

        Two passes: build one node per record, then attach each node to
        the first node named by its ``parent`` (unparented or unmatched
        records become roots).  When ``total_ms`` is given, a synthetic
        ``request`` root wraps everything.
        """
        records = self.records()
        nodes: List[Dict[str, Any]] = []
        first_by_name: Dict[str, Dict[str, Any]] = {}
        for record in records:
            node: Dict[str, Any] = {
                "name": record["name"],
                "duration_ms": record["duration_ms"],
                "children": [],
            }
            if record["meta"]:
                node["meta"] = record["meta"]
            nodes.append(node)
            if record["name"] not in first_by_name:
                first_by_name[record["name"]] = node
        roots: List[Dict[str, Any]] = []
        for record, node in zip(records, nodes):
            parent_node = None
            if record["parent"] is not None:
                parent_node = first_by_name.get(record["parent"])
            if parent_node is None or parent_node is node:
                roots.append(node)
            else:
                parent_node["children"].append(node)
        tree: Dict[str, Any] = {"trace_id": self.trace_id}
        if total_ms is not None:
            tree["spans"] = [{
                "name": "request",
                "duration_ms": float(total_ms),
                "children": roots,
            }]
        else:
            tree["spans"] = roots
        return tree


class SlowQueryLog:
    """Bounded worst-K store of finished span trees.

    ``record()`` keeps the *capacity* slowest traces seen so far (a
    min-heap on total latency, ties broken by arrival order);
    ``dump()`` returns them worst-first for the ``/stats`` payload and
    the load generator's ``--slow-log`` report.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("slow-query log capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._heap: List[Tuple[float, int, Dict[str, Any]]] = []  # guarded-by: _lock

    def record(self, total_ms: float, trace_tree: Dict[str, Any]) -> None:
        entry = (float(total_ms), next(self._seq), trace_tree)
        with self._lock:
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
            elif entry[0] > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)

    def dump(self) -> List[Dict[str, Any]]:
        """Worst-first ``{"total_ms", "trace"}`` rows."""
        with self._lock:
            entries = sorted(self._heap, key=lambda row: (-row[0], row[1]))
        return [{"total_ms": total, "trace": tree} for total, _, tree in entries]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
