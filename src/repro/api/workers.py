"""Shard query workers: the process side of ``query_executor="process"``.

The thread-pool fan-out of :class:`~repro.api.sharding.ShardedEngine` is
GIL-serialized for the pure-Python portions of the query path; true
parallel speedup needs shard workers in separate *processes*.  This module
is everything that runs inside those workers — it is module-level (not
closures or methods) because :class:`concurrent.futures.ProcessPoolExecutor`
must pickle the callables it ships.

Design:

* **Workers sized independently of shard count.**  A worker process owns
  one or more shards (``ShardedEngine(max_workers=W)`` with ``W`` smaller
  than the shard count assigns shard ``s`` to worker ``s % W``), each
  initialized exactly once (:func:`initialize_worker`) and then answering
  any number of queries — no per-query index transfer, no per-query
  process spawn.
* **Payloads, not pickles.**  A shard loaded from disk ships only its
  archive *path* (plus the mmap flag): the worker re-opens the archive
  itself, and with ``mmap=True`` every worker's view of the shard shares
  one set of physical pages through the OS page cache.  A shard built in
  memory ships a shared-memory block *name* plus an array layout (see
  :mod:`repro.api.shm`): the parent exports the shard's
  :class:`~repro.payload.IndexPayload` into one
  :mod:`multiprocessing.shared_memory` block, the worker attaches and
  rebuilds the index from zero-copy read-only views — the pickled spec is
  O(array count), not O(index bytes), and every worker shares one
  physical copy.  No live index object (with its embedded locks and
  caches) ever crosses the process boundary.
* **One message per worker per window.**  The parent sends each worker
  one ``(shards, queries, trace_ids)`` message carrying every request of a
  service window for every shard that worker owns (:func:`query_worker`),
  and reads back one reply: the IPC round trip is paid once per window,
  not once per shard per request.
* **Array answers.**  Each (shard, request) answer crosses back as a
  ``(MatchArrays, eval_ms)`` reply — the index's own answer (two ndarrays,
  pickled through :meth:`~repro.core.base.MatchArrays.__reduce__`, so they
  arrive read-only and bit-identical) plus the worker's evaluation
  wall-clock — the same reply shape a thread-mode shard gives, so the
  parent merges arrays without ever building a record, and attaches
  ``eval_ms`` to the request's ``shard`` trace span when the request is
  traced.  A request-blaming error
  (:class:`~repro.exceptions.ValidationError`,
  :class:`~repro.exceptions.QueryError`) comes back in that request's
  place, so a bad request fails only itself; any other error fails the
  whole message.
* **Tracing stays plain data.**  A traced request crosses the boundary
  as its ``trace_id`` string inside the message — never the live
  :class:`~repro.obs.trace.Trace` object (which holds a lock); the
  worker-boundary lint rule keeps this honest.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import os
import stat
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.base import MatchArrays, evaluate_request
from ..exceptions import QueryError, ValidationError, WorkerError

#: Per-shard initialization spec: ``("archive", path, mmap)`` for shards
#: that live on disk, ``("shm", block_name, manifest_span, layout)`` for
#: in-memory shards exported through :mod:`repro.api.shm`.
WorkerSpec = Union[
    Tuple[str, str, bool],
    Tuple[str, str, Tuple[int, int], Dict[str, Any]],
]

#: One request as a window message carries it: ``(pattern, tau, top_k)``.
ShardQuery = Tuple[str, Optional[float], Optional[int]]

#: One (shard, request) answer: ``(answer, eval_ms)``, or the
#: request-blaming error the shard raised for that request.  Thread-mode
#: shards reply in the same shape.
ShardReply = Union[Tuple[MatchArrays, float], Exception]

#: The shard indexes owned by *this* worker process, keyed by shard
#: ordinal (set by the pool initializer; empty in the parent and in
#: uninitialized workers).
_WORKER_INDEXES: Dict[int, Any] = {}

#: Shared-memory handles this worker has attached (one per ``shm`` spec).
#: Retained for the process lifetime: the shard indexes hold zero-copy
#: views into the mapped buffers, so the handles must outlive them.
_WORKER_SHM: list = []


def _close_worker_shm() -> None:
    """Interpreter-exit hook: drop index views, then close the mappings.

    The ndarray views exported from ``shm.buf`` must be garbage first or
    ``close()`` raises ``BufferError`` — clear the index table, collect,
    then close each handle (suppressing the error for any view a query
    result still pins; process exit unmaps regardless).
    """
    _WORKER_INDEXES.clear()
    gc.collect()
    while _WORKER_SHM:
        block = _WORKER_SHM.pop()
        with contextlib.suppress(BufferError, OSError):
            block.close()


def _materialize(spec: WorkerSpec) -> Any:
    """Build one shard index from its initialization spec."""
    if spec[0] == "archive":
        from .persistence import load_index_payload

        _, path, mmap = spec
        index, _ = load_index_payload(path, mmap=mmap)
        return index
    if spec[0] == "shm":
        from .persistence import index_from_payload
        from .shm import attach_payload

        _, name, manifest_span, layout = spec
        block, payload = attach_payload(name, manifest_span, layout)
        _WORKER_SHM.append(block)
        return index_from_payload(payload)
    raise ValidationError(f"unknown worker spec {spec[0]!r}")


def close_sockets_worker() -> None:
    """Drop socket fds the fork copied from the parent process.

    The first step of :func:`initialize_worker`, the only pool
    initializer.  Query pools start lazily — often mid-traffic, and again
    whenever a crashed pool is rebuilt — so on fork-start platforms a new
    worker inherits a duplicate of every socket the serving parent had
    open: the HTTP listener, accepted connections, the event loop's
    self-pipe pair.  The worker never uses them, but each duplicate keeps
    its TCP session established after the parent closes its own copy — a
    peer reading to EOF then waits forever, and ``Connection: close``
    responses never finish closing.  Workers talk to the parent exclusively
    over pipes (``multiprocessing`` queues), so every inherited *socket*
    past stdio is a leak: close them all before touching shard state.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # no procfs (macOS, ...): bounded scan
        fds = list(range(3, 4096))
    for fd in fds:
        if fd <= 2:  # stdio stays, socket or not — it may be the harness pipe
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # already closed, or the listdir handle raced away
            continue


def initialize_worker(specs: Dict[int, WorkerSpec]) -> None:
    """Process-pool initializer: materialize every shard this worker owns."""
    global _WORKER_INDEXES
    close_sockets_worker()
    _WORKER_INDEXES.clear()
    _WORKER_INDEXES.update(
        {shard: _materialize(spec) for shard, spec in specs.items()}
    )
    if _WORKER_SHM:
        # Last-registered runs first, so the views die before the handles.
        atexit.register(_close_worker_shm)


def query_worker(
    arguments: Tuple[Sequence[int], Sequence[ShardQuery], Sequence[Optional[str]]],
) -> List[List[ShardReply]]:
    """Answer one window message: every query on every listed shard.

    ``arguments`` is ``(shards, queries, trace_ids)``: the shard ordinals
    this worker owns that the window needs, the window's
    ``(pattern, tau, top_k)`` queries, and one ``trace_id`` per query
    (``None`` when untraced) — plain payload data for error context, never
    a live trace object.  Returns one reply list per shard, in ``shards``
    order, holding one :data:`ShardReply` per query.

    Each evaluation is :func:`~repro.core.base.evaluate_request`, the one
    the engine and thread-mode shards run — ``top_k`` routes to the
    index's heap extraction, plain requests resolve ``tau=None`` through
    the shard's own ``tau_min`` — so a process-mode sharded engine answers
    byte-identically to thread mode.  A request-blaming error (e.g.
    a ``ThresholdError`` for a ``tau`` below ``tau_min``) is returned in the
    query's place; anything else (a shard this worker does not own, a
    kernel bug) raises and fails the whole message.  Each answer carries
    the worker's evaluation wall-clock ``eval_ms``, which the parent
    attaches to the request's ``shard`` span.
    """
    shards, queries, trace_ids = arguments
    replies: List[List[ShardReply]] = []
    for shard in shards:
        index = _WORKER_INDEXES.get(shard)
        if index is None:
            traced = [trace_id for trace_id in trace_ids if trace_id]
            suffix = f" (traces {', '.join(traced)})" if traced else ""
            raise WorkerError(
                f"shard worker asked for shard {shard} it does not own "
                f"(owned: {sorted(_WORKER_INDEXES)}){suffix}"
            )
        answers: List[ShardReply] = []
        for pattern, tau, top_k in queries:
            start = time.perf_counter()
            try:
                answer = evaluate_request(index, pattern, tau, top_k)
            except (ValidationError, QueryError) as error:
                answers.append(error)
                continue
            answers.append((answer, (time.perf_counter() - start) * 1000.0))
        replies.append(answers)
    return replies
