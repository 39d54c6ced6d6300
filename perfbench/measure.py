"""One benchmark run of one workload, inside a fresh interpreter.

Steps: generate the seeded input; set up the serving stack and answer a
first query; warm up (discarded); then ``ROUNDS`` rounds of an open-loop
segment at the workload's fixed Poisson rate (latency) followed by a
closed-loop segment of a few in-process clients (capacity).  Then the
stack is torn down and set up again ``SETUP_REPEATS - 1`` times, for
timing only (``setup_s`` is the median of all set-ups); leaks are read
from the OS, and a seeded sample of the answers is checked against the
oracle.

The served set-up is the first one, so the peak RSS of a run does not
depend on how the allocator kept or returned the memory of earlier ones.

A traced run (``--trace 1``) serves each open segment's first half from
the plain stack and its second half from a second stack over the same
engine whose layers take spans; the difference of their medians is the
tracing overhead, wrappers included.

The runner is a 2-vCPU virtual machine whose host steals CPU in bursts
and changes speed by up to three times within minutes.  The gated times
are therefore CPU seconds (this process and every child it started),
scaled by the CPU time of a fixed reference task sampled before each
set-up and each segment (``reference.py``): ``setup_s`` is the median
set-up's, ``cpu_ms_per_request`` the closed loop's per answered request.
Wall-clock latency and throughput are recorded beside them, ungated:
latency is a median over the open segments and throughput a median over
short slices of the closed ones, so a burst that hits a few of them
moves neither.  The rounds run on one CPU: every thread of this process
and of its worker children is pinned to the same one, so handing a
request from the event loop to an executor thread or a worker process is
a context switch, not a wake-up of the other vCPU, which a busy host
delays.  Set-ups run on every CPU, since the sharded build uses two
processes.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Dict, List, Set, Tuple

import checks
import reference
from repro import load_index
from loop import Driver, Outcome, closed_loop, open_loop, poisson_gaps
from spans import Recorder, analyse, quantile, write_spans
from workloads import WORKLOADS, load_config

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Open/closed rounds per run, and the open loop's share of each round.
ROUNDS = 6
OPEN_SHARE = 0.6

#: Closed-loop clients, and the closed-loop warm-up that is discarded.
CLIENTS = 8
WARMUP_S = 1.0

#: Time slices per open and per closed segment.  An open segment is one
#: slice, so that at 60 req/s its p90 still has over ten samples beyond it.
OPEN_SLICES = 1
CLOSED_SLICES = 4

#: Answers checked against the oracle per open and per closed segment
#: (plus every set-up's first answer).
CHECKED_OPEN = 2
CHECKED_CLOSED = 1


@dataclass
class Segment:
    """One measured stretch of load and the layer counters it moved."""

    kind: str
    outcomes: List[Outcome]
    counters: Dict[str, float]
    slices: List[List[Outcome]]
    cpu_s: float


def _counters(service_object: Any) -> Dict[str, float]:
    """Layer counters from the public stats views (segments keep deltas)."""
    service = service_object.stats()
    engine = service_object.engine
    cache = engine.cache.stats()
    resilience = getattr(engine, "resilience_stats", None)
    return {
        "submitted": service["submitted"],
        "rejected": service["rejected"],
        "deduplicated": service["deduplicated"],
        "batches": service["batches"],
        "batched": round(service["mean_batch_size"] * service["batches"]),
        "hits": cache["hits"],
        "misses": cache["misses"],
        "evictions": cache["evictions"],
        "recoveries": resilience()["pool_recoveries"] if callable(resilience) else 0,
    }


def _cut(
    outcomes: List[Outcome], at: Callable[[Outcome], float], start: float,
    length: float, count: int,
) -> List[List[Outcome]]:
    """``outcomes`` bucketed by ``at`` into ``count`` slices of ``[start, start+length)``."""
    buckets: List[List[Outcome]] = [[] for _ in range(count)]
    for outcome in outcomes:
        slot = int((at(outcome) - start) / length * count)
        if 0 <= slot < count:
            buckets[slot].append(outcome)
    return buckets


def _sum(segments: List[Segment]) -> Dict[str, float]:
    return {
        name: sum(segment.counters[name] for segment in segments)
        for name in segments[0].counters
    }


def _latencies(outcomes: List[Outcome]) -> List[float]:
    return [outcome.end - outcome.due for outcome in outcomes]


def _slice_values(segments: List[Segment], q: float) -> List[float]:
    """Each of the segments' slices' ``q`` latency quantile, in ms."""
    return [
        quantile(_latencies(piece), q) * 1000.0
        for segment in segments for piece in segment.slices if piece
    ]


def _cpu_s() -> float:
    """CPU seconds used so far by this process and every child it started.

    Children already reaped (the build workers) count through
    ``RUSAGE_CHILDREN``, live ones (the query worker) through ``/proc``.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(checks.cpu_s(child) for child in checks.child_pids(os.getpid()))
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + live


async def _setup(workload: Any, attempt: int) -> Tuple[Any, Any]:
    """``workload.setup(attempt)``, adding its CPU seconds to its timings."""
    before = _cpu_s()
    served, response = await workload.setup(attempt)
    served.timings["cpu_s"] = _cpu_s() - before
    return served, response


def _pin(cpus: Set[int]) -> None:
    """Set the CPU affinity of every thread of this process and its children.

    Threads and processes started later inherit it from their creator.
    """
    for pid in [os.getpid(), *checks.child_pids(os.getpid())]:
        try:
            tids = [int(task.name) for task in Path(f"/proc/{pid}/task").iterdir()]
        except FileNotFoundError:  # the process has ended
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(tid, cpus)
            except ProcessLookupError:  # the thread has ended
                pass


def _persistence_probe(engine: Any, directory: Path) -> Dict[str, float]:
    """Save the served engine and load it back memory-mapped, timing both."""
    directory.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    path = engine.save(directory / "index")
    saved = time.perf_counter()
    loaded = load_index(path, mmap=True)
    finished = time.perf_counter()
    close = getattr(loaded, "close", None)
    if callable(close):
        close()
    files = [path] if path.is_file() else [f for f in path.rglob("*") if f.is_file()]
    size = sum(f.stat().st_size for f in files)
    shutil.rmtree(directory, ignore_errors=True)
    return {
        "persistence.save_s": saved - started,
        "persistence.load_s": finished - saved,
        "persistence.archive_bytes": float(size),
    }


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests (``/proc/stat`` steal)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus what its worker children hold now.

    A forked worker's own RSS counts every page it shares with its parent
    (copy-on-write heap, the shared-memory index), so the children add
    their proportional share (PSS) instead of their RSS.
    """
    pid = os.getpid()
    total = checks.status_kb(pid, "VmHWM")
    total += sum(checks.pss_kb(child) for child in checks.child_pids(pid))
    return total / 1024.0


async def run(name: str, seed: int, seconds: float, traced: bool, out: Path) -> Dict[str, Any]:
    config = load_config()[name]
    workload = WORKLOADS[name](seed, out / "work" / f"{name}-{os.getpid()}")
    # The resource tracker is a helper process multiprocessing keeps for
    # the interpreter's lifetime; start it before the leak baseline.
    resource_tracker.ensure_running()
    baseline = checks.snapshot()
    recorder = Recorder() if traced else None

    refs = reference.samples_ms()
    served, response = await _setup(workload, 0)
    setups: List[Dict[str, float]] = [served.timings]
    probes: List[Tuple[Any, Dict[str, Any]]] = [(workload.first_query, dict(response.payload))]
    stacks = [(served.app, served.service)]
    if recorder is not None:
        await served.add_traced(recorder)
        stacks.append((served.traced_app, served.traced_service))

    # The benchmark holds the generated input (for the oracle) and the
    # set-up's leftovers, which a server would not; freezing them keeps
    # full collections from re-scanning that heap while serving.
    gc.collect()
    gc.freeze()
    cpus = os.sched_getaffinity(0)
    _pin({max(cpus)})
    traffic = random.Random(seed * 7919 + 1)
    driver = Driver(served.app)
    for app, _ in stacks:
        driver.app = app
        await closed_loop(driver, workload.next_query, CLIENTS, WARMUP_S)

    open_s = seconds * OPEN_SHARE / ROUNDS
    closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS
    open_kinds = [("open", stacks[0], open_s / 2), ("open-traced", stacks[1], open_s / 2)] \
        if traced else [("open", stacks[0], open_s)]
    segments: List[Segment] = []
    steal_before = _steal_s()
    for _ in range(ROUNDS):
        for kind, (app, service), duration in open_kinds:
            gaps = poisson_gaps(traffic, config["rate_rps"], duration)
            queries = [workload.next_query() for _ in gaps]
            first = driver.next_rid
            driver.keep.update(
                first + offset
                for offset in traffic.sample(range(len(queries)), min(CHECKED_OPEN, len(queries)))
            )
            driver.app = app
            refs.extend(reference.samples_ms())
            before = _counters(service)
            if recorder is not None:
                recorder.enabled = kind == "open-traced"
            cpu = _cpu_s()
            started = time.perf_counter()
            outcomes = await open_loop(driver, queries, gaps)
            cpu = _cpu_s() - cpu
            if recorder is not None:
                recorder.enabled = False
            counters = {k: v - before[k] for k, v in _counters(service).items()}
            slices = _cut(outcomes, lambda o: o.due, started, duration + 0.01, OPEN_SLICES)
            segments.append(Segment(kind, outcomes, counters, slices, cpu))
        first = driver.next_rid
        driver.keep.update(first + offset for offset in traffic.sample(range(16), CHECKED_CLOSED))
        app, service = stacks[0]
        driver.app = app
        refs.extend(reference.samples_ms())
        before = _counters(service)
        cpu = _cpu_s()
        started = time.perf_counter()
        outcomes = await closed_loop(driver, workload.next_query, CLIENTS, closed_s)
        cpu = _cpu_s() - cpu
        counters = {k: v - before[k] for k, v in _counters(service).items()}
        slices = _cut(outcomes, lambda o: o.end, started, closed_s, CLOSED_SLICES)
        segments.append(Segment("closed", outcomes, counters, slices, cpu))
    steal = _steal_s() - steal_before

    peak_rss_mb = _peak_rss_mb()
    engine = served.engine
    index_bytes = engine.nbytes()
    probe = _persistence_probe(engine, workload.workdir / "probe") if traced else {}
    opened = [segment for segment in segments if segment.kind == "open"]
    closed = [segment for segment in segments if segment.kind == "closed"]
    spanned_outcomes = [
        outcome for segment in segments if segment.kind == "open-traced"
        for outcome in segment.outcomes
    ]
    breakdown = analyse(recorder, spanned_outcomes, engine) if recorder is not None else None
    await served.close()
    del served, engine, driver, stacks, open_kinds, app, service
    gc.unfreeze()
    gc.collect()
    _pin(cpus)

    # The remaining set-ups are timed only; each is torn down at once.
    for attempt in range(1, SETUP_REPEATS):
        refs.extend(reference.samples_ms())
        again, response = await _setup(workload, attempt)
        setups.append(again.timings)
        probes.append((workload.first_query, dict(response.payload)))
        await again.close()
        del again
        gc.collect()
    shutil.rmtree(workload.workdir, ignore_errors=True)
    leaks = checks.leaks(baseline)

    oracle = workload.oracle()
    listing = name == "listing-hot"
    measured = [outcome for segment in segments for outcome in segment.outcomes]
    sampled = probes + [
        (outcome.query, outcome.payload)
        for outcome in measured
        if outcome.payload is not None and outcome.status == 200
    ]
    wrong: List[str] = []
    for query, payload in sampled:
        reason = checks.check_answer(oracle, listing, query, payload)
        if reason is not None:
            wrong.append(f"{query.target}: {reason}")

    non_2xx = sum(1 for outcome in measured if not 200 <= outcome.status < 300)
    attempted = len(measured)
    failed = non_2xx + len(wrong)
    untraced = [outcome for segment in opened for outcome in segment.outcomes]
    report: Dict[str, Any] = {
        "requests": {
            kind: sum(len(s.outcomes) for s in segments if s.kind == kind)
            for kind in ("open", "open-traced", "closed")
        },
        "checked": len(sampled),
        "wrong": wrong,
        "leaks": leaks,
        "non_2xx": non_2xx,
        "steal_s": steal,
        "setup": {key: statistics.median(s[key] for s in setups) for key in setups[0]},
    }
    if not traced:
        # The host's speed changes by up to three times between spells,
        # for wall-clock and CPU time alike, so the gated times are CPU
        # seconds scaled by the reference task's CPU time in this run.
        reference_ms = statistics.median(refs)
        scale = reference.NOMINAL_MS / reference_ms
        setup_cpu_s = statistics.median(s["cpu_s"] for s in setups)
        answered = sum(1 for s in closed for o in s.outcomes if 200 <= o.status < 300)
        cpu_ms_per_request = 1000.0 * sum(s.cpu_s for s in closed) / max(1, answered)
        report["slices"] = {
            "latency_p50_ms": _slice_values(opened, 0.5),
            "latency_p90_ms": _slice_values(opened, 0.9),
            "throughput_rps": [
                sum(1 for o in piece if 200 <= o.status < 300) * CLOSED_SLICES / closed_s
                for segment in closed for piece in segment.slices
            ],
        }
        slices = report["slices"]
        report["ungated"] = {
            "latency_p50_ms": (statistics.median(slices["latency_p50_ms"]), "ms"),
            "latency_p90_ms": (statistics.median(slices["latency_p90_ms"]), "ms"),
            "throughput_rps": (statistics.median(slices["throughput_rps"]), "req/s"),
            "latency_p99_ms_pooled": (quantile(_latencies(untraced), 0.99) * 1000.0, "ms"),
            "setup_wall_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "setup_cpu_s": (setup_cpu_s, "s"),
            "cpu_ms_per_request_unscaled": (cpu_ms_per_request, "ms"),
            "reference_ms": (reference_ms, "ms"),
        }
        metrics = {
            "setup_s": setup_cpu_s * scale,
            "cpu_ms_per_request": cpu_ms_per_request * scale,
            "success_rate": (attempted - failed) / attempted,
            "index_bytes": float(index_bytes),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        assert breakdown is not None
        write_spans(out / "spans" / f"{name}-seed{seed}.jsonl", breakdown.spans)
        total = _sum(segments)
        capacity = _sum(closed)
        lookups = total["hits"] + total["misses"]
        metrics = dict(breakdown.metrics)
        metrics.update(
            {
                "sharding.pool_recoveries": total["recoveries"],
                "http.response_bytes_mean": statistics.fmean(o.nbytes for o in spanned_outcomes),
                "service.batch_size_mean": capacity["batched"] / max(1, capacity["batches"]),
                "service.dedupe_ratio": capacity["deduplicated"] / max(1, capacity["submitted"]),
                "service.rejected": total["rejected"],
                "cache.hit_ratio": total["hits"] / max(1, lookups),
                "cache.evictions": total["evictions"],
                "setup.build_s": statistics.median(s["build_s"] for s in setups),
                "setup.first_answer_s": statistics.median(s["first_answer_s"] for s in setups),
                **probe,
                "trace.overhead_p50_ms": metrics["trace.latency_p50_ms"]
                - quantile(_latencies(untraced), 0.5) * 1000.0,
            }
        )
    return {
        "correct": not wrong and not leaks,
        "attempted": attempted,
        "failed": failed,
        "values": metrics,
        "report": report,
    }
