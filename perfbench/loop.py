"""Open-loop and closed-loop load over the in-process HTTP app.

Requests go through ``SearchHttpApp.dispatch`` plus ``HttpResponse.encode``
(the bytes the socket transport would write), with no sockets: one client
process with a couple of HTTP/1.1 connections could keep only that many
requests in flight, which would starve the service's micro-batch window.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from spans import REQUEST_ID
from workloads import Query


@dataclass
class Outcome:
    """One answered request; ``payload`` is kept only for sampled requests."""

    rid: int
    query: Query
    due: float
    start: float
    end: float
    status: int
    nbytes: int
    payload: Optional[Dict[str, Any]] = None


class Driver:
    """The load generator: sends requests to one app, numbering them run-wide."""

    def __init__(self, app: Any) -> None:
        self.app = app
        self.next_rid = 0
        self.keep: Set[int] = set()

    async def issue(self, rid: int, query: Query, due: float) -> Outcome:
        start = time.perf_counter()
        REQUEST_ID.set(rid)
        response = await self.app.dispatch("GET", query.target)
        body = response.encode()
        end = time.perf_counter()
        payload = dict(response.payload) if rid in self.keep else None
        return Outcome(rid, query, due, start, end, response.status, len(body), payload)

    def reserve(self, count: int) -> int:
        first = self.next_rid
        self.next_rid += count
        return first


async def open_loop(
    driver: Driver, queries: List[Query], gaps: List[float]
) -> List[Outcome]:
    """Send ``queries[i]`` at its Poisson due time, whatever is in flight.

    Each request is timed from its due time, so a stall of the loop (or of
    the generator) is charged to every request it delays.
    """
    first = driver.reserve(len(queries))
    tasks: List["asyncio.Task[Outcome]"] = []
    due = time.perf_counter() + 0.005
    for offset, (query, gap) in enumerate(zip(queries, gaps)):
        due += gap
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(driver.issue(first + offset, query, due)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    driver: Driver, next_query: Callable[[], Query], clients: int, seconds: float
) -> List[Outcome]:
    """``clients`` callers, each sending its next request on an answer."""
    outcomes: List[Outcome] = []
    stop_at = time.perf_counter() + seconds

    async def client() -> None:
        while time.perf_counter() < stop_at:
            rid = driver.reserve(1)
            outcomes.append(await driver.issue(rid, next_query(), time.perf_counter()))

    await asyncio.gather(*(client() for _ in range(clients)))
    return outcomes


def poisson_gaps(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Exponential inter-arrival gaps filling ``seconds`` at ``rate``/s."""
    gaps: List[float] = []
    total = 0.0
    while True:
        gap = rng.expovariate(rate)
        if total + gap > seconds:
            return gaps
        total += gap
        gaps.append(gap)
