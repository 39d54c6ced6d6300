"""The three benchmark workloads: seeded inputs, set-up and request streams.

Every input is a pure function of the workload seed.  The served program
only ever sees the generated inputs and the HTTP requests built here.
Each workload's open-loop rate lives in ``workloads.json`` next to this
file; every other knob keeps the library default (service window 2 ms,
result cache of 1024 entries).
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

import numpy as np

from repro import (
    AsyncSearchService,
    BruteForceOracle,
    SpecialUncertainString,
    build_index,
    build_sharded_index,
    load_index,
)
from repro.datasets.queries import extract_collection_patterns
from repro.datasets.synthetic import generate_collection, generate_uncertain_string
from repro.serving.http import SearchHttpApp
from repro.strings.alphabet import PROTEIN_SYMBOLS

CONFIG_PATH = Path(__file__).with_name("workloads.json")


def load_config() -> Dict[str, Dict[str, Any]]:
    """Per workload: the open-loop rate and the layer predictions."""
    with CONFIG_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Query:
    """One wire request: the ``/search`` parameters and its GET target."""

    pattern: str
    tau: float
    top_k: Optional[int] = None
    limit: Optional[int] = None

    @property
    def target(self) -> str:
        params: Dict[str, Any] = {"pattern": self.pattern, "tau": repr(self.tau)}
        if self.top_k is not None:
            params["top_k"] = self.top_k
        if self.limit is not None:
            params["limit"] = self.limit
        return "/search?" + urlencode(params)


@dataclass
class Served:
    """One set-up's result: the serving stack plus its set-up timings.

    ``engine`` is the engine the benchmark built or loaded, and ``service``
    and ``app`` serve it directly.  A traced run adds a second stack over
    the same engine (:meth:`add_traced`) whose layers take spans.
    """

    engine: Any
    service: Any
    app: SearchHttpApp
    timings: Dict[str, float]
    workdir: Optional[Path] = None
    traced_service: Any = None
    traced_app: Optional[SearchHttpApp] = None

    async def add_traced(self, spans: Any) -> None:
        """Start the span-taking stack: service, engine and index wrappers."""
        inner = spans.engine_proxy(spans.kernel_engine(self.engine))
        service = spans.service_proxy(AsyncSearchService(inner))
        await service.start()
        self.traced_service = service
        self.traced_app = SearchHttpApp(service)

    async def close(self) -> None:
        if self.traced_service is not None:
            await self.traced_service.stop()
        await self.service.stop()
        close = getattr(self.engine, "close", None)
        if callable(close):
            close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


class Workload:
    """Base: subclasses generate the input, build the engine and the traffic."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.generate()

    # Subclass hooks ------------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def build(self, timings: Dict[str, float], attempt: int) -> Tuple[Any, Optional[Path]]:
        """Build the engine to serve; returns it and the directory it uses, if any."""
        raise NotImplementedError

    def next_query(self) -> Query:
        raise NotImplementedError

    def oracle(self) -> BruteForceOracle:
        raise NotImplementedError

    # Shared ----------------------------------------------------------------------
    async def setup(self, attempt: int) -> Tuple[Served, Any]:
        """Generated input to first answer; returns the stack and that answer."""
        timings: Dict[str, float] = {}
        started = time.perf_counter()
        engine, workdir = self.build(timings, attempt)
        service_started = time.perf_counter()
        service = AsyncSearchService(engine)
        app = SearchHttpApp(service)
        await service.start()
        response = await app.dispatch("GET", self.first_query.target)
        response.encode()
        finished = time.perf_counter()
        timings["first_answer_s"] = finished - service_started
        timings["setup_s"] = finished - started
        served = Served(engine, service, app, timings, workdir)
        return served, response


class SubstringFanout(Workload):
    """Paper §5 / Fig 7: substring search over a 2-shard process-served index.

    One worker process serves both shards (``max_workers=1``): with one
    worker per shard, three busy processes shared the runner's two vCPUs
    and the figures followed the host's load rather than the program.
    """

    name = "substring-fanout"
    LENGTH = 8192
    THETA = 0.3
    TAU_MIN = 0.1
    ABSENT_SHARE = 0.2

    def generate(self) -> None:
        self.string = generate_uncertain_string(
            self.LENGTH, theta=self.THETA, seed=self.seed
        )
        self.text = self.string.most_likely_string()
        self.seen: set = set()
        self.first_query = Query(self.text[100:108], 0.2)
        self.seen.add((self.first_query.pattern, self.first_query.tau))

    def build(self, timings: Dict[str, float], attempt: int) -> Tuple[Any, Optional[Path]]:
        started = time.perf_counter()
        engine = build_sharded_index(
            self.string,
            shards=2,
            workers=2,
            max_workers=1,
            compact=True,
            query_executor="process",
            tau_min=self.TAU_MIN,
        )
        timings["build_s"] = time.perf_counter() - started
        return engine, None

    def next_query(self) -> Query:
        # Every (pattern, tau) pair is distinct, so neither the cache nor
        # the coalescer has anything to reuse.
        while True:
            length = self.rng.randint(5, 14)
            if self.rng.random() < self.ABSENT_SHARE:
                pattern = "".join(self.rng.choice(PROTEIN_SYMBOLS) for _ in range(length))
            else:
                start = self.rng.randrange(len(self.text) - length)
                pattern = self.text[start : start + length]
            tau = round(self.rng.uniform(0.1, 0.6), 6)
            if (pattern, tau) not in self.seen:
                self.seen.add((pattern, tau))
                return Query(pattern, tau)

    def oracle(self) -> BruteForceOracle:
        return BruteForceOracle(string=self.string)


class ListingHot(Workload):
    """Paper §6 / Fig 8: string listing with Zipf-skewed repeats on one engine."""

    name = "listing-hot"
    POSITIONS = 16384
    THETA = 0.4
    TAU_MIN = 0.1
    PATTERNS = 48
    TAUS = tuple(round(0.1 + 0.02 * step, 2) for step in range(21))
    TOP_K_SHARE = 0.2
    TOP_KS = (3, 10)
    ZIPF_S = 1.0

    def generate(self) -> None:
        self.collection = generate_collection(
            self.POSITIONS, theta=self.THETA, seed=self.seed
        )
        patterns = extract_collection_patterns(
            self.collection, (4, 5, 6, 7), per_length=self.PATTERNS // 4, seed=self.seed
        )
        keys: List[Query] = []
        for pattern in patterns:
            keys.extend(Query(pattern, tau) for tau in self.TAUS)
            keys.extend(Query(pattern, self.TAU_MIN, top_k=k) for k in self.TOP_KS)
        self.rng.shuffle(keys)
        self.plain = [key for key in keys if key.top_k is None]
        self.ranked = [key for key in keys if key.top_k is not None]
        self.plain_weights = self._zipf(len(self.plain))
        self.ranked_weights = self._zipf(len(self.ranked))
        self.first_query = self.plain[0]

    def _zipf(self, count: int) -> List[float]:
        """Cumulative Zipf weights over ``count`` ranks."""
        return list(itertools.accumulate(1.0 / (rank + 1) ** self.ZIPF_S for rank in range(count)))

    def build(self, timings: Dict[str, float], attempt: int) -> Tuple[Any, Optional[Path]]:
        started = time.perf_counter()
        engine = build_index(self.collection, tau_min=self.TAU_MIN)
        timings["build_s"] = time.perf_counter() - started
        return engine, None

    def next_query(self) -> Query:
        if self.rng.random() < self.TOP_K_SHARE:
            return self.rng.choices(self.ranked, cum_weights=self.ranked_weights)[0]
        return self.rng.choices(self.plain, cum_weights=self.plain_weights)[0]

    def oracle(self) -> BruteForceOracle:
        return BruteForceOracle(collection=self.collection)


class SpecialBulk(Workload):
    """Paper §4: special uncertain strings with large answers, served from mmap."""

    name = "special-bulk"
    LENGTH = 65536
    TOP_K_SHARE = 0.25
    TOP_KS = (10, 50)
    LIMIT = 200

    def generate(self) -> None:
        generator = np.random.default_rng(self.seed)
        text = "".join(generator.choice(list("ACGT"), size=self.LENGTH).tolist())
        confidence = generator.uniform(0.5, 1.0, size=self.LENGTH)
        self.string = SpecialUncertainString.from_characters_and_probabilities(
            text, confidence.tolist()
        )
        self.seen: set = set()
        self.first_query = Query("ACGT", 0.05, limit=self.LIMIT)
        self.seen.add((self.first_query.pattern, self.first_query.tau, None))

    def build(self, timings: Dict[str, float], attempt: int) -> Tuple[Any, Optional[Path]]:
        started = time.perf_counter()
        built = build_index(self.string)
        saved_at = time.perf_counter()
        workdir = self.workdir / f"special-{attempt}"
        workdir.mkdir(parents=True, exist_ok=True)
        path = built.save(workdir / "index")
        loaded_at = time.perf_counter()
        engine = load_index(path, mmap=True)
        finished = time.perf_counter()
        timings["build_s"] = saved_at - started
        timings["save_s"] = loaded_at - saved_at
        timings["load_s"] = finished - loaded_at
        return engine, workdir

    def next_query(self) -> Query:
        # Distinct (pattern, tau, top_k) keys at low tau: answers run to
        # hundreds or thousands of occurrences, paged by the wire limit.
        while True:
            length = self.rng.randint(3, 6)
            pattern = "".join(self.rng.choice("ACGT") for _ in range(length))
            tau = round(self.rng.uniform(0.01, 0.1), 6)
            top_k = None
            if self.rng.random() < self.TOP_K_SHARE:
                top_k = self.rng.choice(self.TOP_KS)
            key = (pattern, tau, top_k)
            if key not in self.seen:
                self.seen.add(key)
                return Query(pattern, tau, top_k=top_k, limit=self.LIMIT)

    def oracle(self) -> BruteForceOracle:
        return BruteForceOracle(string=self.string.to_uncertain_string())


WORKLOADS = {cls.name: cls for cls in (SubstringFanout, ListingHot, SpecialBulk)}
