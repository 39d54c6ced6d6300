"""Serving quickstart: an async coalescing service over a sharded, mmap-loaded index.

The production-shaped stack, bottom to top:

1. build a sharded index offline and save it (a directory of shard
   archives, each an uncompressed zip of the index payload's arrays);
2. load it back with ``mmap=True`` (zero-copy cold start — the arrays are
   memory-mapped straight out of the archives) and
   ``query_executor="process"`` (one persistent worker process per shard,
   each mapping the same archives, so the index exists once in physical
   memory no matter how many workers serve it);
3. front it with :class:`repro.serving.AsyncSearchService`, which
   coalesces concurrent ``submit`` calls into micro-batched
   ``search_many`` evaluations — duplicate requests across users share
   one evaluation, and admission control sheds load before the queue
   grows unbounded.

Run with::

    python examples/async_serving.py
"""

import asyncio
import random
import tempfile
from pathlib import Path

from repro import AsyncSearchService, SearchRequest, build_sharded_index, load_index

N_DOCUMENTS = 40
DOCUMENT_LENGTH = 30
N_CLIENTS = 300
SHARDS = 4


def make_collection(rng):
    """A small synthetic collection of uncertain DNA-ish documents."""
    alphabet = "ACGT"
    documents = []
    for _ in range(N_DOCUMENTS):
        positions = []
        for _ in range(DOCUMENT_LENGTH):
            if rng.random() < 0.3:  # uncertain position: two candidates
                first, second = rng.sample(alphabet, 2)
                p = rng.uniform(0.55, 0.9)
                positions.append({first: round(p, 3), second: round(1 - p, 3)})
            else:
                positions.append({rng.choice(alphabet): 1.0})
        documents.append(positions)
    from repro import UncertainString

    return [UncertainString(document) for document in documents]


async def serve(engine, requests):
    async with AsyncSearchService(engine, max_wait_ms=2.0, max_batch=128) as service:
        results = await asyncio.gather(
            *(service.submit(request) for request in requests)
        )
        return results, service.stats()


def main():
    rng = random.Random(42)
    collection = make_collection(rng)

    with tempfile.TemporaryDirectory() as scratch:
        # 1. Build offline, save, forget.
        built = build_sharded_index(collection, shards=SHARDS, tau_min=0.1)
        archive = built.save(Path(scratch) / "corpus")
        built.close()

        # 2. Cold-start the serving copy: memory-mapped shards behind
        #    per-shard worker processes.
        engine = load_index(archive, mmap=True, query_executor="process")
        print(f"serving {engine.shard_count} shards, kind={engine.kind!r}")

        # 3. A storm of concurrent clients asking popular patterns.
        patterns = ["AC", "ACG", "GT", "TTA", "CA"]
        requests = [
            SearchRequest(rng.choice(patterns), tau=rng.choice([0.1, 0.2, 0.4]))
            for _ in range(N_CLIENTS)
        ]
        results, stats = asyncio.run(serve(engine, requests))
        engine.close()

    answered = sum(result.count for result in results)
    print(f"{stats['submitted']} requests answered with {answered} total matches")
    print(
        f"coalesced into {stats['batches']} batches "
        f"(mean size {stats['mean_batch_size']:.1f}); "
        f"{stats['deduplicated']} duplicates shared an evaluation"
    )
    print(
        f"latency: mean {stats['latency']['mean_ms']:.2f}ms, "
        f"max {stats['latency']['max_ms']:.2f}ms"
    )


if __name__ == "__main__":
    main()
