"""A fixed task that measures how fast the CPU runs right now.

The runner's host changes speed by as much as three times within minutes,
and CPU time leaves steal out but not that.  The benchmark therefore
scales the CPU times it gates by this task's CPU time, taken in the same
run on the same CPU.  The task does work of the kinds a request does in
the serving stack (JSON encoding and decoding, sorting tuples, small numpy
calls) with the standard library and numpy only, so no change to the
program under test changes its time.
"""

from __future__ import annotations

import json
import time
from typing import List

import numpy as np

#: The task's CPU time per call, in ms, on the runner in a quiet spell;
#: scaled CPU times read as they would on a CPU that fast.
NOMINAL_MS = 0.3

#: Calls per sample, and samples taken at each point of a run.
CALLS = 20
SAMPLES = 8

_DOCUMENT = {
    "pattern": "ACGTAC",
    "tau": 0.05,
    "count": 200,
    "matches": [{"position": 7 * i + 3, "probability": 1.0 / (i + 3)} for i in range(200)],
}
_VALUES = np.random.default_rng(0).random(4096)


def _once() -> int:
    text = json.dumps(_DOCUMENT)
    back = json.loads(text)
    ranked = sorted((match["probability"], match["position"]) for match in back["matches"])
    total = np.cumsum(_VALUES)
    found = np.searchsorted(total, total[::64])
    return len(text) + len(ranked) + int(found[-1])


def samples_ms() -> List[float]:
    """``SAMPLES`` readings of the task's CPU time per call, in ms."""
    readings: List[float] = []
    for _ in range(SAMPLES):
        started = time.thread_time()
        for _ in range(CALLS):
            _once()
        readings.append((time.thread_time() - started) / CALLS * 1000.0)
    return readings
