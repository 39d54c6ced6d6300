#!/usr/bin/env python3
"""Serving-stack benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload listing-hot --seed 1 --seconds 25 --trace 0

The workloads are defined in ``perfbench/workloads.py``, their open-loop
rates and layer predictions in ``perfbench/workloads.json``; the gated
workloads, the reasons they were chosen, the metrics and their units in
``BENCHMARK.json``.  ``--trace 0`` prints the end-to-end metrics, and
the wall-clock latency and throughput as ungated lines; ``--trace 1``
prints the per-layer metrics (and writes the spans to
``.perfbench/spans/``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer
or a leaked process, fd or shared-memory block makes ``correct`` false
and the exit code 1.

The run itself happens in a child interpreter (``PYTHONHASHSEED`` pinned,
its own session) so that no state of another run can leak in, and so
that this parent can check from outside that the run's process tree is
gone when it ends.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(traced: bool) -> Dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if traced else "end_to_end"]
    }


def source_stamp() -> Dict[str, str]:
    """The commit when the checkout is a git repository, and a source digest."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    stamp = {"source_sha256": digest.hexdigest()}
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        stamp["commit"] = commit
    except (OSError, subprocess.SubprocessError):
        stamp["commit"] = "unknown (not a git checkout)"
    return stamp


def child_main(args: argparse.Namespace) -> int:
    """Runs in the pinned child interpreter; prints the raw result as JSON."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import numpy
    from measure import run

    result = asyncio.run(run(args.workload, args.seed, args.seconds, bool(args.trace), OUT))
    result["environment"] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    print(json.dumps(result))
    return 0


def supervise(args: argparse.Namespace) -> int:
    from checks import session_processes, shm_blocks

    with (HERE / "workloads.json").open(encoding="utf-8") as handle:
        known = json.load(handle)
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    shm_before = shm_blocks()
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"error: the run did not finish within {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return 1
    # The run's whole process tree shares the child's session; anything
    # still alive a moment after the child exited was leaked by it.
    deadline = time.monotonic() + 5.0
    while session_processes(child.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = session_processes(child.pid)
    if leaked:
        os.killpg(child.pid, signal.SIGKILL)
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: the run exited with code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    leaks: List[str] = list(result["report"]["leaks"])
    if leaked:
        leaks.append(f"processes alive after the run: {leaked}")
    stray = sorted(shm_blocks() - shm_before)
    if stray:
        leaks.append(f"/dev/shm blocks left after the run: {stray}")
    values: Dict[str, float] = result["values"]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    correct = bool(result["correct"]) and not leaks
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**result["environment"], **source_stamp()},
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "report": {**result["report"], "leaks": leaks},
        "correct": correct,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, value in record["environment"].items():
        print(f"# {key}: {value}")
    for problem in result["report"]["wrong"] + leaks:
        print(f"# FAIL {problem}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    for name, (value, unit) in result["report"].get("ungated", {}).items():
        print(f"{name + ' (not gated)':40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.child:
        return child_main(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
