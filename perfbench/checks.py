"""Correctness against the possible-worlds oracle, and leak accounting.

Answers are compared with :class:`repro.BruteForceOracle`: the count, the
returned page (positions or documents, values to 1e-9 relative) and, for
``top_k``, the ranking.  Index and oracle compute values along different
float paths, so a match whose value lies within 1e-9 of ``tau`` may fall
on either side of it; only such boundary matches may differ.

Leaks are read from the operating system's views rather than from the
program's own bookkeeping: child processes and open descriptors from
``/proc``, shared-memory blocks from ``/dev/shm``.
"""

from __future__ import annotations

import gc
import math
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

REL = 1e-9


def _value(match: Dict[str, Any]) -> float:
    return float(match["probability"] if "probability" in match else match["relevance"])


def _ident(match: Any) -> int:
    if isinstance(match, dict):
        return int(match["position"] if "position" in match else match["document"])
    return int(match.position if hasattr(match, "position") else match.document)


def _oracle_value(match: Any) -> float:
    return float(match.probability if hasattr(match, "probability") else match.relevance)


def _close(left: float, right: float) -> bool:
    return math.isclose(left, right, rel_tol=REL, abs_tol=1e-12)


def _near_tau(value: float, tau: float) -> bool:
    return abs(value - tau) <= REL * max(tau, 1e-12)


def check_answer(oracle: Any, listing: bool, query: Any, payload: Dict[str, Any]) -> Optional[str]:
    """``None`` when ``payload`` answers ``query`` correctly, else the reason."""
    tau = query.tau
    if listing:
        loose = oracle.listing_matches(query.pattern, tau * (1 - REL))
    else:
        loose = oracle.substring_occurrences(query.pattern, tau * (1 - REL))
    truth = {_ident(match): _oracle_value(match) for match in loose}
    certain = sorted(ident for ident, value in truth.items() if not _near_tau(value, tau))
    boundary = len(truth) - len(certain)
    page = payload.get("matches", [])
    count = payload.get("count", -1)
    for match in page:
        expected = truth.get(_ident(match))
        if expected is None or not _close(expected, _value(match)):
            return f"match {match} is not in the oracle's answer"
    if query.top_k is None:
        wanted = certain
    else:
        ranked = sorted(certain, key=lambda ident: (-truth[ident], ident))
        wanted = ranked[: query.top_k]
    if boundary:
        # A match within 1e-9 of tau may land on either side of it.
        if not len(wanted) <= count <= len(wanted) + boundary:
            return f"count {count}, oracle {len(wanted)} (+{boundary} at tau)"
        return None
    if count != len(wanted):
        return f"count {count}, oracle {len(wanted)}"
    shown = wanted if query.limit is None else wanted[: query.limit]
    if len(page) != len(shown):
        return f"page holds {len(page)} matches, oracle {len(shown)}"
    if query.top_k is None:
        if [_ident(match) for match in page] != shown:
            return "page differs from the oracle's first matches"
        return None
    # Ranked answers: rank by rank the values agree, so tied matches
    # (equal values, reported in either order) still pass.
    for rank, match in enumerate(page):
        if not _close(_value(match), truth[shown[rank]]):
            return f"rank {rank} holds {match}, oracle {shown[rank]} ({truth[shown[rank]]})"
    return None


# -- leaks ---------------------------------------------------------------------------

SHM = Path("/dev/shm")


def child_pids(pid: int) -> Set[int]:
    """Direct children of ``pid``, from ``/proc/<pid>/task/*/children``."""
    children: Set[int] = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.update(int(token) for token in text.split())
    return children


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def shm_blocks() -> Set[str]:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def snapshot() -> Tuple[Set[int], int, Set[str]]:
    """``(children, open fds, shm blocks)`` of this process, as the OS sees them."""
    return child_pids(os.getpid()), open_fds(), shm_blocks()


def leaks(before: Tuple[Set[int], int, Set[str]], settle_s: float = 2.0) -> List[str]:
    """What ``snapshot()`` still shows beyond ``before`` after ``settle_s``.

    An executor thread can hold the last reference to a torn-down stack
    for a moment after its answer was delivered, so the check collects
    garbage and looks again until nothing is left or the time is up.
    """
    deadline = time.monotonic() + settle_s
    while True:
        gc.collect()
        found = _beyond(before)
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.05)


def _beyond(before: Tuple[Set[int], int, Set[str]]) -> List[str]:
    children, fds, blocks = snapshot()
    found = []
    extra = children - before[0]
    if extra:
        found.append(f"child processes left running: {sorted(extra)}")
    if fds > before[1]:
        found.append(f"open fds {fds}, {before[1]} before the run")
    extra_blocks = blocks - before[2]
    if extra_blocks:
        found.append(f"/dev/shm blocks left behind: {sorted(extra_blocks)}")
    return found


def session_processes(session: int) -> List[int]:
    """Live processes of session ``session`` (a run's whole process tree)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds of the live process ``pid``; 0 when gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def status_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` size field (e.g. ``VmHWM``) in KiB; 0 when gone."""
    return _field_kb(Path(f"/proc/{pid}/status"), field)


def pss_kb(pid: int) -> int:
    """Proportional set size of ``pid`` in KiB; 0 when gone."""
    return _field_kb(Path(f"/proc/{pid}/smaps_rollup"), "Pss")


def _field_kb(path: Path, field: str) -> int:
    try:
        for line in path.read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0
