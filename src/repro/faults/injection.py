"""Deterministic, seeded fault injection for the serving stack.

Every resilience claim this package makes — deadlines hold, dead worker
pools recover, degraded answers enumerate their failed shards — is only a
claim until something actually fails on demand.  This module provides the
"on demand": the hot paths of the engine and serving layers each carry one
**named injection site** (:data:`SITES`), a no-op unless a
:class:`FaultPlan` has been installed for the current process, and a plan
schedules crashes, delays and taxonomy errors against those sites with a
seeded RNG so every run of a chaos test replays the same failures.

Sites (each fired by exactly one call point):

==========================  =====================================================
site                        fired at
==========================  =====================================================
``worker-dispatch``         per shard, in shard order, before the sharded engine
                            dispatches a window (thread or process fan-out)
``archive-load``            entry of ``load_index_payload`` — every archive open,
                            parent or (fork-inherited) worker side
``replica-call``            before a :class:`~repro.serving.ReplicaSet` replica
                            evaluates a batch
``cache-access``            entry of :meth:`~repro.api.cache.ResultCache.get`
``batch-flush``             when the :class:`~repro.serving.AsyncSearchService`
                            closes a micro-batch window, before evaluation
==========================  =====================================================

Zero overhead when disabled: the module-level :func:`fire` returns
immediately while no injector is installed (one global load and an ``is
None`` test), so production paths pay nothing for being injectable.

Determinism: trigger decisions come from one ``random.Random(seed)`` plus
per-site call ordinals, both owned by the installed
:class:`FaultInjector` and updated under a lock — the call *sites* are
sequential on their dispatch paths (the sharded engine fires per shard in
shard order before submitting), so a fixed plan against a fixed workload
fires at the same ordinals every run.  Plans are per-process state: a
worker process forked *after* a plan was installed inherits it (the
default ``fork`` start method copies the module global), which is how a
spec can target ``archive-load`` inside a worker; processes spawned fresh
start clean.

Fault kinds:

* ``"error"`` — raise a taxonomy class (:class:`InjectedFaultError` by
  default; any :class:`~repro.exceptions.ReproError` subclass by name).
* ``"delay"`` — ``time.sleep(delay_s)`` at the site; the tool for
  deadline tests (a delay at ``batch-flush`` blocks the event loop, which
  is exactly the hang a deadline must bound).
* ``"crash"`` — invoke the *crash hook* the site provides (the sharded
  engine's worker-dispatch site hands one that SIGKILLs the shard's
  worker process, producing a real ``BrokenProcessPool``); sites without
  a hook degrade to the ``"error"`` behaviour.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type

from .. import exceptions
from ..exceptions import InjectedFaultError, ReproError, ValidationError
from ..obs.metrics import MetricSample, MetricsRegistry

#: Shard window dispatch (one firing per shard, in shard order).
SITE_WORKER_DISPATCH = "worker-dispatch"
#: Archive open in :func:`repro.api.persistence.load_index_payload`.
SITE_ARCHIVE_LOAD = "archive-load"
#: Replica batch evaluation in :class:`repro.serving.ReplicaSet`.
SITE_REPLICA_CALL = "replica-call"
#: Result-cache lookup in :meth:`repro.api.cache.ResultCache.get`.
SITE_CACHE_ACCESS = "cache-access"
#: Micro-batch window close in :class:`repro.serving.AsyncSearchService`.
SITE_BATCH_FLUSH = "batch-flush"

#: Every named injection site a :class:`FaultSpec` may target.
SITES = frozenset(
    {
        SITE_WORKER_DISPATCH,
        SITE_ARCHIVE_LOAD,
        SITE_REPLICA_CALL,
        SITE_CACHE_ACCESS,
        SITE_BATCH_FLUSH,
    }
)

#: Fault kinds a spec may schedule.
KINDS = ("error", "delay", "crash")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault against one site.

    Attributes
    ----------
    site:
        The injection site (one of :data:`SITES`).
    kind:
        ``"error"``, ``"delay"`` or ``"crash"`` (see module docstring).
    probability:
        Per-call trigger probability, drawn from the plan's seeded RNG.
        Defaults to ``1.0`` (every call triggers until ``times`` runs
        out).  Ignored when ``at`` is set.
    at:
        Optional 0-based call ordinal: trigger exactly on the ``at``-th
        firing of the site in this process, deterministically, instead of
        rolling ``probability``.
    times:
        Maximum number of triggers before the spec goes dormant — how a
        fault is "retried away" (a spec with ``times=1`` fails the first
        attempt and lets the retry succeed).
    error:
        Name of the taxonomy class to raise for ``"error"`` faults (and
        for ``"crash"`` faults at sites without a crash hook), resolved
        against :mod:`repro.exceptions`; must subclass
        :class:`~repro.exceptions.ReproError`.
    message:
        Optional extra text appended to the raised error.
    delay_s:
        Sleep duration for ``"delay"`` faults, in seconds.
    """

    site: str
    kind: str = "error"
    probability: float = 1.0
    at: Optional[int] = None
    times: int = 1
    error: str = "InjectedFaultError"
    message: str = ""
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValidationError(
                f"unknown fault site {self.site!r}; expected one of {sorted(SITES)}"
            )
        if self.kind not in KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"probability must be within [0, 1], got {self.probability}"
            )
        if self.at is not None and self.at < 0:
            raise ValidationError(f"at must be a non-negative ordinal, got {self.at}")
        if self.times < 1:
            raise ValidationError(f"times must be >= 1, got {self.times}")
        if self.delay_s < 0:
            raise ValidationError(f"delay_s must be >= 0, got {self.delay_s}")
        self.resolve_error()  # validate eagerly, not at fire time

    def resolve_error(self) -> Type[ReproError]:
        """The taxonomy class :attr:`error` names (validated at construction)."""
        resolved = getattr(exceptions, self.error, None)
        if not (isinstance(resolved, type) and issubclass(resolved, ReproError)):
            raise ValidationError(
                f"error {self.error!r} is not a ReproError subclass in "
                "repro.exceptions"
            )
        return resolved


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` entries.

    The plan is pure data (JSON-friendly: sites, kinds and error classes
    are strings) — :func:`inject_faults` turns it into the live, stateful
    :class:`FaultInjector` for the duration of a ``with`` block.  The
    same plan over the same workload replays the same faults.
    """

    specs: Tuple[FaultSpec, ...] = field(default=())
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable of specs; store the canonical tuple.
        object.__setattr__(self, "specs", tuple(self.specs))


class _SpecState:
    """Mutable trigger bookkeeping for one spec (guarded by the injector)."""

    __slots__ = ("spec", "remaining", "fired")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = spec.times
        self.fired = 0


class FaultInjector:
    """The live state behind an installed :class:`FaultPlan`.

    Tracks per-site call ordinals, per-spec remaining trigger budgets and
    the seeded RNG.  Callers never construct one directly — use
    :func:`inject_faults` — but tests read :meth:`stats` off the value the
    context manager yields to assert the plan actually fired.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        # Re-entrant: labeled counter updates happen while the trigger
        # decision already holds the lock (the registry shares it).
        self._state_lock = threading.RLock()
        self._rng = random.Random(plan.seed)  # guarded-by: _state_lock
        self._metrics = MetricsRegistry(lock=self._state_lock)
        self._calls = {
            site: self._metrics.counter("fault_calls_total", site=site)
            for site in SITES
        }
        self._fired = {
            site: self._metrics.counter("fault_fired_total", site=site)
            for site in SITES
        }
        self._states: Dict[str, List[_SpecState]] = {}  # guarded-by: _state_lock
        for spec in plan.specs:
            self._states.setdefault(spec.site, []).append(_SpecState(spec))

    @property
    def plan(self) -> FaultPlan:
        """The plan this injector executes."""
        return self._plan

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site call and trigger counts (for chaos-test assertions).

        The legacy view over the labeled ``fault_calls_total`` /
        ``fault_fired_total`` counters: zero-count sites are filtered, and
        the whole dict is one snapshot under the injector lock.
        """
        with self._state_lock:
            calls = {
                site: counter.value
                for site, counter in self._calls.items()
                if counter.value
            }
            fired = {
                site: counter.value
                for site, counter in self._fired.items()
                if counter.value
            }
            return {"calls": calls, "fired": fired}

    def metrics_samples(self) -> List[MetricSample]:
        """Labeled per-site counters for ``/metrics`` exposition."""
        return self._metrics.collect()

    def _triggered(self, site: str) -> Tuple[FaultSpec, ...]:
        """Decide (under the lock) which specs trigger on this call."""
        with self._state_lock:
            ordinal = self._calls[site].value
            self._calls[site].inc()
            triggered = []
            for state in self._states.get(site, ()):
                if state.remaining <= 0:
                    continue
                spec = state.spec
                if spec.at is not None:
                    hit = ordinal == spec.at
                else:
                    hit = self._rng.random() < spec.probability
                if hit:
                    state.remaining -= 1
                    state.fired += 1
                    self._fired[site].inc()
                    triggered.append(spec)
            return tuple(triggered)

    def fire(self, site: str, *, crash: Optional[Callable[[], None]] = None) -> None:
        """Apply every triggered fault at ``site`` (see module docstring).

        Actions run outside the lock (a delay must not serialize other
        sites).  When several specs trigger on one call, delays and
        crashes apply first and the first error-raising spec raises.
        """
        if site not in SITES:
            raise ValidationError(
                f"unknown fault site {site!r}; expected one of {sorted(SITES)}"
            )
        errors = []
        for spec in self._triggered(site):
            if spec.kind == "delay":
                time.sleep(spec.delay_s)
            elif spec.kind == "crash" and crash is not None:
                crash()
            else:
                errors.append(spec)
        for spec in errors:
            suffix = f": {spec.message}" if spec.message else ""
            # The class is validated (at spec construction) to be a
            # ReproError subclass, so this stays inside the taxonomy even
            # though the name is dynamic.
            error_class = spec.resolve_error()
            raise error_class(  # repro-check: allow(exception-taxonomy)
                f"injected {spec.kind} fault at site {site!r}{suffix}"
            )


#: The process-wide installed injector (``None`` while injection is off —
#: the fast path of :func:`fire`).
_INJECTOR: Optional[FaultInjector] = None  # guarded-by: _INSTALL_LOCK
_INSTALL_LOCK = threading.Lock()


def active_injector() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None``."""
    return _INJECTOR


def fire(site: str, *, crash: Optional[Callable[[], None]] = None) -> None:
    """Fire an injection site: a no-op unless a plan is installed.

    This is the only call the instrumented hot paths make.  ``crash`` is
    the site's optional crash hook — e.g. "SIGKILL the worker process this
    dispatch is about to use" — invoked only when a ``"crash"`` spec
    triggers.
    """
    injector = _INJECTOR
    if injector is None:
        return
    injector.fire(site, crash=crash)


@contextlib.contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Install ``plan`` for the current process for the ``with`` block.

    Yields the live :class:`FaultInjector` (whose :meth:`~FaultInjector.stats`
    chaos tests assert against) and uninstalls it on exit, even when the
    block raises.  Nesting is refused — two active plans would make the
    trigger ordinals meaningless.
    """
    global _INJECTOR
    injector = FaultInjector(plan)
    with _INSTALL_LOCK:
        if _INJECTOR is not None:
            raise ValidationError(
                "a fault plan is already installed; nesting inject_faults() "
                "would make trigger ordinals ambiguous"
            )
        _INJECTOR = injector
    try:
        yield injector
    finally:
        with _INSTALL_LOCK:
            _INJECTOR = None
