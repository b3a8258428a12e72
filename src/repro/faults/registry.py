"""The fault registry: named injection points + armed fault rules.

Deterministic chaos testing needs two properties the usual monkeypatch
approach cannot give:

* **coverage** — the places where the real system fails (storage writes,
  WAL append/fsync, checkpoint serialization, refresh execution, pool
  worker tasks, commit) carry *named* injection points compiled into the
  engine, so a fault schedule can target any of them without knowing the
  call graph;
* **replayability** — activation is schedule-driven
  (:mod:`repro.faults.schedule`): nth-hit counters, seeded probability
  streams, and simulated-clock windows, so the same seed arms the same
  rules and a chaos run replays exactly.

The process-wide registry is reached through :func:`inject`, which the
injection sites call unconditionally. The no-rules fast path is one
attribute load and a dict-emptiness test — the benchmark
(``benchmarks/bench_t15_fault_recovery.py``) gates the armed-but-idle
overhead of the threaded points at under 5%.

Thread safety: rules fire from scheduler coordinator workers
concurrently; per-rule hit counters mutate under the registry mutex.
Note that under real thread parallelism the *order* in which concurrent
hits reach a point is scheduling-dependent — an nth-hit rule
deterministically fires on the nth arrival, whichever task that is. The
convergence property the chaos test asserts holds for any arrival order;
runs that must replay victim-exactly run serially.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.errors import InjectedFault
from repro.faults.schedule import Schedule

#: The injection points threaded into the engine. Purely documentary —
#: arming an unknown point is allowed (it just never fires) — but tests
#: assert the threaded set against this list.
KNOWN_POINTS = (
    "storage.apply",       # VersionedTable.apply: installing a version
    "wal.append",          # WriteAheadLog.append: before the frame write
    "wal.torn",            # between frame header and body (leaves a torn tail)
    "wal.fsync",           # before os.fsync (escalates to degraded mode)
    "checkpoint.write",    # checkpoint serialization/installation
    "refresh.execute",     # RefreshEngine, before an attempt begins
    "worker.task",         # WorkerPool task startup (DAG-parallel refresh)
    "txn.commit",          # Transaction.commit, before validation
)


class FaultRule:
    """One armed fault: a point, an activation schedule, and the error
    to raise. ``times`` bounds how often it fires (None = unlimited);
    ``match`` filters by the injection site's detail dict (e.g. only
    commits that write a particular table)."""

    def __init__(self, point: str, schedule: Schedule,
                 error: Optional[Callable[[], BaseException]] = None,
                 times: Optional[int] = 1,
                 match: Optional[Callable[[dict], bool]] = None,
                 description: str = ""):
        self.point = point
        self.schedule = schedule
        self.error = error
        self.times = times
        self.match = match
        self.description = description or f"{point}:{schedule!r}"
        #: Total times the point was hit while this rule was armed.
        self.hits = 0
        #: Hits that passed the ``match`` filter (what schedules count).
        self.matched = 0
        #: Times this rule actually raised.
        self.fired = 0

    def consider(self, detail: dict,
                 now: Optional[int]) -> Optional[BaseException]:
        """Decide whether this hit fires. Called under the registry
        mutex, so the counters are exact even across threads."""
        self.hits += 1
        if self.times is not None and self.fired >= self.times:
            return None
        if self.match is not None and not self.match(detail):
            return None
        self.matched += 1
        if not self.schedule.fires(self.matched, detail, now):
            return None
        self.fired += 1
        if self.error is not None:
            return self.error()
        return InjectedFault(
            f"injected fault at {self.point} ({self.description})",
            point=self.point)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultRule({self.point!r}, {self.schedule!r}, "
                f"fired={self.fired}/{self.times})")


class FaultRegistry:
    """All armed fault rules, keyed by injection point."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._rules: dict[str, list[FaultRule]] = {}
        #: Hit counts per point, maintained only while tracing (so the
        #: common path of a point with no rules stays allocation-free).
        self._trace_hits: dict[str, int] = {}
        self._tracing = False
        #: (point, description) per fired fault, in firing order.
        self.fired_log: list[tuple[str, str]] = []
        #: Simulated-clock reader for window schedules (None = window
        #: schedules never fire). Tests bind ``db.clock.now`` here.
        self.clock: Optional[Callable[[], int]] = None

    # -- arming ------------------------------------------------------------------

    def arm(self, point: str, schedule: Schedule,
            error: Optional[Callable[[], BaseException]] = None,
            times: Optional[int] = 1,
            match: Optional[Callable[[dict], bool]] = None,
            description: str = "") -> FaultRule:
        rule = FaultRule(point, schedule, error, times, match, description)
        with self._mutex:
            self._rules.setdefault(point, []).append(rule)
        return rule

    def disarm(self, rule: FaultRule) -> None:
        with self._mutex:
            rules = self._rules.get(rule.point)
            if rules is None:
                return
            try:
                rules.remove(rule)
            except ValueError:
                return
            if not rules:
                del self._rules[rule.point]

    def clear(self) -> None:
        """Disarm everything and drop all counters/logs — what a chaos
        run does between the fault phase and the convergence phase."""
        with self._mutex:
            self._rules.clear()
            self._trace_hits.clear()
            self.fired_log.clear()

    @property
    def armed(self) -> bool:
        return bool(self._rules)

    # -- tracing -----------------------------------------------------------------

    def trace(self, enabled: bool = True) -> None:
        """Count hits on *every* point (not just armed ones) — used by
        the coverage test to prove each KNOWN_POINTS entry is threaded.
        Off by default: tracing takes the mutex on every hit."""
        with self._mutex:
            self._tracing = enabled
            if not enabled:
                self._trace_hits.clear()

    def hit_counts(self) -> dict[str, int]:
        with self._mutex:
            return dict(self._trace_hits)

    # -- the hot path ------------------------------------------------------------

    def hit(self, point: str, detail: dict) -> None:
        """Evaluate one arrival at an injection point. Raises the first
        rule-produced error, if any."""
        # Unlocked probe: dict reads are atomic in CPython, and a rule
        # armed concurrently with this hit may legitimately miss it.
        if not self._tracing and point not in self._rules:
            return
        error: Optional[BaseException] = None
        with self._mutex:
            if self._tracing:
                self._trace_hits[point] = self._trace_hits.get(point, 0) + 1
            now = self.clock() if self.clock is not None else None
            for rule in self._rules.get(point, ()):
                error = rule.consider(detail, now)
                if error is not None:
                    self.fired_log.append((point, rule.description))
                    break
        if error is not None:
            raise error


#: The process-wide registry every injection site consults.
_REGISTRY = FaultRegistry()


def registry() -> FaultRegistry:
    return _REGISTRY


def inject(point: str, **detail) -> None:
    """The injection point: a no-op unless a rule (or tracing) is armed.

    This is the line threaded into the engine's failure-prone sites; it
    must stay cheap enough to leave compiled in permanently (see the
    idle-overhead gate in ``BENCH_faults.json``).
    """
    reg = _REGISTRY
    if reg._rules or reg._tracing:
        reg.hit(point, detail)
